"""Core data structures for alignment-based compression.

A Pattern is a flat sequence of symbol texts.  Stored patterns may carry
an identification span at the front and a closing span at the back; the
symbols between the two spans are the pattern's contents.  A
MultipleAlignment relates one analysed pattern (row 0) to stored
patterns (rows 1 and up) through a totally ordered run of columns, where
each column groups at least two cells that carry the same text.

Symbol costs follow a smoothed frequency model: each distinct text is
priced at log2(F / total) bits, where total is the text's occurrence
count plus one and F is the sum of all totals.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Sequence

NEW_SEPARATOR = "<+>"

_MIN_COST_BITS = 2.0 ** -10


def require_at_least(minimum: int, **values: int) -> None:
    for name, value in values.items():
        if value < minimum:
            raise ValueError(f"{name} must be at least {minimum}, got {value}")


class Span(Enum):
    """Region of a pattern that a position falls into."""

    ID = "id"
    CONTENTS = "contents"
    CLOSE = "close"


@dataclass(frozen=True)
class Pattern:
    """Immutable symbol sequence with optional id and close spans.

    ``serial`` is the pattern's index inside its grammar, or -1 for
    patterns that do not belong to a grammar (analysed input, scratch
    patterns built during learning).
    """

    symbols: tuple[str, ...]
    frequency: int = 1
    id_len: int = 0
    close_len: int = 0
    serial: int = -1

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("a pattern needs at least one symbol")
        if self.frequency < 1:
            raise ValueError("pattern frequency must be at least 1")
        if self.id_len < 0 or self.close_len < 0:
            raise ValueError("span lengths cannot be negative")
        if self.id_len + self.close_len > len(self.symbols):
            raise ValueError("id and close spans overlap")

    def __len__(self) -> int:
        return len(self.symbols)

    def span_of(self, pos: int) -> Span:
        if not 0 <= pos < len(self.symbols):
            raise IndexError(f"position {pos} outside pattern")
        if pos < self.id_len:
            return Span.ID
        if pos >= len(self.symbols) - self.close_len:
            return Span.CLOSE
        return Span.CONTENTS

    @property
    def id_symbols(self) -> tuple[str, ...]:
        return self.symbols[: self.id_len]

    @property
    def contents(self) -> tuple[str, ...]:
        return self.symbols[self.id_len : len(self.symbols) - self.close_len]

    @property
    def close_symbols(self) -> tuple[str, ...]:
        if self.close_len == 0:
            return ()
        return self.symbols[-self.close_len :]

    def raw_cost(self, table: "SymbolTable") -> float:
        return sum(table.cost(s) for s in self.symbols)


def new_pattern(symbols: Iterable[str]) -> Pattern:
    """Build an analysed pattern: plain contents, no id or close span."""
    return Pattern(tuple(symbols))


def combine_new(patterns: Sequence[Pattern]) -> Pattern:
    """Join several analysed patterns into a single row 0.

    The reserved separator keeps the parts from matching across their
    shared boundary; it is excluded from encodings and never appears in
    a valid grammar.
    """
    if not patterns:
        raise ValueError("nothing to combine")
    if len(patterns) == 1:
        return patterns[0]
    joined: list[str] = []
    for i, p in enumerate(patterns):
        if i:
            joined.append(NEW_SEPARATOR)
        joined.extend(p.symbols)
    return Pattern(tuple(joined))


@dataclass(frozen=True)
class SymbolTable:
    """Smoothed occurrence counts with log-loss symbol costs."""

    totals: Mapping[str, int]
    mass: int

    @classmethod
    def from_patterns(cls, patterns: Iterable[Pattern]) -> "SymbolTable":
        counts: dict[str, int] = {}
        for p in patterns:
            for s in p.symbols:
                counts[s] = counts.get(s, 0) + p.frequency
        totals = {s: n + 1 for s, n in counts.items()}
        mass = max(2, sum(totals.values()))
        return cls(totals, mass)

    def total(self, text: str) -> int:
        return self.totals.get(text, 1)

    def cost(self, text: str) -> float:
        """Price of one occurrence in bits; unseen texts pay the most.

        The floor keeps degenerate single-symbol tables from producing
        zero-cost symbols, which would erase every score difference
        downstream.
        """
        return max(_MIN_COST_BITS, math.log2(self.mass / self.total(text)))


@dataclass(frozen=True)
class Grammar:
    patterns: tuple[Pattern, ...] = ()

    @classmethod
    def of(cls, patterns: Iterable[Pattern]) -> "Grammar":
        rows = tuple(replace(p, serial=i) for i, p in enumerate(patterns))
        return cls(rows)

    @cached_property
    def table(self) -> SymbolTable:
        return SymbolTable.from_patterns(self.patterns)

    @cached_property
    def postings(self) -> dict[str, tuple[int, ...]]:
        """Inverted index: symbol text -> indices of the patterns holding it.

        Indices are in grammar order.  Built on first use, never at load.
        """
        found: dict[str, list[int]] = {}
        for k, p in enumerate(self.patterns):
            for s in dict.fromkeys(p.symbols):
                found.setdefault(s, []).append(k)
        return {s: tuple(ks) for s, ks in found.items()}

    @cached_property
    def fingerprint(self) -> str:
        """Stable text key of the patterns, for match indexes and audit runs."""
        return "\x1f".join(
            f"{p.frequency}|{p.id_len}|{p.close_len}|{' '.join(p.symbols)}"
            for p in self.patterns
        )


def validate_grammar(
    grammar: Grammar, labels: Sequence[str] | None = None
) -> list[str]:
    """Return a list of problems; an empty list means the grammar is usable.

    ``labels`` substitutes display names for the default "pattern N",
    letting file-based callers report source line numbers instead.
    """
    if labels is None:
        labels = [f"pattern {i}" for i in range(len(grammar.patterns))]
    issues: list[str] = []
    seen: dict[tuple[str, ...], int] = {}
    for i, p in enumerate(grammar.patterns):
        for s in p.symbols:
            if s == "|":
                issues.append(f"{labels[i]}: bare '|' is reserved for spans")
            if s == NEW_SEPARATOR:
                issues.append(f"{labels[i]}: {NEW_SEPARATOR} is reserved for input")
        if not p.contents:
            issues.append(f"{labels[i]}: no contents between id and close spans")
        if p.symbols in seen:
            issues.append(f"{labels[i]}: duplicates {labels[seen[p.symbols]]}")
        else:
            seen[p.symbols] = i
    return issues


class AlignmentError(ValueError):
    pass


@dataclass(frozen=True)
class Column:
    """A group of cells, one per row at most, all carrying the same text.

    Members are (row, position) pairs sorted by row.
    """

    members: tuple[tuple[int, int], ...]


# the engine builds many alignments and each caches one Slot per cell;
# __slots__ keeps an instance to its eight fields
@dataclass(frozen=True, slots=True)
class Slot:
    """One place in the linear reading of an alignment.

    Both kinds have one shape: ``cells`` holds a column's (row, position)
    members, or the one unmatched cell, and ``serials`` the pattern serial
    of each cell's row, which is all the placement rule
    (``matcher.place``) reads.  Matched columns occupy fixed places.
    Unmatched cells float between the last column of their row before
    them (``lo``, -1 when absent) and the next one after (``hi``, the
    column count when absent); the linear reading pins each one to a
    definite gap, but matching may use the whole interval.
    """

    kind: str  # "col" or "cell"
    text: str
    column: int | None = None
    cells: tuple[tuple[int, int], ...] = ()
    serials: tuple[int, ...] = ()
    lo: int = -1
    hi: int = 0
    span: Span | None = None


@dataclass(frozen=True)
class MultipleAlignment:
    rows: tuple[Pattern, ...]
    columns: tuple[Column, ...] = ()

    def text_of(self, column: Column) -> str:
        r, p = column.members[0]
        return self.rows[r].symbols[p]

    def validate(self) -> None:
        if not self.rows:
            raise AlignmentError("alignment needs at least one row")
        seen: set[tuple[int, int]] = set()
        last_pos: dict[int, int] = {}
        for col in self.columns:
            if len(col.members) < 2:
                raise AlignmentError("column needs at least two members")
            if list(col.members) != sorted(col.members):
                raise AlignmentError("column members must be sorted by row")
            text = None
            rows_here: set[int] = set()
            for r, p in col.members:
                if not 0 <= r < len(self.rows):
                    raise AlignmentError(f"row {r} out of range")
                if not 0 <= p < len(self.rows[r].symbols):
                    raise AlignmentError(f"position {p} outside row {r}")
                if r in rows_here:
                    raise AlignmentError("column holds two cells of one row")
                rows_here.add(r)
                if (r, p) in seen:
                    raise AlignmentError("cell appears in two columns")
                seen.add((r, p))
                t = self.rows[r].symbols[p]
                if text is None:
                    text = t
                elif t != text:
                    raise AlignmentError(f"column mixes texts {text!r} and {t!r}")
                if p <= last_pos.get(r, -1):
                    raise AlignmentError("columns cross")
                last_pos[r] = p

    def _reading(self) -> list[int | tuple[int, list[int], int, int]]:
        """Column indices and unmatched runs ``(row, positions, lo, hi)`` in slot order.

        This is the one slot-order rule; ``slots`` and ``encoding_cells``
        both read it.  Columns appear in column order.  Within a gap,
        runs that hang off a column on their left come first in
        descending row order, then runs that lead up to their row's first
        column in ascending row order.  This keeps closing symbols tight
        against the material they close and identification symbols tight
        before the material they announce.
        """
        ncols = len(self.columns)
        where: dict[tuple[int, int], int] = {}
        for j, col in enumerate(self.columns):
            for cell in col.members:
                where[cell] = j

        left_runs: dict[int, list[tuple[int, list[int], int, int]]] = {}
        right_runs: dict[int, list[tuple[int, list[int], int, int]]] = {}
        for r, pat in enumerate(self.rows):
            lo = -1
            run: list[int] = []
            for p in range(len(pat.symbols)):
                j = where.get((r, p))
                if j is None:
                    run.append(p)
                    continue
                if run:
                    if lo < 0:
                        right_runs.setdefault(j, []).append((r, run, lo, j))
                    else:
                        left_runs.setdefault(lo + 1, []).append((r, run, lo, j))
                    run = []
                lo = j
            if run:
                gap = ncols if lo < 0 else lo + 1
                left_runs.setdefault(gap, []).append((r, run, lo, ncols))

        out: list[int | tuple[int, list[int], int, int]] = []
        for g in range(ncols + 1):
            out.extend(sorted(left_runs.get(g, ()), key=lambda t: -t[0]))
            out.extend(sorted(right_runs.get(g, ()), key=lambda t: t[0]))
            if g < ncols:
                out.append(g)
        return out

    def slots(self) -> tuple[Slot, ...]:
        """Linear reading of the alignment (see ``_reading``), cached per instance."""
        cached = getattr(self, "_slots", None)
        if cached is not None:
            return cached

        out: list[Slot] = []
        for item in self._reading():
            if isinstance(item, tuple):
                out.extend(self._cell_slots(*item))
                continue
            col = self.columns[item]
            out.append(
                Slot(
                    kind="col",
                    text=self.text_of(col),
                    column=item,
                    cells=col.members,
                    serials=tuple(self.rows[r].serial for r, _ in col.members),
                    lo=item,
                    hi=item,
                )
            )
        result = tuple(out)
        object.__setattr__(self, "_slots", result)
        return result

    def _cell_slots(self, r: int, run: list[int], lo: int, hi: int) -> list[Slot]:
        pat = self.rows[r]
        serials = (pat.serial,)
        return [
            Slot(
                kind="cell",
                text=pat.symbols[p],
                cells=((r, p),),
                serials=serials,
                lo=lo,
                hi=hi,
                span=pat.span_of(p),
            )
            for p in run
        ]

    def encoding_cells(self) -> tuple[tuple[int, int], ...]:
        """Cells whose texts make up the alignment's code, in slot order.

        Unmatched symbols of row 0 stay in the code, except separators.
        For stored rows only unmatched identification symbols count;
        closing symbols never do, matched or not.  Reads the unmatched
        runs directly, so scoring builds no slot view.
        """
        out: list[tuple[int, int]] = []
        for item in self._reading():
            if not isinstance(item, tuple):
                continue
            r, run, _, _ = item
            pat = self.rows[r]
            if r == 0:
                out.extend((r, p) for p in run if pat.symbols[p] != NEW_SEPARATOR)
            else:
                out.extend((r, p) for p in run if p < pat.id_len)
        return tuple(out)

    def encoding_texts(self) -> tuple[str, ...]:
        return tuple(self.rows[r].symbols[p] for r, p in self.encoding_cells())


def serialize_alignment(alignment: MultipleAlignment) -> str:
    """Stable textual form used for deduplication and fingerprints."""
    cached = getattr(alignment, "_ser", None)
    if cached is not None:
        return cached
    lines = []
    for pat in alignment.rows:
        lines.append(f"row {pat.serial} {' '.join(pat.symbols)}")
    for col in alignment.columns:
        lines.append("col " + " ".join(f"{r}:{p}" for r, p in col.members))
    text = "\n".join(lines)
    object.__setattr__(alignment, "_ser", text)
    return text


def canonicalize(
    rows: Sequence[Pattern], columns: Iterable[Sequence[tuple[int, int]]]
) -> MultipleAlignment:
    """Order columns and rows deterministically.

    Columns get a topological order from the per-row position chains;
    ties break on row-independent keys first so that the same structure
    reached along different merge paths usually serializes identically.
    Rows other than row 0 are then ordered by first column membership.
    Raises AlignmentError when the column constraints form a cycle.
    """
    cols = [tuple(sorted(members)) for members in columns]
    n = len(cols)
    succ: list[set[int]] = [set() for _ in range(n)]
    indeg = [0] * n
    by_row: dict[int, list[tuple[int, int]]] = {}
    for j, members in enumerate(cols):
        for r, p in members:
            by_row.setdefault(r, []).append((p, j))
    for chain in by_row.values():
        chain.sort()
        for (_, a), (_, b) in zip(chain, chain[1:]):
            if b not in succ[a]:
                succ[a].add(b)
                indeg[b] += 1

    keys = [
        (tuple(sorted((rows[r].serial, p) for r, p in members)), members)
        for members in cols
    ]
    # keys of valid columns are distinct (a cell sits in one column at
    # most), so the heap pops ready columns in the order a sorted list would
    ready = [(keys[j], j) for j in range(n) if indeg[j] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        _, j = heapq.heappop(ready)
        order.append(j)
        for k in succ[j]:
            indeg[k] -= 1
            if indeg[k] == 0:
                heapq.heappush(ready, (keys[k], k))
    if len(order) != n:
        raise AlignmentError("column constraints form a cycle")

    first_col: dict[int, int] = {}
    for rank, j in enumerate(order):
        for r, _ in cols[j]:
            first_col.setdefault(r, rank)
    old_rows = list(range(len(rows)))
    tail = sorted(
        (r for r in old_rows if r != 0),
        key=lambda r: (first_col.get(r, n), rows[r].serial, r),
    )
    new_order = [0] + tail
    remap = {old: new for new, old in enumerate(new_order)}

    final_rows = tuple(rows[r] for r in new_order)
    final_cols = tuple(
        Column(tuple(sorted((remap[r], p) for r, p in cols[j]))) for j in order
    )
    aligned = MultipleAlignment(final_rows, final_cols)
    aligned.validate()
    return aligned
