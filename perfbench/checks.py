"""Correctness checks that do not run the program's own code.

Every checker works on plain data: an alignment is a list of rows, each
``(symbols, id_len)``, and a list of columns, each a tuple of
``(row, position)`` members.  Symbol costs come from the benchmark's own
count of a pattern file or corpus, following the cost model that
``compalign.model`` documents: a text seen ``n`` times (frequency
weighted) has total ``n + 1``, the mass is the sum of all totals, and
one occurrence costs ``log2(mass / total)`` bits (unseen texts have
total 1; no cost falls below 2**-10).

A checker returns nothing when the output is right and raises
``CheckFailed`` with a one-line reason when it is not.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

_MIN_COST_BITS = 2.0 ** -10
_TOLERANCE = 1e-6

Row = tuple[tuple[str, ...], int]
Member = tuple[int, int]


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


class CostTable:
    """Symbol costs from the benchmark's own frequency-weighted counts."""

    def __init__(self, counts: dict[str, int]):
        self.totals = {text: n + 1 for text, n in counts.items()}
        self.mass = max(2, sum(self.totals.values()))

    @classmethod
    def from_weighted(cls, items: Iterable[tuple[int, Sequence[str]]]) -> "CostTable":
        counts: dict[str, int] = {}
        for freq, symbols in items:
            for text in symbols:
                counts[text] = counts.get(text, 0) + freq
        return cls(counts)

    @classmethod
    def from_pattern_text(cls, text: str) -> "CostTable":
        return cls.from_weighted(read_pattern_lines(text))

    def cost(self, text: str) -> float:
        return max(_MIN_COST_BITS, math.log2(self.mass / self.totals.get(text, 1)))


def read_pattern_lines(text: str) -> list[tuple[int, tuple[str, ...]]]:
    """``(frequency, symbols)`` per pattern line, span bars dropped."""
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        freq, *symbols = line.split()
        out.append((int(freq), tuple(s for s in symbols if s != "|")))
    return out


def alignment_view(alignment) -> tuple[list[Row], list[tuple[Member, ...]]]:
    """Plain rows and columns of a ``MultipleAlignment``, read off its fields."""
    rows = [(tuple(p.symbols), p.id_len) for p in alignment.rows]
    columns = [tuple((r, p) for r, p in col.members) for col in alignment.columns]
    return rows, columns


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _TOLERANCE * max(1.0, abs(a), abs(b))


def check_valid(
    rows: Sequence[Row], columns: Sequence[tuple[Member, ...]], new: Sequence[str]
) -> None:
    """One text per column, no crossing columns, and row 0 equal to the input."""
    require(bool(rows), "alignment has no rows")
    require(tuple(rows[0][0]) == tuple(new), "row 0 differs from the input")
    used: set[Member] = set()
    last_pos: dict[int, int] = {}
    for j, members in enumerate(columns):
        require(len(members) >= 2, f"column {j} has fewer than two cells")
        texts = set()
        rows_here = set()
        for r, p in members:
            require(0 <= r < len(rows), f"column {j} names row {r}")
            require(0 <= p < len(rows[r][0]), f"column {j} names cell {r}:{p}")
            require(r not in rows_here, f"column {j} holds two cells of row {r}")
            require((r, p) not in used, f"cell {r}:{p} sits in two columns")
            rows_here.add(r)
            used.add((r, p))
            texts.add(rows[r][0][p])
            # columns are listed in their linear order, so every row's
            # positions must rise along that order
            require(p > last_pos.get(r, -1), f"column {j} crosses an earlier one in row {r}")
            last_pos[r] = p
        require(len(texts) == 1, f"column {j} mixes texts {sorted(texts)}")


def recompute_score(
    rows: Sequence[Row], columns: Sequence[tuple[Member, ...]], table: CostTable
) -> float:
    """Matched row-0 column costs minus the costs of unmatched ID cells."""
    matched = set()
    gained = 0.0
    for members in columns:
        matched.update(members)
        if any(r == 0 for r, _ in members):
            r, p = members[0]
            gained += table.cost(rows[r][0][p])
    cited = 0.0
    for r in range(1, len(rows)):
        symbols, id_len = rows[r]
        for p in range(id_len):
            if (r, p) not in matched:
                cited += table.cost(symbols[p])
    return gained - cited


def check_score(
    rows: Sequence[Row],
    columns: Sequence[tuple[Member, ...]],
    claimed: float,
    table: CostTable,
) -> None:
    want = recompute_score(rows, columns, table)
    require(_close(claimed, want), f"score {claimed!r} bits, recomputed {want!r}")


def check_alignment(alignment, claimed: float, new: Sequence[str], table: CostTable) -> None:
    """Validity plus score recomputation for one program alignment."""
    rows, columns = alignment_view(alignment)
    check_valid(rows, columns, new)
    check_score(rows, columns, claimed, table)


def structure_doc(rows: Sequence[Row], columns: Sequence[tuple[Member, ...]]) -> dict:
    """The golden-file shape: row 0 is "new", stored rows go by their first symbol."""
    names = ["new"] + [symbols[0] for symbols, _ in rows[1:]]
    cols = []
    for members in columns:
        r, p = members[0]
        cols.append(
            {"text": rows[r][0][p], "members": sorted([names[r], q] for r, q in members)}
        )
    return {"rows": names, "columns": cols}


def check_structure(
    rows: Sequence[Row], columns: Sequence[tuple[Member, ...]], golden: dict
) -> None:
    """Row set and column membership equal the golden file, order aside."""
    doc = structure_doc(rows, columns)
    require(sorted(doc["rows"]) == sorted(golden["rows"]), "rows differ from golden")

    def keyed(cols):
        return sorted((c["text"], [tuple(m) for m in c["members"]]) for c in cols)

    require(keyed(doc["columns"]) == keyed(golden["columns"]), "columns differ from golden")


def check_probabilities(scores: Sequence[float], probs: Sequence[float]) -> None:
    """Probabilities sum to 1 and rank the alignments as their scores do."""
    require(len(scores) == len(probs) and scores, "no alignments or probabilities")
    require(_close(sum(probs), 1.0), f"probabilities sum to {sum(probs)!r}")
    for i in range(1, len(scores)):
        require(scores[i] <= scores[i - 1], f"alignment {i} outscores its predecessor")
        if scores[i] == scores[i - 1]:
            require(_close(probs[i], probs[i - 1]), f"equal scores, unequal probabilities at {i}")
        else:
            require(probs[i] < probs[i - 1], f"probability order breaks at {i}")


def check_retrieval(
    rows: Sequence[Row],
    best_score: float,
    source: tuple[str, ...],
    query: Sequence[str],
    table: CostTable,
) -> None:
    """The source pattern is in the best alignment, which beats the one-row reading."""
    require(any(symbols == source for symbols, _ in rows[1:]), "source pattern not retrieved")
    one_row = sum(table.cost(w) for w in query) - table.cost(source[0])
    require(best_score >= one_row - _TOLERANCE, f"best {best_score!r} < one-row {one_row!r}")


def raw_corpus_bits(corpus: Sequence[tuple[int, Sequence[str]]]) -> float:
    """Bits to send a corpus symbol by symbol with its own counts."""
    table = CostTable.from_weighted(corpus)
    return sum(freq * sum(table.cost(s) for s in symbols) for freq, symbols in corpus)


def check_learned(empty_total: float, best_total: float, corpus) -> float:
    """The empty grammar prices the raw corpus; the best grammar is no dearer.

    Returns the bits the best grammar saves.
    """
    want = raw_corpus_bits(corpus)
    require(_close(empty_total, want), f"empty grammar {empty_total!r} bits, raw corpus {want!r}")
    require(best_total <= empty_total + _TOLERANCE, f"best {best_total!r} > empty {empty_total!r}")
    return empty_total - best_total


def contents_of(symbols: Sequence[str], id_len: int, close_len: int) -> tuple[str, ...]:
    return tuple(symbols[id_len : len(symbols) - close_len])


def check_has_contents(patterns: Iterable[tuple[str, ...]], wanted: tuple[str, ...]) -> None:
    require(any(c == wanted for c in patterns), f"no learned pattern reads {' '.join(wanted)}")


def check_agreement(patterns: Iterable[tuple[str, ...]]) -> None:
    """Second-level patterns tie DS to VS and DP to VP, never across."""
    pairs = [{s for s in contents if s in {"DS", "VS", "DP", "VP"}} for contents in patterns]
    require({"DS", "VS"} in pairs, "no pattern ties DS to VS")
    require({"DP", "VP"} in pairs, "no pattern ties DP to VP")
    for found in pairs:
        require(
            not ({"DS", "VP"} <= found or {"DP", "VS"} <= found),
            f"a pattern crosses the agreement classes: {sorted(found)}",
        )


def tile_codes(
    sentence: Sequence[str], lexicon: Sequence[tuple[tuple[str, ...], str]]
) -> tuple[str, ...]:
    """Identifiers of the lexicon entries whose contents tile ``sentence``."""
    codes: list[str] = []
    i = 0
    while i < len(sentence):
        for contents, code in lexicon:
            if tuple(sentence[i : i + len(contents)]) == contents:
                codes.append(code)
                i += len(contents)
                break
        else:
            raise CheckFailed(f"lexicon cannot tile {' '.join(sentence)}")
    return tuple(codes)
