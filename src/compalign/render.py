"""Monospace renderings of alignments, plus a parser that reads them back.

Two orientations are offered.  ROWS puts one pattern per numbered line
with ``|`` connectors tying matched symbols together vertically; it
suits parsing-style alignments that are wider than they are deep.
COLUMNS rotates the picture: one vertical track per pattern, one line
per linear slot, with ``-`` runs tying matched symbols together
horizontally; it suits deep class hierarchies.

Both renderings are lossless with respect to structure.  The analysed
pattern is always track or row 0.  ``parse_rendering`` recovers the row
symbol sequences and the matched-column membership exactly, which the
tests use to keep the renderers honest.

Symbol texts may not be the bare connector glyphs ``|`` or a run of
``-``; the grammar file syntax already reserves ``|``, so this only
matters for patterns constructed in code.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import MultipleAlignment

_TRACK_GAP = 3


@dataclass(frozen=True)
class RenderedStructure:
    """What a rendering encodes: row symbol lists and column membership."""

    rows: tuple[tuple[str, ...], ...]
    columns: frozenset[frozenset[tuple[int, int]]]


def structure_of(alignment: MultipleAlignment) -> RenderedStructure:
    """The structure a faithful rendering of ``alignment`` must convey."""
    rows = tuple(tuple(row.symbols) for row in alignment.rows)
    cols = frozenset(frozenset(col.members) for col in alignment.columns)
    return RenderedStructure(rows=rows, columns=cols)


def _slot_layout(alignment: MultipleAlignment) -> list[tuple[int, object]]:
    """Assign a left x coordinate to every slot, one space between slots."""
    out = []
    x = 0
    for slot in alignment.slots():
        out.append((x, slot))
        x += len(slot.text) + 1
    return out


def _place(line: list[str], x: int, text: str) -> None:
    end = x + len(text)
    if len(line) < end:
        line.extend(" " * (end - len(line)))
    line[x:end] = text


def render_rows(alignment: MultipleAlignment) -> str:
    """One numbered line per pattern; ``|`` marks column membership.

    A column whose members sit in non-adjacent rows is carried through
    the intervening pattern and connector lines as ``|`` so every
    matched pair is visually connected.
    """
    layout = _slot_layout(alignment)
    nrows = len(alignment.rows)
    gutter = len(str(nrows - 1))
    width = max((x + len(s.text) for x, s in layout), default=0)

    body = [[] for _ in range(nrows)]          # pattern lines
    joins = [[] for _ in range(max(0, nrows - 1))]  # connector lines

    for x, slot in layout:
        member_rows = {r for r, _ in slot.cells}
        top, bottom = min(member_rows), max(member_rows)
        for r in range(top, bottom + 1):
            if r in member_rows:
                _place(body[r], x, slot.text)
            else:
                _place(body[r], x, "|")
            if r < bottom:
                _place(joins[r], x, "|")

    lines = []
    for r in range(nrows):
        text = "".join(body[r]).ljust(width)
        lines.append(f"{r:<{gutter}} {text} {r}")
        if r < nrows - 1:
            join = "".join(joins[r]).rstrip()
            lines.append(f"{' ' * gutter} {join}".rstrip())
    return "\n".join(lines) + "\n"


def _track_positions(alignment: MultipleAlignment) -> list[int]:
    xs = []
    x = 0
    for row in alignment.rows:
        xs.append(x)
        widest = max(len(s) for s in row.symbols)
        x += max(widest, 1) + _TRACK_GAP
    return xs


def render_columns(alignment: MultipleAlignment) -> str:
    """One vertical track per pattern, one line per slot, ``-`` connectors."""
    tracks = _track_positions(alignment)
    header = []
    for r, x in enumerate(tracks):
        _place(header, x, str(r))
    head = "".join(header)

    lines = [head, ""]
    for slot in alignment.slots():
        line: list[str] = []
        member_rows = sorted(r for r, _ in slot.cells)
        for r in member_rows:
            _place(line, tracks[r], slot.text)
        for a, b in zip(member_rows, member_rows[1:]):
            # one space on each side; track pitch guarantees >= 1 dash
            start = tracks[a] + len(slot.text) + 1
            stop = tracks[b] - 2
            _place(line, start, "-" * (stop - start + 1))
        lines.append("".join(line))
    lines.append("")
    lines.append(head)
    return "\n".join(lines) + "\n"


def render(alignment: MultipleAlignment, orientation: str = "rows") -> str:
    if orientation in ("rows", "row"):
        return render_rows(alignment)
    if orientation in ("cols", "columns", "col"):
        return render_columns(alignment)
    raise ValueError(f"unknown orientation: {orientation!r}")


def _tokens_with_x(line: str) -> list[tuple[int, str]]:
    out = []
    i = 0
    while i < len(line):
        if line[i] == " ":
            i += 1
            continue
        j = i
        while j < len(line) and line[j] != " ":
            j += 1
        out.append((i, line[i:j]))
        i = j
    return out


def _is_index_line(tokens: list[tuple[int, str]]) -> bool:
    try:
        values = [int(t) for _, t in tokens]
    except ValueError:
        return False
    return bool(values) and values == list(range(len(values)))


def parse_rendering(text: str) -> RenderedStructure:
    """Read either orientation back into rows and column membership."""
    lines = [ln.rstrip("\n") for ln in text.splitlines()]
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ValueError("empty rendering")
    first = _tokens_with_x(lines[0])
    last = _tokens_with_x(lines[-1])
    if _is_index_line(first) and _is_index_line(last) and len(first) == len(last):
        return _parse_columns(lines, first)
    return _parse_rows(lines)


def _parse_rows(lines: list[str]) -> RenderedStructure:
    rows: list[list[str]] = []
    by_x: dict[int, list[tuple[int, int]]] = {}
    expect = 0
    for raw in lines:
        tokens = _tokens_with_x(raw)
        if not tokens:
            continue
        if tokens[0][1] != str(expect) or tokens[-1][1] != str(expect):
            if all(t == "|" for _, t in tokens):
                continue  # connector line
            raise ValueError(f"expected row {expect} line, got: {raw!r}")
        symbols = []
        for x, tok in tokens[1:-1]:
            if tok == "|":
                continue
            by_x.setdefault(x, []).append((expect, len(symbols)))
            symbols.append(tok)
        rows.append(symbols)
        expect += 1
    columns = frozenset(
        frozenset(members) for members in by_x.values() if len(members) >= 2
    )
    return RenderedStructure(
        rows=tuple(tuple(r) for r in rows), columns=columns
    )


def _parse_columns(
    lines: list[str], header: list[tuple[int, str]]
) -> RenderedStructure:
    tracks = [x for x, _ in header]

    def track_of(x: int) -> int:
        best = 0
        for r, tx in enumerate(tracks):
            if tx <= x:
                best = r
        return best

    rows: list[list[str]] = [[] for _ in tracks]
    columns = set()
    for raw in lines[1:-1]:
        tokens = [(x, t) for x, t in _tokens_with_x(raw) if set(t) != {"-"}]
        if not tokens:
            continue
        members = []
        for x, tok in tokens:
            r = track_of(x)
            members.append((r, len(rows[r])))
            rows[r].append(tok)
        if len(members) >= 2:
            columns.add(frozenset(members))
    return RenderedStructure(
        rows=tuple(tuple(r) for r in rows), columns=frozenset(columns)
    )
