"""Reading and writing pattern files.

One pattern per line:

    <frequency> <symbols...>
    <frequency> <id symbols...> | <contents...>
    <frequency> <id symbols...> | <contents...> | <close symbols...>

Symbols are whitespace-separated tokens.  Lines whose first
non-whitespace character is ``#`` are comments; blank lines are
skipped.  Closing symbols inside a pattern may start with ``#`` without
ambiguity because pattern lines always start with a number.
"""

from __future__ import annotations

from pathlib import Path

from .model import Grammar, Pattern


class FormatError(ValueError):
    pass


def parse_pattern_line(line: str) -> Pattern:
    tokens = line.split()
    if len(tokens) < 2:
        raise FormatError(f"pattern line needs a frequency and symbols: {line!r}")
    try:
        freq = int(tokens[0])
    except ValueError:
        raise FormatError(f"bad frequency {tokens[0]!r} in line {line!r}") from None
    body = tokens[1:]
    parts: list[list[str]] = [[]]
    for tok in body:
        if tok == "|":
            parts.append([])
        else:
            parts[-1].append(tok)
    if len(parts) == 1:
        id_syms, contents, close = [], parts[0], []
    elif len(parts) == 2:
        id_syms, contents, close = parts[0], parts[1], []
    elif len(parts) == 3:
        id_syms, contents, close = parts
    else:
        raise FormatError(f"too many '|' separators in line {line!r}")
    symbols = tuple(id_syms + contents + close)
    if not symbols:
        raise FormatError(f"no symbols in line {line!r}")
    try:
        return Pattern(
            symbols,
            frequency=freq,
            id_len=len(id_syms),
            close_len=len(close),
        )
    except ValueError as exc:
        raise FormatError(f"bad pattern line {line!r}: {exc}") from exc


def numbered_patterns(text: str) -> list[tuple[int, Pattern]]:
    """Patterns with their 1-based source line numbers.

    A malformed line raises FormatError naming that line.
    """
    out: list[tuple[int, Pattern]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append((lineno, parse_pattern_line(line)))
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
    return out


def parse_grammar_text(text: str) -> Grammar:
    return Grammar.of(p for _, p in numbered_patterns(text))


def load_grammar(path: str | Path) -> Grammar:
    return parse_grammar_text(Path(path).read_text())


def parse_new_text(text: str) -> list[Pattern]:
    """Analysed input uses the same line format, usually span-free."""
    return [p for _, p in numbered_patterns(text)]


def load_new(path: str | Path) -> list[Pattern]:
    return parse_new_text(Path(path).read_text())


def format_pattern(p: Pattern) -> str:
    fields = [str(p.frequency)]
    if p.id_len or p.close_len:
        # an empty id span still gets its separator so that a pattern
        # with only a close span reads back unambiguously
        fields.extend(p.id_symbols)
        fields.append("|")
    fields.extend(p.contents)
    if p.close_len:
        fields.append("|")
        fields.extend(p.close_symbols)
    return " ".join(fields)


def dump_grammar(grammar: Grammar) -> str:
    return "\n".join(format_pattern(p) for p in grammar.patterns) + "\n"


def save_grammar(grammar: Grammar, path: str | Path) -> None:
    Path(path).write_text(dump_grammar(grammar))
