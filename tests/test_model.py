"""Pattern, symbol table, and alignment structure behaviour."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compalign import (
    NEW_SEPARATOR,
    AlignmentError,
    Column,
    EngineParams,
    Grammar,
    MultipleAlignment,
    Pattern,
    Span,
    SymbolTable,
    analyse,
    combine_new,
    new_pattern,
    serialize_alignment,
    validate_grammar,
)
from compalign.model import canonicalize

from conftest import random_micro_instance

# Hand tally of fixtures/parsing_grammar.sp: occurrences multiplied by
# pattern frequency, plus one smoothing count per distinct symbol.
PARSING_F = 88
PARSING_TOTALS = {"s": 2, "#Nr": 3, "N": 3, "t": 4, "k": 2}


def test_pattern_spans():
    p = Pattern(("A", "B", "a", "b", "#A"), frequency=2, id_len=2, close_len=1)
    assert p.id_symbols == ("A", "B")
    assert p.contents == ("a", "b")
    assert p.close_symbols == ("#A",)
    assert [p.span_of(i) for i in range(5)] == [
        Span.ID,
        Span.ID,
        Span.CONTENTS,
        Span.CONTENTS,
        Span.CLOSE,
    ]
    with pytest.raises(IndexError):
        p.span_of(5)


def test_pattern_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Pattern(())
    with pytest.raises(ValueError):
        Pattern(("a",), frequency=0)
    with pytest.raises(ValueError):
        Pattern(("a",), id_len=1, close_len=1)
    with pytest.raises(ValueError):
        Pattern(("a", "b"), id_len=-1)


def test_new_pattern_and_combine():
    a = new_pattern(["x", "y"])
    b = new_pattern(["z"])
    assert a.id_len == 0 and a.close_len == 0
    assert combine_new([a]) is a
    joined = combine_new([a, b])
    assert joined.symbols == ("x", "y", NEW_SEPARATOR, "z")
    with pytest.raises(ValueError):
        combine_new([])


def test_symbol_table_a_b_spec_case():
    # single pattern `A a b #A` at frequency 1: four symbols, each with
    # total 2, mass 8, so every cost is exactly 2 bits
    g = Grammar.of([Pattern(("A", "a", "b", "#A"), 1, 1, 1)])
    table = g.table
    assert table.mass == 8
    for s in ("A", "a", "b", "#A"):
        assert table.total(s) == 2
        assert table.cost(s) == pytest.approx(2.0)


def test_symbol_table_parsing_fixture_tally(parsing_grammar):
    table = parsing_grammar.table
    assert table.mass == PARSING_F
    for sym, total in PARSING_TOTALS.items():
        assert table.total(sym) == total
        assert table.cost(sym) == pytest.approx(math.log2(PARSING_F / total))
    # a once-occurring symbol is dearer than a twice-occurring one
    assert table.cost("s") > table.cost("#Nr")


def test_symbol_table_unseen_and_floor():
    g = Grammar.of([Pattern(("a", "a"), 1)])
    table = g.table
    assert table.total("zzz") == 1
    assert table.cost("zzz") == pytest.approx(math.log2(table.mass))
    # degenerate one-symbol table: cost would be zero, the floor steps in
    assert table.cost("a") >= 2.0 ** -10


def _kitten_alignment():
    new = new_pattern("kittens")
    old = Pattern(("Nr", "5", "k", "i", "t", "t", "e", "n", "#Nr"), 1, 2, 1, serial=0)
    cols = tuple(Column(((0, i), (1, i + 2))) for i in range(6))
    return MultipleAlignment((new, old), cols)


def _slot_texts(al):
    return tuple(slot.text for slot in al.slots())


def test_projection_interleaves_rows():
    al = _kitten_alignment()
    al.validate()
    assert _slot_texts(al) == (
        "Nr",
        "5",
        "k",
        "i",
        "t",
        "t",
        "e",
        "n",
        "#Nr",
        "s",
    )


def test_projection_of_bare_row_is_identity():
    al = MultipleAlignment((new_pattern("abc"),), ())
    assert _slot_texts(al) == ("a", "b", "c")


def test_encoding_rule_small_case():
    # unmatched New symbols stay; unmatched id symbols of stored rows
    # are cited; close symbols never appear
    new = new_pattern(["a", "b"])
    old = Pattern(("%1", "a", "#%1"), 1, 1, 1, serial=0)
    al = MultipleAlignment((new, old), (Column(((0, 0), (1, 1))),))
    al.validate()
    assert al.encoding_texts() == ("%1", "b")


def test_encoding_skips_separator():
    new = combine_new([new_pattern(["a"]), new_pattern(["b"])])
    al = MultipleAlignment((new,), ())
    assert al.encoding_texts() == ("a", "b")


def test_validate_rejects_malformed_columns():
    new = new_pattern(["a", "b", "a"])
    old = Pattern(("a", "b"), 1, serial=0)
    single = MultipleAlignment((new, old), (Column(((0, 0),)),))
    with pytest.raises(AlignmentError):
        single.validate()
    mixed = MultipleAlignment((new, old), (Column(((0, 1), (1, 0))),))
    with pytest.raises(AlignmentError):
        mixed.validate()
    crossing = MultipleAlignment(
        (new, old),
        (Column(((0, 2), (1, 0))), Column(((0, 1), (1, 1)))),
    )
    with pytest.raises(AlignmentError):
        crossing.validate()
    doubled = MultipleAlignment(
        (new, old),
        (Column(((0, 0), (1, 0))), Column(((0, 2), (1, 0)))),
    )
    with pytest.raises(AlignmentError):
        doubled.validate()


def test_canonicalize_is_column_order_independent():
    new = new_pattern(["a", "b"])
    old = Pattern(("a", "b"), 1, serial=0)
    cols = [((0, 0), (1, 0)), ((0, 1), (1, 1))]
    fwd = canonicalize((new, old), cols)
    rev = canonicalize((new, old), list(reversed(cols)))
    assert serialize_alignment(fwd) == serialize_alignment(rev)
    fwd.validate()


def test_canonicalize_rejects_cycles():
    new = new_pattern(["a", "b"])
    old = Pattern(("b", "a"), 1, serial=0)
    cols = [((0, 0), (1, 1)), ((0, 1), (1, 0))]
    with pytest.raises(AlignmentError):
        canonicalize((new, old), cols)


def test_validate_grammar_reports_problems():
    ok = Grammar.of([Pattern(("A", "a", "#A"), 1, 1, 1)])
    assert validate_grammar(ok) == []
    bad = Grammar.of(
        [
            Pattern(("|", "a"), 1),
            Pattern(("A", "#A"), 1, 1, 1),
            Pattern((NEW_SEPARATOR,), 1),
            Pattern(("x", "y"), 1),
            Pattern(("x", "y"), 1),
        ]
    )
    issues = validate_grammar(bad)
    assert any("reserved for spans" in msg for msg in issues)
    assert any("no contents" in msg for msg in issues)
    assert any("reserved for input" in msg for msg in issues)
    assert any("duplicates pattern 3" in msg for msg in issues)


# --- properties ---

symbols_st = st.text(alphabet="abcdxy", min_size=1, max_size=2)
pattern_st = st.builds(
    lambda syms: Pattern(tuple(syms)),
    st.lists(symbols_st, min_size=1, max_size=8),
)


@given(pattern_st, st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_span_partition_property(p, id_len, close_len):
    if id_len + close_len > len(p.symbols):
        return
    shaped = Pattern(p.symbols, 1, id_len, close_len)
    spans = [shaped.span_of(i) for i in range(len(shaped.symbols))]
    assert spans == sorted(spans, key=[Span.ID, Span.CONTENTS, Span.CLOSE].index)
    assert (
        shaped.id_symbols + shaped.contents + shaped.close_symbols == shaped.symbols
    )


@given(st.lists(pattern_st, min_size=1, max_size=5))
def test_table_mass_is_sum_of_totals(patterns):
    table = SymbolTable.from_patterns(patterns)
    assert table.mass == max(2, sum(table.totals.values()))
    for s in table.totals:
        assert table.cost(s) > 0


@settings(max_examples=60)
@given(st.data())
def test_projection_counts_cells_once(data):
    """Projected length is total cells minus one per extra column member."""
    new = new_pattern(data.draw(st.lists(symbols_st, min_size=1, max_size=6)))
    old_syms = data.draw(st.lists(symbols_st, min_size=1, max_size=6))
    old = Pattern(tuple(old_syms), 1, serial=0)
    # greedy diagonal match: first shared symbol pair in order
    cols = []
    j = 0
    for i, s in enumerate(new.symbols):
        while j < len(old.symbols) and old.symbols[j] != s:
            j += 1
        if j < len(old.symbols):
            cols.append(Column(((0, i), (1, j))))
            j += 1
    al = MultipleAlignment((new, old), tuple(cols))
    al.validate()
    expected = len(new.symbols) + len(old.symbols) - len(cols)
    assert len(_slot_texts(al)) == expected
    encoding = al.encoding_texts()
    assert set(encoding) <= set(_slot_texts(al))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_canonicalize_fixes_merge_results_in_any_column_order(data):
    """Merged alignments are canonical whatever order their columns come in.

    ``merge_chain`` hands its columns to ``canonicalize`` unordered, so
    this is what makes its results independent of that order.
    """
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10_000)))
    new, grammar = random_micro_instance(rng)
    result = analyse(new, grammar, EngineParams(top_k=100))
    al = data.draw(st.sampled_from([s.alignment for s in result.alignments]))
    want = serialize_alignment(al)
    columns = [col.members for col in al.columns]
    assert serialize_alignment(canonicalize(al.rows, columns)) == want
    shuffled = data.draw(st.permutations(columns))
    assert serialize_alignment(canonicalize(al.rows, shuffled)) == want
