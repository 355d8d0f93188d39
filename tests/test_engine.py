"""Alignment construction: golden figures, exhaustive closure, probabilities."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compalign import (
    EngineParams,
    Grammar,
    MultipleAlignment,
    Pattern,
    SymbolTable,
    alignment_probabilities,
    analyse,
    new_pattern,
    serialize_alignment,
)
from compalign.engine import merge_chain

from conftest import (
    GENEROUS_PARAMS,
    exhaustive_best_score,
    golden,
    random_micro_instance,
    same_structure,
)


def test_parsing_figure_structure(parsing_grammar, parsing_new):
    doc = golden("parsing_golden.json")
    result = analyse(parsing_new, parsing_grammar)
    best = result.best
    assert best.score_bits == pytest.approx(doc["score_bits"], abs=1e-6)
    assert list(best.encoding) == doc["encoding"]
    assert same_structure(best.alignment, doc)


def test_class_figure_structure(class_grammar, class_new):
    doc = golden("class_golden.json")
    result = analyse(class_new, class_grammar)
    best = result.best
    assert best.score_bits == pytest.approx(doc["score_bits"], abs=1e-6)
    assert list(best.encoding) == doc["encoding"]
    assert same_structure(best.alignment, doc)
    # every stored pattern takes part
    assert len(best.alignment.rows) == 5


def test_unmatchable_input_returns_bare_reading():
    g = Grammar.of([Pattern(("A", "a", "#A"), 1, 1, 1)])
    result = analyse(new_pattern("xyz"), g)
    assert result.best.score_bits == 0.0
    assert result.best.encoding == ("x", "y", "z")
    assert result.best.alignment.columns == ()


@pytest.mark.parametrize(
    "field", ["beam_width", "max_alternatives", "alignment_beam", "max_stages", "top_k"]
)
@pytest.mark.parametrize("value", [0, -1])
def test_engine_params_reject_values_below_one(field, value):
    with pytest.raises(ValueError, match=f"{field} must be at least 1, got {value}"):
        EngineParams(**{field: value})


# --- merge unit behaviour ---


def _simple_base():
    return MultipleAlignment((new_pattern(["a", "b", "c"]),), ())


def test_merge_attaches_row_and_validates():
    old = Pattern(("%1", "a", "b", "#%1"), 1, 1, 1, serial=0)
    merged = merge_chain(_simple_base(), old, ((0, 1), (1, 2)))
    assert merged is not None
    merged.validate()
    assert len(merged.rows) == 2
    assert len(merged.columns) == 2
    assert merged.encoding_texts() == ("%1", "c")


def test_merge_rejects_text_mismatch_and_crossing():
    old = Pattern(("%1", "a", "b", "#%1"), 1, 1, 1, serial=0)
    assert merge_chain(_simple_base(), old, ((0, 2),)) is None  # a vs b
    assert merge_chain(_simple_base(), old, ((0, 2), (1, 1))) is None


def test_merge_chain_fuses_shared_columns():
    base = merge_chain(
        _simple_base(),
        Pattern(("%1", "a", "b", "#%1"), 1, 1, 1, serial=0),
        ((0, 1), (1, 2)),
    )
    slots = base.slots()
    a_slot = next(i for i, s in enumerate(slots) if s.kind == "col" and s.text == "a")
    c_slot = next(i for i, s in enumerate(slots) if s.kind == "cell" and s.text == "c")
    # third row joins the shared `a` column and pairs the unmatched `c`
    second = Pattern(("%2", "a", "c", "#%2"), 1, 1, 1, serial=1)
    merged = merge_chain(base, second, ((a_slot, 1), (c_slot, 2)))
    assert merged is not None
    merged.validate()
    texts = {m.text for m in merged.slots() if m.kind == "col"}
    assert texts == {"a", "b", "c"}
    a_col = next(c for c in merged.columns if merged.text_of(c) == "a")
    assert len(a_col.members) == 3


def test_merge_chain_rejects_column_only_rows():
    # a row whose every cell lands in an existing column explains nothing
    # new, so the engine refuses to build it
    base = merge_chain(
        _simple_base(),
        Pattern(("%1", "a", "b", "#%1"), 1, 1, 1, serial=0),
        ((0, 1), (1, 2)),
    )
    slots = base.slots()
    a_slot = next(i for i, s in enumerate(slots) if s.kind == "col" and s.text == "a")
    second = Pattern(("%2", "a", "#%2"), 1, 1, 1, serial=1)
    assert merge_chain(base, second, ((a_slot, 1),)) is None


# --- exhaustive oracle (reduction lives in conftest, validated here) ---


def _exhaustive_chains(slots, pattern):
    """Every monotone non-empty chain between slot texts and pattern symbols."""
    pairs = [
        (i, j)
        for i, slot in enumerate(slots)
        for j, text in enumerate(pattern.symbols)
        if slot.text == text
    ]
    chains = []

    def extend(k, chain):
        if chain:
            chains.append(tuple(chain))
        for n in range(k, len(pairs)):
            i, j = pairs[n]
            if not chain or (i > chain[-1][0] and j > chain[-1][1]):
                chain.append(pairs[n])
                extend(n + 1, chain)
                chain.pop()

    extend(0, [])
    return chains


def _closure_best(new, grammar, max_rows, cap=6000):
    """Best score over literal merge enumeration, no beams anywhere.

    Bounded by ``max_rows`` old rows; exponential, so callers keep the
    instances tiny.  Exists to validate the coverage reduction above.
    """
    from compalign import score_alignment

    table = grammar.table
    bare = MultipleAlignment((new,), ())
    seen = {serialize_alignment(bare)}
    frontier = [bare]
    best = 0.0
    while frontier:
        al = frontier.pop()
        if len(al.rows) > max_rows:
            continue
        for pat in grammar.patterns:
            for chain in _exhaustive_chains(al.slots(), pat):
                merged = merge_chain(al, pat, chain)
                if merged is None:
                    continue
                key = serialize_alignment(merged)
                if key in seen:
                    continue
                assert len(seen) < cap, "closure blew the cap; shrink the instance"
                seen.add(key)
                frontier.append(merged)
                best = max(best, score_alignment(merged, table).score_bits)
    return best


def _tiny_instance(rng):
    letters = "ab"
    new = new_pattern(rng.choice(letters) for _ in range(rng.randint(2, 4)))
    patterns = []
    for s in range(rng.randint(1, 2)):
        body = [rng.choice(letters) for _ in range(rng.randint(1, 2))]
        patterns.append(
            Pattern((f"%{s}", *body, f"#%{s}"), rng.randint(1, 3), 1, 1)
        )
    return new, Grammar.of(patterns)


def test_coverage_reduction_agrees_with_merge_closure():
    rng = random.Random(11)
    for _ in range(15):
        new, grammar = _tiny_instance(rng)
        # optimum needs at most one old row per covered New position
        want = _closure_best(new, grammar, max_rows=1 + len(new.symbols))
        assert exhaustive_best_score(new, grammar) == pytest.approx(want), (
            new.symbols,
            grammar,
        )


def test_engine_matches_exhaustive_best_on_micro_instances():
    rng = random.Random(404)
    for _ in range(120):
        new, grammar = random_micro_instance(rng)
        want = exhaustive_best_score(new, grammar)
        got = analyse(new, grammar, GENEROUS_PARAMS).best.score_bits
        assert got == pytest.approx(want), (new.symbols, grammar)


# --- probabilities ---


def test_probabilities_normalise_and_follow_scores(class_grammar, class_new):
    result = analyse(class_new, class_grammar, EngineParams(top_k=5))
    assert sum(result.probabilities) == pytest.approx(1.0, abs=1e-9)
    scores = [a.score_bits for a in result.alignments[: len(result.probabilities)]]
    pairs = list(zip(scores, result.probabilities))
    for (s1, p1), (s2, p2) in zip(pairs, pairs[1:]):
        assert s1 >= s2
        assert p1 >= p2


def test_probability_helper_handles_edges():
    assert alignment_probabilities([]) == ()
    assert alignment_probabilities([-3.0]) == (1.0,)
    probs = alignment_probabilities([10.0, 9.0, 9.0])
    assert sum(probs) == pytest.approx(1.0)
    assert probs[1] == probs[2]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8))
def test_probabilities_always_normalise(scores):
    probs = alignment_probabilities(scores)
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)
    assert all(p > 0 for p in probs)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_analyse_is_deterministic_and_validates(data):
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10_000)))
    new, grammar = random_micro_instance(rng)
    first = analyse(new, grammar, EngineParams(top_k=3))
    second = analyse(new, grammar, EngineParams(top_k=3))
    assert [serialize_alignment(a.alignment) for a in first.alignments] == [
        serialize_alignment(a.alignment) for a in second.alignments
    ]
    for scored in first.alignments:
        scored.alignment.validate()
