"""Partial matching against brute-force and exhaustive oracles."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compalign import (
    EngineParams,
    MultipleAlignment,
    Pattern,
    SymbolTable,
    analyse,
    brute_force_best_match,
    match_alignment,
    new_pattern,
)
from compalign.matcher import place

from conftest import random_micro_instance

# a wider matcher search than the engine's default
WIDE = EngineParams(beam_width=256, max_alternatives=8)


def _exhaustive_best(driving: Pattern, target: Pattern, table: SymbolTable) -> float:
    """Best chain score by depth-first enumeration of every legal chain.

    Deliberately not a dynamic program, so it cannot share a bug with
    the library's quadratic oracle.  Only usable at toy sizes.
    """
    pairs = [
        (i, j)
        for i, a in enumerate(driving.symbols)
        for j, b in enumerate(target.symbols)
        if a == b
    ]

    best = 0.0

    def extend(k: int, last_i: int, last_j: int, score: float) -> None:
        nonlocal best
        best = max(best, score)
        for n in range(k, len(pairs)):
            i, j = pairs[n]
            if i > last_i and j > last_j:
                extend(n + 1, i, j, score + table.cost(driving.symbols[i]))

    extend(0, -1, -1, 0.0)
    return best


def _random_pattern(rng: random.Random, length: int, alphabet: int) -> Pattern:
    letters = "abcdefghij"[:alphabet]
    return new_pattern(rng.choice(letters) for _ in range(length))


def _match_bare(driving, target, table, params=WIDE):
    """Chains of ``target`` against the bare alignment of ``driving``."""
    return match_alignment(MultipleAlignment((driving,), ()), target, table, params)


def test_brute_force_agrees_with_exhaustive_enumeration():
    rng = random.Random(11)
    table = SymbolTable.from_patterns([])  # uniform 1-bit costs
    for _ in range(80):
        a = _random_pattern(rng, rng.randint(1, 8), rng.randint(2, 4))
        b = _random_pattern(rng, rng.randint(1, 8), rng.randint(2, 4))
        _, got = brute_force_best_match(a, b, table)
        want = _exhaustive_best(a, b, table)
        assert got == pytest.approx(want), (a.symbols, b.symbols)


def test_brute_force_agrees_with_exhaustive_weighted():
    rng = random.Random(12)
    weights = Pattern(tuple("aabbbbcccccccc"), frequency=3)
    table = SymbolTable.from_patterns([weights])
    for _ in range(40):
        a = _random_pattern(rng, rng.randint(1, 7), 3)
        b = _random_pattern(rng, rng.randint(1, 7), 3)
        _, got = brute_force_best_match(a, b, table)
        want = _exhaustive_best(a, b, table)
        assert got == pytest.approx(want)


def run_random_pair_suite(pairs: int = 500, seed: int = 20260814):
    """Random pairs against the brute-force optimum.

    Returns (total, exact, short_misses); raises if any search result
    ever exceeds the optimum.  Shared with the acceptance suite.
    """
    rng = random.Random(seed)
    table = SymbolTable.from_patterns([])  # uniform costs
    params = EngineParams(beam_width=1000, max_alternatives=4)
    total = exact = 0
    short_misses = []
    for _ in range(pairs):
        la, lb = rng.randint(1, 50), rng.randint(1, 50)
        alphabet = rng.randint(2, 10)
        a = _random_pattern(rng, la, alphabet)
        b = _random_pattern(rng, lb, alphabet)
        _, optimum = brute_force_best_match(a, b, table)
        found = _match_bare(a, b, table, params)
        got = found[0][1] if found else 0.0
        assert got <= optimum + 1e-9, (a.symbols, b.symbols)
        total += 1
        if abs(got - optimum) < 1e-9:
            exact += 1
        elif la <= 20 and lb <= 20:
            short_misses.append((a.symbols, b.symbols))
    return total, exact, short_misses


def test_random_pair_suite_hits_brute_force_optimum():
    """≥500 random pairs: never above the optimum, ≥99% exact overall,
    and exact on every pair where both lengths stay ≤ 20."""
    total, exact, short_misses = run_random_pair_suite()
    assert exact / total >= 0.99, f"only {exact}/{total} exact"
    assert not short_misses, short_misses[:3]


def test_alternatives_are_sorted_and_bounded():
    table = SymbolTable.from_patterns([])
    a = new_pattern("abcabc")
    b = new_pattern("abc")
    results = _match_bare(
        a, b, table, EngineParams(beam_width=64, max_alternatives=3)
    )
    assert 1 <= len(results) <= 3
    scores = [score for _, score in results]
    assert scores == sorted(scores, reverse=True)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_no_shared_symbols_yields_nothing(data):
    """No chain joins a pattern to an alignment it shares no symbol with.

    The alignments are the final pool of a random micro instance, so
    most have stored rows, columns and id spans.
    """
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10_000)))
    new, grammar = random_micro_instance(rng)
    result = analyse(new, grammar, EngineParams(top_k=100))
    al = data.draw(st.sampled_from([s.alignment for s in result.alignments]))
    texts = {s for row in al.rows for s in row.symbols}
    free = [s for s in "abcdefgh" if s not in texts]
    if not free:
        return
    body = data.draw(st.lists(st.sampled_from(free), min_size=1, max_size=6))
    target = Pattern(("%9", *body, "#%9"), 1, 1, 1, serial=0)
    assert match_alignment(al, target, grammar.table, WIDE) == []


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_matched_chains_replay_through_place(seed):
    """Every step of every chain the matcher returns obeys ``place``.

    The alignments are the whole final pool of a random micro instance,
    matched against each pattern of its grammar.
    """
    new, grammar = random_micro_instance(random.Random(seed))
    result = analyse(new, grammar, EngineParams(top_k=100))
    for scored in result.alignments:
        slots = scored.alignment.slots()
        for target in grammar.patterns:
            for chain, _ in match_alignment(
                scored.alignment, target, grammar.table, WIDE
            ):
                min_gap, caps = 0, {}
                for i, t in chain:
                    gap = place(
                        slots[i], t, target.serial, target.span_of(t), min_gap, caps
                    )
                    assert gap is not None
                    min_gap = gap
                    caps.update(slots[i].cells)


@settings(max_examples=80)
@given(
    st.text(alphabet="abc", min_size=1, max_size=10),
    st.text(alphabet="abc", min_size=1, max_size=10),
)
def test_hit_sequences_are_monotone_and_text_equal(s, t):
    table = SymbolTable.from_patterns([])
    a, b = new_pattern(s), new_pattern(t)
    for chain, score_bits in _match_bare(
        a, b, table, EngineParams(beam_width=128, max_alternatives=4)
    ):
        last = (-1, -1)
        score = 0.0
        for i, t in chain:
            assert i > last[0] and t > last[1]
            assert a.symbols[i] == b.symbols[t]
            last = (i, t)
            score += table.cost(a.symbols[i])
        assert score_bits == pytest.approx(score)


@given(
    st.text(alphabet="ab", min_size=1, max_size=8),
    st.text(alphabet="ab", min_size=1, max_size=8),
)
def test_match_alignment_is_deterministic(s, t):
    table = SymbolTable.from_patterns([])
    a, b = new_pattern(s), new_pattern(t)
    first = _match_bare(a, b, table)
    second = _match_bare(a, b, table)
    assert first == second
