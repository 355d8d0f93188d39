"""Inhibition network: baseline behaviour, order gating, engine agreement."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from compalign import (
    EngineParams,
    Grammar,
    InhibitionNetwork,
    NeuralParams,
    Pattern,
    PatternAssembly,
    analyse,
    new_pattern,
)

B = NeuralParams().baseline_rate


def _wrap(name: str, *body: str) -> Pattern:
    return Pattern((name, *body, f"#{name}"), 1, 1, 1)


@pytest.fixture()
def abc_network() -> InhibitionNetwork:
    return InhibitionNetwork(Grammar.of([_wrap("X", "a", "b", "c")]))


def test_zero_input_holds_baseline_exactly(abc_network):
    for _ in range(50):
        abc_network.step()
    (assembly,) = abc_network.assemblies
    assert assembly.rates == [B, B, B]
    assert assembly.identification_rate() == 0.0
    assert not assembly.recognised()


def test_boundary_symbols_fold_into_structure():
    inner = Pattern(("Y", "X", "#X", "d", "#Y"), 1, 1, 1)
    assembly = PatternAssembly(inner, NeuralParams())
    assert assembly.cells == ["X", "d"]
    assert assembly.id_symbol == "Y"


def test_full_in_order_input_recognises_and_settles(abc_network):
    labels = abc_network.present(["a", "b", "c"])
    assert labels == ["X"]
    (assembly,) = abc_network.assemblies
    assert assembly.identification_rate() == 2 * B
    # withdrawal of input: all cells drift back to baseline
    abc_network.withdraw()
    params = abc_network.params
    for _ in range(3 * params.settle_tau):
        abc_network.step()
    for rate in assembly.rates:
        assert abs(rate - B) <= 0.05 * B
    assert not assembly.recognised()


def test_missing_one_symbol_stays_under_threshold(abc_network):
    abc_network.present(["a", "b"])
    (assembly,) = abc_network.assemblies
    rate = assembly.identification_rate()
    assert rate == pytest.approx(2 * B * 2 / 3)
    assert rate < abc_network.params.recognition_threshold * B


def test_out_of_order_delivery_is_rejected(abc_network):
    assert abc_network.present(["b", "c", "a"]) == []
    (assembly,) = abc_network.assemblies
    # only `b c` after the rejected `a`...  nothing: pointer waits on `a`
    assert sum(assembly.fired) < len(assembly.cells)


def test_unknown_symbols_are_ignored(abc_network):
    assert abc_network.present(["q", "a", "zz", "b", "q", "c"]) == ["X"]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_nontrivial_permutation_fails(n):
    body = [chr(ord("a") + i) for i in range(n)]
    network = InhibitionNetwork(Grammar.of([_wrap("X", *body)]))
    identity = tuple(body)
    for perm in set(itertools.permutations(body)):
        if perm == identity:
            continue
        assert network.present(list(perm)) == [], perm
        (assembly,) = network.assemblies
        assert (
            assembly.identification_rate()
            < network.params.recognition_threshold * B
        )


def test_repeated_symbols_only_reject_truly_different_orders():
    network = InhibitionNetwork(Grammar.of([_wrap("X", "t", "t", "k")]))
    assert network.present(["t", "t", "k"]) == ["X"]
    assert network.present(["t", "k", "t"]) == []
    assert network.present(["k", "t", "t"]) == []


def test_recognition_cascades_to_higher_levels():
    grammar = Grammar.of(
        [
            _wrap("X", "a", "b", "c"),
            Pattern(("Y", "X", "#X", "d", "#Y"), 1, 1, 1),
        ]
    )
    network = InhibitionNetwork(grammar)
    labels = network.present(["a", "b", "c", "d"])
    assert labels == ["X", "Y"]


def test_anonymous_patterns_report_their_text():
    network = InhibitionNetwork(Grammar.of([Pattern(("a", "b"), 1)]))
    assert network.present(["a", "b"]) == ["a b"]


def test_trace_snapshots_every_step(abc_network):
    network = InhibitionNetwork(
        Grammar.of([_wrap("X", "a", "b", "c")]), trace=True
    )
    network.present(["a", "b"])
    assert network.trace is not None
    # one snapshot per presented symbol; nothing is recognised, so no
    # relay step follows
    assert len(network.trace) == 2
    assert set(network.trace[-1]) == {"X"}
    assert network.trace[-1]["X"]["id_rate"] == pytest.approx(2 * B * 2 / 3)


def test_parameter_validation():
    with pytest.raises(ValueError):
        NeuralParams(baseline_rate=0)
    with pytest.raises(ValueError):
        NeuralParams(settle_tau=0)
    with pytest.raises(ValueError):
        NeuralParams(recognition_threshold=2.5)
    # nan fails no `<= 0` test, so the rates are checked to be finite too
    for name in ("baseline_rate", "inhibition_gain"):
        for value in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                NeuralParams(**{name: value})


def test_rates_never_go_negative():
    params = NeuralParams(inhibition_gain=50.0)
    network = InhibitionNetwork(Grammar.of([_wrap("X", "a", "b")]), params)
    network.present(["a", "b"])
    for _ in range(10):
        network.step(["a", "b"])
    for assembly in network.assemblies:
        assert all(r >= 0.0 for r in assembly.rates)


# --- agreement with the alignment engine ---
#
# Disjoint-contents grammars make the two systems comparable: a stored
# pattern either occurs in full inside the input, or shares nothing
# with it.  The network must recognise exactly the patterns the engine
# puts into positive-score alignments, noise and all.


def _disjoint_instance(rng: random.Random):
    pool = [f"s{i}" for i in range(30)]
    rng.shuffle(pool)
    patterns = []
    cursor = 0
    for k in range(rng.randint(2, 5)):
        size = rng.randint(2, 6)
        body = pool[cursor : cursor + size]
        cursor += size
        patterns.append(_wrap(f"P{k}", *body))
    chosen = [p for p in patterns if rng.random() < 0.5]
    rng.shuffle(chosen)
    stream: list[str] = []
    noise = [f"n{i}" for i in range(5)]
    for p in chosen:
        stream.extend(p.contents)
        stream.append(rng.choice(noise))
    return Grammar.of(patterns), chosen, stream


def run_agreement_suite(instances: int, seed: int) -> int:
    """Check network recognition against engine alignments on random
    single-level grammars; returns the number of instances exercised."""
    rng = random.Random(seed)
    checked = 0
    while checked < instances:
        grammar, chosen, stream = _disjoint_instance(rng)
        if not stream:
            continue
        network = InhibitionNetwork(grammar)
        recognised = set(network.present(stream))

        result = analyse(new_pattern(stream), grammar, EngineParams(top_k=8))
        aligned = {
            row.id_symbols[0]
            for scored in result.alignments
            if scored.score_bits > 0
            for row in scored.alignment.rows[1:]
        }
        assert recognised == aligned
        assert recognised == {p.id_symbols[0] for p in chosen}
        checked += 1
    return checked


def test_recognition_agrees_with_positive_alignments():
    assert run_agreement_suite(25, seed=515) == 25
