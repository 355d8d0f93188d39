"""Each checker accepts a right output and rejects a wrong one.

Run with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import math
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from checks import (  # noqa: E402
    CheckFailed,
    CostTable,
    check_agreement,
    check_has_contents,
    check_learned,
    check_probabilities,
    check_retrieval,
    check_score,
    check_structure,
    check_valid,
    raw_corpus_bits,
    recompute_score,
    structure_doc,
    tile_codes,
)
from workloads import PATTERN_LENGTH, STORE_SIZE, make_store  # noqa: E402

GRAMMAR = "1 P0 | a b c | #P0\n2 P1 | c d | #P1\n"
NEW = ("a", "b", "d")
# row 0 is the input, row 1 is P0 matching a b, row 2 is P1 matching d
ROWS = [
    (NEW, 0),
    (("P0", "a", "b", "c", "#P0"), 1),
    (("P1", "c", "d", "#P1"), 1),
]
COLUMNS = [((0, 0), (1, 1)), ((0, 1), (1, 2)), ((0, 2), (2, 2))]


def table() -> CostTable:
    return CostTable.from_pattern_text(GRAMMAR)


def test_cost_table_follows_the_documented_model():
    t = table()
    # a b #P0 P0 once, c three times, d P1 #P1 twice: totals n + 1
    assert t.totals["c"] == 4 and t.totals["d"] == 3 and t.totals["a"] == 2
    assert t.mass == 4 * 2 + 4 + 3 * 3
    assert t.cost("c") == pytest.approx(math.log2(t.mass / 4))
    assert t.cost("unseen") == pytest.approx(math.log2(t.mass))


def test_score_is_matched_input_minus_uncited_ids():
    t = table()
    want = t.cost("a") + t.cost("b") + t.cost("d") - t.cost("P0") - t.cost("P1")
    assert recompute_score(ROWS, COLUMNS, t) == pytest.approx(want)
    check_score(ROWS, COLUMNS, want, t)
    with pytest.raises(CheckFailed):
        check_score(ROWS, COLUMNS, want + 0.5, t)
    # a matched identifier is not charged
    rows = ROWS[:2] + [(("X", "P0", "#X"), 1)]
    columns = COLUMNS[:2] + [((1, 0), (2, 1))]
    assert recompute_score(rows, columns, t) == pytest.approx(
        t.cost("a") + t.cost("b") - t.cost("X")
    )


def test_valid_alignment_passes():
    check_valid(ROWS, COLUMNS, NEW)


@pytest.mark.parametrize(
    "columns, new",
    [
        ([((0, 0), (1, 2))], NEW),  # a with b: two texts
        ([COLUMNS[1], COLUMNS[0]], NEW),  # columns cross
        ([COLUMNS[0], COLUMNS[0]], NEW),  # one cell in two columns
        ([((0, 0),)], NEW),  # one-cell column
        ([((0, 0), (1, 9))], NEW),  # cell outside its row
        (COLUMNS, ("a", "b")),  # row 0 is not the input
    ],
)
def test_invalid_alignment_fails(columns, new):
    with pytest.raises(CheckFailed):
        check_valid(ROWS, columns, new)


def test_structure_matches_golden_in_any_order():
    golden = structure_doc(ROWS, COLUMNS)
    golden["columns"].reverse()
    golden["rows"].reverse()
    check_structure(ROWS, COLUMNS, golden)


def test_structure_differing_from_golden_fails():
    golden = structure_doc(ROWS, COLUMNS)
    golden["columns"][0]["members"][1] = ["P0", 2]
    with pytest.raises(CheckFailed):
        check_structure(ROWS, COLUMNS, golden)
    golden = structure_doc(ROWS, COLUMNS)
    golden["rows"].append("P2")
    with pytest.raises(CheckFailed):
        check_structure(ROWS, COLUMNS, golden)


def test_probabilities_follow_scores():
    check_probabilities([3.0, 3.0, 1.0], [0.4, 0.4, 0.2])
    for scores, probs in [
        ([3.0, 1.0], [0.5, 0.6]),  # do not sum to 1
        ([3.0, 1.0], [0.3, 0.7]),  # order reversed
        ([1.0, 3.0], [0.7, 0.3]),  # scores out of order
        ([3.0, 3.0], [0.6, 0.4]),  # tie with unequal probabilities
    ]:
        with pytest.raises(CheckFailed):
            check_probabilities(scores, probs)


def test_retrieval_needs_the_source_and_its_score():
    t = table()
    source = ROWS[1][0]
    one_row = t.cost("a") + t.cost("b") - t.cost("P0")
    check_retrieval(ROWS, one_row, source, ("a", "b"), t)
    with pytest.raises(CheckFailed):
        check_retrieval(ROWS, one_row - 0.1, source, ("a", "b"), t)
    with pytest.raises(CheckFailed):
        check_retrieval(ROWS[:1] + ROWS[2:], one_row, source, ("a", "b"), t)


def test_learned_totals_against_the_raw_corpus():
    corpus = [(10, ("a", "b", "c"))]
    raw = raw_corpus_bits(corpus)
    # a, b, c have total 11 each out of mass 33
    assert raw == pytest.approx(10 * 3 * math.log2(3))
    assert check_learned(raw, raw - 5.0, corpus) == pytest.approx(5.0)
    with pytest.raises(CheckFailed):
        check_learned(raw + 1.0, raw - 5.0, corpus)
    with pytest.raises(CheckFailed):
        check_learned(raw, raw + 1.0, corpus)


def test_learned_contents_and_agreement():
    check_has_contents([("j",), ("r", "u", "n", "s")], ("r", "u", "n", "s"))
    with pytest.raises(CheckFailed):
        check_has_contents([("r", "u", "n")], ("r", "u", "n", "s"))
    good = [("DS", "M1", "VS"), ("DP", "VP"), ("M1",)]
    check_agreement(good)
    for bad in (good[1:], good[:1], good + [("DS", "M2", "VP")]):
        with pytest.raises(CheckFailed):
            check_agreement(bad)


def test_tiling_codes_sentences_by_lexicon():
    lexicon = [(("d", "a"), "DS"), (("p", "q"), "M1")]
    assert tile_codes(("d", "a", "p", "q"), lexicon) == ("DS", "M1")
    with pytest.raises(CheckFailed):
        tile_codes(("d", "a", "x"), lexicon)


def test_store_is_balanced_and_seeded():
    store = make_store(random.Random(5))
    assert len(store) == STORE_SIZE
    assert all(len(set(c)) == PATTERN_LENGTH for c in store)
    uses = Counter(w for c in store for w in c)
    assert set(uses.values()) == {PATTERN_LENGTH}
    assert make_store(random.Random(5)) == store
    assert make_store(random.Random(6)) != store
