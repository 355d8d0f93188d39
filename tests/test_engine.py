"""Alignment construction: golden figures, exhaustive closure, probabilities."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compalign import (
    EngineParams,
    Grammar,
    MatchIndex,
    MultipleAlignment,
    Pattern,
    Span,
    SymbolTable,
    alignment_probabilities,
    analyse,
    analyse_serialized,
    match_alignment,
    new_pattern,
    score_alignment,
    serialize_alignment,
)
from compalign import engine
from compalign.engine import chain_gain, gains_on, job_bound, merge_chain

from conftest import (
    GENEROUS_PARAMS,
    chain_is_legal,
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


def test_one_analysis_runs_each_match_job_once(request):
    # each stage expands only the alignments the stage before added, so
    # a fresh index meets every job of one analysis exactly once
    for stem in ("parsing", "class"):
        new = request.getfixturevalue(f"{stem}_new")
        grammar = request.getfixturevalue(f"{stem}_grammar")
        index = MatchIndex()
        indexed = analyse_serialized(new, grammar, index=index)
        assert index.hits == 0, stem
        assert index.misses > 0, stem
        assert indexed == analyse_serialized(new, grammar), stem


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


def _two_row_base():
    """``a b c`` with ``%1 a b #%1`` matched on ``a`` and ``b``."""
    return merge_chain(
        _simple_base(),
        Pattern(("%1", "a", "b", "#%1"), 1, 1, 1, serial=0),
        ((0, 1), (1, 2)),
    )


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
    base = _two_row_base()
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
    base = _two_row_base()
    slots = base.slots()
    a_slot = next(i for i, s in enumerate(slots) if s.kind == "col" and s.text == "a")
    second = Pattern(("%2", "a", "#%2"), 1, 1, 1, serial=1)
    assert merge_chain(base, second, ((a_slot, 1),)) is None


def test_matcher_opens_no_fresh_column_without_contents():
    # two identification cells unified into a fresh column touch no
    # contents, so they would erase their own citation cost; the matcher
    # never takes that step, and merge_chain builds only its chains
    base = _two_row_base()
    slots = base.slots()
    id_slot = next(i for i, s in enumerate(slots) if s.text == "%1")
    c_slot = next(i for i, s in enumerate(slots) if s.text == "c")
    table = SymbolTable.from_patterns(base.rows)
    params = EngineParams()
    bare_id = Pattern(("%1", "c", "#%1"), 1, 1, 1, serial=1)
    assert [c for c, _ in match_alignment(base, bare_id, table, params)] == [
        ((c_slot, 1),)
    ]
    # the same cell may pair with the contents of the new row
    cites = Pattern(("%2", "%1", "#%2"), 1, 1, 1, serial=1)
    chains = [c for c, _ in match_alignment(base, cites, table, params)]
    assert chains == [((id_slot, 1),)]
    assert merge_chain(base, cites, chains[0]) is not None


# --- the pool cut: scores predicted before building ---


def _accepted_merges(new, grammar, params):
    """(pool entry, pattern, chain, merged) for every chain ``merge_chain`` accepts.

    Covers every alignment of the final pool against every grammar pattern.
    """
    table = grammar.table
    for scored in analyse(new, grammar, params).alignments:
        for pat in grammar.patterns:
            for chain, _ in match_alignment(scored.alignment, pat, table, params):
                merged = merge_chain(scored.alignment, pat, chain)
                if merged is not None:
                    yield scored, pat, chain, merged


def _gain_checks(new, grammar, params):
    """(|base + chain_gain - built score|, unifies a stored ID cell) per merge."""
    table = grammar.table
    checks = []
    for scored, pat, chain, merged in _accepted_merges(new, grammar, params):
        slots = scored.alignment.slots()
        built = score_alignment(merged, table).score_bits
        predicted = scored.score_bits + chain_gain(scored.alignment, pat, chain, table)
        unifies_id = any(
            slots[i].kind == "cell"
            and slots[i].cells[0][0] > 0
            and slots[i].span is Span.ID
            for i, _ in chain
        )
        checks.append((abs(predicted - built), unifies_id))
    return checks


def _bound_slack(new, grammar, params):
    """``job_bound - chain_gain`` for every accepted merge of the final pool."""
    table = grammar.table
    slack = []
    for scored, pat, chain, _ in _accepted_merges(new, grammar, params):
        slots = scored.alignment.slots()
        texts = {slot.text for slot in slots}
        gain_texts = {slot.text for slot in slots if gains_on(slot)}
        bound = job_bound(pat, gain_texts, texts, table)
        slack.append(bound - chain_gain(scored.alignment, pat, chain, table))
    return slack


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_chain_gain_predicts_the_merged_score(seed):
    new, grammar = random_micro_instance(random.Random(seed))
    errors = [e for e, _ in _gain_checks(new, grammar, EngineParams(top_k=100))]
    assert all(e < 1e-9 for e in errors), max(errors)


def test_chain_gain_predicts_merged_scores_that_unify_ids(class_grammar, class_new):
    # micro instances never put an identification cell into a column;
    # the full class pool does, so this covers the stored-row ID term
    checks = _gain_checks(class_new, class_grammar, EngineParams(top_k=100))
    assert any(unifies_id for _, unifies_id in checks)
    assert all(e < 1e-9 for e, _ in checks), max(e for e, _ in checks)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_job_bound_is_never_below_a_chain_gain(seed):
    new, grammar = random_micro_instance(random.Random(seed))
    slack = _bound_slack(new, grammar, EngineParams(top_k=100))
    assert all(s > -1e-9 for s in slack), min(slack)


def test_job_bound_holds_where_ids_unify(class_grammar, class_new):
    # the class pool matches identification symbols of the new row, which
    # the bound must not subtract
    slack = _bound_slack(class_new, class_grammar, EngineParams(top_k=100))
    assert slack
    assert all(s > -1e-9 for s in slack), min(slack)


class _NoOpObserver:
    """A StageObserver that records nothing; attaching one disables the cut."""

    def record_stage(self, stage, entries):
        pass


def _outcome(result):
    ranked = [
        (repr(s.score_bits), serialize_alignment(s.alignment))
        for s in result.alignments
    ]
    return ranked, result.stages_run


def _retrieval_instance(seed=5, size=30, length=6):
    """A seeded store of flat patterns ``Pk | w... | #Pk`` and one stored
    pattern's contents with one word dropped, as retrieval queries it."""
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(size)]
    store = [rng.sample(words, length) for _ in range(size)]
    grammar = Grammar.of(
        Pattern((f"P{k}", *ws, f"#P{k}"), 1, 1, 1) for k, ws in enumerate(store)
    )
    query = list(store[rng.randrange(size)])
    del query[rng.randrange(length)]
    return new_pattern(query), grammar


@pytest.mark.parametrize("beam", [3, 10])
def test_pool_cut_and_job_skip_change_nothing(request, monkeypatch, beam):
    params = EngineParams(alignment_beam=beam, top_k=beam)
    inputs = [
        (request.getfixturevalue(f"{stem}_new"), request.getfixturevalue(f"{stem}_grammar"))
        for stem in ("parsing", "class")
    ]
    inputs += [random_micro_instance(random.Random(seed)) for seed in range(100)]
    inputs.append(_retrieval_instance())
    calls = Counter()
    real_match = engine.match_alignment

    def counted_match(*args):
        calls["match"] += 1
        return real_match(*args)

    monkeypatch.setattr(engine, "match_alignment", counted_match)
    for new, grammar in inputs:
        calls.clear()
        cut = analyse(new, grammar, params)
        cut_jobs = calls["match"]
        calls.clear()
        uncut = analyse(new, grammar, params, audit=_NoOpObserver())
        uncut_jobs = calls["match"]
        assert _outcome(cut) == _outcome(uncut), new.symbols
        assert cut_jobs <= uncut_jobs, new.symbols
    # the retrieval input comes last: there the job bound skips jobs
    assert cut_jobs < uncut_jobs



@pytest.mark.parametrize("beam", [3, 10])
def test_cut_floor_rises_within_a_stage(monkeypatch, beam):
    # one stage starts from the bare alignment, a pool of one, so only a
    # floor that rises as fresh alignments are scored can cut anything
    new, grammar = _retrieval_instance()
    params = EngineParams(alignment_beam=beam, top_k=beam, max_stages=1)
    calls = Counter()
    real_merge = engine.merge_chain

    def counted_merge(*args):
        calls["merge"] += 1
        return real_merge(*args)

    monkeypatch.setattr(engine, "merge_chain", counted_merge)
    cut = analyse(new, grammar, params)
    cut_merges = calls["merge"]
    calls.clear()
    uncut = analyse(new, grammar, params, audit=_NoOpObserver())
    assert _outcome(cut) == _outcome(uncut)
    assert cut_merges < calls["merge"], (cut_merges, calls["merge"])


def test_merge_chain_only_sees_chains_that_add_a_column(request, monkeypatch):
    # a chain with no step on a cell can only join existing columns,
    # which merge_chain rejects, so analyse never hands one over
    inputs = [
        (request.getfixturevalue(f"{stem}_new"), request.getfixturevalue(f"{stem}_grammar"))
        for stem in ("class", "parsing")
    ]
    inputs.append(_retrieval_instance())
    real_merge = engine.merge_chain
    chains = []

    def checked_merge(base, old, chain):
        slots = base.slots()
        chains.append([slots[i].kind for i, _ in chain])
        return real_merge(base, old, chain)

    monkeypatch.setattr(engine, "merge_chain", checked_merge)
    for new, grammar in inputs:
        analyse(new, grammar)
    assert chains
    assert all("cell" in kinds for kinds in chains)


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
    """Best score over literal enumeration of legal merges, no beams anywhere.

    Bounded by ``max_rows`` old rows; exponential, so callers keep the
    instances tiny.  Exists to validate the coverage reduction above.
    """
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
                # merge_chain trusts its chains to be legal matcher steps
                if not chain_is_legal(al, pat, chain):
                    continue
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
