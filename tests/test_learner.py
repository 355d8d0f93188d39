"""Grammar induction: pricing arithmetic, candidate derivation, search optima."""

from __future__ import annotations

import math
import multiprocessing
import multiprocessing.pool
import os
import random

import pytest

from compalign import (
    Grammar,
    MultipleAlignment,
    Pattern,
    SymbolTable,
    dump_grammar,
    load_grammar,
    load_new,
    new_pattern,
    union_grammar,
)
from compalign import learner
from compalign.learner import (
    LearnParams,
    _NameSource,
    _pair_alignments,
    candidates_from_alignment,
    evaluate_grammar,
    learn,
    learn_from_encodings,
)

from conftest import FIXTURES, grammar_subset_optimum

ENGINE = LearnParams().engine


@pytest.fixture(scope="module")
def repeat_corpus():
    return tuple(load_new(FIXTURES / "corpus_repeat.sp"))


@pytest.fixture(scope="module")
def suffix_corpus():
    return tuple(load_new(FIXTURES / "corpus_shared_suffix.sp"))


@pytest.fixture(scope="module")
def two_sentence_corpus():
    return tuple(load_new(FIXTURES / "corpus_two_sentences.sp"))


# --- pricing arithmetic, pinned in closed form ---
#
# corpus_repeat is `a b c` x10: totals a,b,c = 11 each, mass 33.
# corpus_shared_suffix is `r u n s` x5 + `j o h n r u n s` x1:
# totals r,u,s = 7, n = 8 (two n's in the long sentence), j,o,h = 2,
# mass 35.


def test_empty_grammar_prices_the_raw_corpus(suffix_corpus):
    table = SymbolTable.from_patterns(suffix_corpus)
    sg = evaluate_grammar(Grammar.of(()), suffix_corpus, table, ENGINE)
    assert sg.grammar_bits == 0.0
    short = 3 * math.log2(35 / 7) + math.log2(35 / 8)
    long = 3 * math.log2(35 / 2) + 2 * math.log2(35 / 8) + 3 * math.log2(35 / 7)
    assert sg.encoding_bits == pytest.approx(5 * short + long)


def test_full_coverage_pays_code_symbols_only(repeat_corpus):
    table = SymbolTable.from_patterns(repeat_corpus)
    wrap = Pattern(("%1", "a", "b", "c", "#%1"), 1, 1, 1)
    sg = evaluate_grammar(Grammar.of([wrap]), repeat_corpus, table, ENGINE)
    # usage recount lifts the stated frequency 1 to the observed 10,
    # so every grammar symbol totals 11 over mass 55
    assert sg.grammar.patterns[0].frequency == 10
    assert sg.grammar_bits == pytest.approx(5 * math.log2(5) + math.log2(55))
    assert sg.encoding_bits == pytest.approx(10 * math.log2(5))


def test_partial_coverage_mixes_grammar_and_corpus_prices(suffix_corpus):
    table = SymbolTable.from_patterns(suffix_corpus)
    wrap = Pattern(("%1", "r", "u", "n", "s", "#%1"), 1, 1, 1)
    sg = evaluate_grammar(Grammar.of([wrap]), suffix_corpus, table, ENGINE)
    # the long sentence parses with two wrap rows (the second one picks
    # up the n of the name, a score tie the engine resolves the same way
    # every run), so the recount sees 5 + 2 = 7 uses: grammar symbols
    # total 8 each over mass 48, every in-grammar symbol costs log2(6)
    assert sg.grammar.patterns[0].frequency == 7
    assert sg.grammar_bits == pytest.approx(6 * math.log2(6) + math.log2(48))
    # codes pay grammar prices, residual j o h keep their corpus price
    assert sg.encoding_bits == pytest.approx(7 * math.log2(6) + 3 * math.log2(35 / 2))


def test_unused_pattern_strictly_inflates_total(suffix_corpus):
    table = SymbolTable.from_patterns(suffix_corpus)
    wrap = Pattern(("%1", "r", "u", "n", "s", "#%1"), 1, 1, 1)
    unused = Pattern(("%9", "z", "q", "#%9"), 1, 1, 1)
    small = evaluate_grammar(Grammar.of([wrap]), suffix_corpus, table, ENGINE)
    grown = evaluate_grammar(Grammar.of([wrap, unused]), suffix_corpus, table, ENGINE)
    assert grown.total_bits > small.total_bits
    # the recount never floors a pattern below frequency one
    assert [p.frequency for p in grown.grammar.patterns] == [7, 1]


def test_total_is_the_sum_of_both_terms(repeat_corpus):
    table = SymbolTable.from_patterns(repeat_corpus)
    wrap = Pattern(("%1", "a", "b", "c", "#%1"), 1, 1, 1)
    sg = evaluate_grammar(Grammar.of([wrap]), repeat_corpus, table, ENGINE)
    assert sg.total_bits == sg.grammar_bits + sg.encoding_bits


# --- candidate derivation ---


def test_no_columns_no_candidates():
    bare = MultipleAlignment((new_pattern(["a", "b"]),), ())
    names = _NameSource(set())
    derived = candidates_from_alignment(bare, Grammar.of(()), names)
    assert derived.all_patterns() == []
    assert not derived.replaced


def test_pair_alignment_suggests_shared_and_residual_wraps(two_sentence_corpus):
    def is_suffix_match(al):
        # both sentences matched on their last four positions
        if len(al.columns) != 4:
            return False
        spots = sorted(p for col in al.columns for _, p in col.members)
        return spots == [4, 4, 5, 5, 6, 6, 7, 7]

    alignments = [
        al for al in _pair_alignments(two_sentence_corpus, ENGINE)
        if is_suffix_match(al)
    ]
    assert alignments, "expected a pair alignment matching the shared suffix"
    names = _NameSource({s for p in two_sentence_corpus for s in p.symbols})
    derived = candidates_from_alignment(alignments[0], Grammar.of(()), names)
    wrapped = {p.contents for p in derived.wrapped}
    assert ("r", "u", "n", "s") in wrapped
    assert ("j", "o", "h", "n") in wrapped or ("m", "a", "r", "y") in wrapped
    # abstract rewrites cite the shared wrap by its identifier pair
    runs_wrap = next(p for p in derived.wrapped if p.contents == ("r", "u", "n", "s"))
    opener = runs_wrap.id_symbols[0]
    assert derived.abstracts
    for abstract in derived.abstracts:
        assert opener in abstract.contents
        assert f"#{opener}" in abstract.contents


# --- learning outcomes ---


def test_repeated_sentence_learns_its_incorporation(repeat_corpus):
    table = SymbolTable.from_patterns(repeat_corpus)
    empty = evaluate_grammar(Grammar.of(()), repeat_corpus, table, ENGINE)
    result = learn(repeat_corpus)
    best = result.best
    assert best.total_bits < empty.total_bits
    assert empty.total_bits == pytest.approx(30 * math.log2(3))
    assert best.total_bits == pytest.approx(15 * math.log2(5) + math.log2(55))
    (pattern,) = best.grammar.patterns
    assert pattern.contents == ("a", "b", "c")
    assert pattern.id_len == 1 and pattern.close_len == 1
    assert pattern.frequency == 10


def test_shared_suffix_learning_isolates_the_suffix(suffix_corpus):
    result = learn(suffix_corpus)
    best = result.best
    assert any(p.contents == ("r", "u", "n", "s") for p in best.grammar.patterns)
    # closed form for the winning single-wrap grammar, see the partial
    # coverage test above for the two pricing pieces
    assert best.total_bits == pytest.approx(
        13 * math.log2(6) + 3 * math.log2(35 / 2) + math.log2(48)
    )
    totals = [sg.total_bits for sg in result.ranking]
    assert totals == sorted(totals)
    assert any(not sg.grammar.patterns for sg in result.ranking)


def test_beam_search_matches_exhaustive_subset_optimum(suffix_corpus):
    params = LearnParams()
    oracle = grammar_subset_optimum(suffix_corpus, params)
    got = learn(suffix_corpus, params).best
    assert got.total_bits == pytest.approx(oracle.total_bits)


def test_unrelated_sentences_stay_separate():
    rng = random.Random(909)
    alphabet = [f"w{i}" for i in range(20)]
    corpus = tuple(
        Pattern(tuple(rng.choice(alphabet) for _ in range(5)), frequency=5)
        for _ in range(10)
    )
    result = learn(corpus, LearnParams(grammar_beam=6, passes=2))
    item_bodies = {p.symbols for p in corpus}
    assert result.best.grammar.patterns
    for pattern in result.best.grammar.patterns:
        # whole-sentence incorporations only; no cross-sentence segment
        # pattern survives pricing
        assert pattern.contents in item_bodies


def test_learn_rejects_empty_corpus():
    with pytest.raises(ValueError):
        learn(())


@pytest.mark.parametrize(
    "field, value, minimum",
    [
        ("grammar_beam", 0, 2),
        ("grammar_beam", 1, 2),
        ("passes", -1, 0),
        ("encoding_passes", -1, 0),
    ],
)
def test_learn_params_reject_out_of_range_values(field, value, minimum):
    with pytest.raises(ValueError, match=f"{field} must be at least {minimum}"):
        LearnParams(**{field: value})
    assert getattr(LearnParams(**{field: minimum}), field) == minimum


def test_learn_is_deterministic(suffix_corpus):
    a = learn(suffix_corpus)
    b = learn(suffix_corpus)
    assert [
        (tuple(p.symbols for p in sg.grammar.patterns), sg.total_bits)
        for sg in a.ranking
    ] == [
        (tuple(p.symbols for p in sg.grammar.patterns), sg.total_bits)
        for sg in b.ranking
    ]


# --- second-level learning over encodings ---


def test_union_grammar_keeps_base_and_adds_new():
    base = Grammar.of([Pattern(("%1", "a", "#%1"), 3, 1, 1)])
    second = Grammar.of(
        [
            Pattern(("%1", "a", "#%1"), 9, 1, 1),  # same symbols: dropped
            Pattern(("%2", "b", "#%2"), 1, 1, 1),
        ]
    )
    merged = union_grammar(base, second)
    assert [p.symbols for p in merged.patterns] == [
        ("%1", "a", "#%1"),
        ("%2", "b", "#%2"),
    ]
    assert merged.patterns[0].frequency == 3


def test_agreement_codes_learn_discontinuous_dependencies():
    lexicon = load_grammar(FIXTURES / "agreement_lexicon.sp")
    corpus = load_new(FIXTURES / "agreement_corpus.sp")
    result = learn_from_encodings(lexicon, corpus, LearnParams(encoding_passes=2))
    assert result is not None
    best = result.best.grammar
    pairs = []
    for p in best.patterns:
        has = {s for s in p.contents if s in {"DS", "VS", "DP", "VP"}}
        pairs.append(has)
    # each agreement class gets one pattern tying determiner to verb
    # across the variable middle
    assert {"DS", "VS"} in pairs
    assert {"DP", "VP"} in pairs
    # and no pattern mixes the classes
    for has in pairs:
        assert not ({"DS", "VP"} <= has or {"DP", "VS"} <= has)
    for p in best.patterns:
        if {"DS", "VS"} <= set(p.contents):
            # all three singular sentence shapes ride this one pattern,
            # whatever middle word sits in the gap
            assert p.frequency == 30


def test_learn_attaches_encoding_level_when_asked(repeat_corpus):
    result = learn(repeat_corpus, LearnParams(encoding_passes=1))
    assert result.encoding_level is not None
    plain = learn(repeat_corpus)
    assert plain.encoding_level is None


# --- the pool that prices each pass's candidate grammars ---


def _ranking_text(result):
    return [(repr(sg.total_bits), dump_grammar(sg.grammar)) for sg in result.ranking]


def test_learn_ranking_is_the_same_at_any_workers(suffix_corpus):
    texts = [_ranking_text(learn(suffix_corpus, workers=w)) for w in (1, 2, None)]
    assert texts[0] == texts[1] == texts[2]
    lexicon = load_grammar(FIXTURES / "agreement_lexicon.sp")
    corpus = load_new(FIXTURES / "agreement_corpus.sp")
    params = LearnParams(encoding_passes=2)
    texts = [
        _ranking_text(learn_from_encodings(lexicon, corpus, params, workers=w))
        for w in (1, 2, None)
    ]
    assert texts[0] == texts[1] == texts[2]


def test_learn_opens_one_pool_and_leaves_no_process(suffix_corpus, monkeypatch):
    opened = []

    class CountedPool(multiprocessing.pool.Pool):
        def __init__(self, processes, *args, **kwargs):
            # held here, the pool cannot be collected before learn ends it
            opened.append((self, processes))
            super().__init__(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool, "Pool", CountedPool)
    monkeypatch.setattr(learner, "available_cpus", lambda: 2)
    result = learn(suffix_corpus, LearnParams(passes=3), workers=8)
    assert result.passes_run > 1
    assert [size for _, size in opened] == [2]
    assert multiprocessing.active_children() == []


def test_worker_error_reaches_the_caller_and_no_process_outlives_it(
    suffix_corpus, monkeypatch
):
    parent = os.getpid()
    real = learner.evaluate_grammar

    def failing(grammar, *args):
        if os.getpid() != parent:
            raise RuntimeError("priced in a worker")
        return real(grammar, *args)

    monkeypatch.setattr(learner, "available_cpus", lambda: 2)
    monkeypatch.setattr(learner, "evaluate_grammar", failing)
    with pytest.raises(RuntimeError, match="priced in a worker"):
        learn(suffix_corpus, workers=2)
    assert multiprocessing.active_children() == []


def test_one_worker_opens_no_pool(repeat_corpus, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a pool was opened")

    monkeypatch.setattr(multiprocessing.pool, "Pool", refuse)
    monkeypatch.setattr(learner, "available_cpus", lambda: 2)
    params = LearnParams(encoding_passes=1)
    result = learn(repeat_corpus, params, workers=1)
    assert result.encoding_level is not None
    with pytest.raises(AssertionError, match="a pool was opened"):
        learn(repeat_corpus, params)


def test_learn_inside_a_pool_worker_prices_inline(repeat_corpus, monkeypatch):
    # a daemonic worker may not start processes of its own
    monkeypatch.setattr(learner, "available_cpus", lambda: 2)
    with multiprocessing.Pool(1) as outer:
        nested = outer.apply_async(learn, (repeat_corpus,)).get(timeout=300)
    assert _ranking_text(nested) == _ranking_text(learn(repeat_corpus, workers=1))


def test_learn_without_fork_prices_inline(suffix_corpus, monkeypatch):
    # a spawn worker re-imports the caller's __main__, which a script
    # read from stdin cannot do; without fork, learn starts no process
    def refuse(*args, **kwargs):
        raise AssertionError("a pool was opened")

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing.pool, "Pool", refuse)
    monkeypatch.setattr(learner, "available_cpus", lambda: 2)
    result = learn(suffix_corpus, workers=2)
    assert multiprocessing.active_children() == []
    monkeypatch.undo()
    assert _ranking_text(result) == _ranking_text(learn(suffix_corpus, workers=1))


# --- each grammar shape priced once ---


def _fields(scored):
    return (
        repr(scored.grammar_bits),
        repr(scored.encoding_bits),
        [
            (p.symbols, p.frequency, p.id_len, p.close_len, p.serial)
            for p in scored.grammar.patterns
        ],
    )


def _scorer_calls(monkeypatch, run):
    """Run ``run()`` at one worker; return each scorer call and each pricing."""
    real_call = learner._GrammarScorer.__call__
    real_evaluate = learner.evaluate_grammar
    calls, priced = [], []

    def call(self, grammars):
        out = real_call(self, grammars)
        calls.append((self.job, list(grammars), out))
        return out

    def evaluate(grammar, corpus, corpus_table, eparams):
        priced.append((grammar, corpus_table))
        return real_evaluate(grammar, corpus, corpus_table, eparams)

    monkeypatch.setattr(learner._GrammarScorer, "__call__", call)
    monkeypatch.setattr(learner, "evaluate_grammar", evaluate)
    run()
    monkeypatch.undo()
    return calls, priced


def test_shape_pricing_ignores_the_names_of_invented_texts(suffix_corpus, monkeypatch):
    # the memo's premise: a grammar priced under a bijective renaming of
    # its non-corpus texts gives the same bits and frequencies.  This
    # fails once pricing reads the order or the hash of those texts
    calls, _ = _scorer_calls(monkeypatch, lambda: learn(suffix_corpus, workers=1))
    table = SymbolTable.from_patterns(suffix_corpus)
    grammars = [g for _, gs, _ in calls for g in gs]
    assert len(grammars) > 50
    rng = random.Random(4242)
    for g in grammars:
        texts = (s for p in g.patterns for s in p.symbols)
        invented = list(dict.fromkeys(s for s in texts if s not in table.totals))
        assert invented
        fresh = [f"n{k}" for k in range(len(invented))]
        rng.shuffle(fresh)
        rename = dict(zip(invented, fresh))
        renamed = Grammar.of(
            Pattern(
                tuple(rename.get(s, s) for s in p.symbols),
                p.frequency,
                p.id_len,
                p.close_len,
            )
            for p in g.patterns
        )
        a = evaluate_grammar(g, suffix_corpus, table, ENGINE)
        b = evaluate_grammar(renamed, suffix_corpus, table, ENGINE)
        assert repr(a.grammar_bits) == repr(b.grammar_bits)
        assert repr(a.encoding_bits) == repr(b.encoding_bits)
        assert [p.frequency for p in a.grammar.patterns] == [
            p.frequency for p in b.grammar.patterns
        ]


@pytest.mark.parametrize("case", ["corpus_shared_suffix", "agreement"])
def test_shape_memo_prices_each_shape_once_and_exactly(case, monkeypatch):
    if case == "agreement":
        lexicon = load_grammar(FIXTURES / "agreement_lexicon.sp")
        corpus = load_new(FIXTURES / "agreement_corpus.sp")
        params = LearnParams(encoding_passes=2)
        run = lambda: learn_from_encodings(lexicon, corpus, params, workers=1)
    else:
        run = lambda: learn(load_new(FIXTURES / f"{case}.sp"), workers=1)
    calls, priced = _scorer_calls(monkeypatch, run)
    # one learn call, so one corpus table behind every pricing
    (table,) = {id(t): t for _, t in priced}.values()
    scorer = learner._GrammarScorer(calls[0][0], 1)
    assert scorer.job[1] is table
    shapes = [scorer.shape(g) for g, _ in priced]
    assert len(shapes) == len(set(shapes))
    # the empty grammar is priced outside the scorer; the memo serves
    # some of the others
    offered = sum(len(gs) for _, gs, _ in calls)
    assert len(priced) - 1 < offered
    for job, grammars, out in calls:
        assert len(out) == len(grammars)
        for g, got in zip(grammars, out):
            assert _fields(got) == _fields(evaluate_grammar(g, *job))


def test_shape_names_invented_texts_but_keeps_frequencies_and_spans(
    suffix_corpus, monkeypatch
):
    table = SymbolTable.from_patterns(suffix_corpus)
    scorer = learner._GrammarScorer((suffix_corpus, table, ENGINE), 1)
    wrap = Pattern(("%1", "r", "u", "n", "s", "#%1"), 1, 1, 1)
    grammars = [
        Grammar.of([wrap]),
        Grammar.of([Pattern(("%7", "r", "u", "n", "s", "#%3"), 1, 1, 1)]),
        Grammar.of([Pattern(wrap.symbols, 3, 1, 1)]),
        Grammar.of([Pattern(wrap.symbols, 1, 1, 0)]),
    ]
    real = learner.evaluate_grammar
    priced = []

    def evaluate(grammar, *job):
        priced.append(grammar)
        return real(grammar, *job)

    monkeypatch.setattr(learner, "evaluate_grammar", evaluate)
    out = scorer(grammars)
    assert [g.patterns[0].symbols for g in priced] == [wrap.symbols] * 3
    assert _fields(out[1]) == _fields(real(grammars[1], suffix_corpus, table, ENGINE))
    assert out[1].grammar.patterns[0].symbols[0] == "%7"
    # a later pass prices nothing it has seen
    scorer(grammars[::-1])
    assert len(priced) == 3
