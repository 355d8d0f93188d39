"""Shared fixtures: paths, loaded grammars, oracles, golden-file helpers."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from compalign import (
    EngineParams,
    Grammar,
    MultipleAlignment,
    Pattern,
    load_grammar,
    load_new,
    new_pattern,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# well past the defaults on every axis that bounds the search
GENEROUS_PARAMS = EngineParams(
    beam_width=256, max_alternatives=8, alignment_beam=200, max_stages=12, top_k=5
)


@pytest.fixture(scope="session")
def parsing_grammar() -> Grammar:
    return load_grammar(FIXTURES / "parsing_grammar.sp")


@pytest.fixture(scope="session")
def parsing_new():
    return load_new(FIXTURES / "parsing_new.sp")[0]


@pytest.fixture(scope="session")
def class_grammar() -> Grammar:
    return load_grammar(FIXTURES / "class_grammar.sp")


@pytest.fixture(scope="session")
def class_new():
    return load_new(FIXTURES / "class_new.sp")[0]


def golden(name: str) -> dict:
    with open(FIXTURES / name) as f:
        return json.load(f)


def row_name(pattern) -> str:
    """Stable row label: stored rows go by their first symbol."""
    return pattern.symbols[0]


def structure_doc(alignment: MultipleAlignment) -> dict:
    """The same shape the golden files use, for direct comparison.

    Row 0 is always called "new"; stored rows go by their first symbol,
    which is unique in both fixture grammars.
    """
    names = ["new"] + [row_name(p) for p in alignment.rows[1:]]
    columns = []
    for col in alignment.columns:
        members = sorted([names[r], p] for r, p in col.members)
        columns.append({"text": alignment.text_of(col), "members": members})
    return {"rows": names, "columns": columns}


def same_structure(alignment: MultipleAlignment, golden_doc: dict) -> bool:
    """Row set and column membership match, ignoring ordering."""
    doc = structure_doc(alignment)
    if sorted(doc["rows"]) != sorted(golden_doc["rows"]):
        return False
    ours = {json.dumps(c, sort_keys=True) for c in doc["columns"]}
    theirs = {json.dumps(c, sort_keys=True) for c in golden_doc["columns"]}
    return ours == theirs


# --- alignment-optimum oracle over random micro instances ---
#
# These instances keep identifier symbols (%k / #%k) out of every
# contents span and out of New, so no id symbol can ever sit in a
# column.  Under that restriction the score of any legal alignment
# depends only on (a) which New positions some column covers and (b)
# which old rows are present: a present row always cites its whole id
# span, and columns among old rows move neither term.  Each row covers
# a monotone chain of New positions independently of the other rows,
# so the optimum over all legal alignments reduces to a sweep over
# coverage masks: gain of the covered symbols minus the cheapest id
# cost whose chain masks union to the mask.  test_engine.py checks
# this reduction against literal merge enumeration on tiny cases.


def random_micro_instance(rng):
    letters = "abcd"
    new = new_pattern(rng.choice(letters) for _ in range(rng.randint(2, 8)))
    patterns = []
    for s in range(rng.randint(1, 4)):
        body = [rng.choice(letters) for _ in range(rng.randint(1, 4))]
        name = f"%{s}"
        patterns.append(Pattern((name, *body, f"#{name}"), rng.randint(1, 3), 1, 1))
    return new, Grammar.of(patterns)


def chain_masks(texts, pattern):
    """Coverage masks of every monotone non-empty chain against ``texts``."""
    pairs = [
        (i, j)
        for i, text in enumerate(texts)
        for j, sym in enumerate(pattern.symbols)
        if sym == text
    ]
    masks = set()

    def extend(k, last_i, last_j, mask):
        if mask:
            masks.add(mask)
        for n in range(k, len(pairs)):
            i, j = pairs[n]
            if i > last_i and j > last_j:
                extend(n + 1, i, j, mask | (1 << i))

    extend(0, -1, -1, 0)
    return masks


def exhaustive_best_score(new, grammar):
    """Optimal score over all legal alignments, by the coverage reduction."""
    table = grammar.table
    texts = new.symbols
    n = len(texts)
    moves = []
    for p in grammar.patterns:
        id_cost = sum(table.cost(t) for t in p.id_symbols)
        for mask in chain_masks(texts, p):
            moves.append((mask, id_cost))
    INF = float("inf")
    dp = [INF] * (1 << n)
    dp[0] = 0.0
    for mask in range(1 << n):
        if dp[mask] is INF:
            continue
        for m, c in moves:
            grown = mask | m
            if grown != mask and dp[mask] + c < dp[grown]:
                dp[grown] = dp[mask] + c
    best = 0.0
    for mask in range(1 << n):
        if dp[mask] < INF:
            gain = sum(table.cost(texts[i]) for i in range(n) if mask >> i & 1)
            best = max(best, gain - dp[mask])
    return best


# --- learner search oracle ---
#
# Exhaustive search over every grammar assembled from the candidate
# patterns this corpus can ever suggest, up to a small pattern count.
# It reuses the pricing function on purpose: the beam SEARCH is what
# it checks, while the pricing arithmetic is pinned separately by the
# closed-form tests in test_learner.py.


def canonical_ids(pattern):
    """Rename fresh %n identifiers in order of appearance.

    Candidate derivation invents identifier names in generation order,
    so structurally identical suggestions from different code paths
    differ only in those names.  Scores never depend on the names.
    """
    from dataclasses import replace

    mapping: dict[str, str] = {}
    out = []
    for s in pattern.symbols:
        base = s.lstrip("#")
        if base.startswith("%"):
            if base not in mapping:
                mapping[base] = f"%{len(mapping) + 1}"
            out.append(("#" if s.startswith("#") else "") + mapping[base])
        else:
            out.append(s)
    return replace(pattern, symbols=tuple(out), frequency=1)


def candidate_universe(corpus, params):
    """Every structurally distinct candidate reachable in two rounds."""
    from compalign import analyse
    from compalign.learner import (
        _NameSource,
        _pair_alignments,
        candidates_from_alignment,
        incorporate,
    )

    names = _NameSource({s for p in corpus for s in p.symbols})
    universe: dict[tuple, Pattern] = {}

    def offer(p):
        c = canonical_ids(p)
        universe.setdefault(c.symbols, c)

    for item in corpus:
        offer(incorporate(item, names))
    for al in _pair_alignments(corpus, params.engine):
        for p in candidates_from_alignment(al, Grammar.of(()), names).all_patterns():
            offer(p)
    for base in list(universe.values()):
        g = Grammar.of([base])
        for item in corpus:
            result = analyse(item, g, params.engine)
            for cand in result.alignments[:2]:
                if cand.alignment.columns:
                    derived = candidates_from_alignment(cand.alignment, g, names)
                    for p in derived.all_patterns():
                        offer(p)
    return list(universe.values())


def grammar_subset_optimum(corpus, params, max_patterns=3):
    """Best-priced grammar over all candidate subsets of bounded size."""
    import itertools

    from compalign import SymbolTable
    from compalign.learner import evaluate_grammar

    corpus_table = SymbolTable.from_patterns(corpus)
    pats = candidate_universe(corpus, params)
    best = None
    for r in range(0, max_patterns + 1):
        for combo in itertools.combinations(pats, r):
            sg = evaluate_grammar(Grammar.of(combo), corpus, corpus_table, params.engine)
            if best is None or sg.total_bits < best.total_bits:
                best = sg
    return best
