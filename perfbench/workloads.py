"""The benchmark's three workloads, each a list of checked operations.

A workload's set-up builds its inputs from the seed and returns the
``Operation`` list of one round.  A run repeats whole rounds of it.
Every operation calls the package only through the names ``compalign``
exports, looked up at call time so a traced run sees them.
Each output is checked by ``checks``, which never runs the package's
code; a check returns the bits the output saves, which must repeat
exactly from round to round.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import (
    CostTable,
    alignment_view,
    check_agreement,
    check_alignment,
    check_has_contents,
    check_learned,
    check_probabilities,
    check_retrieval,
    check_structure,
    contents_of,
    read_pattern_lines,
    require,
    tile_codes,
)

# retrieve: stored patterns (and words), words per pattern, queries per
# round.  Every word is used exactly PATTERN_LENGTH times, so all words
# cost the same and the best score of a query does not depend on the seed.
# Queries differ in cost by up to a fifth, so a round takes ten of them.
STORE_SIZE = 300
PATTERN_LENGTH = 6
QUERIES = 10


@dataclass(frozen=True)
class Operation:
    key: str
    run: Callable[[], object]
    check: Callable[[object], float]


def _check_analysis(result, new, table: CostTable) -> None:
    """Probabilities, validity and score of every reported alignment."""
    scores = [s.score_bits for s in result.alignments]
    check_probabilities(scores, list(result.probabilities))
    for scored in result.alignments:
        check_alignment(scored.alignment, scored.score_bits, new, table)


def parse_operations(api, root: Path, rng: random.Random) -> list[Operation]:
    """Deep hierarchical parses of the two fixture inputs with default parameters.

    A round parses the ``parsing`` input twice and ``class`` once: with the
    two equally often, the median operation would sit between two groups
    about three times apart and jump with the slowest ``class`` parse and
    the fastest ``parsing`` one.
    """
    ops = {}
    for stem in ("parsing", "class"):
        grammar_path = root / "fixtures" / f"{stem}_grammar.sp"
        table = CostTable.from_pattern_text(grammar_path.read_text())
        grammar = api.load_grammar(grammar_path)
        new = api.load_new(root / "fixtures" / f"{stem}_new.sp")[0]
        golden = json.loads((root / "fixtures" / f"{stem}_golden.json").read_text())

        def run(new=new, grammar=grammar):
            return api.analyse(new, grammar, api.EngineParams())

        def check(result, new=new, table=table, golden=golden) -> float:
            _check_analysis(result, new.symbols, table)
            best = result.alignments[0]
            check_structure(*alignment_view(best.alignment), golden)
            require(
                abs(best.score_bits - golden["score_bits"]) < 1e-6,
                f"best score {best.score_bits!r}, golden {golden['score_bits']!r}",
            )
            return best.score_bits

        ops[stem] = Operation(stem, run, check)
    return [ops["parsing"], ops["parsing"], ops["class"]]


def make_store(rng: random.Random) -> list[tuple[str, ...]]:
    """Contents of STORE_SIZE patterns over STORE_SIZE words.

    Position j of every pattern takes its word from its own random
    permutation of the vocabulary, so each word is used once per
    position; a word that would repeat inside one pattern is swapped
    with another pattern's word at that position.
    """
    words = [f"w{i:03d}" for i in range(STORE_SIZE)]
    rows: list[list[str]] = [[] for _ in range(STORE_SIZE)]
    for _ in range(PATTERN_LENGTH):
        perm = words[:]
        rng.shuffle(perm)
        for k in range(STORE_SIZE):
            while perm[k] in rows[k]:
                other = rng.randrange(STORE_SIZE)
                if perm[other] not in rows[k] and perm[k] not in rows[other]:
                    perm[k], perm[other] = perm[other], perm[k]
        for k in range(STORE_SIZE):
            rows[k].append(perm[k])
    return [tuple(r) for r in rows]


def retrieve_operations(api, root: Path, rng: random.Random) -> list[Operation]:
    """Queries against a generated store of flat patterns ``Pk | w... | #Pk``."""
    store = make_store(rng)
    text = "".join(f"1 P{k} | {' '.join(c)} | #P{k}\n" for k, c in enumerate(store))
    table = CostTable.from_pattern_text(text)
    grammar = api.parse_grammar_text(text)
    ops = []
    for k in sorted(rng.sample(range(STORE_SIZE), QUERIES)):
        query = list(store[k])
        del query[rng.randrange(PATTERN_LENGTH)]
        new = api.new_pattern(query)
        source = (f"P{k}", *store[k], f"#P{k}")

        def run(new=new):
            return api.analyse(new, grammar, api.EngineParams())

        def check(result, query=tuple(query), source=source) -> float:
            _check_analysis(result, query, table)
            best = result.alignments[0]
            rows, _ = alignment_view(best.alignment)
            check_retrieval(rows, best.score_bits, source, query, table)
            return best.score_bits

        ops.append(Operation(f"P{k}", run, check))
    return ops


def _learned_contents(grammar) -> list[tuple[str, ...]]:
    return [contents_of(p.symbols, p.id_len, p.close_len) for p in grammar.patterns]


def _empty_total(result) -> float:
    empty = [sg for sg in result.ranking if not sg.grammar.patterns]
    require(len(empty) == 1, f"{len(empty)} empty grammars in the ranking")
    return empty[0].total_bits


def learn_operations(api, root: Path, rng: random.Random) -> list[Operation]:
    """MDL learning on two corpora plus encoding-level learning of agreement."""
    fixtures = root / "fixtures"
    ops = []
    for stem in ("corpus_repeat", "corpus_shared_suffix"):
        path = fixtures / f"{stem}.sp"
        plain = read_pattern_lines(path.read_text())
        corpus = api.load_new(path)

        def run(corpus=corpus):
            return api.learn(corpus, api.LearnParams())

        def check(result, plain=plain, stem=stem) -> float:
            saved = check_learned(_empty_total(result), result.best.total_bits, plain)
            if stem == "corpus_shared_suffix":
                check_has_contents(_learned_contents(result.best.grammar), ("r", "u", "n", "s"))
            return saved

        ops.append(Operation(stem, run, check))

    lexicon_text = (fixtures / "agreement_lexicon.sp").read_text()
    corpus_text = (fixtures / "agreement_corpus.sp").read_text()
    entries = [
        (contents_of(symbols, 1, 1), symbols[0])
        for _, symbols in read_pattern_lines(lexicon_text)
    ]
    codes = [(freq, tile_codes(s, entries)) for freq, s in read_pattern_lines(corpus_text)]
    lexicon = api.load_grammar(fixtures / "agreement_lexicon.sp")
    sentences = api.load_new(fixtures / "agreement_corpus.sp")

    def run_agreement():
        return api.learn_from_encodings(lexicon, sentences, api.LearnParams(encoding_passes=2))

    def check_agreement_result(result) -> float:
        require(result is not None, "no encoding-level result")
        saved = check_learned(_empty_total(result), result.best.total_bits, codes)
        check_agreement(_learned_contents(result.best.grammar))
        return saved

    ops.append(Operation("agreement", run_agreement, check_agreement_result))
    return ops


WORKLOADS = {
    "parse": parse_operations,
    "retrieve": retrieve_operations,
    "learn": learn_operations,
}
