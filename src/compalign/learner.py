"""Grammar induction by minimum description length search.

The learner grows a pool of candidate grammars.  Each pass aligns the
corpus (against itself at first, against pool grammars afterwards),
derives candidate patterns from the matched and unmatched segments of
those alignments, and keeps the grammars whose combined size, grammar
bits plus corpus encoding bits, is smallest.  The empty grammar stays
in the pool throughout so a grammar only ever wins by genuinely paying
for itself.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from .engine import EngineParams, analyse, merge_chain
from .matcher import match_alignment
from .model import (
    Grammar,
    MultipleAlignment,
    Pattern,
    SymbolTable,
    require_at_least,
    serialize_alignment,
)


@dataclass(frozen=True)
class LearnParams:
    grammar_beam: int = 10
    passes: int = 2
    encoding_passes: int = 0
    engine: EngineParams = EngineParams(
        beam_width=32, max_alternatives=2, alignment_beam=20, max_stages=8, top_k=3
    )

    def __post_init__(self) -> None:
        # the pool always holds the empty grammar, so a beam of 1 holds nothing else
        require_at_least(2, grammar_beam=self.grammar_beam)
        require_at_least(0, passes=self.passes, encoding_passes=self.encoding_passes)


@dataclass(frozen=True)
class ScoredGrammar:
    grammar: Grammar
    grammar_bits: float
    encoding_bits: float

    @property
    def total_bits(self) -> float:
        return self.grammar_bits + self.encoding_bits


@dataclass(frozen=True)
class LearnResult:
    ranking: tuple[ScoredGrammar, ...]
    passes_run: int
    encoding_level: "LearnResult | None" = None

    @property
    def best(self) -> ScoredGrammar:
        return self.ranking[0]


@dataclass
class _CandidateSet:
    """Patterns suggested by one alignment, plus superseded old rows."""

    wrapped: list[Pattern] = field(default_factory=list)
    abstracts: list[Pattern] = field(default_factory=list)
    replaced: set[int] = field(default_factory=set)

    def all_patterns(self) -> list[Pattern]:
        return self.wrapped + self.abstracts


class _NameSource:
    """Fresh %n / #%n identifier pairs, unique within one learn run."""

    def __init__(self, taken: Iterable[str]):
        self._taken = set(taken)
        self._next = 1

    def fresh(self) -> tuple[str, str]:
        while True:
            name = f"%{self._next}"
            self._next += 1
            if name not in self._taken and f"#{name}" not in self._taken:
                self._taken.add(name)
                self._taken.add(f"#{name}")
                return name, f"#{name}"


def _wrap(symbols: Sequence[str], names: _NameSource) -> Pattern:
    opener, closer = names.fresh()
    return Pattern(
        (opener, *symbols, closer), frequency=1, id_len=1, close_len=1
    )


def incorporate(pattern: Pattern, names: _NameSource) -> Pattern:
    """Adopt an analysed pattern wholesale under a fresh identifier."""
    return _wrap(pattern.symbols, names)


def _row_segments(
    alignment: MultipleAlignment, row: int
) -> list[tuple[str, list[int]]]:
    """Split a row into maximal matched / unmatched position runs.

    Matched runs carry column indices, unmatched runs carry positions.
    Only the contents span is segmented for rows with id or close
    spans; those outer symbols stay with the row's own identity.
    """
    pat = alignment.rows[row]
    col_at: dict[int, int] = {}
    for j, col in enumerate(alignment.columns):
        for r, p in col.members:
            if r == row:
                col_at[p] = j
    lo = pat.id_len
    hi = len(pat.symbols) - pat.close_len
    segments: list[tuple[str, list[int]]] = []
    for p in range(lo, hi):
        kind = "m" if p in col_at else "u"
        item = col_at[p] if kind == "m" else p
        if segments and segments[-1][0] == kind:
            segments[-1][1].append(item)
        else:
            segments.append((kind, [item]))
    return segments


def _reference_piece(
    alignment: MultipleAlignment, row: int, cols: list[int], grammar: Grammar
) -> tuple[str, ...] | None:
    """Stand-in texts for a matched run, when one exists.

    A run that matches the full contents of a single other row turns
    into that row's id and close symbols.  A run made entirely of other
    grammar patterns' id or close symbols embeds as itself.  Otherwise
    None: the caller wraps the run into a new pattern.
    """
    texts = tuple(alignment.text_of(alignment.columns[j]) for j in cols)
    partner_rows: list[set[int]] = []
    for j in cols:
        partner_rows.append(
            {r for r, _ in alignment.columns[j].members if r != row}
        )
    shared = set.intersection(*partner_rows) if partner_rows else set()
    for other in sorted(shared):
        pat = alignment.rows[other]
        if pat.serial < 0 or not (pat.id_len or pat.close_len):
            continue
        covered = sorted(
            p for j in cols for r, p in alignment.columns[j].members if r == other
        )
        full = list(range(pat.id_len, len(pat.symbols) - pat.close_len))
        if covered == full:
            return pat.id_symbols + pat.close_symbols
    reference_texts: set[str] = set()
    for gp in grammar.patterns:
        reference_texts.update(gp.id_symbols)
        reference_texts.update(gp.close_symbols)
    if texts and all(t in reference_texts for t in texts):
        return texts
    return None


def candidates_from_alignment(
    alignment: MultipleAlignment, grammar: Grammar, names: _NameSource
) -> _CandidateSet:
    """Derive new-pattern suggestions from one alignment's structure."""
    out = _CandidateSet()
    if not alignment.columns:
        return out
    shared_wraps: dict[tuple[str, ...], Pattern] = {}
    seen: set[tuple[str, ...]] = set()

    def add(bucket: list[Pattern], pat: Pattern) -> None:
        if pat.symbols not in seen:
            seen.add(pat.symbols)
            bucket.append(pat)

    for row, row_pat in enumerate(alignment.rows):
        segments = _row_segments(alignment, row)
        if not any(kind == "m" for kind, _ in segments):
            continue
        if len(segments) == 1 and segments[0][0] == "m":
            # fully matched row: offer it wholesale under a fresh name
            # unless it already carries an identity of its own
            if not (row_pat.id_len or row_pat.close_len):
                texts = tuple(
                    alignment.text_of(alignment.columns[j])
                    for j in segments[0][1]
                )
                if texts not in shared_wraps:
                    shared_wraps[texts] = _wrap(texts, names)
                add(out.wrapped, shared_wraps[texts])
            continue
        pieces: list[str] = []
        for kind, items in segments:
            if kind == "m":
                texts = tuple(
                    alignment.text_of(alignment.columns[j]) for j in items
                )
                ref = _reference_piece(alignment, row, items, grammar)
                if ref is not None:
                    pieces.extend(ref)
                    continue
                if texts not in shared_wraps:
                    shared_wraps[texts] = _wrap(texts, names)
                wrapped = shared_wraps[texts]
                add(out.wrapped, wrapped)
                pieces.extend(wrapped.id_symbols + wrapped.close_symbols)
            else:
                texts = tuple(row_pat.symbols[p] for p in items)
                wrapped = _wrap(texts, names)
                add(out.wrapped, wrapped)
                pieces.extend(wrapped.id_symbols + wrapped.close_symbols)
        if row_pat.id_len or row_pat.close_len:
            abstract = Pattern(
                row_pat.id_symbols + tuple(pieces) + row_pat.close_symbols,
                frequency=1,
                id_len=row_pat.id_len,
                close_len=row_pat.close_len,
            )
            if row_pat.serial >= 0:
                out.replaced.add(row_pat.serial)
        else:
            opener, closer = names.fresh()
            abstract = Pattern(
                (opener, *pieces, closer), frequency=1, id_len=1, close_len=1
            )
        add(out.abstracts, abstract)
    return out


def _successor_grammars(
    base: Grammar, cand: _CandidateSet
) -> list[Grammar]:
    """Grammar variants grown from one candidate set.

    Moves: each candidate alone, all segment wraps together, the full
    bundle, and the full bundle with superseded parents dropped.
    """
    existing = {p.symbols for p in base.patterns}
    singles = [c for c in cand.all_patterns() if c.symbols not in existing]
    if not singles:
        return []
    out: list[Grammar] = []

    def grown(additions: list[Pattern], drop: set[int] = frozenset()) -> Grammar:
        kept = [p for p in base.patterns if p.serial not in drop]
        fresh = [a for a in additions if a.symbols not in existing]
        return Grammar.of(kept + fresh)

    for c in singles:
        out.append(grown([c]))
    wraps = [c for c in cand.wrapped if c.symbols not in existing]
    if len(wraps) > 1:
        out.append(grown(wraps))
    bundle = cand.all_patterns()
    if len(bundle) > 1:
        out.append(grown(bundle))
        if cand.replaced:
            out.append(grown(bundle, cand.replaced))
    return out


def _grammar_key(g: Grammar) -> tuple:
    return tuple(
        (p.symbols, p.id_len, p.close_len) for p in g.patterns
    )


def evaluate_grammar(
    grammar: Grammar,
    corpus: Sequence[Pattern],
    corpus_table: SymbolTable,
    eparams: EngineParams,
) -> ScoredGrammar:
    """Price a grammar: its own bits plus the corpus encoded through it.

    Pattern frequencies are reset to usage counts over the corpus's
    best parses (floored at one) before pricing; a single recount, not
    a fixed point.  Symbols the grammar does not contain keep their
    corpus-table price, so the empty grammar (everything residual) and
    a full-coverage grammar (nothing residual) are the two ends of one
    scale.  Pricing residuals by the grammar's own table instead would
    let a tiny grammar reprice the whole unparsed corpus at log2 of its
    own small mass, which rewards junk patterns on rare-symbol corpora
    and punishes partial coverage on common-symbol ones.
    """
    if not grammar.patterns:
        e_bits = sum(p.frequency * p.raw_cost(corpus_table) for p in corpus)
        return ScoredGrammar(grammar, 0.0, e_bits)

    parses: list[tuple[Pattern, MultipleAlignment | None]] = []
    counts: dict[int, int] = {}
    for item in corpus:
        result = analyse(item, grammar, eparams)
        best = result.best.alignment if result.alignments else None
        if best is not None and not best.columns:
            best = None
        parses.append((item, best))
        if best is not None:
            for pat in best.rows[1:]:
                counts[pat.serial] = counts.get(pat.serial, 0) + item.frequency

    refreshed = Grammar.of(
        replace(p, frequency=max(1, counts.get(p.serial, 0)))
        for p in grammar.patterns
    )
    table = refreshed.table
    g_bits = sum(
        p.raw_cost(table) + math.log2(table.mass) for p in refreshed.patterns
    )
    def symbol_cost(text: str) -> float:
        if text in table.totals:
            return table.cost(text)
        return corpus_table.cost(text)

    e_bits = 0.0
    for item, best in parses:
        if best is None:
            e_bits += item.frequency * item.raw_cost(corpus_table)
        else:
            e_bits += item.frequency * sum(
                symbol_cost(t) for t in best.encoding_texts()
            )
    return ScoredGrammar(refreshed, g_bits, e_bits)


def _pair_alignments(
    corpus: Sequence[Pattern], params: EngineParams
) -> list[MultipleAlignment]:
    """Best alignments of each corpus pattern over each other one."""
    table = SymbolTable.from_patterns(corpus)
    out: list[MultipleAlignment] = []
    seen: set[str] = set()
    for i, item in enumerate(corpus):
        bare = MultipleAlignment((replace(item, serial=-1),), ())
        for j, other in enumerate(corpus):
            if i == j:
                continue
            pseudo = replace(other, id_len=0, close_len=0, serial=-1)
            for chain, _ in match_alignment(bare, pseudo, table, params)[:2]:
                merged = merge_chain(bare, pseudo, chain)
                if merged is None:
                    continue
                key = serialize_alignment(merged)
                if key not in seen:
                    seen.add(key)
                    out.append(merged)
    return out


def available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _evaluate_in_worker(args: tuple) -> ScoredGrammar:
    # the pool pickles this function by name; it finds evaluate_grammar
    # in the worker, whatever wraps or replaces it there
    return evaluate_grammar(*args)


class _GrammarScorer:
    """Prices the candidate grammars of one learn call, pass by pass.

    Each grammar shape is priced once per call.  A grammar's shape is,
    per pattern in grammar order, its symbols, frequency and span
    lengths, with every text the corpus does not hold (the names the
    learner invents) replaced by the index of its first appearance in
    the grammar.  A pass prices only the shapes no earlier grammar of
    the call had, one grammar each in first-seen order, and gives every
    other grammar its shape's result with its own texts and the priced
    frequencies put back, field for field what ``evaluate_grammar``
    returns for it.

    That is exact because two grammars of one shape differ only by a
    bijection of non-corpus texts, and ``evaluate_grammar`` reads such a
    text only by equality and by its count in the grammar's own table,
    both of which the bijection keeps: every cost, float sum and sort
    key comes out the same.  The one place ``analyse`` orders by text,
    the serialization tie-break of its pool ranking, is settled at a row
    serial, a row or column line start or a column line before any
    symbol text differs, and rows with equal serials print identical
    lines.  Nothing may read the hash order of texts either, which is
    why the shape tests also run under two fixed ``PYTHONHASHSEED``s.

    A pass with more than one new shape and room for more than one
    process is mapped over a process pool, opened at the first such
    pass from the ``fork`` start method and reused for the rest of the
    call; results come back in grammar order.  Any other pass is priced
    inline, as is every pass on a platform without ``fork`` (a
    ``spawn`` worker re-imports the caller's ``__main__``, which a
    script read from stdin cannot do) and in a daemonic pool worker
    (which may not start processes).  ``close`` ends the pool.
    """

    def __init__(self, job: tuple, size: int):
        # corpus, corpus table and engine parameters, shared by every grammar
        self.job = job
        self.size = size
        self.pool = None
        self.priced: dict[tuple, ScoredGrammar] = {}

    def shape(self, grammar: Grammar) -> tuple:
        corpus_texts = self.job[1].totals
        invented: dict[str, int] = {}
        return tuple(
            (
                tuple(
                    s if s in corpus_texts else invented.setdefault(s, len(invented))
                    for s in p.symbols
                ),
                p.frequency,
                p.id_len,
                p.close_len,
            )
            for p in grammar.patterns
        )

    def __call__(self, grammars: list[Grammar]) -> list[ScoredGrammar]:
        shapes = [self.shape(g) for g in grammars]
        new: dict[tuple, Grammar] = {}
        for shape, g in zip(shapes, grammars):
            if shape not in self.priced:
                new.setdefault(shape, g)
        self.priced.update(zip(new, self._price(list(new.values()))))
        out = []
        for shape, g in zip(shapes, grammars):
            rep = self.priced[shape]
            relabelled = Grammar.of(
                replace(p, frequency=q.frequency)
                for p, q in zip(g.patterns, rep.grammar.patterns)
            )
            out.append(ScoredGrammar(relabelled, rep.grammar_bits, rep.encoding_bits))
        return out

    def _price(self, grammars: list[Grammar]) -> list[ScoredGrammar]:
        size = min(self.size, len(grammars))
        if size > 1 and self.pool is None:
            import multiprocessing

            if (
                multiprocessing.current_process().daemon
                or "fork" not in multiprocessing.get_all_start_methods()
            ):
                self.size = size = 1
            else:
                self.pool = multiprocessing.get_context("fork").Pool(size)
        if size <= 1:
            return [evaluate_grammar(g, *self.job) for g in grammars]
        jobs = [(g, *self.job) for g in grammars]
        return self.pool.map(_evaluate_in_worker, jobs)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.terminate()
            self.pool.join()


def learn(
    corpus: Sequence[Pattern],
    params: LearnParams = LearnParams(),
    workers: int | None = None,
) -> LearnResult:
    """Search for the grammar that best compresses the corpus.

    Each grammar shape (the grammar up to the names the learner
    invents) is priced once per call; a grammar whose shape an earlier
    one had gets that result under its own names.  Each pass prices its
    new shapes on a pool of min(``workers``, available CPUs, new shapes)
    processes, opened once per call and joined before it returns or
    raises.  ``workers`` defaults to the available CPUs; an explicit
    value must be at least 1, and 1 starts no process, nor does a
    platform without the ``fork`` start method.  The result does not
    depend on it.  The encoding level, when asked for, runs after the
    pool is gone and opens its own.
    """
    if workers is not None:
        require_at_least(1, workers=workers)
    corpus = tuple(corpus)
    if not corpus:
        raise ValueError("empty corpus")
    corpus_table = SymbolTable.from_patterns(corpus)
    names = _NameSource(
        {s for p in corpus for s in p.symbols}
    )

    empty = evaluate_grammar(
        Grammar.of(()), corpus, corpus_table, params.engine
    )
    pool: list[ScoredGrammar] = [empty]
    passes_run = 0
    cpus = available_cpus()
    scorer = _GrammarScorer(
        (corpus, corpus_table, params.engine),
        cpus if workers is None else min(workers, cpus),
    )
    try:
        for _ in range(params.passes):
            passes_run += 1
            alignment_sources: list[tuple[Grammar, MultipleAlignment]] = []
            for scored in pool:
                g = scored.grammar
                if not g.patterns:
                    for al in _pair_alignments(corpus, params.engine):
                        alignment_sources.append((g, al))
                else:
                    for item in corpus:
                        result = analyse(item, g, params.engine)
                        for cand in result.alignments[:2]:
                            if cand.alignment.columns:
                                alignment_sources.append((g, cand.alignment))

            successors: dict[tuple, Grammar] = {}

            def offer(g: Grammar) -> None:
                key = _grammar_key(g)
                if key not in successors:
                    successors[key] = g

            for scored in pool:
                base = scored.grammar
                for item in corpus:
                    inc = incorporate(item, names)
                    offer(Grammar.of(list(base.patterns) + [inc]))
            for base, alignment in alignment_sources:
                cand = candidates_from_alignment(alignment, base, names)
                for g in _successor_grammars(base, cand):
                    offer(g)

            limit = params.grammar_beam * 8
            todo = list(successors.values())[:limit]
            scored_new = scorer(todo)

            ranked: dict[tuple, ScoredGrammar] = {}
            for sg in pool + scored_new:
                key = _grammar_key(sg.grammar)
                held = ranked.get(key)
                if held is None or sg.total_bits < held.total_bits:
                    ranked[key] = sg
            ordered = sorted(
                ranked.values(),
                key=lambda sg: (sg.total_bits, _grammar_key(sg.grammar)),
            )
            next_pool = ordered[: params.grammar_beam]
            if not any(not sg.grammar.patterns for sg in next_pool):
                next_pool = next_pool[: params.grammar_beam - 1] + [empty]
            if [_grammar_key(sg.grammar) for sg in next_pool] == [
                _grammar_key(sg.grammar) for sg in pool
            ]:
                pool = next_pool
                break
            pool = next_pool
    finally:
        scorer.close()

    result = LearnResult(tuple(pool), passes_run)
    if params.encoding_passes > 0 and pool[0].grammar.patterns:
        result = replace(
            result,
            encoding_level=learn_from_encodings(
                pool[0].grammar, corpus, params, workers
            ),
        )
    return result


def union_grammar(base: Grammar, second: Grammar) -> Grammar:
    """Combine a grammar with patterns learned over its encodings."""
    seen = {p.symbols for p in base.patterns}
    extra = [p for p in second.patterns if p.symbols not in seen]
    return Grammar.of(list(base.patterns) + extra)


def learn_from_encodings(
    grammar: Grammar,
    corpus: Sequence[Pattern],
    params: LearnParams,
    workers: int | None = None,
) -> LearnResult | None:
    """Run a second learning level over the corpus's encodings.

    Each corpus pattern is parsed with the given grammar and replaced
    by its code; regularities among the codes then get their own
    patterns.  Returns None when no usable codes come out.  ``workers``
    goes to the inner ``learn``, which prices candidate grammars on up
    to that many processes (default: the available CPUs).
    """
    second: list[Pattern] = []
    for item in corpus:
        result = analyse(item, grammar, params.engine)
        if not result.alignments:
            continue
        texts = result.best.alignment.encoding_texts()
        if texts:
            second.append(Pattern(texts, frequency=item.frequency))
    if not second:
        return None
    inner = replace(params, passes=params.encoding_passes, encoding_passes=0)
    return learn(second, inner, workers)
