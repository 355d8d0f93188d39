"""Staged construction of multiple alignments scored by compression.

An alignment's score is the number of bits of the analysed pattern that
its columns account for, minus the bits needed to cite the stored
patterns involved (their unmatched identification symbols).  Stage by
stage the engine matches grammar patterns against each alignment that
the previous stage added to the pool, merges the best chains in as new
rows, and keeps the top of the combined pool until a stage adds nothing
to it.

Four skips keep a stage to the work that can change its outcome, and
each is exact.  The two bound tests compare with a floor: the lowest of
the best ``alignment_beam`` scores ranked so far, counting the fresh
alignments of the running stage.  It rises as a stage scores better
alignments, it never exceeds the pool's last score after the stage, and
that score never falls later.

- Postings: a pattern is matched only when it shares a symbol with the
  alignment (``Grammar.postings``).  The matcher places a step only
  where the target symbol equals a slot text, so any other pattern
  yields no chain.
- Job bound: once the floor is set, a pattern is matched only when
  ``job_bound`` says some chain of it could still reach the floor.  A
  chain gains at most the cost of each of its pattern's symbols that
  can land on a gain cell (``gains_on``), and it always loses the
  identification symbols whose text the alignment lacks, so no chain
  of a skipped job would survive the chain cut below.
- Column-only chains: a chain whose every step lands on an existing
  column adds no column, which ``merge_chain`` rejects, so it is
  dropped before it is priced or merged.
- Chain cut: once the floor is set, a chain is merged only when
  ``chain_gain`` says the result can still reach the floor.  A
  candidate below it can never enter this pool or a later one; it
  stays unseen, so if it is reached again it is cut again.

An audit observer disables both bound tests, because its stage records
list every ranked candidate.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Protocol, Sequence

from .matcher import Chain, match_alignment, place
from .model import (
    AlignmentError,
    Grammar,
    MultipleAlignment,
    Pattern,
    Slot,
    Span,
    SymbolTable,
    canonicalize,
    combine_new,
    require_at_least,
    serialize_alignment,
)

# a looser cut only builds more, so the margin need only exceed the
# rounding of a float score sum; ties with the pool's last score are
# then still built
_CUT_MARGIN_BITS = 1e-9


@dataclass(frozen=True)
class EngineParams:
    """Bounds of one analysis, each at least 1.

    The matcher keeps at most ``beam_width`` search states, and at most
    ``max_alternatives`` chains per state and per match job.  The pool
    keeps ``alignment_beam`` alignments; a search runs at most
    ``max_stages`` stages and returns the best ``top_k`` alignments.
    """

    beam_width: int = 64
    max_alternatives: int = 4
    alignment_beam: int = 100
    max_stages: int = 12
    top_k: int = 5

    def __post_init__(self) -> None:
        require_at_least(1, **vars(self))


@dataclass(frozen=True)
class ScoredAlignment:
    alignment: MultipleAlignment
    score_bits: float

    @property
    def encoding(self) -> tuple[str, ...]:
        return self.alignment.encoding_texts()


@dataclass(frozen=True)
class AnalysisResult:
    alignments: tuple[ScoredAlignment, ...]
    probabilities: tuple[float, ...]
    stages_run: int

    @property
    def best(self) -> ScoredAlignment:
        return self.alignments[0]


class StageObserver(Protocol):
    def record_stage(
        self, stage: int, entries: Sequence[tuple[float, str, bool]]
    ) -> None: ...


def score_alignment(
    alignment: MultipleAlignment, table: SymbolTable
) -> ScoredAlignment:
    matched_new = 0.0
    for col in alignment.columns:
        for r, _ in col.members:
            if r == 0:
                matched_new += table.cost(alignment.text_of(col))
    cited = 0.0
    for r, p in alignment.encoding_cells():
        if r > 0:
            cited += table.cost(alignment.rows[r].symbols[p])
    return ScoredAlignment(alignment, matched_new - cited)


def gains_on(slot: Slot) -> bool:
    """Does a new column on ``slot`` add the slot's cost to the score?

    It does on an unmatched cell of row 0 (newly matched input) or on an
    unmatched identification cell of a stored row (no longer cited).
    """
    return slot.kind == "cell" and (slot.cells[0][0] == 0 or slot.span is Span.ID)


def chain_gain(
    base: MultipleAlignment, old: Pattern, chain: Chain, table: SymbolTable
) -> float:
    """Score change of ``merge_chain(base, old, chain)``, built from nothing.

    A step onto a gain cell (``gains_on``) creates a column and gains
    that cell's cost.  Every identification position of ``old`` the
    chain leaves out is cited.  Steps onto existing columns move neither
    term.  Only meaningful for chains that ``merge_chain`` accepts.
    """
    slots = base.slots()
    gain = 0.0
    for i, _ in chain:
        if gains_on(slots[i]):
            gain += table.cost(slots[i].text)
    matched = {t for _, t in chain}
    for t in range(old.id_len):
        if t not in matched:
            gain -= table.cost(old.symbols[t])
    return gain


def job_bound(
    old: Pattern, gain_texts: set[str], texts: set[str], table: SymbolTable
) -> float:
    """Upper bound of ``chain_gain`` over every chain of ``old`` on an alignment.

    ``gain_texts`` holds the texts of the alignment's gain cells and
    ``texts`` the texts of all its slots.  A chain takes each target
    position once, so it gains at most the cost of each symbol of
    ``old`` whose text is on a gain cell; an identification symbol whose
    text is on no slot cannot be matched, so every chain cites it.
    """
    bound = 0.0
    for s in old.symbols:
        if s in gain_texts:
            bound += table.cost(s)
    for s in old.id_symbols:
        if s not in texts:
            bound -= table.cost(s)
    return bound


def merge_chain(
    base: MultipleAlignment, old: Pattern, chain: Chain
) -> MultipleAlignment | None:
    """Attach ``old`` as a new row along a match chain.

    Chain elements are (slot index, target position) pairs as produced
    by the matcher.  Returns None when the chain is not a legal match:
    a step leaves the slots or the pattern, goes back in the pattern,
    pairs unequal texts or breaks ``matcher.place``; the row adds no new
    column; or the columns form a cycle.
    """
    slots = base.slots()
    new_row = len(base.rows)
    min_gap = 0
    caps: dict[int, int] = {}
    last_t = -1
    fused: dict[int, tuple[int, int]] = {}
    created: list[tuple[tuple[int, int], ...]] = []
    for i, t in chain:
        if not 0 <= i < len(slots) or not last_t < t < len(old.symbols):
            return None
        last_t = t
        slot = slots[i]
        if slot.text != old.symbols[t]:
            return None
        gap = place(slot, t, old.serial, old.span_of(t), min_gap, caps)
        if gap is None:
            return None
        min_gap = gap
        caps.update(slot.cells)
        if slot.kind == "col":
            fused[slot.column] = (new_row, t)
        else:
            created.append(slot.cells + ((new_row, t),))
    if not created:
        # a row that only joins existing columns explains nothing new;
        # alternative readings of the same cells live in the pool as
        # separate alignments instead
        return None

    # canonicalize orders columns by their content alone, so the new
    # columns need no placement among the old ones
    columns = [
        col.members + (fused[j],) if j in fused else col.members
        for j, col in enumerate(base.columns)
    ]
    try:
        return canonicalize(base.rows + (old,), columns + created)
    except AlignmentError:
        return None


def alignment_probabilities(scores: Sequence[float]) -> tuple[float, ...]:
    """Relative probabilities 2**score normalised over the given set."""
    if not scores:
        return ()
    top = max(scores)
    weights = [2.0 ** (s - top) for s in scores]
    mass = sum(weights)
    return tuple(w / mass for w in weights)


def analyse(
    new: Pattern | Sequence[Pattern],
    grammar: Grammar,
    params: EngineParams = EngineParams(),
    index=None,
    audit: StageObserver | None = None,
    workers: int = 1,
) -> AnalysisResult:
    """Build the best alignments of the analysed pattern(s) against a grammar.

    Each stage expands only its frontier: the alignments that entered the
    pool at the stage before (at stage 1, the bare alignment).  An
    alignment expanded once can only yield alignments already seen, so no
    match job runs twice in one call, and the search ends at the first
    stage whose fresh alignments all fall off the pool.

    A frontier entry is matched only against the patterns that share a
    symbol with its slots, in grammar order; the others cannot yield a
    chain.  Once ``alignment_beam`` scores have been ranked, counting the
    fresh ones of the running stage, two bound tests against the lowest
    of the best ``alignment_beam`` of them follow.  That floor is read as
    it stands at each test and only rises: a pattern is not matched when
    ``job_bound`` shows no chain of it can reach the floor, and a chain is
    not built when its merged score (``chain_gain``) falls below it.  The
    job test keeps one more ``_CUT_MARGIN_BITS`` of slack than the chain
    test, so the rounding of its differently ordered sum never skips a
    job whose chains the chain test would keep.  With an ``audit``
    observer every job runs and every candidate is built, so the stage
    records stay complete; the alignments returned are the same either
    way.

    ``index`` serves match results across calls that share it, keyed by
    the grammar's fingerprint and the matcher's two bounds; skipped jobs
    never touch it.  ``workers`` must be at least 1; the work always
    runs in this process.
    """
    require_at_least(1, workers=workers)
    start = new if isinstance(new, Pattern) else combine_new(tuple(new))
    bare = MultipleAlignment((start,), ())
    table = grammar.table
    gkey = grammar.fingerprint if index is not None else None
    postings = grammar.postings

    def sort_key(item: tuple[str, ScoredAlignment]) -> tuple:
        # at equal score prefer the reading that unifies more material
        # into columns, with fewer rows, then settle on serialization
        ser, scored = item
        return (
            -scored.score_bits,
            -len(scored.alignment.columns),
            len(scored.alignment.rows),
            ser,
        )

    first = (serialize_alignment(bare), score_alignment(bare, table))
    pool: list[tuple[str, ScoredAlignment]] = [first]
    frontier = pool
    seen: set[str] = {first[0]}
    # min-heap of the best alignment_beam scores ranked so far; between
    # stages it holds the pool's scores
    best = [first[1].score_bits]
    beam = params.alignment_beam
    floor = None
    stages_run = 0
    for stage in range(1, params.max_stages + 1):
        fresh: dict[str, ScoredAlignment] = {}
        for ser, entry in frontier:
            slots = entry.alignment.slots()
            texts = {slot.text for slot in slots}
            gain_texts = {slot.text for slot in slots if gains_on(slot)}
            for k in sorted({k for text in texts for k in postings.get(text, ())}):
                pat = grammar.patterns[k]
                if floor is not None:
                    bound = job_bound(pat, gain_texts, texts, table)
                    if entry.score_bits + bound < floor - _CUT_MARGIN_BITS:
                        continue
                key = chains = None
                if index is not None:
                    key = index.fingerprint(
                        gkey, ser, pat.serial, params.beam_width, params.max_alternatives
                    )
                    chains = index.get(key)
                if chains is None:
                    chains = match_alignment(entry.alignment, pat, table, params)
                    if index is not None:
                        index.put(key, chains)
                for chain, _ in chains:
                    if not any(slots[i].kind == "cell" for i, _ in chain):
                        # merge_chain rejects a row that adds no column
                        continue
                    if floor is not None:
                        gain = chain_gain(entry.alignment, pat, chain, table)
                        if entry.score_bits + gain < floor:
                            continue
                    merged = merge_chain(entry.alignment, pat, chain)
                    if merged is None:
                        continue
                    merged_ser = serialize_alignment(merged)
                    if merged_ser in seen:
                        continue
                    seen.add(merged_ser)
                    fresh[merged_ser] = scored = score_alignment(merged, table)
                    if len(best) < beam:
                        heapq.heappush(best, scored.score_bits)
                    else:
                        heapq.heappushpop(best, scored.score_bits)
                    if audit is None and len(best) == beam:
                        floor = best[0] - _CUT_MARGIN_BITS
        stages_run = stage
        ranked = sorted([*pool, *fresh.items()], key=sort_key)
        pool = ranked[:beam]
        if audit is not None:
            audit.record_stage(
                stage,
                [
                    (scored.score_bits, ser, i < beam)
                    for i, (ser, scored) in enumerate(ranked)
                ],
            )
        frontier = [item for item in pool if item[0] in fresh]
        if not frontier:
            break

    top = [scored for _, scored in pool[: params.top_k]]
    probs = alignment_probabilities([s.score_bits for s in top])
    return AnalysisResult(tuple(top), probs, stages_run)


def analyse_serialized(
    new: Pattern,
    grammar: Grammar,
    params: EngineParams = EngineParams(),
    index=None,
    workers: int = 1,
) -> str:
    """Text dump of an analysis, stable across runs."""
    result = analyse(new, grammar, params, index=index, workers=workers)
    parts = []
    for scored, prob in zip(result.alignments, result.probabilities):
        parts.append(
            f"score {scored.score_bits:.9f} prob {prob:.9f} "
            f"encoding {' '.join(scored.encoding)}\n"
            + serialize_alignment(scored.alignment)
        )
    return "\n==\n".join(parts)
