"""Staged construction of multiple alignments scored by compression.

An alignment's score is the number of bits of the analysed pattern that
its columns account for, minus the bits needed to cite the stored
patterns involved (their unmatched identification symbols).  Stage by
stage the engine matches every grammar pattern against every alignment
in the pool, merges the best chains in as new rows, and keeps the top
of the combined pool until nothing changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from .matcher import Chain, SearchBudget, match_alignment
from .model import (
    AlignmentError,
    Grammar,
    MultipleAlignment,
    Pattern,
    SymbolTable,
    canonicalize,
    combine_new,
    require_at_least,
    serialize_alignment,
)


@dataclass(frozen=True)
class EngineParams:
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
    pool_size: int

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


def merge_chain(
    base: MultipleAlignment, old: Pattern, chain: Chain
) -> MultipleAlignment | None:
    """Attach ``old`` as a new row along a match chain.

    Chain elements are (slot index, target position) pairs as produced
    by the matcher.  Returns None when the chain is not a legal match.
    """
    slots = base.slots()
    new_row = len(base.rows)
    min_gap = 0
    caps: dict[int, int] = {}
    last_t = -1
    fused: dict[int, tuple[int, int]] = {}
    created: list[tuple[tuple[int, int], ...]] = []
    for i, t in chain:
        if not 0 <= i < len(slots) or not 0 <= t < len(old.symbols):
            return None
        if t <= last_t:
            return None
        last_t = t
        slot = slots[i]
        if slot.text != old.symbols[t]:
            return None
        if slot.kind == "col":
            j = slot.column
            if j < min_gap or j in fused:
                return None
            for r, p in slot.members:
                if p <= caps.get(r, -1):
                    return None
            if old.serial >= 0:
                for sr, (_, p) in zip(slot.member_serials, slot.members):
                    if sr == old.serial and p == t:
                        return None
            for r, p in slot.members:
                caps[r] = p
            min_gap = j + 1
            fused[j] = (new_row, t)
        else:
            gap = max(slot.lo + 1, min_gap)
            if gap > slot.hi:
                return None
            if slot.pos <= caps.get(slot.row, -1):
                return None
            if old.serial >= 0 and slot.row_serial == old.serial and slot.pos == t:
                return None
            caps[slot.row] = slot.pos
            min_gap = gap
            created.append(((slot.row, slot.pos), (new_row, t)))
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


def _pattern_key(p: Pattern) -> str:
    return f"{p.serial}|{p.id_len}|{p.close_len}|{' '.join(p.symbols)}"


def analyse(
    new: Pattern | Sequence[Pattern],
    grammar: Grammar,
    params: EngineParams = EngineParams(),
    index=None,
    audit: StageObserver | None = None,
    workers: int = 1,
) -> AnalysisResult:
    """Build the best alignments of the analysed pattern(s) against a grammar.

    ``workers`` must be at least 1; the work always runs in this process.
    """
    require_at_least(1, workers=workers)
    start = new if isinstance(new, Pattern) else combine_new(tuple(new))
    bare = MultipleAlignment((start,), ())
    bare.validate()
    table = grammar.table
    budget = SearchBudget(params.beam_width, params.max_alternatives)
    gkey = grammar.fingerprint

    def resolve(
        jobs: list[tuple[MultipleAlignment, Pattern]],
    ) -> list[list[tuple[Chain, float]]]:
        """Chains per job, served from the index when one is given."""
        results = []
        for alignment, pat in jobs:
            key = chains = None
            if index is not None:
                key = index.fingerprint(
                    gkey, serialize_alignment(alignment), _pattern_key(pat), budget
                )
                chains = index.get(key)
            if chains is None:
                chains = match_alignment(alignment, pat, table, budget)
                if index is not None:
                    index.put(key, chains)
            results.append(chains)
        return results

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
    seen: set[str] = {first[0]}
    stages_run = 0
    for stage in range(1, params.max_stages + 1):
        fresh: list[tuple[str, ScoredAlignment]] = []
        jobs = [
            (entry.alignment, pat)
            for _, entry in pool
            for pat in grammar.patterns
        ]
        for (alignment, pat), chains in zip(jobs, resolve(jobs)):
            for chain, _ in chains:
                merged = merge_chain(alignment, pat, chain)
                if merged is None:
                    continue
                ser = serialize_alignment(merged)
                if ser in seen:
                    continue
                seen.add(ser)
                fresh.append((ser, score_alignment(merged, table)))
        stages_run = stage
        # the pool is sorted, so a stage with nothing fresh ends here too
        ranked = sorted(pool + fresh, key=sort_key)
        combined = ranked[: params.alignment_beam]
        if audit is not None:
            audit.record_stage(
                stage,
                [
                    (scored.score_bits, ser, i < params.alignment_beam)
                    for i, (ser, scored) in enumerate(ranked)
                ],
            )
        if combined == pool:
            break
        pool = combined

    top = [scored for _, scored in pool[: params.top_k]]
    probs = alignment_probabilities([s.score_bits for s in top])
    return AnalysisResult(tuple(top), probs, stages_run, len(pool))


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
