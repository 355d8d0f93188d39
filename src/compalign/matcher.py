"""Partial matching of a stored pattern against an alignment.

The driving side is the slot view of an alignment (see
``MultipleAlignment.slots``).  A match is a chain of (slot, target
position) pairs with strictly ascending target positions, where every
slot either is a matched column taken in column order or an unmatched
cell placed inside its floating interval.  For a bare one-row alignment
this degenerates into classic subsequence matching, and the beam search
below is then exact as long as the beam holds one state per driving
position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .model import MultipleAlignment, Pattern, Slot, Span, SymbolTable, require_at_least


@dataclass(frozen=True)
class SearchBudget:
    beam_width: int = 256
    max_alternatives: int = 8

    def __post_init__(self) -> None:
        require_at_least(1, **vars(self))


@dataclass(frozen=True)
class Hit:
    driving_pos: int
    target_pos: int


@dataclass(frozen=True)
class HitSequence:
    hits: tuple[Hit, ...]
    score_bits: float


Chain = tuple[tuple[int, int], ...]


def match_slots(
    slots: Sequence[Slot],
    target: Pattern,
    table: SymbolTable,
    budget: SearchBudget,
) -> list[tuple[Chain, float]]:
    """Best chains of (slot index, target position) pairs, score-sorted.

    State is (minimum gap for the next placement, per-row position
    ceiling); chains sharing a state are interchangeable for any
    continuation, so only the best few per state are kept.
    """
    by_text: dict[str, list[int]] = {}
    for i, slot in enumerate(slots):
        by_text.setdefault(slot.text, []).append(i)

    StateKey = tuple[int, tuple[tuple[int, int], ...]]
    init_key: StateKey = (0, ())
    states: dict[StateKey, list[tuple[float, Chain]]] = {init_key: [(0.0, ())]}
    results: dict[Chain, float] = {}

    for t in range(len(target.symbols)):
        sym = target.symbols[t]
        here = by_text.get(sym)
        if not here:
            continue
        tspan = target.span_of(t)
        tserial = target.serial
        additions: list[tuple[StateKey, float, Chain]] = []
        for (min_gap, row_caps), entries in states.items():
            caps = dict(row_caps)
            for i in here:
                slot = slots[i]
                if slot.kind == "col":
                    j = slot.column
                    if j < min_gap:
                        continue
                    ok = True
                    for r, p in slot.members:
                        if p <= caps.get(r, -1):
                            ok = False
                            break
                    if ok and tserial >= 0:
                        # two copies of one stored pattern may not pile
                        # up on the same internal position; that only
                        # restates a row without explaining anything
                        for sr, (_, p) in zip(slot.member_serials, slot.members):
                            if sr == tserial and p == t:
                                ok = False
                                break
                    if not ok:
                        continue
                    new_caps = dict(caps)
                    for r, p in slot.members:
                        new_caps[r] = p
                    new_key = (j + 1, tuple(sorted(new_caps.items())))
                else:
                    gap = max(slot.lo + 1, min_gap)
                    if gap > slot.hi:
                        continue
                    if slot.pos <= caps.get(slot.row, -1):
                        continue
                    if tserial >= 0 and slot.row_serial == tserial and slot.pos == t:
                        continue
                    if (
                        slot.row != 0
                        and slot.span is not Span.CONTENTS
                        and tspan is not Span.CONTENTS
                    ):
                        # a fresh two-cell column must touch contents
                        # somewhere, else bare identification symbols
                        # unify into columns that erase their own cost
                        continue
                    new_caps = dict(caps)
                    new_caps[slot.row] = slot.pos
                    new_key = (gap, tuple(sorted(new_caps.items())))
                step_cost = table.cost(sym)
                for score, chain in entries:
                    additions.append(
                        (new_key, score + step_cost, chain + ((i, t),))
                    )
        if not additions:
            continue
        for key, score, chain in additions:
            results[chain] = score
            bucket = states.setdefault(key, [])
            bucket.append((score, chain))
        for key in {k for k, _, _ in additions}:
            bucket = states[key]
            bucket.sort(key=lambda e: (-e[0], e[1]))
            del bucket[budget.max_alternatives :]
        if len(states) > budget.beam_width:
            ranked = sorted(
                (k for k in states if k != init_key),
                key=lambda k: (-states[k][0][0], states[k][0][1]),
            )
            keep = set(ranked[: budget.beam_width - 1])
            keep.add(init_key)
            states = {k: v for k, v in states.items() if k in keep}

    ordered = sorted(results.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(chain, score) for chain, score in ordered[: budget.max_alternatives]]


def match_alignment(
    alignment: MultipleAlignment,
    target: Pattern,
    table: SymbolTable,
    budget: SearchBudget,
) -> list[tuple[Chain, float]]:
    return match_slots(alignment.slots(), target, table, budget)


def find_matches(
    driving: Pattern,
    target: Pattern,
    table: SymbolTable,
    budget: SearchBudget = SearchBudget(),
) -> list[HitSequence]:
    """Alternative partial matches of target inside a single pattern.

    Returns up to ``budget.max_alternatives`` hit sequences sorted by
    descending score; an empty list when nothing matches at all.
    """
    bare = MultipleAlignment((driving,), ())
    slots = bare.slots()
    chains = match_slots(slots, target, table, budget)
    out = []
    for chain, score in chains:
        hits = tuple(Hit(slots[i].pos, t) for i, t in chain)
        out.append(HitSequence(hits, score))
    return out


def brute_force_best_match(
    driving: Pattern, target: Pattern, table: SymbolTable
) -> HitSequence:
    """Exact best match by quadratic dynamic programming.

    Serves as an oracle for ``find_matches``; the hit sequence may be
    empty when the patterns share no symbol.
    """
    n, m = len(driving.symbols), len(target.symbols)
    dp = [[0.0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        row, prev = dp[i], dp[i - 1]
        for j in range(1, m + 1):
            best = prev[j] if prev[j] >= row[j - 1] else row[j - 1]
            if driving.symbols[i - 1] == target.symbols[j - 1]:
                cand = prev[j - 1] + table.cost(target.symbols[j - 1])
                if cand > best:
                    best = cand
            row[j] = best
    hits: list[Hit] = []
    i, j = n, m
    while i > 0 and j > 0:
        if (
            driving.symbols[i - 1] == target.symbols[j - 1]
            and dp[i][j] == dp[i - 1][j - 1] + table.cost(target.symbols[j - 1])
        ):
            hits.append(Hit(i - 1, j - 1))
            i -= 1
            j -= 1
        elif dp[i][j] == dp[i - 1][j]:
            i -= 1
        else:
            j -= 1
    hits.reverse()
    return HitSequence(tuple(hits), dp[n][m])
