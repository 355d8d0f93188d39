"""Partial matching of a stored pattern against an alignment.

The driving side is the slot view of an alignment (see
``MultipleAlignment.slots``).  A match is a chain of (slot, target
position) pairs with strictly ascending target positions, where every
slot either is a matched column taken in column order or an unmatched
cell placed inside its floating interval.  ``place`` is the one rule for
whether a step of a chain is legal; the beam search here and
``engine.merge_chain`` both apply it.  For a bare one-row alignment
this degenerates into classic subsequence matching, and the beam search
below is then exact as long as the beam holds one state per driving
position.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .model import MultipleAlignment, Pattern, Slot, Span, SymbolTable

if TYPE_CHECKING:
    from .engine import EngineParams

Chain = tuple[tuple[int, int], ...]


def place(
    slot: Slot,
    t: int,
    target_serial: int,
    target_span: Span,
    min_gap: int,
    caps: dict[int, int],
) -> int | None:
    """The placement rule: may ``slot`` take target position ``t`` next?

    ``min_gap`` is the first column gap still open and ``caps`` the last
    position placed on each row so far.  Returns the minimum gap for the
    next placement, or None when the step is illegal.  The caller checks
    text equality and ascending target positions, and records the
    slot's cells in ``caps`` after a legal step.
    """
    if slot.kind == "col":
        if slot.column < min_gap:
            return None
        gap = slot.column + 1
    else:
        gap = max(slot.lo + 1, min_gap)
        if gap > slot.hi:
            return None
        if (
            slot.cells[0][0] != 0
            and slot.span is not Span.CONTENTS
            and target_span is not Span.CONTENTS
        ):
            # a fresh two-cell column must touch contents somewhere,
            # else bare identification symbols unify into columns that
            # erase their own cost
            return None
    for (r, p), serial in zip(slot.cells, slot.serials):
        if p <= caps.get(r, -1):
            return None
        if target_serial >= 0 and serial == target_serial and p == t:
            # two copies of one stored pattern may not pile up on the
            # same internal position; that only restates a row without
            # explaining anything
            return None
    return gap


def match_alignment(
    alignment: MultipleAlignment,
    target: Pattern,
    table: SymbolTable,
    params: EngineParams,
) -> list[tuple[Chain, float]]:
    """Best chains of ``target`` against the slot view of ``alignment``.

    Chains of (slot index, target position) pairs come score-sorted; on
    a bare one-row alignment a slot index is a position of that row.
    State is (minimum gap for the next placement, per-row position
    ceiling); chains sharing a state are interchangeable for any
    continuation, so only the best ``params.max_alternatives`` per state
    are kept, in at most ``params.beam_width`` states.
    """
    slots = alignment.slots()
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
                gap = place(slot, t, tserial, tspan, min_gap, caps)
                if gap is None:
                    continue
                new_caps = dict(caps)
                new_caps.update(slot.cells)
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
            del bucket[params.max_alternatives :]
        if len(states) > params.beam_width:
            ranked = sorted(
                (k for k in states if k != init_key),
                key=lambda k: (-states[k][0][0], states[k][0][1]),
            )
            keep = set(ranked[: params.beam_width - 1])
            keep.add(init_key)
            states = {k: v for k, v in states.items() if k in keep}

    ordered = sorted(results.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(chain, score) for chain, score in ordered[: params.max_alternatives]]


def brute_force_best_match(
    driving: Pattern, target: Pattern, table: SymbolTable
) -> tuple[Chain, float]:
    """Exact best match by quadratic dynamic programming.

    Serves as an oracle for ``match_alignment`` on the bare alignment of
    ``driving``, whose slot indices are its positions; the chain is
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
    chain: list[tuple[int, int]] = []
    i, j = n, m
    while i > 0 and j > 0:
        if (
            driving.symbols[i - 1] == target.symbols[j - 1]
            and dp[i][j] == dp[i - 1][j - 1] + table.cost(target.symbols[j - 1])
        ):
            chain.append((i - 1, j - 1))
            i -= 1
            j -= 1
        elif dp[i][j] == dp[i - 1][j]:
            i -= 1
        else:
            j -= 1
    chain.reverse()
    return tuple(chain), dp[n][m]
