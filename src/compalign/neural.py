"""Rate-based recognition by release from inhibition.

Each stored pattern becomes an assembly: one cell per contents symbol
plus an identification cell.  Contents cells fire at a fixed baseline
rate and are knocked down when their symbol arrives in the expected
order.  The identification cell's rate rises with the share of
contents cells knocked down; crossing the recognition threshold emits
the assembly's identifier as a virtual symbol on the next step, which
lets higher-level assemblies receive lower-level results.

With baseline b and n contents cells the identification rate is
b * (1 + (k - (n - k)) / n) for k cells down, so a full match gives 2b
and missing one cell gives at most 2b(n-1)/n.  The default threshold of
1.8b therefore separates full from partial matches for n up to 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .model import Grammar, Pattern, require_at_least


@dataclass(frozen=True)
class NeuralParams:
    baseline_rate: float = 20.0
    inhibition_gain: float = 4.0
    settle_tau: int = 4
    recognition_threshold: float = 1.8

    def __post_init__(self) -> None:
        if self.baseline_rate <= 0 or self.inhibition_gain <= 0:
            raise ValueError("rates must be positive")
        require_at_least(1, settle_tau=self.settle_tau)
        if not 1.0 < self.recognition_threshold < 2.0:
            raise ValueError("threshold must sit between partial and full match")


class PatternAssembly:
    """Working state for one stored pattern."""

    def __init__(self, pattern: Pattern, params: NeuralParams):
        self.pattern = pattern
        self.params = params
        self.id_symbol = pattern.id_symbols[0] if pattern.id_len else None
        # boundary-marking symbols never receive input; they fold into
        # the assembly's fixed structure
        self.cells: list[str] = [
            s for s in pattern.contents if not s.startswith("#")
        ]
        self.fired: list[bool] = [False] * len(self.cells)
        self.rates: list[float] = [params.baseline_rate] * len(self.cells)
        self.emitted = False

    def reset(self) -> None:
        self.fired = [False] * len(self.cells)
        self.rates = [self.params.baseline_rate] * len(self.cells)
        self.emitted = False

    def release(self) -> None:
        self.fired = [False] * len(self.cells)
        self.emitted = False

    def deliver(self, symbol: str, exempt: bool) -> bool:
        """Accept one symbol; in strict order unless exempt (virtual input)."""
        if exempt:
            for i, text in enumerate(self.cells):
                if text == symbol and not self.fired[i]:
                    self.fired[i] = True
                    return True
            return False
        pointer = self._pointer()
        if pointer is not None and self.cells[pointer] == symbol:
            self.fired[pointer] = True
            return True
        return False

    def _pointer(self) -> int | None:
        for i, done in enumerate(self.fired):
            if not done:
                return i
        return None

    def tick(self) -> None:
        """One step of rate dynamics for the contents cells."""
        b = self.params.baseline_rate
        g = self.params.inhibition_gain
        tau = self.params.settle_tau
        for i in range(len(self.cells)):
            if self.fired[i]:
                self.rates[i] = max(0.0, self.rates[i] - g)
            else:
                self.rates[i] += (b - self.rates[i]) / tau

    def identification_rate(self) -> float:
        n = len(self.cells)
        if n == 0:
            return 0.0
        b = self.params.baseline_rate
        down = sum(self.fired)
        return max(0.0, b * (1.0 + (down - (n - down)) / n))

    def recognised(self) -> bool:
        n = len(self.cells)
        if n == 0:
            return False
        return (
            self.identification_rate()
            >= self.params.recognition_threshold * self.params.baseline_rate
        )


class InhibitionNetwork:
    """All assemblies of a grammar plus the virtual-symbol relay."""

    def __init__(
        self, grammar: Grammar, params: NeuralParams = NeuralParams(), trace: bool = False
    ):
        self.params = params
        self.assemblies = [PatternAssembly(p, params) for p in grammar.patterns]
        self._virtual_queue: list[str] = []
        self.recognition_order: list[PatternAssembly] = []
        self.trace: list[dict] | None = [] if trace else None
        self.steps = 0

    def reset(self) -> None:
        for a in self.assemblies:
            a.reset()
        self._virtual_queue = []
        self.recognition_order = []
        if self.trace is not None:
            self.trace = []
        self.steps = 0

    def withdraw(self) -> None:
        """Remove input: assemblies release and rates start relaxing."""
        for a in self.assemblies:
            a.release()
        self._virtual_queue = []

    def step(self, symbols: Sequence[str] = ()) -> None:
        """Deliver virtual symbols from last step, then real input, then tick."""
        virtual, self._virtual_queue = self._virtual_queue, []
        for v in virtual:
            for a in self.assemblies:
                a.deliver(v, exempt=True)
        for s in symbols:
            for a in self.assemblies:
                a.deliver(s, exempt=False)
        for a in self.assemblies:
            a.tick()
            if a.recognised() and not a.emitted:
                a.emitted = True
                self.recognition_order.append(a)
                if a.id_symbol is not None:
                    self._virtual_queue.append(a.id_symbol)
        self.steps += 1
        if self.trace is not None:
            self.trace.append(self.snapshot())

    def present(self, symbols: Sequence[str]) -> list[str]:
        """Feed a whole sequence, one symbol per step, then drain relays.

        Returns identifiers (or pattern texts when anonymous) of the
        assemblies recognised, in recognition order.
        """
        self.reset()
        for s in symbols:
            self.step([s])
        guard = len(self.assemblies) + 1
        while self._virtual_queue and guard:
            self.step()
            guard -= 1
        return [self._label(a) for a in self.recognition_order]

    @staticmethod
    def _label(assembly: PatternAssembly) -> str:
        if assembly.id_symbol is not None:
            return assembly.id_symbol
        return " ".join(assembly.pattern.symbols)

    def snapshot(self) -> dict:
        return {
            self._label(a): {
                "id_rate": round(a.identification_rate(), 6),
                "cells": [round(r, 6) for r in a.rates],
            }
            for a in self.assemblies
        }
