"""The match index: match results kept across analyses by the engine."""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable
from typing import Any

from .model import require_at_least


class MatchIndex:
    """LRU cache of match results under plain hashable keys.

    ``analyse`` keys a job by the tuple of everything its chains depend
    on: grammar fingerprint, serialization, pattern serial, and the
    matcher's two bounds.
    """

    def __init__(self, capacity: int = 1_000_000):
        require_at_least(1, capacity=capacity)
        self.capacity = capacity
        self._store: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Any | None:
        try:
            value = self._store[key]
        except KeyError:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        self._store[key] = value
        self._store.move_to_end(key)
        while len(self._store) > self.capacity:
            self._store.popitem(last=False)

    def __len__(self) -> int:
        return len(self._store)

    @property
    def hit_rate(self) -> float:
        seen = self.hits + self.misses
        return self.hits / seen if seen else 0.0
