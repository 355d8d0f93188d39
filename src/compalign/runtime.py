"""The match index: match results kept across analyses by the engine."""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any

from .model import require_at_least


class MatchIndex:
    """LRU cache of match results keyed by content fingerprints."""

    def __init__(self, capacity: int = 1_000_000):
        require_at_least(1, capacity=capacity)
        self.capacity = capacity
        self._store: OrderedDict[str, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def fingerprint(*parts: Any) -> str:
        h = hashlib.sha256()
        for part in parts:
            h.update(repr(part).encode())
            h.update(b"\x00")
        return h.hexdigest()

    def get(self, key: str) -> Any | None:
        try:
            value = self._store[key]
        except KeyError:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
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
