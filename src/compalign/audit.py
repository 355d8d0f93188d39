"""Audit trail for analysis runs.

Every stage of the staged search records the full ranked candidate set,
survivors and pruned alike, so pruning decisions can be replayed from
the files alone.  Output is one tab-separated file per stage plus a
JSON manifest.  Two identical runs produce byte-identical trails except
for the manifest's ``created_at`` field, which is the only place a
timestamp appears.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Sequence

from . import __version__
from .engine import EngineParams

_STAGE_COLUMNS = (
    "stage",
    "survived",
    "score_bits",
    "index_hits",
    "index_misses",
    "workers",
    "serialization",
)

_Stage = tuple[tuple[int, int], list[tuple[float, str, bool]]]


def run_fingerprint(
    params: EngineParams, grammar_fp: str, new_fp: str
) -> str:
    """Deterministic run id from everything that shapes the search."""
    h = hashlib.sha256()
    for part in (repr(params), grammar_fp, new_fp, __version__):
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


@dataclass
class AuditTrail:
    """Collects the ranked candidates of each stage, then writes them out.

    Satisfies the engine's StageObserver hook.  ``stages`` maps each
    stage number to what it recorded: the live ``index``'s ``(hits,
    misses)`` at that moment (zeros without one) and the stage's
    ``(score_bits, serialization, survived)`` entries sorted by
    serialization.  ``run_id`` and ``workers`` are kept once for the
    run; ``write`` alone formats the files.
    """

    run_id: str
    workers: int = 1
    index: object | None = None
    stages: dict[int, _Stage] = field(default_factory=dict)

    def record_stage(
        self, stage: int, entries: Sequence[tuple[float, str, bool]]
    ) -> None:
        counters = (getattr(self.index, "hits", 0), getattr(self.index, "misses", 0))
        self.stages[stage] = (counters, sorted(entries, key=lambda e: e[1]))

    def write(
        self,
        directory: str,
        params: EngineParams | None = None,
        inputs: dict[str, str] | None = None,
    ) -> None:
        """One TSV per stage plus manifest.json."""
        os.makedirs(directory, exist_ok=True)
        for stage, ((hits, misses), entries) in sorted(self.stages.items()):
            path = os.path.join(directory, f"stage_{stage:03d}.tsv")
            with open(path, "w") as f:
                f.write("\t".join(_STAGE_COLUMNS) + "\n")
                for score, ser, survived in entries:
                    ser = ser.replace("\n", "\\n")
                    f.write(
                        f"{stage}\t{int(survived)}\t{score:.9f}\t{hits}\t{misses}"
                        f"\t{self.workers}\t{ser}\n"
                    )
        manifest = {
            "run_id": self.run_id,
            "stages": sorted(self.stages),
            "records": sum(len(entries) for _, entries in self.stages.values()),
            "params": repr(params) if params is not None else "",
            "inputs": inputs or {},
            "version": __version__,
            "created_at": datetime.now(timezone.utc).isoformat(),
        }
        with open(os.path.join(directory, "manifest.json"), "w") as f:
            json.dump(manifest, f, indent=1, sort_keys=True)
            f.write("\n")


def read_stage_file(path: str) -> list[dict[str, str]]:
    """Rows of one stage file as dicts keyed by the header names."""
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f]
    header = lines[0].split("\t")
    return [dict(zip(header, ln.split("\t"))) for ln in lines[1:] if ln]
