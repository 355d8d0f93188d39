"""Audit trails: replayable pruning decisions, reproducible files."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compalign import (
    AuditTrail,
    EngineParams,
    MatchIndex,
    analyse,
    run_fingerprint,
    write_audit,
)
from compalign.audit import read_stage_file

from conftest import random_micro_instance


def _trail_for(new, grammar, workers=1, index=None) -> AuditTrail:
    run_id = run_fingerprint(EngineParams(), "g", "n")
    trail = AuditTrail(run_id=run_id, workers=workers, index=index)
    analyse(new, grammar, audit=trail, index=index, workers=workers)
    return trail


def test_run_fingerprint_is_stable_and_input_sensitive():
    a = run_fingerprint(EngineParams(), "g1", "n1")
    b = run_fingerprint(EngineParams(), "g1", "n1")
    c = run_fingerprint(EngineParams(beam_width=9), "g1", "n1")
    d = run_fingerprint(EngineParams(), "g2", "n1")
    assert a == b
    assert len({a, c, d}) == 3


def test_two_runs_write_identical_stage_files(tmp_path, parsing_grammar, parsing_new):
    dirs = []
    for name in ("one", "two"):
        trail = _trail_for(parsing_new, parsing_grammar)
        out = tmp_path / name
        trail.write(str(out), EngineParams(), {"grammar": "g.sp", "new": "n.sp"})
        dirs.append(out)

    first = sorted(p.name for p in dirs[0].iterdir())
    second = sorted(p.name for p in dirs[1].iterdir())
    assert first == second
    stage_names = [n for n in first if n.startswith("stage_")]
    assert stage_names, "expected at least one stage file"
    for name in stage_names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    manifests = [json.loads((d / "manifest.json").read_text()) for d in dirs]
    assert manifests[0].keys() == manifests[1].keys()
    for key in manifests[0]:
        if key == "created_at":
            assert manifests[0][key] != "" and manifests[1][key] != ""
        else:
            assert manifests[0][key] == manifests[1][key], key


def test_records_are_ordered_and_full(tmp_path, parsing_grammar, parsing_new):
    trail = _trail_for(parsing_new, parsing_grammar)
    keys = [(r.stage, r.serialization) for r in trail.records]
    assert keys == sorted(keys)
    # the trail keeps pruned candidates, not only survivors
    assert any(r.survived for r in trail.records)
    out = tmp_path / "trail"
    trail.write(str(out), EngineParams(), {})
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["records"] == len(trail.records)
    assert manifest["stages"] == sorted(set(trail.stages))


@pytest.mark.parametrize("stem", ["parsing", "class"])
def test_trail_records_the_stage_that_ends_the_search(stem, request):
    trail = AuditTrail(run_id="last-stage")
    result = analyse(
        request.getfixturevalue(f"{stem}_new"),
        request.getfixturevalue(f"{stem}_grammar"),
        audit=trail,
    )
    assert trail.stages == list(range(1, result.stages_run + 1))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_trail_ends_at_the_last_stage_run(seed):
    new, grammar = random_micro_instance(random.Random(seed))
    trail = AuditTrail(run_id="last-stage")
    result = analyse(new, grammar, audit=trail)
    assert trail.stages == list(range(1, result.stages_run + 1))


def test_no_pruned_candidate_outscores_a_survivor(
    tmp_path, parsing_grammar, parsing_new
):
    # a small beam forces real pruning
    trail = AuditTrail(run_id="prune-check")
    analyse(
        parsing_new,
        parsing_grammar,
        EngineParams(alignment_beam=3, top_k=3),
        audit=trail,
    )
    out = tmp_path / "trail"
    trail.write(str(out), EngineParams(alignment_beam=3, top_k=3), {})
    pruned_any = False
    for path in sorted(out.glob("stage_*.tsv")):
        rows = read_stage_file(str(path))
        survivors = [float(r["score_bits"]) for r in rows if r["survived"] == "1"]
        pruned = [float(r["score_bits"]) for r in rows if r["survived"] == "0"]
        if pruned:
            pruned_any = True
            assert min(survivors) >= max(pruned) - 1e-9
    assert pruned_any, "beam of three should have pruned something"


def test_stage_files_round_trip_through_the_reader(tmp_path, parsing_grammar, parsing_new):
    trail = _trail_for(parsing_new, parsing_grammar)
    out = tmp_path / "trail"
    trail.write(str(out), EngineParams(), {})
    stage_paths = sorted(out.glob("stage_*.tsv"))
    rows = read_stage_file(str(stage_paths[0]))
    stage_no = int(stage_paths[0].stem.split("_")[1])
    wanted = [r for r in trail.records if r.stage == stage_no]
    assert len(rows) == len(wanted)
    for got, rec in zip(rows, wanted):
        assert got["serialization"] == rec.serialization.replace("\n", "\\n")
        assert float(got["score_bits"]) == round(rec.score_bits, 9)
        assert got["workers"] == str(rec.workers)


def test_trail_snapshots_cache_counters(parsing_grammar, parsing_new):
    index = MatchIndex()
    _trail_for(parsing_new, parsing_grammar, index=index)  # cold run fills it
    trail = _trail_for(parsing_new, parsing_grammar, index=index)
    last = trail.records[-1]
    assert last.index_hits > 0
    assert last.index_hits + last.index_misses > 0


def test_write_audit_handles_empty_record_list(tmp_path):
    paths = write_audit([], str(tmp_path / "empty"))
    assert [Path(p).name for p in paths] == ["manifest.json"]
    manifest = json.loads(Path(paths[0]).read_text())
    assert manifest["records"] == 0
