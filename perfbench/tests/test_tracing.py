"""The tracer counts calls through every module that holds a function."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import compalign  # noqa: E402
from compalign import engine, grammar_io, matcher, model  # noqa: E402

import tracing  # noqa: E402
from tracing import Tracer, per_layer_metric_names  # noqa: E402

GRAMMAR = "1 P | a b | #P\n1 Q | c | #Q\n"


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def test_install_reaches_package_and_module_globals(tracer):
    grammar = compalign.parse_grammar_text(GRAMMAR)
    grammar_io.parse_grammar_text(GRAMMAR)
    compalign.analyse(compalign.new_pattern("a b c".split()), grammar)
    out = tracer.metrics(([0] * len(tracer.names), [0] * len(tracer.names)), 1)
    assert out["grammar_io.parse_grammar_text.calls"] == 2
    assert out["engine.analyse.calls"] == 1
    # the engine calls these through its own globals and the class
    assert out["matcher.match_alignment.calls"] > 0
    assert out["model.canonicalize.calls"] > 0
    assert out["model.validate.calls"] > out["model.canonicalize.calls"] - 1
    assert 0 < out["matcher.hit_ratio"] <= 1
    assert 0 < out["engine.merge_chain.accept_ratio"] <= 1
    assert set(out) == {name for name, _, _ in per_layer_metric_names()}


def test_uninstall_restores_the_originals():
    before = (engine.match_alignment, matcher.match_alignment, model.MultipleAlignment.slots)
    t = Tracer()
    t.install()
    assert engine.match_alignment is not before[0]
    t.uninstall()
    after = (engine.match_alignment, matcher.match_alignment, model.MultipleAlignment.slots)
    assert after == before


def test_self_times_add_up_to_the_outer_span():
    grammar = compalign.parse_grammar_text(GRAMMAR)
    tracer = Tracer()
    tracer.install()
    try:
        compalign.analyse(compalign.new_pattern("a b c".split()), grammar)
    finally:
        tracer.uninstall()
    out = tracer.metrics(tracer.snapshot(), 1)
    spans = tracer.spans
    roots = [k for k in range(0, len(spans), 5) if spans[k + 1] == 0]
    assert len(roots) == 1
    outer = (spans[roots[0] + 4] - spans[roots[0] + 3]) / 1e9
    total_self = sum(v for k, v in out.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(outer, rel=1e-6)


def test_missing_function_reports_zero_calls(monkeypatch):
    monkeypatch.setattr(
        tracing,
        "LAYER_FUNCTIONS",
        tracing.LAYER_FUNCTIONS
        + (("learner.gone", "compalign.learner", None, ("no_such_function",)),),
    )
    t = Tracer()
    t.install()
    try:
        compalign.parse_grammar_text(GRAMMAR)
    finally:
        t.uninstall()
    out = t.metrics(t.snapshot(), 1)
    assert out["learner.gone.calls"] == 0
    assert out["learner.gone.self_s"] == 0.0


def test_spans_are_written_with_parents(tracer, tmp_path):
    grammar = compalign.parse_grammar_text(GRAMMAR)
    compalign.analyse(compalign.new_pattern("a b".split()), grammar)
    path = tmp_path / "spans.tsv"
    tracer.write_spans(path)
    lines = path.read_text().splitlines()
    assert lines[0].split("\t") == ["span", "parent", "function", "start_ns", "end_ns"]
    rows = [line.split("\t") for line in lines[1:]]
    assert len(rows) == len(tracer.spans) // 5
    ids = {r[0] for r in rows}
    assert all(r[1] == "0" or r[1] in ids for r in rows)
    assert min(int(r[3]) for r in rows) == 0
