"""The match cache and the ``workers`` argument: eviction, checks, bytes."""

from __future__ import annotations

import pytest

from compalign import EngineParams, MatchIndex, analyse_serialized, learn


def test_worker_count_must_be_positive(parsing_grammar, parsing_new):
    with pytest.raises(ValueError, match="workers must be at least 1"):
        analyse_serialized(parsing_new, parsing_grammar, workers=0)
    with pytest.raises(ValueError, match="workers must be at least 1"):
        learn([parsing_new], workers=0)


# --- match cache ---


def test_counters_track_hits_and_misses():
    index = MatchIndex()
    key = ("g1", "alignment", 1, 64, 4)
    assert index.get(key) is None
    index.put(key, [1, 2])
    assert index.get(key) == [1, 2]
    assert (index.hits, index.misses) == (1, 1)
    assert index.hit_rate == 0.5


def test_eviction_is_least_recently_used():
    index = MatchIndex(capacity=2)
    ka, kb, kc = (("g1", x, 0) for x in "abc")
    index.put(ka, "a")
    index.put(kb, "b")
    assert index.get(ka) == "a"  # refreshes a over b
    index.put(kc, "c")
    assert len(index) == 2
    assert index.get(kb) is None
    assert index.get(ka) == "a"
    assert index.get(kc) == "c"


def test_empty_index_reports_zero_rate():
    index = MatchIndex()
    assert index.hit_rate == 0.0
    with pytest.raises(ValueError):
        MatchIndex(capacity=0)


# --- the cache and the worker count composed with analysis ---


def test_analysis_text_is_identical_across_workers_and_cache(
    parsing_grammar, parsing_new
):
    baseline = analyse_serialized(parsing_new, parsing_grammar)
    assert analyse_serialized(parsing_new, parsing_grammar, workers=2) == baseline
    index = MatchIndex()
    assert (
        analyse_serialized(parsing_new, parsing_grammar, index=index) == baseline
    )
    before = index.hits
    assert (
        analyse_serialized(parsing_new, parsing_grammar, index=index) == baseline
    )
    assert index.hits > before  # second pass served from the cache


def test_shared_index_keeps_matcher_settings_apart(class_grammar, class_new):
    # chains found under a narrower matcher search must not serve a
    # later run with other settings
    index = MatchIndex()
    for params in (EngineParams(max_alternatives=1), EngineParams(beam_width=2)):
        analyse_serialized(class_new, class_grammar, params, index=index)
    fresh = analyse_serialized(class_new, class_grammar)
    assert analyse_serialized(class_new, class_grammar, index=index) == fresh
