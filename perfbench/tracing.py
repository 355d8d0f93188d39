"""Per-layer spans and counters for traced benchmark runs.

The program is not changed: ``Tracer.install`` wraps the listed public
functions and methods of the package's modules from outside, on every
``compalign`` module attribute that holds them.  That covers the calls
the engine and the learner make through their own module globals
(``engine.match_alignment``, ``learner.analyse``, ...) as well as the
benchmark's calls through the package.  A listed function that the
program no longer has is skipped and reports 0 calls.

Each call records a span (id, parent span id, function, start, end) in
memory until ``recording`` is switched off; ``write_spans`` saves them
when the run ends.  A function's self
time is its spans' time minus the time of wrapped calls made inside
them.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

# metric prefix, module, class holding the method (or None), attribute
# names to try in order
LAYER_FUNCTIONS = (
    ("matcher.match_alignment", "compalign.matcher", None, ("match_alignment",)),
    ("engine.merge_chain", "compalign.engine", None, ("merge_chain",)),
    ("engine.score_alignment", "compalign.engine", None, ("score_alignment",)),
    ("engine.analyse", "compalign.engine", None, ("analyse",)),
    ("model.canonicalize", "compalign.model", None, ("canonicalize",)),
    ("model.validate", "compalign.model", "MultipleAlignment", ("validate",)),
    ("model.slots", "compalign.model", "MultipleAlignment", ("slots",)),
    ("model.serialize_alignment", "compalign.model", None, ("serialize_alignment",)),
    ("learner.evaluate_grammar", "compalign.learner", None, ("evaluate_grammar",)),
    (
        "learner.candidates_from_alignment",
        "compalign.learner",
        None,
        ("candidates_from_alignment",),
    ),
    (
        "learner.pair_alignments",
        "compalign.learner",
        None,
        ("pair_alignments", "_pair_alignments"),
    ),
    ("learner.learn", "compalign.learner", None, ("learn",)),
    ("grammar_io.parse_grammar_text", "compalign.grammar_io", None, ("parse_grammar_text",)),
)

MATCH = "matcher.match_alignment"
MERGE = "engine.merge_chain"


def per_layer_metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for prefix, *_ in LAYER_FUNCTIONS:
        out.append((f"{prefix}.calls", "count", "lower"))
        out.append((f"{prefix}.self_s", "s", "lower"))
    out.append(("matcher.hit_ratio", "ratio", "higher"))
    out.append((f"{MERGE}.accept_ratio", "ratio", "higher"))
    return out


class Tracer:
    def __init__(self) -> None:
        self.names = [spec[0] for spec in LAYER_FUNCTIONS]
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.useful = {MATCH: 0, MERGE: 0}
        # five int64 per span: id, parent id, function index, start, end;
        # kept while ``recording`` is true (a round of retrieve is ~1M spans)
        self.spans = array("q")
        self.recording = True
        self._stack: list[list[int]] = []  # [span id, ns spent in child spans]
        self._next_id = 1
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for index, (prefix, module_name, class_name, attrs) in enumerate(LAYER_FUNCTIONS):
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                continue
            holder = getattr(module, class_name, None) if class_name else module
            found = [(a, getattr(holder, a)) for a in attrs if hasattr(holder, a)]
            if not found:
                continue
            attr, original = found[0]
            traced = self._wrap(index, original, prefix)
            if class_name:
                self._replace(holder, attr, traced)
                continue
            for name, mod in list(sys.modules.items()):
                if name != "compalign" and not name.startswith("compalign."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, traced)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def _replace(self, holder, attr: str, traced) -> None:
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, traced)

    def _wrap(self, index: int, fn, prefix: str):
        calls, self_ns, spans, stack = self.calls, self.self_ns, self.spans, self._stack
        useful = self.useful
        if prefix == MATCH:
            def is_useful(result):
                return len(result) > 0
        elif prefix == MERGE:
            def is_useful(result):
                return result is not None
        else:
            is_useful = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id = span + 1
            parent = stack[-1][0] if stack else 0
            frame = [span, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                elapsed = end - start
                self_ns[index] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                calls[index] += 1
                if self.recording:
                    spans.extend((span, parent, index, start, end))
            if is_useful is not None and is_useful(result):
                useful[prefix] += 1
            return result

        return traced

    def snapshot(self) -> tuple[list[int], list[int]]:
        return list(self.calls), list(self.self_ns)

    def metrics(self, setup, rounds: int) -> dict[str, float]:
        """Set-up figures plus the figures of one round of the workload.

        ``setup`` is the snapshot taken when set-up ended; the rest is
        averaged over ``rounds`` rounds, which repeat the same calls.
        """
        setup_calls, setup_ns = setup
        out: dict[str, float] = {}
        for i, prefix in enumerate(self.names):
            calls = setup_calls[i] + (self.calls[i] - setup_calls[i]) / rounds
            self_ns = setup_ns[i] + (self.self_ns[i] - setup_ns[i]) / rounds
            out[f"{prefix}.calls"] = int(calls) if calls == int(calls) else calls
            out[f"{prefix}.self_s"] = self_ns / 1e9
        for prefix, key in ((MATCH, "matcher.hit_ratio"), (MERGE, f"{MERGE}.accept_ratio")):
            total = self.calls[self.names.index(prefix)]
            out[key] = self.useful[prefix] / total if total else 0.0
        return out

    def write_spans(self, path: Path) -> None:
        """Tab-separated spans, times in ns from the first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = self.spans
        origin = min(spans[3::5], default=0)
        with path.open("w") as out:
            out.write("span\tparent\tfunction\tstart_ns\tend_ns\n")
            for k in range(0, len(spans), 5):
                out.write(
                    f"{spans[k]}\t{spans[k + 1]}\t{self.names[spans[k + 2]]}\t"
                    f"{spans[k + 3] - origin}\t{spans[k + 4] - origin}\n"
                )
