"""Benchmark of compalign: one workload per run, every output checked.

    python3 perfbench/run.py --workload parse --seed 1 --seconds 25 --trace 0

Run it from anywhere; it imports the package from ``src/`` next to this
directory and reads ``fixtures/`` there.  The run sets up the workload,
then repeats whole rounds of its operations, one at a time in one
process, until ``--seconds`` have passed.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Everything else goes to standard error.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` the package's layer functions are wrapped (see
``tracing.py``), the metrics are per-layer call counts and self times
for set-up plus one round, and the spans of set-up and the first round
are written to ``.perfbench_traces/<workload>.spans.tsv`` under the
repository root.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, per_layer_metric_names
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("bits_saved", "bits"),
)


def seconds_since_process_start() -> float:
    """Wall time since this process was created, interpreter start-up included."""
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def import_package():
    """Import compalign from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import compalign

    if not Path(compalign.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"compalign imported from {compalign.__file__}, not {src}")
    return compalign


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def run(args: argparse.Namespace) -> dict:
    api = import_package()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    rng = random.Random(args.seed)
    ops = WORKLOADS[args.workload](api, ROOT, rng)
    setup_s = seconds_since_process_start()
    setup_counts = tracer.snapshot() if tracer else None
    log(f"{args.workload}: {len(ops)} operations per round, set-up {setup_s:.3f}s")

    attempted = failed = rounds = 0
    correct = True
    durations: list[float] = []
    saved: dict[str, float] = {}
    started = time.perf_counter()
    while True:
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception:
                failed += 1
                log(f"{op.key}: operation failed\n{traceback.format_exc()}")
                continue
            durations.append(time.perf_counter() - t0)
            try:
                bits = op.check(result)
            except Exception:
                # a failed check, or an output missing what the check reads
                correct = False
                log(f"{op.key}: wrong output\n{traceback.format_exc()}")
                continue
            if saved.setdefault(op.key, bits) != bits:
                correct = False
                log(f"{op.key}: saved {bits!r} bits, earlier {saved[op.key]!r}")
        rounds += 1
        if tracer is not None:
            # spans of set-up and the first round; counters go on
            tracer.recording = False
        if time.perf_counter() - started >= args.seconds:
            break
    elapsed = time.perf_counter() - started
    if not durations:
        raise SystemExit("every operation failed; nothing was measured")
    log(f"{args.workload}: {rounds} rounds, {attempted} operations in {elapsed:.2f}s")

    if tracer is not None:
        tracer.uninstall()
        values = tracer.metrics(setup_counts, rounds)
        tracer.write_spans(ROOT / ".perfbench_traces" / f"{args.workload}.spans.tsv")
        units = {name: unit for name, unit, _ in per_layer_metric_names()}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    else:
        values = {
            "setup_s": setup_s,
            "op_p50_s": statistics.median(durations),
            "ops_per_s": len(durations) / elapsed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            # summed in a fixed order so the float repeats exactly
            "bits_saved": sum(saved[k] for k in sorted(saved)),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    stdout = sys.stdout
    # the package and the workloads may print; only the result line goes to stdout
    with contextlib.redirect_stdout(sys.stderr):
        result = run(args)
    stdout.write(json.dumps(result) + "\n")
    stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
