#!/usr/bin/env python3
"""tricover benchmark: seeded workloads against the public API.

Usage, from the repository root::

    python3 perfbench/run.py --workload classify --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --quick --trace 1

One process runs one workload as a single closed-loop caller (no threads):
set-up, done ``SETUP_REPEATS`` times with the median reported; then whole
passes over the workload's fixed batch of items until ``--seconds`` are
used; then the output checks.  Every item counts at its median over the
passes: ``run_s`` is the sum of those times, ``item_p50_ms`` and
``item_p90_ms`` their percentiles.  All times are seconds at the reference
pace of ``pace.py``: each pass is scaled by a CPU probe timed between its
items, so that spells when other tenants slow the machine down cancel out.

``--trace 1`` splits the time between untraced and traced passes and prints
per-layer metrics instead of end-to-end ones; spans go to
``.perfbench/trace-<workload>-<seed>.jsonl``.  ``--workload all`` runs each
workload in a fresh process and checks that every metric named in
BENCHMARK.json is printed with its unit.  ``--quick`` shrinks every workload
to a size that runs in seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("classify", "roundtrip", "fixtures")

END_TO_END = {
    "run_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def library_available() -> bool:
    """Put the checkout's sources on the path; False when they are absent."""
    if not (ROOT / "src" / "tricover" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


class Passes:
    """Folds in each pass as it ends: keeps the first pass's outcomes for the
    checks, every item's paced latencies over the untraced passes, pass
    times, tracers, and the failing (pass, item) pairs."""

    def __init__(self, workload, inputs):
        self.workload, self.inputs = workload, inputs
        self.first = self.first_digests = self.latencies = None
        self.times: dict[bool, list[float]] = {False: [], True: []}
        self.tracers = []
        self.attempted = 0
        self.failures: dict[tuple[int, int], str] = {}

    def fail(self, pass_index: int, item: int, message: str) -> None:
        self.failures.setdefault((pass_index, item), message)

    def add(self, elapsed: float, outcomes, tracer) -> None:
        """Fold in one pass; its times are scaled to the reference pace."""
        k = len(self.times[False]) + len(self.times[True])
        pace = tracer.factor()
        self.attempted += len(outcomes)
        digests = self.workload.digests(self.inputs, outcomes)
        if k == 0:
            self.first, self.first_digests = outcomes, digests
        else:
            for i, outcome in enumerate(outcomes):
                if outcome.error:
                    self.fail(k, i, outcome.error)
            for (i, digest), (_, ref) in zip(digests, self.first_digests):
                if digest != ref:
                    self.fail(k, i, "output differs from the first pass")
        self.times[tracer.enabled].append(elapsed * pace)
        if tracer.enabled:
            self.tracers.append(tracer)
        elif self.latencies is None:
            self.latencies = [[o.latency * pace] for o in outcomes]
        elif len(outcomes) == len(self.latencies):
            for seen, o in zip(self.latencies, outcomes):
                seen.append(o.latency * pace)


def measure(workload, inputs, seconds: float, make_tracer, passes: Passes) -> None:
    """Whole passes until the next one would overrun ``seconds``; at least one."""
    start = time.perf_counter()
    while True:
        tracer = make_tracer()
        t0 = time.perf_counter()
        outcomes = workload.run_pass(inputs, tracer)
        elapsed = time.perf_counter() - t0
        tracer.close()
        passes.add(elapsed, outcomes, tracer)
        if time.perf_counter() - start + elapsed > seconds:
            return


def recorded_digests(mode: str, name: str):
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(mode, {}).get(name)


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool):
    """Set up, measure and check one workload in this process.

    Returns (metrics, attempted, failed, problems, notes): ``metrics`` maps a
    name to (value, unit); ``problems`` are run-level check failures.
    """
    from tracing import (
        OVERHEAD,
        NullTracer,
        Tracer,
        per_layer_catalogue,
        ratio_metrics,
        write_spans,
    )
    from pace import REFERENCE_PROBE_S, probe_seconds
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times, fingerprints, probes = [], set(), [probe_seconds()]
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = workload.setup(seed, quick, workdir)
            setup_times.append(time.perf_counter() - t0)
            fingerprints.add(inputs.fingerprint)
            probes.append(probe_seconds())
        setup_pace = REFERENCE_PROBE_S / statistics.median(probes)
        problems = []
        if len(fingerprints) != 1:
            problems.append("set-up gave different inputs on repeat")

        passes = Passes(workload, inputs)
        budget = seconds / 2 if trace else seconds
        measure(workload, inputs, budget, NullTracer, passes)
        if trace:
            measure(workload, inputs, budget, Tracer, passes)

        # Output checks: the independent checks on the first pass, digests of
        # every later pass against it, and on the default seed the digests
        # recorded from the seed commit.
        for i, message in enumerate(workload.check(inputs, passes.first)):
            if message:
                passes.fail(0, i, message)
        if seed == DEFAULT_SEED:
            recorded = recorded_digests("quick" if quick else "full", name)
            if recorded is None:
                problems.append("no recorded digests for the default seed")
            elif len(recorded) != len(passes.first_digests):
                problems.append("recorded digests cover a different batch")
            else:
                for (i, digest), ref in zip(passes.first_digests, recorded):
                    if digest != ref:
                        passes.fail(0, i, "output differs from the recorded digest")
        notes = [
            f"failed: pass {k} item {i}: {message}"
            for (k, i), message in sorted(passes.failures.items())[:5]
        ]
        plain_times = passes.times[False]

        if not trace:
            # Each item at its median over the passes, in reference-pace
            # seconds; run_s is the batch at those times.
            latencies = [statistics.median(seen) for seen in passes.latencies]
            metrics = {
                "run_s": sum(latencies),
                "item_p50_ms": statistics.median(latencies) * 1000,
                "item_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8]
                * 1000,
                "setup_s": statistics.median(setup_times) * setup_pace,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            notes.insert(
                0,
                f"{len(plain_times)} pass(es) of {len(latencies)} items; every item "
                f"counts at its median of {len(plain_times)}: run_s sums them, p50 "
                f"and p90 are over {len(latencies)} samples; setup_s is the median "
                f"of {SETUP_REPEATS} set-ups",
            )
            return (
                {k: (v, END_TO_END[k]) for k, v in metrics.items()},
                passes.attempted,
                len(passes.failures),
                problems,
                notes,
            )

        counts = passes.tracers[0].exact_counts()
        if any(tracer.exact_counts() != counts for tracer in passes.tracers[1:]):
            problems.append("exact counters differ between traced passes")
        per_pass = [
            {key: value * tracer.factor() for key, value in tracer.layer_seconds().items()}
            for tracer in passes.tracers
        ]
        values: dict[str, float] = {
            key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]
        }
        values.update(counts)
        values.update(ratio_metrics(counts))
        values[OVERHEAD] = (
            statistics.median(passes.times[True]) / statistics.median(plain_times) - 1
        )
        metrics = {
            key: (values[key], unit) for key, (unit, _) in per_layer_catalogue().items()
        }
        trace_path = OUT_DIR / f"trace-{name}-{seed}.jsonl"
        write_spans(trace_path, passes.tracers)
        notes.insert(
            0,
            f"{len(plain_times)} untraced and {len(passes.tracers)} traced pass(es); "
            f"spans written to {trace_path.relative_to(ROOT)}",
        )
        return metrics, passes.attempted, len(passes.failures), problems, notes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def format_value(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def single(args) -> int:
    if not library_available():
        print(
            f"perfbench: no tricover sources at {ROOT / 'src' / 'tricover'}",
            file=sys.stderr,
        )
        return 2
    metrics, attempted, failed, problems, notes = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick
    )
    correct = failed == 0 and not problems
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in notes + [f"problem: {p}" for p in problems]:
        print(f"  {line}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:42s} {format_value(value):>14s} {unit}")
    print(f"  {'failed_ratio':42s} {format_value(failed / attempted):>14s} "
          f"({failed} failed of {attempted} attempted)")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def every_workload(args) -> int:
    """Each workload in a fresh process; check names and units against
    BENCHMARK.json."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print("perfbench: BENCHMARK.json not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    expected = {
        m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: {name} printed no result (exit {proc.returncode})")
            status = 1
            continue
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        if emitted != expected:
            missing = sorted(set(expected) - set(emitted))
            extra = sorted(set(emitted) - set(expected))
            units = sorted(k for k in emitted if k in expected and emitted[k] != expected[k])
            print(f"perfbench: {name} metrics differ from BENCHMARK.json: "
                  f"missing {missing}, unexpected {extra}, wrong units {units}")
            status = 1
        if proc.returncode != 0 or not result["correct"]:
            status = 1
        rows.append((name, result))
    if not args.trace:
        print("\nworkload   " + " ".join(f"{k:>12s}" for k in END_TO_END) + "  failed_ratio")
        for name, result in rows:
            m = result["metrics"]
            cells = " ".join(f"{m[k]['value']:12.4g}" if k in m else f"{'-':>12s}"
                             for k in END_TO_END)
            print(f"{name:10s} {cells}  {result['failed'] / result['attempted']:.3g} "
                  f"({result['failed']}/{result['attempted']})")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, seconds per workload")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return every_workload(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
