#!/usr/bin/env python3
"""Record the per-item output digests that run.py checks on the default seed.

    python3 perfbench/record_digests.py

Run it on a commit whose outputs are known to be right: the digests pin the
byte-identical contract, so every later commit must reproduce them.  It
refuses to record when an item fails its independent checks.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    if not run.library_available():
        print("record_digests: no tricover sources under src/", file=sys.stderr)
        return 2
    from tracing import NullTracer
    from workloads import WORKLOADS

    workdir = run.OUT_DIR / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    recorded: dict = {}
    try:
        for mode, quick in (("full", False), ("quick", True)):
            for name, workload in WORKLOADS.items():
                inputs = workload.setup(run.DEFAULT_SEED, quick, workdir)
                outcomes = workload.run_pass(inputs, NullTracer())
                failures = [m for m in workload.check(inputs, outcomes) if m]
                if failures:
                    print(f"record_digests: {mode} {name} fails: {failures[:3]}",
                          file=sys.stderr)
                    return 1
                digests = [digest for _, digest in workload.digests(inputs, outcomes)]
                recorded.setdefault(mode, {})[name] = digests
                print(f"{mode} {name}: {len(digests)} digests")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
