#!/usr/bin/env python3
"""Reconstruction ladder: time ``reconstruct``, ``PartialDistances.from_tree``
and the CLI ``reconstruct`` at several n, for the working tree and
optionally for a parent commit, and write the numbers to a JSON file.

Usage, from the repository root::

    python3 tools/bench_ladder.py --out BENCH_9.json --parent 567beea
    python3 tools/bench_ladder.py --out ladder.json --sizes 20

The input at each n is ``random_binary_tree(n, 1)`` with the minimalized
``canonical_cover(tree, seeded_chooser(1))`` and its distances from the
tree; each side builds it with its own library.  Every number is the
minimum of ``--repeats`` runs, in seconds.  The CLI time is the wall time of
one ``python -m tricover reconstruct`` process on the input's JSON files.
``--parent REF`` extracts that commit with ``git archive`` into a temporary
directory and measures it the same way, each side in its own process.
Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
import time
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIZES = (20, 40, 80, 160, 320, 1000)
SEED = 1


def measure(src: Path, sizes: list[int], repeats: int, workdir: Path) -> dict:
    """Time the library under ``src`` at each size (run in a child)."""
    sys.path.insert(0, str(src))
    from tricover import (
        PartialDistances,
        canonical_cover,
        jsonio,
        minimalize,
        reconstruct,
        seeded_chooser,
        write_newick,
    )
    from tricover.lab import random_binary_tree

    def best(fn, *args):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            result = fn(*args)
            times.append(time.perf_counter() - start)
        return round(min(times), 6), result

    out = {"reconstruct_s": {}, "from_tree_s": {}, "cli_reconstruct_s": {}}
    env = dict(os.environ, PYTHONPATH=str(src))
    for n in sizes:
        tree = random_binary_tree(n, SEED)
        cover = minimalize(tree, canonical_cover(tree, seeded_chooser(SEED)))
        out["from_tree_s"][n], dist = best(PartialDistances.from_tree, tree, cover)
        out["reconstruct_s"][n], result = best(reconstruct, cover, dist)
        if write_newick(result.tree) != write_newick(tree):
            raise SystemExit(f"reconstruct at n={n} did not give the tree back")
        cover_path, dist_path = workdir / f"cover{n}.json", workdir / f"dist{n}.json"
        jsonio.save_cover(cover, cover_path)
        jsonio.save_distances(dist, dist_path)
        argv = [sys.executable, "-m", "tricover", "reconstruct", "--cover",
                str(cover_path), "--dist", str(dist_path),
                "--out", str(workdir / f"tree{n}.nwk")]
        out["cli_reconstruct_s"][n], _ = best(
            lambda: subprocess.run(argv, env=env, check=True, capture_output=True)
        )
    return out


def run_side(src: Path, sizes: list[int], repeats: int) -> dict:
    """Measure the library under ``src`` in a fresh interpreter."""
    with tempfile.TemporaryDirectory() as workdir:
        argv = [sys.executable, __file__, "--measure", str(src), "--workdir",
                workdir, "--repeats", str(repeats), "--sizes", *map(str, sizes)]
        run = subprocess.run(argv, check=True, capture_output=True, text=True)
    return json.loads(run.stdout)


def parent_side(ref: str, sizes: list[int], repeats: int) -> dict:
    """Measure commit ``ref``, extracted with ``git archive``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
        check=True, capture_output=True,
    ).stdout
    with tempfile.TemporaryDirectory() as checkout:
        with tarfile.open(fileobj=BytesIO(archive)) as tar:
            tar.extractall(checkout, filter="data")
        return run_side(Path(checkout) / "src", sizes, repeats)


def speedups(parent: dict, change: dict) -> dict:
    return {
        key: {n: round(parent[key][n] / change[key][n], 2) for n in change[key]}
        for key in change
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="JSON file to write")
    parser.add_argument("--parent", metavar="REF", help="commit to compare against")
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--measure", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure, args.sizes, args.repeats, args.workdir)))
        return 0
    if args.out is None:
        parser.error("--out is required")

    report = {
        "inputs": f"random_binary_tree(n, {SEED}), minimalized "
        f"canonical_cover(tree, seeded_chooser({SEED})), PartialDistances.from_tree",
        "unit": "s, min of repeats",
        "repeats": args.repeats,
        "sizes": args.sizes,
        "machine": f"Python {platform.python_version()}, {os.cpu_count()} CPUs",
    }
    if args.parent:
        report["parent"] = {"ref": args.parent,
                            **parent_side(args.parent, args.sizes, args.repeats)}
    report["change"] = run_side(ROOT / "src", args.sizes, args.repeats)
    if args.parent:
        report["speedup"] = speedups(report["parent"], report["change"])
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
