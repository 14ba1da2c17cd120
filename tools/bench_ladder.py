#!/usr/bin/env python3
"""Layer ladder: time ``random_binary_tree``, ``canonical_cover``,
``support_map``, ``is_triplet_cover``, ``minimalize``, ``is_minimal``,
``cord_closure``, ``classify``, ``decomposition_from_section``,
``is_ample``, ``is_two_connected``, ``parse_newick``, ``cover_from_json``,
``distances_from_json``, ``dumps_canonical``, ``reconstruct``,
``PartialDistances.from_tree``, ``PhyloTree.isomorphic`` and the CLI
``reconstruct`` at several n, and the
fixture search's instance stream ``random_instances`` and ``search_fixture``
for each of the five fixture targets at one fixed n, for the working tree
and optionally for a parent commit, and write the numbers to a JSON file.

Usage, from the repository root::

    python3 tools/bench_ladder.py --out BENCH_10.json --parent 4f5bda7
    python3 tools/bench_ladder.py --out ladder.json --sizes 20

The input at each n is ``random_binary_tree(n, 1)`` with ``canonical_cover(tree,
seeded_chooser(1))``, that cover minimalized, and the minimal cover's
distances from the tree; each side builds them with its own library.
``random_binary_tree`` builds that tree; ``random_instances`` takes the
first ``INSTANCES_TAKEN`` items of ``random_instances(INSTANCES_N, 1)``,
whatever the sizes, and is keyed by that n, as is ``fixture_search``: one
``search_fixture`` per target of ``FIXTURE_PREDICATES`` at that n, seed 1
and a budget of ``FIXTURE_BUDGET`` instances.  ``canonical_cover`` builds
the chooser cover with a fresh chooser each run;
``support_map``, ``is_triplet_cover``, ``minimalize`` and ``is_minimal`` run
on the chooser cover, ``cover_from_json`` on its JSON payload,
``distances_from_json`` on the JSON payload of its distances from the tree,
and ``dumps_canonical`` writes both payloads;
``cord_closure`` and ``classify`` (only for n <= 320), ``is_two_connected``
and the reconstruction rows on the minimal one; ``parse_newick`` reads
``write_newick(tree)``;
``decomposition_from_section`` and ``is_ample`` take the minimal cover's
first section, ``is_ample`` with the cap at its size, and a size
where one call runs over ``AMPLE_LIMIT_S`` seconds is left out of the row,
with every larger one (an exponential search cannot finish there, and its
memo would fill the memory); ``isomorphic`` compares the tree with its
Newick re-parse, lengths included.  Every run of
the cover layers gets a fresh, equal cover, so any per-cover index is built
inside the timed call.  Each side runs in ``--repeats`` fresh processes,
the sides taking turns, and each process times every number ``--repeats``
times; the file keeps the minimum, in seconds, and under ``spread`` the
ratio of the greatest to the least per-process minimum, so that each file
states its own noise.  The CLI time is the wall time of one ``python -m tricover
reconstruct`` process on the input's JSON files: each run is a fresh process,
which builds its one argument parser either way, so the row shows the
distance loader's gain but not the gain of keeping one parser across
``main`` calls in a process.  ``--parent REF`` extracts
that commit with ``git archive`` into a temporary directory and measures it
the same way.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tarfile
import tempfile
import time
from functools import partial
from io import BytesIO
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIZES = (20, 40, 80, 160, 320, 1000)
CLASSIFY_MAX = 320
CLOSURE_MAX = 320
AMPLE_LIMIT_S = 1
SEED = 1
INSTANCES_N = 12
INSTANCES_TAKEN = 50
FIXTURE_BUDGET = 60


class _OverLimit(Exception):
    pass


def finishes(fn) -> bool:
    """Whether ``fn()`` returns within ``AMPLE_LIMIT_S`` seconds of wall time;
    a call over the limit is interrupted."""
    def stop(signum, frame):
        raise _OverLimit

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, AMPLE_LIMIT_S)
    try:
        fn()
        return True
    except _OverLimit:
        return False
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def measure(src: Path, sizes: list[int], repeats: int, workdir: Path) -> dict:
    """Time the library under ``src`` at each size (run in a child)."""
    sys.path.insert(0, str(src))
    from tricover import (
        PartialDistances,
        TripletCover,
        canonical_cover,
        cord_closure,
        decomposition_from_section,
        is_ample,
        is_minimal,
        is_triplet_cover,
        jsonio,
        is_two_connected,
        iter_sections,
        minimalize,
        parse_newick,
        reconstruct,
        seeded_chooser,
        support_map,
        write_newick,
    )
    from tricover.lab import (
        FIXTURE_PREDICATES,
        random_binary_tree,
        random_instances,
        search_fixture,
    )
    from tricover.report import classify

    def best(fn, *args):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            result = fn(*args)
            times.append(time.perf_counter() - start)
        return round(min(times), 6), result

    def on_fresh(fn, tree, cover):
        """Time ``fn(tree, c)`` with ``c`` a fresh copy of ``cover``."""
        return best(lambda: fn(tree, TripletCover(cover.taxa, cover.cords)))[0]

    out = {"random_binary_tree_s": {}, "random_instances_s": {}, "fixture_search_s": {},
           "canonical_cover_s": {}, "support_map_s": {}, "is_triplet_cover_s": {},
           "minimalize_s": {}, "is_minimal_s": {}, "closure_s": {},
           "classify_s": {}, "decomposition_s": {}, "is_ample_s": {},
           "two_connected_s": {}, "parse_newick_s": {}, "cover_load_s": {},
           "dist_load_s": {}, "json_dump_s": {}, "reconstruct_s": {}, "from_tree_s": {},
           "isomorphic_s": {}, "cli_reconstruct_s": {}}
    env = dict(os.environ, PYTHONPATH=str(src))
    out["random_instances_s"][INSTANCES_N], _ = best(
        lambda: list(islice(random_instances(INSTANCES_N, SEED), INSTANCES_TAKEN))
    )
    out["fixture_search_s"][INSTANCES_N], _ = best(
        lambda: [
            search_fixture(predicate, [INSTANCES_N], FIXTURE_BUDGET, SEED)
            for predicate in FIXTURE_PREDICATES.values()
        ]
    )
    ample_in_reach = True
    for n in sorted(sizes):
        out["random_binary_tree_s"][n], tree = best(random_binary_tree, n, SEED)
        out["canonical_cover_s"][n], chooser_cover = best(
            lambda: canonical_cover(tree, seeded_chooser(SEED))
        )
        cover = minimalize(tree, chooser_cover)
        out["support_map_s"][n] = on_fresh(support_map, tree, chooser_cover)
        out["is_triplet_cover_s"][n] = on_fresh(is_triplet_cover, tree, chooser_cover)
        out["minimalize_s"][n] = on_fresh(minimalize, tree, chooser_cover)
        out["is_minimal_s"][n] = on_fresh(is_minimal, tree, chooser_cover)
        payload = jsonio.cover_to_json(chooser_cover)
        out["cover_load_s"][n], _ = best(jsonio.cover_from_json, payload)
        dist_payload = jsonio.distances_to_json(
            PartialDistances.from_tree(tree, chooser_cover)
        )
        out["dist_load_s"][n], _ = best(jsonio.distances_from_json, dist_payload)
        out["json_dump_s"][n], _ = best(
            lambda: [jsonio.dumps_canonical(p) for p in (payload, dist_payload)]
        )
        out["two_connected_s"][n] = on_fresh(
            lambda _, fresh: is_two_connected(fresh), tree, cover
        )
        out["parse_newick_s"][n], _ = best(parse_newick, write_newick(tree))
        if n <= CLOSURE_MAX:
            out["closure_s"][n] = on_fresh(cord_closure, tree, cover)
        if n <= CLASSIFY_MAX:
            out["classify_s"][n] = on_fresh(classify, tree, cover)
        section = next(iter_sections(support_map(tree, cover)))
        out["decomposition_s"][n], _ = best(decomposition_from_section, section)
        ample = partial(is_ample, section, cap=len(section))
        ample_in_reach = ample_in_reach and finishes(ample)
        if ample_in_reach:
            out["is_ample_s"][n] = best(ample)[0]
        out["from_tree_s"][n], dist = best(PartialDistances.from_tree, tree, cover)
        out["reconstruct_s"][n], result = best(reconstruct, cover, dist)
        if write_newick(result.tree) != write_newick(tree):
            raise SystemExit(f"reconstruct at n={n} did not give the tree back")
        again = parse_newick(write_newick(tree))
        out["isomorphic_s"][n], same = best(
            lambda: tree.isomorphic(again, compare_lengths=True)
        )
        if not same:
            raise SystemExit(f"the tree at n={n} differs from its Newick re-parse")
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


def extract(ref: str, checkout: Path) -> Path:
    """Extract commit ``ref``'s sources into ``checkout`` with ``git archive``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=BytesIO(archive)) as tar:
        tar.extractall(checkout, filter="data")
    return checkout / "src"


def measure_sides(sides: dict[str, Path], sizes: list[int], repeats: int) -> dict:
    """Measure each side in ``repeats`` fresh children, the sides taking turns
    to go first, and keep the minimum of every number; a noisy spell then
    slows one child of each side rather than one whole side.  Under
    ``spread`` each side also keeps, for every number, its greatest
    per-child minimum over its least: the noise that the minimum hides."""
    runs: dict[str, list[dict]] = {name: [] for name in sides}
    order = list(sides)
    for _ in range(repeats):
        for name in order:
            runs[name].append(run_side(sides[name], sizes, repeats))
        order.reverse()
    measured = {}
    for name, done in runs.items():
        rows = {key: {n: [run[key][n] for run in done] for n in done[0][key]}
                for key in done[0]}
        measured[name] = {key: {n: min(t) for n, t in row.items()}
                          for key, row in rows.items()}
        measured[name]["spread"] = {
            key: {n: round(max(t) / min(t), 2) for n, t in row.items()}
            for key, row in rows.items()
        }
    return measured


def speedups(parent: dict, change: dict) -> dict:
    return {
        key: {n: round(parent[key][n] / change[key][n], 2)
              for n in change[key] if n in parent[key]}
        for key in change if key != "spread"
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
        "inputs": f"random_binary_tree(n, {SEED}) (timed as random_binary_tree), "
        f"the first {INSTANCES_TAKEN} items of random_instances({INSTANCES_N}, "
        f"{SEED}) (random_instances, keyed by {INSTANCES_N}), search_fixture "
        f"for each fixture target at n = {INSTANCES_N}, seed {SEED} and budget "
        f"{FIXTURE_BUDGET} (fixture_search, keyed by {INSTANCES_N}), canonical_cover(tree, "
        f"seeded_chooser({SEED})) for canonical_cover, support_map, "
        "is_triplet_cover, minimalize and is_minimal, cover_from_json on its "
        "JSON payload, distances_from_json on its distances' payload, "
        "dumps_canonical of both payloads (json_dump), "
        "minimalized for is_two_connected, "
        f"cord_closure (n <= {CLOSURE_MAX}), "
        f"classify (n <= {CLASSIFY_MAX}), decomposition_from_section on its "
        "first section, is_ample on that section with "
        f"the cap at the section's size (left out from the first n where one "
        f"call runs over {AMPLE_LIMIT_S} s) and PartialDistances.from_tree; "
        "isomorphic: the tree against its Newick re-parse, with lengths; "
        "parse_newick: write_newick(tree); cli_reconstruct: one fresh "
        "`python -m tricover reconstruct` process per run on the minimal "
        "cover's files, so it cannot show the gain of one parser per process",
        "unit": "s, min over repeats processes of repeats runs each; spread: "
        "max/min of the per-process minima",
        "repeats": args.repeats,
        "sizes": args.sizes,
        "machine": f"Python {platform.python_version()}, {os.cpu_count()} CPUs",
    }
    with tempfile.TemporaryDirectory() as checkout:
        sides = {"change": ROOT / "src"}
        if args.parent:
            sides = {"parent": extract(args.parent, Path(checkout)), **sides}
        measured = measure_sides(sides, args.sizes, args.repeats)
    if args.parent:
        report["parent"] = {"ref": args.parent, **measured["parent"]}
    report["change"] = measured["change"]
    if args.parent:
        report["speedup"] = speedups(report["parent"], report["change"])
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
