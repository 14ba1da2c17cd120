"""The three workloads: seeded inputs, one timed pass, output checks.

Each workload takes its seed and builds serialized inputs (Newick text,
cover JSON, search seeds); the library sees only those.  Every timed item
starts from the serialized form, so no per-tree cache (such as a tree's
distance matrix) carries over from set-up, warm-up or an earlier item.

``run_pass`` times one pass over the workload's fixed batch and returns one
:class:`Outcome` per item.  With a recording tracer it also replays the
layers that a wrapping entry point (``report.classify``, ``cli.main``) calls,
in the same order, so that per-layer time and the wrapper's self time show.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

from tricover import (
    CapacityError,
    PartialDistances,
    PhyloTree,
    build_cover_graph,
    canonical_cover,
    decomposition_from_section,
    is_hall_type,
    is_minimal,
    is_shellable,
    is_sparse,
    is_strict,
    is_triplet_cover,
    is_two_connected,
    is_two_tree,
    iter_sections,
    minimalize,
    parse_newick,
    reconstruct,
    section_count,
    seeded_chooser,
    shellable_via_patchwork,
    support_map,
    supported_triples,
    triangles,
    verify_counting,
    verify_shelling,
    write_newick,
)
from tricover import cli, jsonio, lab, report

from tracing import NullTracer


@dataclass
class Outcome:
    """One item's result.  ``error`` is set when the item raised or its
    in-pass comparison failed; ``value`` is whatever the check needs."""

    latency: float
    value: object = None
    error: str | None = None


@dataclass
class Inputs:
    items: list
    workdir: Path
    fingerprint: str = ""


def _sha(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def _cover_text(cover) -> str:
    return jsonio.dumps_canonical(jsonio.cover_to_json(cover))


def _load_cover_text(text: str):
    return jsonio.cover_from_json(json.loads(text))


def _timed(fn, *args):
    """Run one item; an exception becomes a failed outcome, never a crash."""
    start = time.perf_counter()
    try:
        value, error = fn(*args)
    except Exception as exc:  # the benchmark must finish and count the failure
        value, error = None, f"{type(exc).__name__}: {exc}"
    return Outcome(time.perf_counter() - start, value, error)


# -- classify ------------------------------------------------------------------

# (n, cover kind, items, shape).  "seeded" items draw topology, lengths and
# cover from the run's seed.  "fixed" items are the slower ones, whose cost
# swings by a factor of three or more from tree to tree: drawn per seed, a
# few dozen of them would set run_s and item_p90_ms alone.  Their topology
# and cover come from a fixed stream and only their edge lengths from the
# seed, which keeps their work the same on every seed.  A pass takes about
# 5 s, so a run repeats it and takes each item's median.
#
# The n=24 minimal cover is drawn until sparse, i.e. exactly 22 supported
# triples, so it runs the Hall-type check at its cap; chooser covers at
# n >= 20 exceed the Hall and ample caps.  There are no n=16 chooser covers:
# their ample search inspects up to 10,000 sections of 14 triples, so one
# item takes from milliseconds to minutes, which no bounded run measures
# steadily.  The 200 seeded n=12 items are 84% of the batch, so the median
# item is one of them; the 90th percentile falls among the fixed n=16 items.
CLASSIFY_MIX = (
    (12, "chooser", 100, "seeded"),
    (12, "minimal", 100, "seeded"),
    (16, "minimal", 24, "fixed"),
    (20, "chooser", 6, "fixed"),
    (20, "minimal", 4, "fixed"),
    (24, "chooser", 2, "fixed"),
    (24, "sparse", 1, "fixed"),
)
CLASSIFY_QUICK_MIX = (
    (6, "chooser", 2, "seeded"),
    (6, "minimal", 2, "seeded"),
    (8, "chooser", 1, "fixed"),
    (8, "sparse", 1, "fixed"),
)


def _classify_cover(rng: random.Random, n: int, kind: str):
    while True:
        tree = lab.random_binary_tree(n, rng.getrandbits(32))
        cover = canonical_cover(tree, seeded_chooser(rng.getrandbits(32)))
        if kind == "chooser":
            return tree, cover
        cover = minimalize(tree, cover)
        if kind == "minimal" or len(supported_triples(tree, cover)) == n - 2:
            return tree, cover


def _relength(tree: PhyloTree, rng: random.Random) -> PhyloTree:
    """The same topology and labels with edge lengths drawn from ``rng``."""
    return PhyloTree(
        [(u, v, lab.random_rational(rng)) for u, v, _ in tree.edges()],
        {v: tree.label(v) for v in tree.leaves()},
    )


class Classify:
    name = "classify"

    def setup(self, seed: int, quick: bool, workdir: Path) -> Inputs:
        rng = random.Random(f"classify/{seed}")
        shapes = random.Random("classify/fixed-shapes")
        items = []
        for n, kind, count, shape in CLASSIFY_QUICK_MIX if quick else CLASSIFY_MIX:
            for _ in range(count):
                if shape == "seeded":
                    tree, cover = _classify_cover(rng, n, kind)
                else:
                    tree, cover = _classify_cover(shapes, n, kind)
                    tree = _relength(tree, rng)
                items.append((n, write_newick(tree), _cover_text(cover)))
        # Interleave the sizes, so that each spreads over the whole pass and
        # a slow spell of the machine does not fall on one size only.
        rng.shuffle(items)
        inputs = Inputs(items, workdir, _sha(*(t + c for _, t, c in items)))
        # Warm-up: some n=12 items once, untimed.
        self.run_pass(Inputs([i for i in items if i[0] == 12][:8], workdir), NullTracer())
        return inputs

    def run_pass(self, inputs: Inputs, tracer) -> list[Outcome]:
        outcomes = []
        for i, (n, newick, cover_json) in enumerate(inputs.items):
            tracer.tick()
            tracer.item = i
            outcomes.append(_timed(self._item, tracer, n, newick, cover_json))
        return outcomes

    def _item(self, tracer, n, newick, cover_json):
        tree = tracer.call("newick.parse", parse_newick, newick)
        cover = tracer.call("jsonio.load", _load_cover_text, cover_json)
        with tracer.span("report.classify") as wrapper:
            result = report.classify(tree, cover)
        if tracer.enabled:
            error = self._replay(tracer, wrapper, n, newick, cover_json, result)
            return result, error
        return result, None

    @staticmethod
    def _replay(tracer, wrapper, n, newick, cover_json, result):
        """The layers report.classify calls, in its order, on a fresh parse;
        returns a message when a layer disagrees with the report."""
        tree = tracer.call("newick.parse", parse_newick, newick)
        cover = tracer.call("jsonio.load", _load_cover_text, cover_json)
        seen = {}
        with tracer.under(wrapper):
            seen["is_cover"] = tracer.call(
                "covers.is_triplet_cover", is_triplet_cover, tree, cover
            )
            family = tracer.call("covers.support_map", supported_triples, tree, cover)
            tracer.count("covers.support_triples", len(family))
            seen["is_minimal"] = tracer.call(
                "covers.is_minimal", is_minimal, tree, cover, n=n
            )
            seen["is_sparse"] = tracer.call("covers.support_map", is_sparse, tree, cover)
            try:
                seen["hall_type"] = tracer.call(
                    "covers.is_hall_type", is_hall_type, cover.taxa, family, n=n
                )
            except CapacityError:
                seen["hall_type"] = None
                tracer.count("covers.hall_cap_hits")
            support = tracer.call("covers.support_map", support_map, tree, cover)
            seen["section_count"] = section_count(support)
            with tracer.span("covergraph.all"):
                graph = build_cover_graph(cover)
                seen["triangle_match"] = triangles(graph) == family
                seen["two_connected"] = is_two_connected(graph)
                decomposition = decomposition_from_section(next(iter_sections(support)))
                strict = is_strict(graph, decomposition)
                counting = verify_counting(decomposition)
                if len(cover) == 2 * n - 3:
                    is_two_tree(graph)
            shellable, steps = tracer.call(
                "shelling.is_shellable", is_shellable, tree, cover, n=n
            )
            seen["shellable"] = shellable
            tracer.count("shelling.missing_at_start", n * (n - 1) // 2 - len(cover))
            if shellable:
                tracer.count("shelling.shellable")
                tracer.count("shelling.closure_steps", len(steps))
            try:
                verdict, _ = tracer.call(
                    "shelling.shellable_via_patchwork", shellable_via_patchwork, tree, cover
                )
                if verdict is None:
                    tracer.count("shelling.ample_indeterminate")
            except CapacityError:
                tracer.count("shelling.ample_cap_hits")
        seen["decomposition"] = (decomposition.m, strict, counting)
        expected = dict(
            (key, result[key]) for key in seen if key != "decomposition"
        )
        d = result["decomposition"]
        expected["decomposition"] = (d["blocks"], d["strict"], d["counting_identity"])
        wrong = sorted(key for key in seen if seen[key] != expected[key])
        return f"replay disagrees with report on {wrong}" if wrong else None

    def digests(self, inputs, outcomes) -> list[tuple[int, str | None]]:
        """(item index, digest of the canonical report) per item."""
        return [
            (i, _sha(jsonio.dumps_canonical(o.value)) if o.value is not None else None)
            for i, o in enumerate(outcomes)
        ]

    def check(self, inputs, outcomes) -> list[str | None]:
        """Independent checks: triangle match, counting identity, and the
        shelling witness passes verify_shelling on a fresh parse."""
        out = []
        for (n, newick, cover_json), outcome in zip(inputs.items, outcomes):
            result = outcome.value
            if outcome.error or result is None:
                out.append(outcome.error or "no report")
                continue
            problems = []
            if not result["is_cover"]:
                problems.append("input cover reported as not a cover")
            else:
                if result["triangle_match"] is not True:
                    problems.append("triangle_match is not true")
                if result["decomposition"]["counting_identity"] is not True:
                    problems.append("counting_identity is not true")
                if result["shellable"]:
                    tree = parse_newick(newick)
                    cover = _load_cover_text(cover_json)
                    shellable, steps = is_shellable(tree, cover)
                    try:
                        verify_shelling(tree, cover, steps)
                    except Exception as exc:
                        problems.append(f"shelling witness rejected: {exc}")
                    if [list(s.cord) for s in steps] != result["shelling_added"]:
                        problems.append("shelling_added differs from the witness")
            out.append("; ".join(problems) or None)
        return out


# -- roundtrip -------------------------------------------------------------------

# (n, shape), as for classify: one n=64 item is drawn whole from the seed;
# the others keep a fixed topology and chooser seed (minimalize cost swings
# by a third from tree to tree) and draw their edge lengths, hence every
# distance, from the seed.  There is no n=128 item: at about 6 s it leaves
# too few passes in a run for a steady median.
ROUNDTRIP_ITEMS = ((64, "seeded"), (64, "fixed"), (96, "fixed"))
ROUNDTRIP_QUICK_ITEMS = ((8, "seeded"), (12, "fixed"), (16, "fixed"))
ROUNDTRIP_WARMUP_N = 64


class Roundtrip:
    name = "roundtrip"

    def setup(self, seed: int, quick: bool, workdir: Path) -> Inputs:
        rng = random.Random(f"roundtrip/{seed}")
        shapes = random.Random("roundtrip/fixed-shapes")
        items = []
        for n, shape in ROUNDTRIP_QUICK_ITEMS if quick else ROUNDTRIP_ITEMS:
            if shape == "seeded":
                tree = lab.random_binary_tree(n, rng.getrandbits(32))
                chooser_seed = rng.getrandbits(32)
            else:
                tree = _relength(lab.random_binary_tree(n, shapes.getrandbits(32)), rng)
                chooser_seed = shapes.getrandbits(32)
            items.append((n, write_newick(tree), chooser_seed))
        inputs = Inputs(items, workdir, _sha(*(f"{t}/{s}" for _, t, s in items)))
        # Warm-up: one item of its own, untimed.
        warm_n = ROUNDTRIP_QUICK_ITEMS[0][0] if quick else ROUNDTRIP_WARMUP_N
        warm = lab.random_binary_tree(warm_n, rng.getrandbits(32))
        self.run_pass(Inputs([(warm_n, write_newick(warm), seed)], workdir), NullTracer())
        return inputs

    def run_pass(self, inputs: Inputs, tracer) -> list[Outcome]:
        outcomes = []
        for i, item in enumerate(inputs.items):
            tracer.tick()
            tracer.item = i
            outcomes.append(_timed(self._item, tracer, inputs.workdir, i, *item))
        return outcomes

    def _item(self, tracer, workdir, i, n, newick, chooser_seed):
        tree = tracer.call("newick.parse", parse_newick, newick)
        cover = tracer.call(
            "covers.canonical_cover", canonical_cover, tree, seeded_chooser(chooser_seed)
        )
        minimal = tracer.call("covers.minimalize", minimalize, tree, cover, n=n)
        tracer.count("covers.cords_tried", len(cover))
        tracer.count("covers.cords_removed", len(cover) - len(minimal))
        if tracer.enabled:
            # from_tree reads the cached matrix; time its computation here.
            tracer.call("tree.distance_matrix", tree.distance_matrix, n=n)
        dist = PartialDistances.from_tree(tree, minimal)
        cover_path = workdir / f"cover-{i}.json"
        dist_path = workdir / f"dist-{i}.json"
        out_path = workdir / f"out-{i}.nwk"
        with tracer.span("jsonio.save"):
            jsonio.save_cover(minimal, cover_path)
            jsonio.save_distances(dist, dist_path)
        argv = ["reconstruct", "--cover", str(cover_path), "--dist", str(dist_path),
                "--out", str(out_path)]
        with tracer.span("cli.main") as wrapper:
            code = cli.main(argv)
        if code != 0:
            return None, f"tricover reconstruct exited with {code}"
        written = out_path.read_text(encoding="utf-8")
        error = None
        if tracer.enabled:
            with tracer.under(wrapper):
                cover_back = tracer.call("jsonio.load", jsonio.load_cover, cover_path)
                dist_back = tracer.call("jsonio.load", jsonio.load_distances, dist_path)
                result = tracer.call(
                    "reconstruct.reconstruct", reconstruct, cover_back, dist_back, n=n
                )
                tracer.count("reconstruct.cherries", len(result.cherry_log))
                replayed = tracer.call("newick.write", write_newick, result.tree)
            if replayed + "\n" != written:
                error = "replayed reconstruction differs from the CLI output"
        rebuilt = tracer.call("newick.parse", parse_newick, written.strip())
        same = tracer.call(
            "tree.isomorphic", rebuilt.isomorphic, tree, compare_lengths=True
        )
        canonical = tracer.call("newick.write", write_newick, rebuilt)
        if not same:
            error = "rebuilt tree is not isomorphic to the source with lengths"
        elif canonical != newick:
            error = "canonical Newick of the rebuilt tree differs from the source"
        return (cover_path, dist_path, canonical), error

    def digests(self, inputs, outcomes) -> list[tuple[int, str | None]]:
        """(item index, digest of its cover file, distance file and output)."""
        out = []
        for i, o in enumerate(outcomes):
            if o.value is None:
                out.append((i, None))
                continue
            cover_path, dist_path, canonical = o.value
            out.append(
                (
                    i,
                    _sha(
                        cover_path.read_text(encoding="utf-8"),
                        dist_path.read_text(encoding="utf-8"),
                        canonical,
                    ),
                )
            )
        return out

    def check(self, inputs, outcomes) -> list[str | None]:
        # The comparison with the source tree is the pipeline's last stage.
        return [o.error for o in outcomes]


# -- fixtures --------------------------------------------------------------------

# (target, taxon counts, instance budget).  n <= 6 is an exhaustive sweep, so
# the first search is the same on every seed; no minimal-not-sparse cover
# exists there, so it uses up its budget.  sparse-not-shellable at n=12 also
# runs dry.  A search that finds a target is restarted on a fresh stream
# with the rest of its budget, so every spec tries exactly its budget of
# instances and the batch size does not depend on where hits fall.
FIXTURE_SPECS = (
    ("minimal-not-sparse", (5, 6), 1000),
    ("minimum", (8,), 400),
    ("minimal-not-sparse", (10,), 250),
    ("sparse-minimal-mu4", (10,), 300),
    ("sparse-not-shellable", (12,), 120),
    ("sparse-shellable-not-ample", (7,), 500),
)
FIXTURE_QUICK_SPECS = (
    ("minimal-not-sparse", (5,), 60),
    ("minimum", (7,), 20),
    ("sparse-minimal-mu4", (8,), 20),
    ("sparse-not-shellable", (8,), 20),
    ("sparse-shellable-not-ample", (7,), 20),
)


class Fixtures:
    name = "fixtures"

    def setup(self, seed: int, quick: bool, workdir: Path) -> Inputs:
        rng = random.Random(f"fixtures/{seed}")
        items = [
            (target, ns, budget, rng.getrandbits(32))
            for target, ns, budget in (FIXTURE_QUICK_SPECS if quick else FIXTURE_SPECS)
        ]
        inputs = Inputs(items, workdir, _sha(*map(repr, items)))
        # Warm-up: a small search of its own, untimed.
        self.run_pass(Inputs([("minimum", (8,), 300, seed)], workdir), NullTracer())
        return inputs

    def run_pass(self, inputs: Inputs, tracer) -> list[Outcome]:
        """One outcome per instance (an item); the last instance of each
        search also carries the search's record handling."""
        outcomes = []
        for spec_index, (target, ns, budget, seed) in enumerate(inputs.items):
            tracer.item = spec_index
            predicate = lab.FIXTURE_PREDICATES[target]
            stamps: list[float] = []

            def wrapped(tree, cover):
                with tracer.span("lab.predicate"):
                    hit = predicate(tree, cover)
                stamps.append(time.perf_counter())
                return hit

            records = []
            remaining, restart = budget, 0
            while remaining > 0:
                tracer.tick()
                stamps.clear()
                start = time.perf_counter()
                error = None
                try:
                    with tracer.span("lab.search_fixture"):
                        record = lab.search_fixture(
                            wrapped, ns, budget=remaining, seed=seed + restart
                        )
                except Exception as exc:
                    record, error = None, f"{type(exc).__name__}: {exc}"
                end = time.perf_counter()
                marks = [start] + stamps
                for a, b in zip(marks, marks[1:]):
                    outcomes.append(Outcome(b - a))
                if not stamps or error:
                    outcomes.append(Outcome(end - marks[-1], None, error or "no instance"))
                else:
                    outcomes[-1].latency += end - marks[-1]
                tracer.count("lab.instances_tried", len(stamps))
                remaining -= len(stamps)
                restart += 1
                if record is None:
                    break
                tracer.count("lab.targets_found")
                records.append(record)
            # The spec's last outcome carries its records for the check.
            outcomes[-1].value = (spec_index, records)
        return outcomes

    @staticmethod
    def _spec_results(outcomes):
        """(position of the spec's last outcome, spec index, records)."""
        return [(i, *o.value) for i, o in enumerate(outcomes) if o.value is not None]

    def _saved(self, inputs, spec_index, k, record) -> Path:
        path = inputs.workdir / f"fixture-{spec_index}-{k}.json"
        jsonio.save_instance_record(record, path)
        return path

    def digests(self, inputs, outcomes) -> list[tuple[int, str | None]]:
        """One digest per spec, filed under its last outcome: the spec's
        instance count and its saved records, in order."""
        out = []
        for position, spec_index, records in self._spec_results(outcomes):
            texts = [
                self._saved(inputs, spec_index, k, r).read_text(encoding="utf-8")
                for k, r in enumerate(records)
            ]
            out.append((position, _sha(str(spec_index), str(position), *texts)))
        return out

    def check(self, inputs, outcomes) -> list[str | None]:
        """Found records reload through jsonio with recomputed flags, and
        their predicate holds on the reloaded instance."""
        out = [o.error for o in outcomes]
        for position, spec_index, records in self._spec_results(outcomes):
            predicate = lab.FIXTURE_PREDICATES[inputs.items[spec_index][0]]
            problems = []
            for k, record in enumerate(records):
                loaded = jsonio.load_instance_record(self._saved(inputs, spec_index, k, record))
                if loaded.flags != record.flags:
                    problems.append(f"record {k}: reloaded flags differ")
                if loaded.cover != record.cover or not loaded.tree.isomorphic(
                    record.tree, compare_lengths=True
                ):
                    problems.append(f"record {k}: reloaded instance differs")
                if not predicate(loaded.tree, loaded.cover):
                    problems.append(f"record {k}: predicate fails on reload")
            if problems:
                out[position] = "; ".join(problems)
        return out



WORKLOADS = {w.name: w for w in (Classify(), Roundtrip(), Fixtures())}
