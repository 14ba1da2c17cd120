"""Cherry reduction on one table of scaled integers, checked against two
references.

The first reference is the reconstruction taken literally: every round
recomputes all pendant lengths by scanning each taxon's partners over the
cover, finds the least cord meeting the cherry criterion, recomputes the
cherry's pendants and rebuilds the reduced cover and distances; the tree is
replayed on a mutable adjacency and checked against a full distance matrix.
Rewrites and the final check walk cords in sorted order, so its errors do
not depend on the hash seed.  The second is one mutable table, on Fraction
values instead of scaled integers, that recomputes each changed pendant by
scanning every pair of its row and finds each cherry by rescanning every
row, with the final check read from ``PhyloTree.distance``.  The library,
which reads pendants and cherries from heaps of fixed triple values and
candidate cords, must give the same cherry log, the same tree (vertex ids
included) and the same errors, stage and text as both.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricover import (
    CoverError,
    NotRealizableError,
    PartialDistances,
    PhyloTree,
    TripletCover,
    all_cords,
    canonical_cover,
    cord,
    find_cherry,
    minimalize,
    pendant_length,
    reconstruct,
    reduce_instance,
    seeded_chooser,
    write_newick,
)
from tricover import cli
from tricover.jsonio import save_cover, save_distances, tree_to_json
from tricover.lab import random_binary_tree

reconstruct_module = sys.modules["tricover.reconstruct"]

SRC = Path(__file__).resolve().parents[1] / "src"

# Reference pendant evaluations, counted by ref_pendant_length.
REF_PENDANTS = [0]


def ref_pendant_length(x, cover, dist):
    REF_PENDANTS[0] += 1
    if x not in cover.taxa:
        raise CoverError(f"unknown taxon {x!r}")
    partners = sorted(z for z in cover.taxa if z != x and cord(x, z) in cover.cords)
    best = None
    for z, z2 in combinations(partners, 2):
        if cord(z, z2) not in cover.cords:
            continue
        value = (dist[cord(x, z)] + dist[cord(x, z2)] - dist[cord(z, z2)]) / 2
        if best is None or value < best:
            best = value
    if best is None:
        raise NotRealizableError(
            "pendant",
            f"no fully covered triple contains {x}; "
            "the cord set is not a triplet cover's distance support",
        )
    if best <= 0:
        raise NotRealizableError("pendant", f"pendant length at {x} is {best} <= 0")
    return best


def ref_find_cherry(cover, dist):
    pendants = {x: ref_pendant_length(x, cover, dist) for x in sorted(cover.taxa)}
    for c in sorted(cover.cords):
        x, y = c
        if dist[c] == pendants[x] + pendants[y]:
            return c
    raise NotRealizableError(
        "cherry",
        "no cord satisfies d(x,y) = lambda(x) + lambda(y); pendant estimates "
        + ", ".join(f"{x}={q}" for x, q in pendants.items()),
    )


def ref_reduce_instance(cover, dist, cherry):
    x, y = cherry
    if cherry not in cover.cords:
        raise NotRealizableError("reduce", f"cherry {cherry} is not a cord")
    lx = ref_pendant_length(x, cover, dist)
    ly = ref_pendant_length(y, cover, dist)
    if dist[cherry] != lx + ly:
        raise NotRealizableError(
            "reduce", f"{cherry} fails the cherry criterion: "
            f"d={dist[cherry]}, pendants {lx}+{ly}"
        )
    new_cords = set()
    new_values = {}
    rewrites = []
    for c in sorted(cover.cords):
        if c == cherry:
            continue
        if x in c:
            z = c[0] if c[1] == x else c[1]
            rewrites.append((c, cord(y, z)))
        else:
            new_cords.add(c)
            new_values[c] = dist[c]
    for old, new in rewrites:
        value = dist[old] + ly - lx
        if new in new_values:
            if new_values[new] != value:
                raise NotRealizableError(
                    "reduce",
                    f"rewriting {old} to {new} gives {value}, but {new} "
                    f"already has {new_values[new]}",
                )
        else:
            if value <= 0:
                raise NotRealizableError(
                    "reduce", f"rewritten distance for {new} is {value} <= 0"
                )
            new_cords.add(new)
            new_values[new] = value
    reduced_cover = TripletCover(cover.taxa - {x}, frozenset(new_cords))
    reduced_dist = PartialDistances(cover.taxa - {x}, new_values)
    return reduced_cover, reduced_dist


def ref_reconstruct(cover, dist):
    if not dist.matches_cover(cover):
        raise CoverError("distances must be defined exactly on the cover's cords")
    log = []
    work_cover, work_dist = cover, dist
    while len(work_cover.taxa) > 3:
        cherry = ref_find_cherry(work_cover, work_dist)
        lx = ref_pendant_length(cherry[0], work_cover, work_dist)
        ly = ref_pendant_length(cherry[1], work_cover, work_dist)
        log.append((cherry, lx, ly))
        work_cover, work_dist = ref_reduce_instance(work_cover, work_dist, cherry)

    a, b, c = sorted(work_cover.taxa)
    for pair in (cord(a, b), cord(a, c), cord(b, c)):
        if pair not in work_cover.cords:
            raise NotRealizableError(
                "base", f"three-taxon stage is missing cord {pair}"
            )
    d_ab, d_ac, d_bc = (
        work_dist[cord(a, b)],
        work_dist[cord(a, c)],
        work_dist[cord(b, c)],
    )
    pendants = {
        a: (d_ab + d_ac - d_bc) / 2,
        b: (d_ab + d_bc - d_ac) / 2,
        c: (d_ac + d_bc - d_ab) / 2,
    }
    for taxon, value in pendants.items():
        if value <= 0:
            raise NotRealizableError(
                "base", f"three-point formula gives {value} <= 0 at {taxon}"
            )

    adjacency = {0: {}, 1: {}, 2: {}, 3: {}}
    leaf_of = {a: 0, b: 1, c: 2}
    center = 3
    for taxon, vid in leaf_of.items():
        adjacency[vid][center] = pendants[taxon]
        adjacency[center][vid] = pendants[taxon]
    next_id = 4
    for (x, y), lx, ly in reversed(log):
        leaf_y = leaf_of[y]
        ((nbr, length),) = adjacency[leaf_y].items()
        interior = length - ly
        if interior <= 0:
            raise NotRealizableError(
                "replay",
                f"attaching {x} beside {y} leaves interior length {interior} <= 0",
            )
        mid = next_id
        leaf_x = next_id + 1
        next_id += 2
        del adjacency[leaf_y][nbr]
        del adjacency[nbr][leaf_y]
        adjacency[mid] = {nbr: interior, leaf_y: ly, leaf_x: lx}
        adjacency[nbr][mid] = interior
        adjacency[leaf_y][mid] = ly
        adjacency[leaf_x] = {mid: lx}
        leaf_of[x] = leaf_x

    edges = [
        (u, v, q) for u, nbrs in adjacency.items() for v, q in nbrs.items() if u < v
    ]
    tree = PhyloTree(sorted(edges), {vid: taxon for taxon, vid in leaf_of.items()})
    matrix = tree.distance_matrix()
    for c0, value in sorted(dist.values.items()):
        if matrix[c0] != value:
            raise NotRealizableError(
                "verify",
                f"reconstructed tree gives d{c0} = {matrix[c0]}, input says {value}",
            )
    return tree, tuple(log)


# -- the Fraction table engine ------------------------------------------------


def frac_table(cover, dist):
    table = {x: {} for x in sorted(cover.taxa)}
    for x, y in sorted(cover.cords):
        table[x][y] = table[y][x] = dist[x, y]
    return table


def frac_pendant(x, table):
    row = table[x]
    best = None
    for z, z2 in combinations(sorted(row), 2):
        d_zz = table[z].get(z2)
        if d_zz is None:
            continue
        value = (row[z] + row[z2] - d_zz) / 2
        if best is None or value < best:
            best = value
    if best is None:
        raise NotRealizableError(
            "pendant",
            f"no fully covered triple contains {x}; "
            "the cord set is not a triplet cover's distance support",
        )
    if best <= 0:
        raise NotRealizableError("pendant", f"pendant length at {x} is {best} <= 0")
    return best


def frac_cherry(table, pendants):
    for x in sorted(table):
        for y in sorted(table[x]):
            if x < y and table[x][y] == pendants[x] + pendants[y]:
                return (x, y)
    raise NotRealizableError(
        "cherry",
        "no cord satisfies d(x,y) = lambda(x) + lambda(y); pendant estimates "
        + ", ".join(f"{x}={pendants[x]}" for x in sorted(pendants)),
    )


def frac_reduce(table, x, y, lx, ly):
    row = table.pop(x)
    for z in sorted(row):
        del table[z][x]
        if z == y or z in table[y]:
            continue
        value = row[z] + ly - lx
        if value <= 0:
            raise NotRealizableError(
                "reduce", f"rewritten distance for {cord(y, z)} is {value} <= 0"
            )
        table[y][z] = table[z][y] = value


def frac_pendant_length(x, cover, dist):
    if x not in cover.taxa:
        raise CoverError(f"unknown taxon {x!r}")
    return frac_pendant(x, frac_table(cover, dist))


def frac_find_cherry(cover, dist):
    table = frac_table(cover, dist)
    return frac_cherry(table, {x: frac_pendant(x, table) for x in table})


def frac_reduce_instance(cover, dist, cherry):
    x, y = cherry
    if cherry not in cover.cords:
        raise NotRealizableError("reduce", f"cherry {cherry} is not a cord")
    table = frac_table(cover, dist)
    lx, ly = frac_pendant(x, table), frac_pendant(y, table)
    if dist[cherry] != lx + ly:
        raise NotRealizableError(
            "reduce", f"{cherry} fails the cherry criterion: "
            f"d={dist[cherry]}, pendants {lx}+{ly}"
        )
    frac_reduce(table, x, y, lx, ly)
    values = {(u, v): q for u in table for v, q in table[u].items() if u < v}
    taxa = cover.taxa - {x}
    return TripletCover(taxa, frozenset(values)), PartialDistances(taxa, values)


def frac_reconstruct(cover, dist):
    if not dist.matches_cover(cover):
        raise CoverError("distances must be defined exactly on the cover's cords")
    table = frac_table(cover, dist)
    pendants = {}
    changed = set(table)
    log = []
    while len(table) > 3:
        for z in sorted(changed):
            pendants[z] = frac_pendant(z, table)
        x, y = frac_cherry(table, pendants)
        lx, ly = pendants.pop(x), pendants[y]
        log.append(((x, y), lx, ly))
        changed = set(table[x])
        frac_reduce(table, x, y, lx, ly)
        changed |= set(table[y])

    a, b, c = sorted(table)
    for u, v in ((a, b), (a, c), (b, c)):
        if v not in table[u]:
            raise NotRealizableError(
                "base", f"three-taxon stage is missing cord {u, v}"
            )
    d_ab, d_ac, d_bc = table[a][b], table[a][c], table[b][c]
    base = {
        a: (d_ab + d_ac - d_bc) / 2,
        b: (d_ab + d_bc - d_ac) / 2,
        c: (d_ac + d_bc - d_ab) / 2,
    }
    for taxon, value in base.items():
        if value <= 0:
            raise NotRealizableError(
                "base", f"three-point formula gives {value} <= 0 at {taxon}"
            )

    leaf_of = {a: 0, b: 1, c: 2}
    hang = {taxon: (3, value) for taxon, value in base.items()}
    edges = []
    for (x, y), lx, ly in reversed(log):
        nbr, length = hang[y]
        interior = length - ly
        if interior <= 0:
            raise NotRealizableError(
                "replay",
                f"attaching {x} beside {y} leaves interior length {interior} <= 0",
            )
        mid = 2 * len(leaf_of) - 2
        edges.append((nbr, mid, interior))
        hang[y], hang[x] = (mid, ly), (mid, lx)
        leaf_of[x] = mid + 1
    edges += [(*sorted((v, leaf_of[t])), q) for t, (v, q) in hang.items()]
    tree = PhyloTree(sorted(edges), {vid: taxon for taxon, vid in leaf_of.items()})

    for c0, value in sorted(dist.values.items()):
        got = tree.distance(*c0)
        if got != value:
            raise NotRealizableError(
                "verify",
                f"reconstructed tree gives d{c0} = {got}, input says {value}",
            )
    return tree, tuple(log)


def outcome(fn, *args):
    """A comparable record of a call: its result, or its error's type and text."""
    try:
        return ("ok", fn(*args))
    except (NotRealizableError, CoverError) as exc:
        return (type(exc).__name__, getattr(exc, "stage", None), str(exc))


def rebuilt(cover, dist):
    result = reconstruct(cover, dist)
    return write_newick(result.tree), tree_to_json(result.tree), result.cherry_log


def ref_rebuilt(cover, dist):
    tree, log = ref_reconstruct(cover, dist)
    return write_newick(tree), tree_to_json(tree), log


def frac_rebuilt(cover, dist):
    tree, log = frac_reconstruct(cover, dist)
    return write_newick(tree), tree_to_json(tree), log


def reduced(fn, cover, dist, cherry):
    small_cover, small_dist = fn(cover, dist, cherry)
    return small_cover, dict(small_dist.values)


def assert_same(cover, dist, stages=None):
    """Reconstruction and every public step agree with both references."""
    got = outcome(rebuilt, cover, dist)
    assert got == outcome(ref_rebuilt, cover, dist)
    assert got == outcome(frac_rebuilt, cover, dist)
    if stages is not None:
        stages.add(got[1] if got[0] == "NotRealizableError" else got[0])
    cherry = outcome(find_cherry, cover, dist)
    assert cherry == outcome(ref_find_cherry, cover, dist)
    assert cherry == outcome(frac_find_cherry, cover, dist)
    for x in sorted(cover.taxa):
        pendant = outcome(pendant_length, x, cover, dist)
        assert pendant == outcome(ref_pendant_length, x, cover, dist)
        assert pendant == outcome(frac_pendant_length, x, cover, dist)
    for c in sorted(cover.cords):
        small = outcome(reduced, reduce_instance, cover, dist, c)
        assert small == outcome(reduced, ref_reduce_instance, cover, dist, c)
        assert small == outcome(reduced, frac_reduce_instance, cover, dist, c)
    return got


def instance(n, seed, minimal):
    tree = random_binary_tree(n, 5000 + seed)
    cover = canonical_cover(tree, seeded_chooser(seed))
    if minimal:
        cover = minimalize(tree, cover)
    return tree, cover, PartialDistances.from_tree(tree, cover)


def test_from_tree_reads_the_tree_distances():
    for n in (3, 4, 9, 30):
        tree = random_binary_tree(n, n)
        cover = canonical_cover(tree, seeded_chooser(n))
        matrix = tree.distance_matrix()
        dist = PartialDistances.from_tree(tree, cover)
        assert dist.values == {c: matrix[c] for c in cover.cords}
        assert list(dist.values) == sorted(cover.cords)


@pytest.mark.parametrize("minimal", [False, True])
@pytest.mark.parametrize("n", [*range(4, 25), 32, 48, 64, 96])
def test_rebuild_matches_reference(n, minimal):
    tree, cover, dist = instance(n, n, minimal)
    got = rebuilt(cover, dist)
    assert got == ref_rebuilt(cover, dist)
    assert got == frac_rebuilt(cover, dist)
    assert write_newick(reconstruct(cover, dist).tree) == write_newick(tree)


@pytest.mark.parametrize("n", [4, 5, 6, 8, 11, 16])
def test_steps_match_reference_on_covers(n):
    for seed in range(3):
        for minimal in (False, True):
            assert_same(*instance(n, 10 * n + seed, minimal)[1:])


def perturbed(dist, rng, moves):
    """The distances with ``moves`` cords moved by a small amount."""
    values = dict(dist.values)
    for c in rng.sample(sorted(values), moves):
        step = rng.choice([-2, -1, Fraction(-1, 2), Fraction(1, 2), 1, 3])
        values[c] = max(Fraction(1, 4), values[c] + step)
    return PartialDistances(dist.taxa, values)


def test_errors_match_reference_on_perturbed_covers():
    # One or two cords of a true cover moved by a small amount.
    stages = set()
    rng = random.Random(13)
    for n in range(4, 15):
        for seed in range(4):
            _, cover, dist = instance(n, 100 * n + seed, seed % 2 == 1)
            for k in range(4):
                assert_same(cover, perturbed(dist, rng, 1 + k % 2), stages)
    assert {"ok", "pendant", "cherry", "replay"} <= stages


def test_errors_match_reference_on_larger_perturbed_covers():
    # The perturbed pool above at n = 40-80, where rows are long and the
    # pendant and cherry heaps hold many stale entries.
    stages = set()
    rng = random.Random(17)
    for n in (40, 56, 80):
        for seed in range(2):
            _, cover, dist = instance(n, 100 * n + seed, seed % 2 == 1)
            for moves in (1, 2):
                assert_same(cover, perturbed(dist, rng, moves), stages)
    assert {"ok", "cherry"} <= stages


def ladder_instance(n):
    """The benchmark ladder's input at n: the seed-1 tree, its seed-1
    chooser cover minimalized, and that cover's distances."""
    tree = random_binary_tree(n, 1)
    cover = minimalize(tree, canonical_cover(tree, seeded_chooser(1)))
    return tree, cover, PartialDistances.from_tree(tree, cover)


# The literal reference alone takes several seconds at n = 320.
@pytest.mark.parametrize("n, literal", [(160, True), (320, False)])
def test_ladder_cover_matches_the_references(n, literal):
    tree, cover, dist = ladder_instance(n)
    got = rebuilt(cover, dist)
    if literal:
        assert got == ref_rebuilt(cover, dist)
    assert got == frac_rebuilt(cover, dist)
    assert got[0] == write_newick(tree)


def test_errors_match_reference_on_random_cord_sets():
    # Random positive distances on random cord sets, covers or not.
    stages = set()
    rng = random.Random(29)
    for trial in range(400):
        taxa = [f"t{i}" for i in range(rng.randint(3, 8))]
        pairs = sorted(all_cords(taxa))
        cords = rng.sample(pairs, rng.randint(2, len(pairs)))
        cover = TripletCover.make(taxa, cords)
        values = {
            c: Fraction(rng.randint(1, 12), rng.choice([1, 2])) for c in sorted(cords)
        }
        assert_same(cover, PartialDistances(cover.taxa, values), stages)
    assert {"ok", "pendant", "cherry", "base"} <= stages


def test_rewrite_errors_match_reference():
    # Cherries accepted by the criterion whose rewrites go non-positive.
    seen = 0
    rng = random.Random(41)
    for trial in range(600):
        taxa = [f"t{i}" for i in range(rng.randint(4, 7))]
        cords = [c for c in sorted(all_cords(taxa)) if rng.random() < 0.7]
        cover = TripletCover.make(taxa, cords)
        values = {c: Fraction(rng.randint(1, 9)) for c in sorted(cover.cords)}
        dist = PartialDistances(cover.taxa, values)
        for c in sorted(cover.cords):
            got = outcome(reduced, reduce_instance, cover, dist, c)
            assert got == outcome(reduced, ref_reduce_instance, cover, dist, c)
            assert got == outcome(reduced, frac_reduce_instance, cover, dist, c)
            seen += got[0] == "NotRealizableError" and "rewritten" in got[2]
    assert seen >= 10


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=14),
    tree_seed=st.integers(min_value=0, max_value=10**6),
    chooser_seed=st.integers(min_value=0, max_value=10**6),
    extra=st.lists(st.integers(min_value=0, max_value=10**6), max_size=8),
    minimal=st.booleans(),
    nudge=st.one_of(
        st.none(),
        st.tuples(st.integers(min_value=0, max_value=10**6), st.integers(-3, 3)),
    ),
)
def test_agrees_on_hypothesis_covers(n, tree_seed, chooser_seed, extra, minimal, nudge):
    tree = random_binary_tree(n, tree_seed)
    cover = canonical_cover(tree, seeded_chooser(chooser_seed))
    pairs = sorted(all_cords(tree.taxa))
    cover = cover.add_cords(pairs[k % len(pairs)] for k in extra)
    if minimal:
        cover = minimalize(tree, cover)
    values = dict(PartialDistances.from_tree(tree, cover).values)
    if nudge is not None:
        index, step = nudge
        c = sorted(values)[index % len(values)]
        values[c] = max(Fraction(1, 3), values[c] + Fraction(step, 2))
    assert_same(cover, PartialDistances(cover.taxa, values))


def test_fewer_pendants_and_no_distance_matrix(monkeypatch):
    # Fixed n = 96 instance: the reference evaluates 5,022 pendants.  The
    # table reads each taxon once, then after each of the 93 peels only the
    # taxa whose heap top a new triple took or the peeled taxon held: 371
    # reads.
    tree, cover, _ = instance(96, 7, True)
    matrix_calls = [0]
    pendants = [0]
    full_matrix = PhyloTree.distance_matrix
    one_pendant = reconstruct_module._pendant

    def counted_matrix(self):
        matrix_calls[0] += 1
        return full_matrix(self)

    def counted_pendant(x, table):
        pendants[0] += 1
        return one_pendant(x, table)

    monkeypatch.setattr(PhyloTree, "distance_matrix", counted_matrix)
    monkeypatch.setattr(reconstruct_module, "_pendant", counted_pendant)
    dist = PartialDistances.from_tree(tree, cover)
    result = reconstruct(cover, dist)
    assert matrix_calls[0] == 0
    assert result.tree.isomorphic(tree, compare_lengths=True)
    REF_PENDANTS[0] = 0
    ref_reconstruct(cover, dist)
    assert pendants[0] < REF_PENDANTS[0]
    assert pendants[0] <= 400


def test_cli_reconstruct_builds_no_log_fraction(monkeypatch, tmp_path):
    # The same n = 96 instance through the CLI: the replay gives each of the
    # tree's 2n - 3 edges its length through _Table.value, and the cherry
    # log, which the CLI never reads, adds none (it took two per peel).
    n = 96
    tree, cover, dist = instance(n, 7, True)
    cover_path, dist_path = tmp_path / "cover.json", tmp_path / "dist.json"
    out_path = tmp_path / "tree.nwk"
    save_cover(cover, cover_path)
    save_distances(dist, dist_path)
    values = [0]
    one_value = reconstruct_module._Table.value

    def counted_value(table, scaled):
        values[0] += 1
        return one_value(table, scaled)

    monkeypatch.setattr(reconstruct_module._Table, "value", counted_value)
    argv = ["reconstruct", "--cover", str(cover_path), "--dist", str(dist_path),
            "--out", str(out_path)]
    assert cli.main(argv) == 0
    assert out_path.read_text(encoding="utf-8") == write_newick(tree) + "\n"
    assert values[0] <= 2 * n - 3


HASH_SEED_REPRO = """
from tricover import NotRealizableError, PartialDistances, TripletCover, reduce_instance
values = {("a", "b"): 9, ("b", "d"): 6, ("b", "f"): 1, ("c", "d"): 7,
          ("a", "e"): 4, ("a", "c"): 3, ("a", "f"): 6}
cover = TripletCover.make("abcdef", values)
try:
    reduce_instance(cover, PartialDistances.make("abcdef", values), ("a", "b"))
except NotRealizableError as exc:
    print(exc)
"""


def test_rewrite_error_independent_of_hash_seed():
    # Two rewrites fail (ac -> bc and ae -> be); the least cord is reported.
    messages = set()
    for seed in range(1, 9):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(SRC))
        run = subprocess.run(
            [sys.executable, "-c", HASH_SEED_REPRO],
            env=env, capture_output=True, text=True, check=True,
        )
        messages.add(run.stdout)
    assert messages == {"reduce: rewritten distance for ('b', 'c') is -2 <= 0\n"}


HASH_SEED_REBUILD = """
import random
from fractions import Fraction
from tricover import (NotRealizableError, PartialDistances, canonical_cover,
                      minimalize, reconstruct, seeded_chooser, write_newick)
from tricover.lab import random_binary_tree
tree = random_binary_tree(48, 3)
cover = minimalize(tree, canonical_cover(tree, seeded_chooser(3)))
dist = PartialDistances.from_tree(tree, cover)
rng = random.Random(5)
for trial in range(8):
    values = dict(dist.values)
    if trial:
        c = rng.choice(sorted(values))
        values[c] = max(Fraction(1, 4), values[c] + rng.choice([-1, Fraction(1, 2), 2]))
    try:
        result = reconstruct(cover, PartialDistances(dist.taxa, values))
        print(write_newick(result.tree), result.cherry_log)
    except NotRealizableError as exc:
        print(exc)
"""


def test_reconstruct_independent_of_hash_seed():
    # The kernel walks sets of shared partners when it pushes triples; the
    # heaps' tops, and so every log, tree and error, must not depend on it.
    outputs = set()
    for seed in range(1, 5):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(SRC))
        run = subprocess.run(
            [sys.executable, "-c", HASH_SEED_REBUILD],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.add(run.stdout)
    assert len(outputs) == 1
    lines = outputs.pop().splitlines()
    assert len(lines) == 8 and any(": " in line for line in lines)


def relabelled_lengths(tree, lengths):
    """The tree's shape and labels with its edges' lengths replaced in order."""
    edges = [(u, v, q) for (u, v, _), q in zip(tree.edges(), lengths)]
    return PhyloTree(edges, {leaf: tree.label(leaf) for leaf in tree.leaves()})


# Positive rationals whose denominators mix small ones with ones of 31 or
# more digits, so the kernel's scale runs far past any machine word.
rationals = st.builds(
    Fraction,
    st.integers(min_value=1, max_value=10**40),
    st.one_of(st.integers(1, 12), st.integers(10**30, 10**32)),
)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=12),
    tree_seed=st.integers(min_value=0, max_value=10**6),
    chooser_seed=st.integers(min_value=0, max_value=10**6),
    lengths=st.lists(rationals, min_size=21, max_size=21),
    overrides=st.lists(st.tuples(st.integers(0, 10**6), rationals), max_size=3),
)
def test_agrees_on_large_denominators(n, tree_seed, chooser_seed, lengths, overrides):
    shape = random_binary_tree(n, tree_seed)
    tree = relabelled_lengths(shape, lengths)
    cover = canonical_cover(tree, seeded_chooser(chooser_seed))
    dist = PartialDistances.from_tree(tree, cover)
    if not overrides:
        result = reconstruct(cover, dist)
        assert result.tree.isomorphic(tree, compare_lengths=True)
    values = dict(dist.values)
    for index, value in overrides:
        values[sorted(values)[index % len(values)]] = value
    assert_same(cover, PartialDistances(cover.taxa, values))


@pytest.mark.parametrize("n", [3, 4, 9, 30, 64])
def test_scaled_distances_match_path_sums(n):
    shape = random_binary_tree(n, 77 + n)
    rng = random.Random(n)
    lengths = [
        Fraction(rng.randint(1, 10**6), rng.choice([1, 3, 10**30 + 7, 2**61 - 1]))
        for _ in shape.edges()
    ]
    for tree in (shape, relabelled_lengths(shape, lengths)):
        pairs = sorted(all_cords(tree.taxa))
        scale, got = tree.scaled_distances(pairs)
        assert scale == lcm(*(q.denominator for *_, q in tree.edges()))
        assert list(got) == pairs
        assert all(Fraction(got[p], scale) == tree.distance(*p) for p in pairs)
