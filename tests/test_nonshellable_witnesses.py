"""Two triplet covers at n = 100 whose cord closure stalls.

Each is the minimalized seeded-chooser cover of a seeded random tree.  It
is a minimal sparse triplet cover, yet the forced-addition closure stops
short of all pairs, after 58 and 107 additions, so it is not shellable.
``reconstruct`` still rebuilds the tree and its lengths, as the paper's
first result says it must for any triplet cover.
"""

import json

import pytest
from closure_reference import reference_forced_steps
from components_reference import components_without

from tricover import (
    PartialDistances,
    all_cords,
    canonical_cover,
    cord_closure,
    is_minimal,
    is_sparse,
    is_triplet_cover,
    jsonio,
    minimalize,
    reconstruct,
    seeded_chooser,
    write_newick,
)
from tricover.cli import main
from tricover.lab import predicate_sparse_not_shellable, random_binary_tree

# (tree seed, chooser seed, cords, additions before the closure stalls)
WITNESSES = [(1007, 6, 267, 58), (1056, 0, 271, 107)]


def witness(tree_seed, chooser_seed):
    tree = random_binary_tree(100, tree_seed)
    return tree, minimalize(tree, canonical_cover(tree, seeded_chooser(chooser_seed)))


def supported_by_components(tree, cover, v):
    """Whether some triple, one taxon from each component of the tree minus
    v, has all three pairs among the cover's cords."""
    a, b, c = components_without(tree, v)
    return any(
        (min(x, z), max(x, z)) in cover.cords and (min(y, z), max(y, z)) in cover.cords
        for x, y in cover.cords
        for first, second in ((a, b), (b, a))
        if x in first and y in second
        for z in c
    )


@pytest.mark.parametrize("tree_seed,chooser_seed,cords,stalled", WITNESSES)
def test_witness_is_a_minimal_sparse_cover(tree_seed, chooser_seed, cords, stalled):
    tree, cover = witness(tree_seed, chooser_seed)
    assert len(cover) == cords
    assert is_triplet_cover(tree, cover)
    assert all(
        supported_by_components(tree, cover, v) for v in tree.interior_vertices()
    )
    assert is_minimal(tree, cover)
    assert is_sparse(tree, cover)


@pytest.mark.parametrize("tree_seed,chooser_seed,cords,stalled", WITNESSES)
def test_witness_closure_stalls(tree_seed, chooser_seed, cords, stalled):
    tree, cover = witness(tree_seed, chooser_seed)
    closed, steps = cord_closure(tree, cover)
    assert steps == tuple(reference_forced_steps(tree, cover))
    assert len(steps) == stalled
    assert closed == cover.cords | {step.cord for step in steps}
    assert closed < all_cords(cover.taxa)
    assert predicate_sparse_not_shellable(tree, cover) is True


@pytest.mark.parametrize("tree_seed,chooser_seed,cords,stalled", WITNESSES)
def test_witness_shell_reports_the_stall(
    tree_seed, chooser_seed, cords, stalled, tmp_path
):
    tree, cover = witness(tree_seed, chooser_seed)
    tree_path, cover_path, out = (
        tmp_path / "tree.nwk", tmp_path / "cover.json", tmp_path / "shell.json"
    )
    tree_path.write_text(write_newick(tree) + "\n", encoding="utf-8")
    jsonio.save_cover(cover, cover_path)
    code = main(
        ["shell", "--tree", str(tree_path), "--cover", str(cover_path),
         "--json", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["shellable"] is False
    assert payload["stalled_after"] == stalled


@pytest.mark.parametrize("tree_seed,chooser_seed,cords,stalled", WITNESSES)
def test_witness_reconstructs_the_tree(tree_seed, chooser_seed, cords, stalled):
    tree, cover = witness(tree_seed, chooser_seed)
    result = reconstruct(cover, PartialDistances.from_tree(tree, cover))
    assert result.tree.isomorphic(tree, compare_lengths=True)
