"""Parser and writer behaviour, including error positions and round-trips."""

from fractions import Fraction

import pytest

from tricover import NewickError, TreeError, parse_newick, write_newick
from tricover.lab import random_binary_tree


def test_parse_reference_tree(fig_tree):
    assert sorted(fig_tree.taxa) == ["a", "b", "c", "d", "e"]
    assert fig_tree.n_edges() == 7
    assert len(fig_tree.interior_vertices()) == 3
    assert fig_tree.distance("a", "b") == 2


def test_parse_three_leaf_star():
    t = parse_newick("(a:1,b:2,c:3);")
    assert sorted(t.taxa) == ["a", "b", "c"]
    assert t.n_edges() == 3
    assert t.distance("b", "c") == 5


def test_missing_interior_length_rejected():
    with pytest.raises(NewickError) as err:
        parse_newick("((a:1,b:1),c:1);")
    assert "missing branch length" in str(err.value)
    assert err.value.position is not None


def test_rational_and_decimal_lengths_exact():
    t = parse_newick("(a:7/2,b:0.25,c:1);")
    assert t.distance("a", "b") == Fraction(15, 4)
    assert t.distance("b", "c") == Fraction(5, 4)


def test_degree_two_root_merged():
    rooted = parse_newick("((a:1,b:1):1,(c:1,(d:1,e:1):1):2);")
    unrooted = parse_newick("((a:1,b:1):3,c:1,(d:1,e:1):1);")
    assert rooted.isomorphic(unrooted, compare_lengths=True)


@pytest.mark.parametrize(
    "text",
    [
        "((a:1,b:1):1,c:1);x",  # trailing junk
        "((a:1,b:1:1,c:1);",  # stray colon
        "(a:1,b:1",  # unterminated
        "(a:1,(b:1):1,c:1);",  # single-child group
        "(a:1,b:-1,c:1);",  # negative length is a syntax error
        "(a:1,b:0,c:1);",  # zero length
        "(a:1,b:1/0,c:1);",  # zero denominator
        "(a b:1,c:1,d:1);",  # whitespace inside a label
        "(a:1,b:1,c:1):5;",  # length on the root
    ],
)
def test_syntax_errors_carry_positions(text):
    with pytest.raises(NewickError) as err:
        parse_newick(text)
    assert err.value.position is not None


@pytest.mark.parametrize(
    "length",
    ["1" * 5000, "1/" + "1" * 5000, "0." + "1" * 5000],
    ids=["integer", "denominator", "decimal"],
)
def test_overlong_length_is_newick_error(length):
    # More digits than int() reads once raised a bare ValueError.
    with pytest.raises(NewickError, match="unreadable branch length") as err:
        parse_newick(f"(a:1,b:1,c:{length});")
    assert err.value.position == 11


def test_non_ascii_digits_are_not_lengths():
    # Arabic-Indic digits: a length literal is ASCII, as in exact_rational.
    with pytest.raises(NewickError, match="expected a branch length") as err:
        parse_newick("((a:\u0661,b:1):1,c:\u0662/\u0663,(d:1,e:1):1);")
    assert err.value.position == 4


def test_duplicate_taxon_rejected():
    with pytest.raises(TreeError, match="duplicate taxon"):
        parse_newick("(a:1,a:1,c:1);")


def test_nonbinary_vertex_rejected():
    with pytest.raises(TreeError):
        parse_newick("(a:1,b:1,c:1,d:1);")


def test_two_taxa_rejected():
    with pytest.raises(TreeError):
        parse_newick("(a:1,b:1);")


def test_canonical_output_reference(fig_tree):
    # Rooted at the interior vertex adjacent to the least taxon 'a';
    # children ordered by least descendant.
    assert write_newick(fig_tree) == "(a:1,b:1,(c:1,(d:1,e:1):1):1);"


def test_canonical_output_three_leaf():
    assert write_newick(parse_newick("(b:2,c:3,a:1);")) == "(a:1,b:2,c:3);"


def test_writer_is_parse_stable(fig_tree):
    text = write_newick(fig_tree)
    assert write_newick(parse_newick(text)) == text


@pytest.mark.parametrize("seed", range(12))
def test_roundtrip_random_trees(seed):
    tree = random_binary_tree(4 + seed % 7, seed)
    again = parse_newick(write_newick(tree))
    assert again.isomorphic(tree, compare_lengths=True)
    assert write_newick(again) == write_newick(tree)


@pytest.mark.parametrize("n", [4, 600, 1200, 5000])
def test_deep_caterpillar_roundtrip(caterpillar_newick, n):
    text = caterpillar_newick(n)
    tree = parse_newick(text)
    assert tree.n_taxa == n
    assert write_newick(tree) == text
