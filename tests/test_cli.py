"""End-to-end CLI behaviour: pipelines, exit codes, byte determinism."""

import json
import os
import shutil
import subprocess
import sys
from itertools import islice

import pytest

from tricover import CoverError, cli, jsonio, parse_newick, shelling
from tricover.cli import main
from tricover.covers import TripletCover
from tricover.reconstruct import PartialDistances

FIG_NEWICK = "((a:1,b:1):1,c:1,(d:1,e:1):1);\n"
FIG_COVER = {
    "taxa": ["a", "b", "c", "d", "e"],
    "cords": [
        ["a", "b"], ["a", "c"], ["b", "c"], ["b", "e"],
        ["c", "e"], ["c", "d"], ["d", "e"],
    ],
}


@pytest.fixture
def fig_files(tmp_path):
    tree_path = tmp_path / "tree.nwk"
    cover_path = tmp_path / "cover.json"
    tree_path.write_text(FIG_NEWICK)
    cover_path.write_text(json.dumps(FIG_COVER))
    return tree_path, cover_path


def test_analyze_reference(fig_files, tmp_path, capsys):
    tree_path, cover_path = fig_files
    out = tmp_path / "report.json"
    code = main(
        ["analyze", "--tree", str(tree_path), "--cover", str(cover_path),
         "--json", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["is_cover"] is True
    assert report["is_minimum"] is True
    assert report["is_sparse"] is True
    assert report["hall_type"] is True
    assert report["shellable"] is True
    assert report["mu"] == 2
    assert report["section_count"] == 1
    assert report["triangle_match"] is True
    assert report["two_connected"] is True
    assert report["decomposition"]["blocks"] == 1
    assert report["decomposition"]["strict"] is True
    assert report["ample_patchwork"] is True
    assert sorted(map(tuple, report["shelling_added"])) == [
        ("a", "d"), ("a", "e"), ("b", "d")
    ]


def test_analyze_non_cover_exit_2(fig_files, tmp_path, capsys):
    tree_path, _ = fig_files
    bad = dict(FIG_COVER)
    bad["cords"] = [c for c in FIG_COVER["cords"] if c != ["c", "e"]]
    cover_path = tmp_path / "bad.json"
    cover_path.write_text(json.dumps(bad))
    code = main(["analyze", "--tree", str(tree_path), "--cover", str(cover_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "unsupported" in captured.err
    assert "('a', 'c', 'd')" in captured.err
    report = json.loads(captured.out)
    assert report["is_cover"] is False
    assert report["unsupported_vertex"] == ["a", "c", "d"]


@pytest.mark.parametrize("command", ["shell", "decompose"])
def test_non_cover_exit_2_names_the_vertex(command, fig_files, tmp_path, capsys):
    tree_path, _ = fig_files
    bad = dict(FIG_COVER)
    bad["cords"] = [c for c in FIG_COVER["cords"] if c != ["c", "e"]]
    cover_path = tmp_path / "bad.json"
    cover_path.write_text(json.dumps(bad))
    code = main([command, "--tree", str(tree_path), "--cover", str(cover_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: {command} requires a triplet cover; "
        "interior vertex ('a', 'c', 'd') is unsupported\n"
    )


def test_analyze_malformed_json_exit_1(fig_files, tmp_path, capsys):
    tree_path, _ = fig_files
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["analyze", "--tree", str(tree_path), "--cover", str(bad)]) == 1


def test_analyze_duplicate_cord_exit_1(fig_files, tmp_path):
    tree_path, _ = fig_files
    dup = dict(FIG_COVER)
    dup["cords"] = FIG_COVER["cords"] + [["b", "a"]]
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(dup))
    assert main(["analyze", "--tree", str(tree_path), "--cover", str(path)]) == 1


def test_analyze_taxa_mismatch_exit_1(fig_files, tmp_path):
    tree_path, _ = fig_files
    other = {"taxa": ["a", "b", "c", "d", "x"], "cords": [["a", "b"]]}
    path = tmp_path / "other.json"
    path.write_text(json.dumps(other))
    assert main(["analyze", "--tree", str(tree_path), "--cover", str(path)]) == 1


def test_analyze_deep_newick_is_one_error_line(
    fig_files, tmp_path, capsys, caterpillar_newick
):
    _, cover_path = fig_files
    tree_path = tmp_path / "deep.nwk"
    tree_path.write_text(caterpillar_newick(1200) + "\n")
    code = main(["analyze", "--tree", str(tree_path), "--cover", str(cover_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: cover taxa") and err.count("\n") == 1


MALFORMED_FILES = {
    "taxa string": ("cover", {"taxa": "abcde", "cords": FIG_COVER["cords"]}),
    "cord with a list": ("cover", {"taxa": list("abcde"), "cords": [[["a"], "b"]]}),
    "cord with null": ("cover", {"taxa": list("abcde"), "cords": [["a", None]]}),
    "distance taxon list": (
        "dist",
        {"taxa": list("abcde"), "distances": [[["a"], "b", "2"]]},
    ),
    "step without quartet": (
        "witness",
        {"steps": [{"cord": ["a", "d"], "witness": ["b", "c"]}]},
    ),
    "three-taxon witness cord": (
        "witness",
        {
            "steps": [
                {
                    "cord": ["a", "d", "e"],
                    "witness": ["b", "c"],
                    "quartet": [["a", "b"], ["c", "d"]],
                }
            ]
        },
    ),
    "steps not a list": ("witness", {"steps": 5}),
}


def run_on_bad_file(fig_files, tmp_path, capsys, kind, text):
    """Run the command that reads a ``kind`` file on ``text``; the exit code
    and stderr.  A "tree" file goes to ``analyze``; a "long-witness" file to
    ``verify-shelling`` on the figure with taxon e renamed to ``LONG``."""
    tree_path, cover_path = fig_files
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    if kind == "long-witness":
        tree_path.write_text(FIG_NEWICK.replace("e:", f"{LONG}:"))
        cover_path.write_text(json.dumps(LONG_COVER))
    if kind == "tree":
        argv = ["analyze", "--tree", str(bad), "--cover", str(cover_path)]
    elif kind == "cover":
        argv = ["analyze", "--tree", str(tree_path), "--cover", str(bad)]
    elif kind == "dist":
        argv = ["reconstruct", "--cover", str(cover_path), "--dist", str(bad),
                "--out", str(tmp_path / "out.nwk")]
    else:
        argv = ["verify-shelling", "--tree", str(tree_path), "--cover",
                str(cover_path), "--witness", str(bad)]
    code = main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_json_is_one_error_line(fig_files, tmp_path, capsys, case):
    kind, payload = MALFORMED_FILES[case]
    code, err = run_on_bad_file(fig_files, tmp_path, capsys, kind, json.dumps(payload))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


LONG = "x" * 5000
MANY = list("abcde") + [f"t{i:03d}" for i in range(300)]
# The figure's cover with taxon e renamed to LONG.
LONG_COVER = {
    "taxa": [*"abcd", LONG],
    "cords": [[LONG if t == "e" else t for t in c] for c in FIG_COVER["cords"]],
}


def step(cord, witness, quartet):
    return {"cord": cord, "witness": witness, "quartet": quartet}


# case: (file kind, payload, start of the message)
LONG_ENTRIES = {
    "cover": ("cover", {"taxa": list("abcde"), "cords": [["a", LONG, "b"]]},
              "bad cord entry"),
    "dist": ("dist", {"taxa": list("abcde"), "distances": [["a", "b", "2", LONG]]},
             "bad distance entry"),
    "witness": ("witness",
                {"steps": [{"cord": ["a", LONG, "b"], "witness": ["c", "d"]}]},
                "bad shelling step"),
    "cover-foreign-taxon": ("cover", {"taxa": list("abcde"), "cords": [["a", LONG]]},
                            "cord a,'xxx"),
    "cover-duplicate-cord": (
        "cover", {"taxa": [*"abcde", LONG], "cords": [["a", LONG], [LONG, "a"]]},
        "duplicate cord ['xxx"),
    "cover-self-cord": ("cover", {"taxa": [*"abcde", LONG], "cords": [[LONG, LONG]]},
                        "a cord needs two distinct taxa"),
    "cover-bad-label": ("cover", {"taxa": [*"abcde", LONG + ";"], "cords": []},
                        "bad taxon label"),
    "cover-taxa-mismatch": ("cover", {**FIG_COVER, "taxa": [*"abcde", LONG]},
                            "cover taxa do not match tree taxa: 'xxx"),
    "cover-many-taxa-mismatch": ("cover", {**FIG_COVER, "taxa": MANY},
                                 "cover taxa do not match tree taxa: t000 is"),
    "dist-unknown-taxon": (
        "dist", {"taxa": list("abcde"), "distances": [["a", LONG, "1"]]},
        "distance for a,'xxx"),
    "dist-duplicate": (
        "dist", {"taxa": [*"abcde", LONG], "distances": [["a", LONG, "1"]] * 2},
        "duplicate distance for a,'xxx"),
    "dist-negative": (
        "dist", {"taxa": list("abcde"), "distances": [["a", "b", "-" + "1" * 1000]]},
        "distance for a,b must be positive, got '-111"),
    "tree-missing-length": (
        "tree", FIG_NEWICK.replace("e:1", LONG),
        "missing branch length after leaf 'xxx"),
    "tree-zero-denominator": (
        "tree", FIG_NEWICK.replace("d:1", "d:1/" + "0" * 3000),
        "zero denominator in length literal '1/000"),
    "tree-non-positive-length": (
        "tree", FIG_NEWICK.replace("d:1", "d:" + "0" * 3000),
        "non-positive branch length '000"),
}


@pytest.mark.parametrize("case", sorted(LONG_ENTRIES))
def test_long_bad_entry_is_one_short_error_line(fig_files, tmp_path, capsys, case):
    # The entry, the taxon name or both taxon sets were once quoted whole: a
    # 5,029-character line for a bad cover entry.  A tree case's payload is
    # the Newick text itself.
    kind, payload, start = LONG_ENTRIES[case]
    text = payload if kind == "tree" else json.dumps(payload)
    code, err = run_on_bad_file(fig_files, tmp_path, capsys, kind, text)
    assert code == 1
    assert err.startswith(f"error: {start}") and err.count("\n") == 1
    assert len(err) < 200


# case: (file kind, payload, start of the rejection), each a well-formed
# witness that verify-shelling rejects
LONG_WITNESSES = {
    "witness-foreign-cord": (
        "witness",
        {"steps": [step(["a", LONG], ["b", "c"], [["a", "b"], ["c", LONG]])]},
        "step 0: ('a', 'xxx"),
    "witness-overlap": (
        "witness", {"steps": [step(["a", "d"], ["a", LONG], [["a", "b"], ["c", "d"]])]},
        "step 0: witness ('a', 'xxx"),
    "witness-already-available": (
        "long-witness",
        {"steps": [step(["c", LONG], ["a", "b"], [["a", "b"], ["c", "d"]])]},
        "step 0: cord ('c', 'xxx"),
    "witness-required-cords": (
        "long-witness",
        {"steps": [step(["a", "d"], ["c", LONG], [["a", "c"], ["d", LONG]])]},
        "step 0: required cords [('a', 'xxx"),
    "witness-tree-displays": (
        "long-witness",
        {"steps": [step(["a", LONG], ["c", "b"], [["a", "b"], ["c", LONG]])]},
        "step 0: tree displays (('a', 'b'), ('c', 'xxx"),
    "witness-recorded-quartet": (
        "long-witness",
        {"steps": [step(["a", LONG], ["b", "c"], [["a", "c"], ["b", LONG]])]},
        "step 0: recorded quartet (('a', 'c'), ('b', 'xxx"),
    "witness-incomplete": (
        "long-witness", {"steps": []},
        "witness incomplete: [('a', 'd'), ('a', 'xxx"),
}


@pytest.mark.parametrize("case", sorted(LONG_WITNESSES))
def test_long_rejected_witness_is_one_short_line(fig_files, tmp_path, capsys, case):
    # Each rejection once printed the whole cord, witness, quartet or missing
    # cords: a 5,083-character line for the required cords.  The quartet
    # texts name the long taxon twice, so the bound is per quoted name.
    kind, payload, start = LONG_WITNESSES[case]
    code, err = run_on_bad_file(fig_files, tmp_path, capsys, kind, json.dumps(payload))
    assert code == 2
    assert err.startswith(f"witness rejected: {start}") and err.count("\n") == 1
    quotes = err.count("... (5000 characters)")
    assert quotes >= 1 and len(err) < 100 + 80 * quotes


def test_incomplete_witness_is_one_bounded_line(tmp_path, capsys):
    # An empty witness leaves every pair outside the cover missing; the
    # text once listed them all (747,153 characters for a random cover at
    # n = 300).  Now it names the first ten and the count.
    out_dir = tmp_path / "inst"
    assert main(["generate", "--n", "60", "--seed", "1", "--cover-policy", "random",
                 "--out-dir", str(out_dir)]) == 0
    cover = jsonio.load_cover(out_dir / "cover.json")
    missing = 60 * 59 // 2 - len(cover.cords)
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps({"steps": []}))
    capsys.readouterr()
    code = main(["verify-shelling", "--tree", str(out_dir / "tree.nwk"),
                 "--cover", str(out_dir / "cover.json"), "--witness", str(witness)])
    err = capsys.readouterr().err
    assert code == 2 and missing > 10
    assert err.startswith("witness rejected: witness incomplete: [(")
    assert err.endswith(f", ...] never added ({missing} pairs missing in all)\n")
    assert err.count("\n") == 1 and err.count("), (") == 9
    assert len(err) < 250


@pytest.mark.parametrize("kind", ["cover", "dist", "witness"])
def test_deeply_nested_json_is_one_error_line(fig_files, tmp_path, capsys, kind):
    # Written as raw text: json.dumps cannot nest this deep.  The decoder's
    # RecursionError once reached the user as a traceback.
    code, err = run_on_bad_file(fig_files, tmp_path, capsys, kind, "[" * 200_000)
    assert code == 1
    assert err == "error: JSON nested too deeply\n"


def test_reconstruct_pipeline(fig_files, tmp_path):
    _, cover_path = fig_files
    dist = {
        "taxa": ["a", "b", "c", "d", "e"],
        "distances": [
            ["a", "b", "2"], ["a", "c", "3"], ["b", "c", "3"], ["b", "e", "4"],
            ["c", "e", "3"], ["c", "d", "3"], ["d", "e", "2"],
        ],
    }
    dist_path = tmp_path / "dist.json"
    dist_path.write_text(json.dumps(dist))
    out = tmp_path / "out.nwk"
    code = main(
        ["reconstruct", "--cover", str(cover_path), "--dist", str(dist_path),
         "--out", str(out)]
    )
    assert code == 0
    assert out.read_text() == "(a:1,b:1,(c:1,(d:1,e:1):1):1);\n"


def test_reconstruct_unrealizable_exit_3(fig_files, tmp_path, capsys):
    _, cover_path = fig_files
    dist = {
        "taxa": ["a", "b", "c", "d", "e"],
        "distances": [
            ["a", "b", "10"], ["a", "c", "3"], ["b", "c", "3"], ["b", "e", "4"],
            ["c", "e", "3"], ["c", "d", "3"], ["d", "e", "2"],
        ],
    }
    dist_path = tmp_path / "dist.json"
    dist_path.write_text(json.dumps(dist))
    code = main(
        ["reconstruct", "--cover", str(cover_path), "--dist", str(dist_path),
         "--out", str(tmp_path / "out.nwk")]
    )
    assert code == 3
    assert "not realizable" in capsys.readouterr().err


def test_float_distances_rejected(fig_files, tmp_path):
    _, cover_path = fig_files
    dist = {"taxa": ["a", "b", "c", "d", "e"], "distances": [["a", "b", 2.0]]}
    dist_path = tmp_path / "dist.json"
    dist_path.write_text(json.dumps(dist))
    code = main(
        ["reconstruct", "--cover", str(cover_path), "--dist", str(dist_path),
         "--out", str(tmp_path / "out.nwk")]
    )
    assert code == 1
    with pytest.raises(CoverError, match="floats are not accepted"):
        jsonio.load_distances(dist_path)


def test_boolean_distance_rejected(fig_files, tmp_path, capsys):
    # JSON true is not the number 1.
    _, cover_path = fig_files
    dist = {"taxa": ["a", "b", "c", "d", "e"], "distances": [["a", "b", True]]}
    dist_path = tmp_path / "dist.json"
    dist_path.write_text(json.dumps(dist))
    with pytest.raises(CoverError, match="booleans are not numbers"):
        jsonio.load_distances(dist_path)
    code = main(
        ["reconstruct", "--cover", str(cover_path), "--dist", str(dist_path),
         "--out", str(tmp_path / "out.nwk")]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: booleans are not numbers, got True\n"


@pytest.mark.parametrize(
    "entry, expected",
    [(["a", "b", "5"], "duplicate distance for a,b"),
     (["b", "a", "2"], "duplicate distance for b,a"),
     (["c", "c", "1"], "a cord needs two distinct taxa, got 'c' twice"),
     (["a", "z", "1"], "distance for a,z uses an unknown taxon")],
)
def test_faulty_distance_entry_is_one_error_line(
    fig_files, tmp_path, capsys, entry, expected
):
    # Each file has one fault: the figure's distances plus one entry.
    _, cover_path = fig_files
    values = [[x, y, "3"] for x, y in FIG_COVER["cords"]] + [entry]
    dist = {"taxa": ["a", "b", "c", "d", "e"], "distances": values}
    dist_path = tmp_path / "dist.json"
    dist_path.write_text(json.dumps(dist))
    with pytest.raises(CoverError, match=f"^{expected}$"):
        jsonio.load_distances(dist_path)
    code = main(
        ["reconstruct", "--cover", str(cover_path), "--dist", str(dist_path),
         "--out", str(tmp_path / "out.nwk")]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: {expected}\n"


def test_exponent_distance_is_one_error_line(fig_files, tmp_path, capsys):
    # "1e400000" once built a 400,001-digit integer and failed on formatting it.
    _, cover_path = fig_files
    values = [[x, y, "3"] for x, y in FIG_COVER["cords"]]
    values[0][2] = "1e400000"
    dist = {"taxa": ["a", "b", "c", "d", "e"], "distances": values}
    dist_path = tmp_path / "dist.json"
    dist_path.write_text(json.dumps(dist))
    code = main(
        ["reconstruct", "--cover", str(cover_path), "--dist", str(dist_path),
         "--out", str(tmp_path / "out.nwk")]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: bad rational '1e400000': exponents are not accepted\n"


@pytest.mark.parametrize(
    "value, expected",
    [(" 3 ", "' 3 '"), ("1_0", "'1_0'"),
     ("1" * 5000 + "x", repr("1" * 40) + "... (5001 characters)")],
)
def test_lax_or_long_distance_is_one_short_error_line(
    fig_files, tmp_path, capsys, value, expected
):
    _, cover_path = fig_files
    values = [[x, y, "3"] for x, y in FIG_COVER["cords"]]
    values[0][2] = value
    dist = {"taxa": ["a", "b", "c", "d", "e"], "distances": values}
    dist_path = tmp_path / "dist.json"
    dist_path.write_text(json.dumps(dist))
    code = main(
        ["reconstruct", "--cover", str(cover_path), "--dist", str(dist_path),
         "--out", str(tmp_path / "out.nwk")]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err == (
        f"error: bad rational {expected}: write an integer, p/q or a decimal\n"
    )


def test_cap_flags_belong_to_analyze_only(fig_files, tmp_path, capsys):
    _, cover_path = fig_files
    with pytest.raises(SystemExit) as exit_info:
        main(["reconstruct", "--cover", str(cover_path), "--dist", str(cover_path),
              "--out", str(tmp_path / "out.nwk"), "--hall-cap", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --hall-cap 2" in capsys.readouterr().err


def test_generate_analyze_reconstruct_roundtrip(tmp_path):
    out_dir = tmp_path / "inst"
    assert main(["generate", "--n", "7", "--seed", "3", "--out-dir", str(out_dir)]) == 0
    report_path = tmp_path / "report.json"
    assert (
        main(
            ["analyze", "--tree", str(out_dir / "tree.nwk"),
             "--cover", str(out_dir / "cover.json"), "--json", str(report_path)]
        )
        == 0
    )
    assert json.loads(report_path.read_text())["is_cover"] is True
    rebuilt = tmp_path / "rebuilt.nwk"
    assert (
        main(
            ["reconstruct", "--cover", str(out_dir / "cover.json"),
             "--dist", str(out_dir / "dist.json"), "--out", str(rebuilt)]
        )
        == 0
    )
    original = parse_newick((out_dir / "tree.nwk").read_text().strip())
    again = parse_newick(rebuilt.read_text().strip())
    assert original.isomorphic(again, compare_lengths=True)


def test_generate_deterministic_bytes(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    for d in (dir_a, dir_b):
        assert main(
            ["generate", "--n", "6", "--seed", "11", "--cover-policy", "random",
             "--out-dir", str(d)]
        ) == 0
    for name in ("tree.nwk", "cover.json", "dist.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_generate_rejects_small_n(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["generate", "--n", "2", "--out-dir", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert "argument --n: need at least 3 taxa, got 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_decompose_report(fig_files, tmp_path):
    tree_path, cover_path = fig_files
    out = tmp_path / "dec.json"
    code = main(
        ["decompose", "--tree", str(tree_path), "--cover", str(cover_path),
         "--json", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["m"] == 1
    assert payload["strict"] is True
    assert payload["counting_identity"] is True
    assert payload["applies_to_minimal_cover"] is True
    block = payload["blocks"][0]
    assert sorted(block["vertices"]) == ["a", "b", "c", "d", "e"]
    assert len(block["edges"]) == 7
    assert len(block["construction_order"]) == 3


def test_shell_and_verify_pipeline(fig_files, tmp_path, capsys):
    tree_path, cover_path = fig_files
    witness = tmp_path / "witness.json"
    assert (
        main(
            ["shell", "--tree", str(tree_path), "--cover", str(cover_path),
             "--json", str(witness)]
        )
        == 0
    )
    payload = json.loads(witness.read_text())
    assert payload["shellable"] is True
    assert len(payload["steps"]) == 3
    assert (
        main(
            ["verify-shelling", "--tree", str(tree_path),
             "--cover", str(cover_path), "--witness", str(witness)]
        )
        == 0
    )
    # Tamper: drop a step.
    payload["steps"] = payload["steps"][:-1]
    witness.write_text(json.dumps(payload))
    code = main(
        ["verify-shelling", "--tree", str(tree_path), "--cover", str(cover_path),
         "--witness", str(witness)]
    )
    assert code == 2
    assert "rejected" in capsys.readouterr().err


def test_shell_non_shellable_runs_closure_once(fig_files, tmp_path, monkeypatch):
    # No non-shellable cover is known at test sizes, so the stream of forced
    # additions is cut off after its first step: the closure then stalls with
    # a one-step prefix, exactly as it would on a non-shellable cover.
    tree_path, cover_path = fig_files
    real_steps = shelling._forced_steps
    real_closure = shelling._closure
    found = []
    closures = []

    def first_step_only(*args):
        for step in islice(real_steps(*args), 1):
            found.append(step)
            yield step

    def counted_closure(*args):
        closures.append(args)
        return real_closure(*args)

    monkeypatch.setattr(shelling, "_forced_steps", first_step_only)
    for module in (shelling, cli):
        monkeypatch.setattr(module, "_closure", counted_closure)
    out = tmp_path / "prefix.json"
    code = main(["shell", "--tree", str(tree_path), "--cover", str(cover_path),
                 "--json", str(out)])
    assert code == 0
    assert len(closures) == 1
    payload = json.loads(out.read_text())
    assert payload["shellable"] is False
    assert payload["stalled_after"] == 1
    assert payload["steps"] == jsonio.shelling_to_json(found[:1])["steps"]


def test_fixtures_minimum_target(tmp_path):
    out_dir = tmp_path / "fixtures"
    code = main(
        ["fixtures", "--target", "minimum", "--n-min", "5", "--n-max", "5",
         "--budget", "200", "--seed", "0", "--out-dir", str(out_dir)]
    )
    assert code == 0
    summary = json.loads((out_dir / "minimum-summary.json").read_text())
    assert summary["found"] is True
    record = jsonio.load_instance_record(summary["record"])
    assert record.flags["is_minimum"]
    # Stored flags must match recomputation on load.
    stored = json.loads(open(summary["record"]).read())
    assert stored["flags"] == record.flags


def test_fixtures_search_past_the_ample_cap(tmp_path):
    # A sparse cover at n = 20 has an 18-triple section, above the default
    # ample cap; the predicate lifts the cap to the section's size.
    out_dir = tmp_path / "fixtures"
    code = main(
        ["fixtures", "--target", "sparse-shellable-not-ample", "--n-min", "20",
         "--n-max", "20", "--budget", "50", "--out-dir", str(out_dir)]
    )
    assert code == 0
    summary = json.loads(
        (out_dir / "sparse-shellable-not-ample-summary.json").read_text()
    )
    assert summary["found"] is True
    record = jsonio.load_instance_record(summary["record"])
    assert len(record.cover.taxa) == 20 and record.flags["is_sparse"]


USAGE_ERRORS = {
    "--limit-sections": (["analyze", "--limit-sections", "-5"],
                         "argument --limit-sections: must not be negative, got -5"),
    "--ample-cap": (["analyze", "--ample-cap", "-1"],
                    "argument --ample-cap: must not be negative, got -1"),
    "--hall-cap": (["analyze", "--hall-cap", "-3"],
                   "argument --hall-cap: must not be negative, got -3"),
    "--budget": (["fixtures", "--target", "minimum", "--budget", "-1"],
                 "argument --budget: must not be negative, got -1"),
    "--n-min": (["fixtures", "--target", "minimum", "--n-min", "9", "--n-max", "5"],
                "fixtures: --n-min 9 is above --n-max 5"),
    "--n-min below 3": (["fixtures", "--target", "minimum", "--n-min", "1"],
                        "argument --n-min: need at least 3 taxa, got 1"),
    "--n-min 2 to --n-max 2": (
        ["fixtures", "--target", "minimum", "--n-min", "2", "--n-max", "2"],
        "argument --n-min: need at least 3 taxa, got 2"),
    "generate --n": (["generate", "--n", "2"],
                     "argument --n: need at least 3 taxa, got 2"),
    "generate --n negative": (["generate", "--n", "-4", "--seed", "1"],
                              "argument --n: need at least 3 taxa, got -4"),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_bad_counts_are_usage_errors(fig_files, tmp_path, capsys, case):
    tree_path, cover_path = fig_files
    argv, message = USAGE_ERRORS[case]
    files = (["--tree", str(tree_path), "--cover", str(cover_path)]
             if argv[0] == "analyze" else ["--out-dir", str(tmp_path / "out")])
    with pytest.raises(SystemExit) as exit_info:
        main(argv + files)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: tricover") and f"error: {message}\n" in err
    assert not (tmp_path / "out").exists()


def test_instance_record_roundtrip(tmp_path):
    from tricover.lab import predicate_minimum, search_fixture

    record = search_fixture(predicate_minimum, [5], budget=100, seed=0)
    path = tmp_path / "record.json"
    jsonio.save_instance_record(record, path)
    loaded = jsonio.load_instance_record(path)
    assert loaded.cover.cords == record.cover.cords
    assert loaded.tree.isomorphic(record.tree, compare_lengths=True)
    assert loaded.flags == record.flags
    stored = json.loads(path.read_text())
    assert stored["flags"] == record.flags


BAD_RECORDS = {
    "no newick": {"cover": {}},
    "not an object": [1, 2],
    "provenance not an object": {
        "newick": FIG_NEWICK.strip(), "cover": FIG_COVER, "provenance": 5
    },
}


@pytest.mark.parametrize("case", sorted(BAD_RECORDS))
def test_instance_record_shape_checked(tmp_path, case):
    path = tmp_path / "record.json"
    path.write_text(json.dumps(BAD_RECORDS[case]))
    with pytest.raises(CoverError, match="fixture records need"):
        jsonio.load_instance_record(path)


def test_tree_json_dump_schema(fig_files, tmp_path):
    tree = parse_newick(FIG_NEWICK.strip())
    payload = jsonio.tree_to_json(tree)
    assert payload["taxa"] == ["a", "b", "c", "d", "e"]
    assert len(payload["edges"]) == 7
    for u, v, q in payload["edges"]:
        assert isinstance(u, int) and isinstance(v, int)
        assert set(q) == {"num", "den"} and q["den"] >= 1


def test_rational_strings_everywhere(tmp_path):
    tree = parse_newick("(a:1/3,b:2,(c:1,d:5/4):7/2);")
    cover = TripletCover.make("abcd", [("a", "b"), ("a", "c"), ("b", "c"),
                                       ("b", "d"), ("c", "d")])
    dist = PartialDistances.from_tree(tree, cover)
    path = tmp_path / "dist.json"
    jsonio.save_distances(dist, path)
    text = path.read_text()
    payload = json.loads(text)
    for _, _, value in payload["distances"]:
        assert isinstance(value, str)
    again = jsonio.load_distances(path)
    assert again.values == dist.values


def test_capacity_flags_surface_in_report(fig_files, tmp_path):
    tree_path, cover_path = fig_files
    out = tmp_path / "capped.json"
    code = main(
        ["analyze", "--tree", str(tree_path), "--cover", str(cover_path),
         "--json", str(out), "--hall-cap", "2"]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["hall_type"] is None
    assert any("hall_type skipped" in note for note in report["notes"])


def test_module_entry_point(fig_files, tmp_path):
    tree_path, cover_path = fig_files
    proc = subprocess.run(
        [sys.executable, "-m", "tricover", "analyze", "--tree", str(tree_path),
         "--cover", str(cover_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["is_cover"] is True


def test_bad_label_text_does_not_depend_on_hash_seed(fig_files, tmp_path):
    # Of several bad labels the least is named, whatever order the taxon
    # set iterates in under each hash seed.
    tree_path, _ = fig_files
    cover_path = tmp_path / "labels.json"
    cover_path.write_text(json.dumps(
        {"taxa": ["a b", "c d", "e f", "g"], "cords": [["g", "a b"]]}
    ))
    errors = set()
    for seed in range(1, 7):
        proc = subprocess.run(
            [sys.executable, "-m", "tricover", "analyze", "--tree", str(tree_path),
             "--cover", str(cover_path)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONHASHSEED": str(seed)},
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        errors.add(proc.stderr)
    assert errors == {"error: bad taxon label 'a b'\n"}


def test_one_parser_serves_every_call_alike(tmp_path, capsys, monkeypatch):
    # main() builds its parser once per process.  Two rounds of every kind
    # of call in this process, usage errors and --help among them, must each
    # match a fresh process: stdout, stderr, exit code and written files.
    monkeypatch.setenv("COLUMNS", "80")
    d = tmp_path / "inst"
    tree, cover, dist = d / "tree.nwk", d / "cover.json", d / "dist.json"
    calls = [
        ["generate", "--n", "9", "--seed", "4", "--cover-policy", "random",
         "--out-dir", str(d)],
        ["analyze", "--tree", str(tree), "--cover", str(cover)],
        ["shell", "--tree", str(tree), "--cover", str(cover)],
        ["decompose", "--tree", str(tree), "--cover", str(cover),
         "--json", str(d / "blocks.json")],
        ["reconstruct", "--cover", str(cover), "--dist", str(dist),
         "--out", str(d / "out.nwk")],
        ["analyze", "--tree", str(tree), "--cover", str(cover),
         "--ample-cap", "-1"],
        ["--help"],
    ]

    def files():
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    def in_process(argv):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
        out, err = capsys.readouterr()
        return code, out, err, files()

    def fresh_process(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "tricover", *argv],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "COLUMNS": "80"},
        )
        return proc.returncode, proc.stdout, proc.stderr, files()

    def round_of(run):
        shutil.rmtree(d, ignore_errors=True)
        return [run(argv) for argv in calls]

    first = round_of(in_process)
    assert [run[0] for run in first] == [0, 0, 0, 0, 0, 2, 0]
    assert first[5][2].startswith("usage: tricover analyze")
    assert first[6][1].startswith("usage: tricover")
    assert round_of(in_process) == first
    assert round_of(fresh_process) == first
