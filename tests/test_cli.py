"""End-to-end CLI behaviour: pipelines, exit codes, byte determinism."""

import json
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
    assert main(["generate", "--n", "2", "--out-dir", str(tmp_path)]) == 1


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
