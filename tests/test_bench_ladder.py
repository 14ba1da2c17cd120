"""Smoke test of the layer ladder script at its smallest size."""

import json
import subprocess
import sys
from pathlib import Path

LADDER = Path(__file__).resolve().parents[1] / "tools" / "bench_ladder.py"


def test_ladder_runs_at_n20(tmp_path):
    out = tmp_path / "ladder.json"
    subprocess.run(
        [sys.executable, str(LADDER), "--out", str(out), "--sizes", "20",
         "--repeats", "2"],
        check=True, capture_output=True, timeout=120,
    )
    report = json.loads(out.read_text())
    assert report["sizes"] == [20] and "parent" not in report
    rows = [(key, "20") for key in (
        "random_binary_tree_s", "canonical_cover_s", "support_map_s",
        "is_triplet_cover_s", "minimalize_s", "is_minimal_s", "closure_s",
        "classify_s", "decomposition_s", "is_ample_s", "hall_type_s",
        "two_connected_s",
        "parse_newick_s", "cover_load_s", "dist_load_s", "json_dump_s",
        "reconstruct_s", "write_newick_s", "from_tree_s",
        "isomorphic_s", "cli_reconstruct_s")]
    # The instance stream and the fixture search are timed at one fixed n,
    # whatever the sizes.
    rows += [("random_instances_s", "12"), ("fixture_search_s", "12")]
    for key, n in rows:
        assert report["change"][key][n] > 0
        assert report["change"]["spread"][key][n] >= 1
