"""``decompose`` on the mask path against the named reference.

The command reads the mask support, takes each vertex's least triple as the
first section and reads minimality from the required pair masks, as
``classify`` does.  ``decompose_reference`` keeps the earlier path on the
named support map.  On every ``generate`` cover (both policies, n = 6-24,
seeds 0-3), on its minimalized cover and on that cover without its least
cord (never a cover), the two must agree on the exit code, the ``--json``
bytes and stderr.
"""

import pytest
from decompose_reference import reference_decompose

from tricover import jsonio, minimalize, parse_newick
from tricover.cli import main

CASES = [
    (policy, n, seed)
    for policy in ("least", "random")
    for n in range(6, 25)
    for seed in range(4)
]


def run_decompose(tmp_path, tree_path, cover, capsys):
    """The exit code, the ``--json`` text (None when nothing is written) and
    the stderr text of the CLI's ``decompose`` on ``cover``."""
    cover_path = tmp_path / "under-test.json"
    out = tmp_path / "decompose.json"
    out.unlink(missing_ok=True)
    jsonio.save_cover(cover, cover_path)
    capsys.readouterr()
    code = main(
        ["decompose", "--tree", str(tree_path), "--cover", str(cover_path),
         "--json", str(out)]
    )
    captured = capsys.readouterr()
    assert captured.out == ""
    text = out.read_text(encoding="utf-8") if out.exists() else None
    return code, text, captured.err


@pytest.mark.parametrize("policy,n,seed", CASES)
def test_decompose_matches_named_reference(policy, n, seed, tmp_path, capsys):
    main(["generate", "--n", str(n), "--seed", str(seed),
          "--cover-policy", policy, "--out-dir", str(tmp_path)])
    tree_path = tmp_path / "tree.nwk"
    tree = parse_newick(tree_path.read_text(encoding="utf-8").strip())
    cover = jsonio.load_cover(tmp_path / "cover.json")
    minimal = minimalize(tree, cover)
    broken = minimal.without(min(minimal.cords))
    results = []
    for case in (cover, minimal, broken):
        got = run_decompose(tmp_path, tree_path, case, capsys)
        assert got == reference_decompose(tree, case)
        results.append(got)
    assert '"applies_to_minimal_cover": true' in results[1][1]
    code, text, err = results[2]
    assert code == 2 and text is None
    assert err.startswith("error: decompose requires a triplet cover")
