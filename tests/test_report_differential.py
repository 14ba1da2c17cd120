"""``report.classify`` on the mask kernels, checked against its earlier body.

``classify`` sorts the mask support once and runs the Hall matching, the
triangle match, the 2-tree decomposition and the ample search on masks;
``classify_reference.reference_classify`` is the body before that, over the
named public functions.  The canonical JSON of both reports and the order
of their keys must agree on every ``exhaustive_instances`` item for n = 4-6,
on ``random_instances`` at n = 7-16 for seeds 0-2 (each cover and the cord
set less its least cord, which is often no cover), and on chooser and
minimal covers at n = 12-24.  Each input runs at the default caps and at
caps low enough to skip the Hall test, to cap the ample search and to stop
the section enumeration after 0, 1 or 2 sections; the exhaustive items
take those six settings in turn, one each, to keep the n = 6 sweep (59,520
items) to one comparison per item.  Every note and null verdict must show
up somewhere.
"""

from itertools import islice

import pytest
from classify_reference import reference_classify

from tricover import canonical_cover, jsonio, minimalize, seeded_chooser
from tricover.lab import exhaustive_instances, random_binary_tree, random_instances
from tricover.report import classify

SETTINGS = [
    {},
    {"hall_cap": 4},
    {"ample_cap": 5},
    {"limit_sections": 0},
    {"limit_sections": 1},
    # The first section is each vertex's least triple in any vertex order;
    # the second is the first that the order of the vertices decides.
    {"limit_sections": 2},
]


def compare(tree, cover, setting, seen):
    got = classify(tree, cover, **setting)
    want = reference_classify(tree, cover, **setting)
    assert jsonio.dumps_canonical(got) == jsonio.dumps_canonical(want)
    assert list(got) == list(want)
    assert list(got["decomposition"] or ()) == list(want["decomposition"] or ())
    for note in got["notes"]:  # its kind: the text before ":" or " inspected"
        seen.add(note.split(":")[0].split(" inspected")[0])
    seen.update(
        f"{key} null" for key in ("is_minimal", "hall_type", "ample_patchwork")
        if got[key] is None
    )
    seen.add(f"ample {got['ample_patchwork']}")


@pytest.mark.parametrize("n", [4, 5, 6])
def test_agrees_on_every_exhaustive_item(n):
    seen = set()
    for i, (tree, cover, _) in enumerate(exhaustive_instances(n)):
        compare(tree, cover, SETTINGS[i % len(SETTINGS)], seen)
    # No exhaustive item reads ample False, which the test below meets; at
    # n = 4 the Hall setting meets no family over its cap.
    assert {"ample search", "ample True", "ample indeterminate"} <= seen
    assert n == 4 or "hall_type skipped" in seen


def test_agrees_on_random_instances_and_ladder_covers():
    seen = set()
    for seed in range(3):
        for n in range(7, 17):
            for tree, cover, _ in islice(random_instances(n, seed), 4):
                for cords in (cover, cover.without(min(cover.cords))):
                    for setting in SETTINGS:
                        compare(tree, cords, setting, seen)
    for n in (12, 16, 20, 24):
        for seed in range(2):
            tree = random_binary_tree(n, seed)
            chooser = canonical_cover(tree, seeded_chooser(seed))
            for cover in (chooser, minimalize(tree, chooser)):
                for setting in SETTINGS:
                    compare(tree, cover, setting, seen)
    assert seen >= {
        "hall_type skipped",
        "ample_patchwork skipped",
        "ample search",
        "is_minimal null",
        "hall_type null",
        "ample_patchwork null",
        "ample True",
        "ample False",
        "ample indeterminate",
    }
