"""Loader fuzz: random, randomly shaped and mutated cover, distance, witness
and fixture-record JSON.

Each payload either loads or raises a documented error: a ``CoverError``,
``NewickError`` or ``TreeError`` (each a ``ValueError``, exit 1 at the CLI)
with a one-line text of bounded length.  Through ``tricover analyze``,
``reconstruct`` and ``verify-shelling`` a payload that does not load gives
exit 1 and exactly that line on stderr; one that loads gives an exit code
the CLI documents and at most one stderr line.  The distance loader is also
compared with the one it replaced (``distances_reference.py``): the same
value or the same error text, but for the refusals it adds.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distances_reference import distances_from_json as reference_distances
from tricover import (
    PartialDistances,
    canonical_cover,
    cli,
    jsonio,
    minimalize,
    seeded_chooser,
    write_newick,
)
from tricover.covers import _check_taxa
from tricover.errors import CoverError, NewickError, TreeError
from tricover.lab import random_binary_tree
from tricover.report import InstanceRecord, basic_flags
from tricover.shelling import is_shellable

MAX_ERROR = 300  # characters in one error text
LONG = "x" * 500

TREE = random_binary_tree(6, 2)
COVER = minimalize(TREE, canonical_cover(TREE, seeded_chooser(2)))
_, STEPS = is_shellable(TREE, COVER)
BASES = {
    "cover": jsonio.cover_to_json(COVER),
    "dist": jsonio.distances_to_json(PartialDistances.from_tree(TREE, COVER)),
    "witness": jsonio.shelling_to_json(STEPS),
    "record": jsonio.instance_record_to_json(
        InstanceRecord(TREE, COVER, basic_flags(TREE, COVER), {"seed": 2})
    ),
}
LOADERS = {
    "cover": jsonio.load_cover,
    "dist": jsonio.load_distances,
    "witness": jsonio.load_shelling,
    "record": jsonio.load_instance_record,
}

names = st.sampled_from(sorted(TREE.taxa) + ["z", "a b", "", "(", LONG])
values = st.sampled_from(
    ["1", "3/2", "0", "-1", "1/0", "0.5", ".5", "5.", "1e3", " 2", "1_0", "9" * 4301,
     1, 0, -2, 2.5, True, None, [], {}]
)
keys = st.sampled_from(
    ["taxa", "cords", "distances", "steps", "cord", "witness", "quartet",
     "newick", "cover", "provenance", "flags"]
)
scalars = st.none() | st.booleans() | st.integers(-3, 10**30) | names | values
json_values = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(keys | st.text(max_size=4), kids, max_size=4),
    max_leaves=12,
)
taxa = st.sampled_from(sorted(TREE.taxa))
literals = st.integers(1, 99).map(str) | st.sampled_from(["3/2", "0.25", "007", "+4"])
pairs = st.lists(names, min_size=2, max_size=2)


def distinct(entry):
    return entry[0] != entry[1]


shaped_cover = st.fixed_dictionaries(
    {"taxa": st.lists(names, max_size=7), "cords": st.lists(pairs, max_size=8)}
)
SHAPED = {
    "cover": shaped_cover,
    # Mostly well-formed entries on the tree's taxa, so that some files load
    # and the checks of the later entries are reached.
    "dist": st.fixed_dictionaries({
        "taxa": st.just(sorted(TREE.taxa)) | st.lists(names, max_size=7),
        "distances": st.lists(
            st.one_of(
                *[st.tuples(taxa, taxa, literals).filter(distinct).map(list)] * 3,
                st.tuples(names, names, values).map(list),
                st.lists(names | values, max_size=4),
            ),
            max_size=8,
            unique_by=lambda entry: str(sorted(map(str, entry[:2]))),
        ),
    }),
    "witness": st.fixed_dictionaries({
        "steps": st.lists(
            st.fixed_dictionaries(
                {"cord": pairs, "witness": pairs,
                 "quartet": st.lists(pairs, min_size=2, max_size=2)}
            ),
            max_size=3,
        )
    }),
    "record": st.fixed_dictionaries(
        {"newick": st.sampled_from(
            [BASES["record"]["newick"], "(a:1,b:1,c:1);", "(a:1,b:1);", "((a:1"])
         | st.text(max_size=12),
         "cover": shaped_cover | st.just(BASES["cover"])},
        optional={"provenance": st.dictionaries(keys, scalars, max_size=2) | scalars},
    ),
}


def mutate(data, value, root=True):
    """A copy of the JSON value ``value`` with one random edit below its
    root: a node replaced, or an item dropped, repeated or added."""
    if isinstance(value, list):
        children = range(len(value))
    elif isinstance(value, dict):
        children = sorted(value)
    else:
        children = ()
    if children and (root or data.draw(st.booleans())):
        k = data.draw(st.sampled_from(children))
        copy = list(value) if isinstance(value, list) else dict(value)
        copy[k] = mutate(data, value[k], root=False)
        return copy
    ops = ["replace"]
    if children:
        ops += ["drop", "repeat"]
    if isinstance(value, (list, dict)):
        ops.append("add")
    op = data.draw(st.sampled_from(ops))
    if op == "replace":
        return data.draw(json_values)
    if isinstance(value, list):
        copy = list(value)
        k = data.draw(st.integers(0, len(copy)))
        if op == "add":
            copy.insert(k, data.draw(json_values))
        elif op == "drop":
            del copy[min(k, len(copy) - 1)]
        else:
            copy.insert(k, copy[min(k, len(copy) - 1)])
        return copy
    copy = dict(value)
    if op == "add":
        copy[data.draw(keys)] = data.draw(json_values)
    else:  # a repeated key is one key in JSON: drop it either way
        del copy[data.draw(st.sampled_from(children))]
    return copy


def draw_payload(data, kind):
    how = data.draw(st.sampled_from(["mutated", "shaped", "random"] * 2 + ["mutated"]))
    if how == "random":
        return data.draw(json_values)
    if how == "shaped":
        return data.draw(SHAPED[kind])
    value = BASES[kind]
    for _ in range(data.draw(st.integers(1, 3))):
        value = mutate(data, value)
    return value


def load_outcome(kind, path):
    try:
        return "ok", LOADERS[kind](path)
    except (CoverError, NewickError, TreeError) as exc:
        text = str(exc)
        assert "\n" not in text and len(text) < MAX_ERROR, text
        return "error", text


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "tree.nwk").write_text(write_newick(TREE) + "\n")
    jsonio.save_cover(COVER, path / "cover.json")
    return path


# The command that reads each kind of file, and the exit codes it may give
# on a file that loads.
COMMANDS = {
    "cover": (["analyze", "--tree", "{dir}/tree.nwk", "--cover", "{file}"], {0, 1, 2}),
    "dist": (["reconstruct", "--cover", "{dir}/cover.json", "--dist", "{file}",
              "--out", "{dir}/out.nwk"], {0, 1, 3}),
    "witness": (["verify-shelling", "--tree", "{dir}/tree.nwk", "--cover",
                 "{dir}/cover.json", "--witness", "{file}"], {0, 2}),
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_each_file_loads_or_is_refused_in_one_line(workdir, kind, data):
    payload = draw_payload(data, kind)
    path = workdir / f"fuzzed-{kind}.json"
    path.write_text(json.dumps(payload))
    loaded, text = load_outcome(kind, path)
    if kind not in COMMANDS:
        return
    argv, codes = COMMANDS[kind]
    code, err = run_cli([a.format(dir=workdir, file=path) for a in argv])
    if loaded == "error":
        assert (code, err) == (1, f"error: {text}\n")
    else:
        assert code in codes
        assert err.count("\n") <= 1 and len(err) < MAX_ERROR + 40, err


def new_refusal(payload):
    """The refusal the one-pass loader adds for this payload's taxa, if any:
    repeated taxa, fewer than 3, or a bad label."""
    if not (
        isinstance(payload, dict)
        and isinstance(payload.get("distances"), list)
        and isinstance(payload.get("taxa"), list)
        and all(isinstance(t, str) for t in payload["taxa"])
    ):
        return None
    taxa = payload["taxa"]
    if len(set(taxa)) != len(taxa):
        return "duplicate taxa in distance file"
    try:
        _check_taxa(frozenset(taxa))
    except CoverError as exc:
        return str(exc)
    return None


def outcome(load, payload):
    try:
        return "ok", load(payload)
    except CoverError as exc:
        return "error", str(exc)


def ours(payload):
    dist = jsonio.distances_from_json(payload)
    assert all(type(v) is Fraction for v in dist.values.values())
    return dist.taxa, dist.values


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_distance_loader_matches_the_loader_it_replaced(data):
    payload = draw_payload(data, "dist")
    got, expected = outcome(ours, payload), outcome(reference_distances, payload)
    refusal = new_refusal(payload)
    if refusal is None:
        assert got == expected
    elif refusal.startswith("duplicate taxa"):
        assert got == ("error", refusal)
    else:  # after the entry shapes, before their values
        assert got in (expected, ("error", refusal)) and got[0] == "error"


@pytest.mark.parametrize(
    "taxa, refusal",
    [(["a", "a", "b", "c"], "duplicate taxa in distance file"),
     (["a b", "c", "d"], "bad taxon label 'a b'"),
     (["a", "b"], "need at least 3 taxa, got 2")],
)
def test_distance_files_refuse_what_cover_files_refuse(workdir, taxa, refusal):
    # The loader it replaced took each of these files.
    payload = {"taxa": taxa, "distances": [[*taxa[-2:], "1"]]}
    assert reference_distances(payload)[0] == frozenset(taxa)
    with pytest.raises(CoverError, match=f"^{refusal}$"):
        jsonio.distances_from_json(payload)
    cover = {"taxa": taxa, "cords": [taxa[-2:]]}
    with pytest.raises(CoverError, match=f"^{refusal.replace('distance', 'cover')}$"):
        jsonio.cover_from_json(cover)
    path = workdir / "refused.json"
    path.write_text(json.dumps(payload))
    code, err = run_cli(["reconstruct", "--cover", str(workdir / "cover.json"),
                         "--dist", str(path), "--out", str(workdir / "out.nwk")])
    assert (code, err) == (1, f"error: {refusal}\n")
