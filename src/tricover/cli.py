"""Command-line front end.

Exit codes: 0 success; 1 I/O or file-format error; 2 a usage error (argparse
refuses a negative count, cap, budget or seed, a taxon count below 3, and
``--n-min`` above ``--n-max``),
non-cover input (``analyze``, ``decompose``, ``shell``; the message names an
unsupported vertex) or failed witness verification (``verify-shelling``); 3
unrealizable distances (``reconstruct``).  Identical inputs and flags yield
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from . import covers, jsonio, lab, report, shelling
from .covergraph import decomposition_from_section, is_strict, verify_counting
from .covers import (
    _cover_masks,
    _is_minimal,
    _ordered_masks,
    _triple_name,
    canonical_cover,
    seeded_chooser,
)
from .errors import (
    CapacityError,
    CoverError,
    NewickError,
    NotRealizableError,
    NotTripletCoverError,
    SectionError,
    TreeError,
    WitnessError,
)
from .newick import parse_newick, write_newick
from .reconstruct import PartialDistances, reconstruct
from .shelling import _closure, _reaches_every_pair, verify_shelling

_FORMAT_ERRORS = (NewickError, TreeError, CoverError, OSError, ValueError)


def _load_tree(path: str):
    return parse_newick(Path(path).read_text(encoding="utf-8").strip())


def _emit(payload: dict, json_path: str | None) -> None:
    text = jsonio.dumps_canonical(payload)
    if json_path:
        Path(json_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_analyze(args) -> int:
    tree = _load_tree(args.tree)
    cover = jsonio.load_cover(args.cover)
    result = report.classify(
        tree,
        cover,
        limit_sections=args.limit_sections,
        ample_cap=args.ample_cap,
        hall_cap=args.hall_cap,
    )
    _emit(result, args.json)
    if not result["is_cover"]:
        print(
            "not a triplet cover: interior vertex "
            f"{tuple(result['unsupported_vertex'])} is unsupported",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_reconstruct(args) -> int:
    cover = jsonio.load_cover(args.cover)
    dist = jsonio.load_distances(args.dist)
    try:
        result = reconstruct(cover, dist)
    except NotRealizableError as exc:
        print(f"not realizable over this cover ({exc})", file=sys.stderr)
        return 3
    Path(args.out).write_text(write_newick(result.tree) + "\n", encoding="utf-8")
    return 0


def _cmd_decompose(args) -> int:
    tree = _load_tree(args.tree)
    cover = jsonio.load_cover(args.cover)
    support = _cover_masks(tree, cover, "decompose")
    # The first section, as classify takes it: each vertex's least triple.
    section = sorted(
        _triple_name(cover._taxa, found[0]) for found in _ordered_masks(support)
    )
    decomposition = decomposition_from_section(section)
    payload = jsonio.decomposition_to_json(
        decomposition,
        strict=is_strict(cover, decomposition),
        counting=verify_counting(decomposition),
    )
    payload["section"] = [list(t) for t in section]
    payload["applies_to_minimal_cover"] = _is_minimal(support, cover)
    _emit(payload, args.json)
    return 0


def _cmd_shell(args) -> int:
    tree = _load_tree(args.tree)
    cover = jsonio.load_cover(args.cover)
    _cover_masks(tree, cover, "shell")
    _, steps = _closure(tree, cover)
    payload = jsonio.shelling_to_json(steps)
    payload["shellable"] = _reaches_every_pair(cover, len(steps))
    if not payload["shellable"]:
        payload["stalled_after"] = len(steps)
    _emit(payload, args.json)
    return 0


def _cmd_verify_shelling(args) -> int:
    tree = _load_tree(args.tree)
    cover = jsonio.load_cover(args.cover)
    steps = jsonio.load_shelling(args.witness)
    try:
        verify_shelling(tree, cover, steps)
    except (WitnessError, NotTripletCoverError) as exc:
        print(f"witness rejected: {exc}", file=sys.stderr)
        return 2
    print(f"witness valid: {len(steps)} steps")
    return 0


def _cmd_generate(args) -> int:
    tree = lab.random_binary_tree(args.n, args.seed)
    if args.cover_policy == "least":
        cover = canonical_cover(tree)
    else:
        cover = canonical_cover(tree, seeded_chooser(args.seed))
    dist = PartialDistances.from_tree(tree, cover)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "tree.nwk").write_text(write_newick(tree) + "\n", encoding="utf-8")
    jsonio.save_cover(cover, out / "cover.json")
    jsonio.save_distances(dist, out / "dist.json")
    print(f"wrote tree.nwk, cover.json, dist.json to {out}")
    return 0


def _cmd_fixtures(args) -> int:
    predicate = lab.FIXTURE_PREDICATES[args.target]
    ns = range(args.n_min, args.n_max + 1)
    record = lab.search_fixture(predicate, ns, budget=args.budget, seed=args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "target": args.target,
        "budget": args.budget,
        "seed": args.seed,
        "n_range": [args.n_min, args.n_max],
        "found": record is not None,
    }
    if record is not None:
        n = len(record.cover.taxa)
        seed_part = record.provenance.get("seed", record.provenance.get("topology", 0))
        dest = out / args.target / str(n)
        dest.mkdir(parents=True, exist_ok=True)
        path = dest / f"{seed_part}-{record.provenance.get('index', record.provenance.get('assignment', 0))}.json"
        jsonio.save_instance_record(record, path)
        summary["record"] = str(path)
        summary["flags"] = record.flags
    jsonio.write_json(summary, out / f"{args.target}-summary.json")
    print(f"{args.target}: {'found' if record else 'not found'} (budget {args.budget})")
    return 0


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _count(text: str) -> int:
    """An option value that counts something, or a seed: a non-negative
    integer.  ``random.Random`` seeds with a seed's absolute value, so a
    negative seed would repeat the instances of its positive twin."""
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _taxon_count(text: str) -> int:
    """An option value that counts taxa: an integer of at least 3."""
    value = _integer(text)
    if value < 3:
        raise argparse.ArgumentTypeError(f"need at least 3 taxa, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricover",
        description="Triplet covers of binary phylogenetic trees: "
        "classification, reconstruction, decompositions, shellability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a cover")
    p.add_argument(
        "--limit-sections",
        type=_count,
        default=shelling.SECTION_ENUM_LIMIT,
        help="section enumeration ceiling (default %(default)s)",
    )
    p.add_argument(
        "--ample-cap",
        type=_count,
        default=shelling.AMPLE_TRIPLE_CAP,
        help="ample-patchwork triple ceiling (default %(default)s)",
    )
    p.add_argument(
        "--hall-cap",
        type=_count,
        default=covers.HALL_SUBSET_CAP,
        help="largest triple family the Hall-type test takes (default %(default)s)",
    )
    p.add_argument("--tree", required=True, help="Newick file")
    p.add_argument("--cover", required=True, help="cover JSON file")
    p.add_argument("--json", help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("reconstruct", help="rebuild a tree from cover distances")
    p.add_argument("--cover", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--out", required=True, help="output Newick file")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("decompose", help="2-tree decomposition of the cover graph")
    p.add_argument("--tree", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--json")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("shell", help="run the cord closure / find a shelling")
    p.add_argument("--tree", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--json")
    p.set_defaults(func=_cmd_shell)

    p = sub.add_parser("verify-shelling", help="independently check a witness")
    p.add_argument("--tree", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--witness", required=True)
    p.set_defaults(func=_cmd_verify_shelling)

    p = sub.add_parser("generate", help="emit a seeded tree + cover + distances")
    p.add_argument("--n", type=_taxon_count, required=True)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument(
        "--cover-policy", choices=["least", "random"], default="least"
    )
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("fixtures", help="search for captioned-property fixtures")
    p.add_argument("--target", choices=sorted(lab.FIXTURE_PREDICATES), required=True)
    p.add_argument("--n-min", type=_taxon_count, default=5)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--budget", type=_count, default=2000)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_fixtures)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves a parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "fixtures" and args.n_min > args.n_max:
        parser.error(f"fixtures: --n-min {args.n_min} is above --n-max {args.n_max}")
    try:
        return args.func(args)
    except (NotTripletCoverError, SectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _FORMAT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
