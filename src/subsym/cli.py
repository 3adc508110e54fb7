"""Command-line front end: build graphs, transform them, analyze symmetry,
and run the verification corpus.

Every command prints its effective configuration up front; rerunning with the
same configuration reproduces report files byte for byte, since they carry
no timings.
"""

from __future__ import annotations

import argparse
import os
import sys

from .autgrp import automorphism_group, subdivision_automorphism_group
from .formats import (
    FormatError,
    read_generators,
    read_graph,
    read_graph_with_parts,
    subdivision_from_parts,
    write_graph,
    write_json_lines,
    write_subdivision,
)
from .graphs import (
    GraphError,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_hoffman_singleton,
    make_petersen,
)
from .groups import induced_subdivision_action
from .symmetry import transitivity_reports
from .theorems import REFUTED, CorpusConfig, run_corpus, summarize
from .transforms import distance_two_graph, line_graph, reconstruct_from_ambient, subdivide

# family -> (names of its integer parameters, builder)
BUILDERS = {
    "complete": (("N",), make_complete),
    "complete-bipartite": (("M", "N"), make_complete_bipartite),
    "cycle": (("N",), make_cycle),
    "petersen": ((), make_petersen),
    "hoffman-singleton": ((), make_hoffman_singleton),
}
# --property -> (kind name, local) for transitivity_reports
PROPERTIES = {
    "arc": ("s-arc", False),
    "local-arc": ("s-arc", True),
    "distance": ("s-distance", False),
    "local-distance": ("s-distance", True),
}


def _effective(args: argparse.Namespace, keys: list[str]) -> str:
    parts = [f"command={args.command}"]
    for k in keys:
        parts.append(f"{k}={getattr(args, k.replace('-', '_'))}")
    return "# effective-config: " + " ".join(parts)


def _parse_s_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        bounds = int(lo), int(hi if sep else lo)
    except ValueError:
        raise GraphError(f"--s {text!r}: expected N or A..B with integers") from None
    if not 1 <= bounds[0] <= bounds[1]:
        raise GraphError(f"--s {text!r}: need 1 <= A <= B")
    return bounds


def cmd_build(args: argparse.Namespace) -> int:
    print(_effective(args, ["family", "params", "out"]))
    names, make = BUILDERS[args.family]
    try:
        params = [int(x) for x in args.params]
    except ValueError:
        params = None
    if params is None or len(params) != len(names):
        raise GraphError(" ".join(["usage: build", args.family, *names]))
    g = make(*params)
    write_graph(args.out, g)
    print(f"wrote {args.out}: n={g.n} m={g.m}")
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    print(_effective(args, ["op", "infile", "out"]))
    g = read_graph(args.infile)
    if args.op == "subdivide":
        sg = subdivide(g)
        write_subdivision(args.out, sg)
        print(f"wrote {args.out}: n={sg.graph.n} m={sg.graph.m}")
    elif args.op == "line":
        lg = line_graph(g)
        write_graph(args.out, lg)
        print(f"wrote {args.out}: n={lg.n} m={lg.m}")
    elif args.op == "dist2":
        comps = distance_two_graph(g)
        base, ext = os.path.splitext(args.out)
        for i, comp in enumerate(comps):
            path = f"{base}-c{i}{ext}"
            write_graph(path, comp.graph)
            print(f"wrote {path}: n={comp.graph.n} m={comp.graph.m}")
    elif args.op == "reconstruct":
        rg = reconstruct_from_ambient(g)
        write_graph(args.out, rg)
        print(f"wrote {args.out}: n={rg.n} m={rg.m}")
    else:
        raise GraphError(f"unknown transform {args.op!r}")
    return 0


def _load_group(source: str, g):
    if source != "aut":
        return read_generators(source)
    lifted = subdivision_automorphism_group(g)
    if lifted is None:
        return automorphism_group(g)
    G, base = lifted
    print(f"# automorphism group from the base graph on {base.n} vertices, order {G.order()}")
    return G


def cmd_analyze(args: argparse.Namespace) -> int:
    print(_effective(args, ["graph", "group", "property", "s", "out"]))
    lo, hi = _parse_s_range(args.s)
    # the parts line serves a base-graph group below, so parse the file once
    g, n_base = read_graph_with_parts(args.graph)
    # reject an empty or disconnected graph (diameter() does), and s beyond
    # the diameter, before the aut search
    d = g.diameter()
    if args.property in ("distance", "local-distance") and hi > d:
        raise GraphError(f"s range {lo}..{hi} exceeds diameter {d}")
    G = _load_group(args.group, g)
    if G.degree != g.n:
        # a base-graph group against a subdivision file: induce the action
        if G.degree != n_base:
            raise GraphError(
                f"group degree {G.degree} matches neither the graph ({g.n}) nor its base "
                + ("(no parts line)" if n_base is None else f"({n_base})")
            )
        sg = subdivision_from_parts(args.graph, g, n_base)
        G = induced_subdivision_action(G, sg)
        print(f"# induced the degree-{sg.base.n} group on the subdivision vertices")
    name, local = PROPERTIES[args.property]
    reports = transitivity_reports(g, G, name, local, range(lo, hi + 1))
    for rep in reports:
        print(f"s={rep.kind.s}: {'true' if rep.verdict else 'false'}")
    if args.out:
        write_json_lines(args.out, [r.to_json_dict() for r in reports])
        print(f"wrote {args.out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = CorpusConfig.from_file(args.config) if args.config else CorpusConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.heavy and "hoffman-singleton" not in cfg.sections:
        cfg.sections += ("hoffman-singleton",)
    if args.budget is not None:
        cfg.budget_seconds = args.budget
        cfg.check("--budget")  # the file's values are checked already
    print(f"# effective-config: command=verify {cfg}")
    outcomes = run_corpus(cfg)
    counts = summarize(outcomes)
    for oc in outcomes:
        if oc.status == REFUTED:
            print(f"REFUTED {oc.name} [{oc.instance}] {oc.details}")
    print(
        f"checks: {len(outcomes)}  confirmed: {counts['confirmed']}  "
        f"refuted: {counts['refuted']}  skipped: {counts['skipped']}"
    )
    if args.out:
        write_json_lines(args.out, [oc.to_json_dict() for oc in outcomes])
        print(f"wrote {args.out}")
    return 0 if counts[REFUTED] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subsym",
        description="Subdivision graphs, permutation groups, and transitivity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="write a named graph as an edge-list file")
    p_build.add_argument("family", choices=BUILDERS)
    p_build.add_argument("params", nargs="*", help="family parameters (e.g. n)")
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(fn=cmd_build)

    p_tr = sub.add_parser("transform", help="subdivide/line/dist2/reconstruct a graph file")
    p_tr.add_argument("op", choices=("subdivide", "line", "dist2", "reconstruct"))
    p_tr.add_argument("--in", dest="infile", required=True)
    p_tr.add_argument("--out", required=True)
    p_tr.set_defaults(fn=cmd_transform)

    p_an = sub.add_parser("analyze", help="evaluate a transitivity property over an s range")
    p_an.add_argument("--graph", required=True)
    p_an.add_argument("--group", required=True, help="generator file, or 'aut'")
    p_an.add_argument("--property", required=True, choices=PROPERTIES)
    p_an.add_argument("--s", required=True, help="single value or range A..B")
    p_an.add_argument("--out")
    p_an.set_defaults(fn=cmd_analyze)

    p_ver = sub.add_parser("verify", help="run the verification corpus")
    p_ver.add_argument("--config", help="key = value config file")
    p_ver.add_argument("--seed", type=int)
    p_ver.add_argument("--heavy", action="store_true", help="add the hoffman-singleton section")
    p_ver.add_argument("--budget", type=float, help="wall-clock budget in seconds")
    p_ver.add_argument("--out")
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GraphError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
