"""Command-line front-end: coarsen, encode, gdwl, demo, named-graph.

Exit codes: 0 success / affirmative verdict, 1 negative verdict, 2 I/O or
parse error, 3 invalid configuration, 130 interrupted (Ctrl-C). Commands
raise and ``main`` alone maps error types to codes: ``GraphParseError`` (an
input file's errors) and ``OSError`` 2, ``GraphValidationError`` 3.
Diagnostics go to stderr; payloads to files or stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import coarsen, demo, distance, graph, refine

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_IO = 2
EXIT_CONFIG = 3
EXIT_INTERRUPTED = 130  # the shell's code for SIGINT


def _load(path: str, parse):
    """``parse`` applied to the bytes of ``path``; any error in the file exits 2."""
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise OSError(f"cannot read {path}: {e}") from e
    try:
        return parse(data)
    except (graph.GraphParseError, graph.GraphValidationError) as e:
        raise graph.GraphParseError(f"{path}: {e}") from e


def _load_graph(path: str) -> graph.Graph:
    return _load(path, graph.load_json_graph if path.endswith(".json")
                 else graph.load_edge_list)


def _write_output(payload, out_path: str | None, binary: bool = False) -> None:
    """Write the payload to ``out_path``, or else to stdout in full.

    Stdout gets bytes in a loop until all are written: with
    ``PYTHONUNBUFFERED=1`` its binary layer is the raw file, whose ``write``
    may take only part of a payload.
    """
    try:
        if out_path:
            with open(out_path, "wb" if binary else "w") as f:
                f.write(payload)
        else:
            sys.stdout.flush()
            out = sys.stdout.buffer
            data = memoryview(payload if binary
                              else payload.encode(sys.stdout.encoding))
            while data:
                data = data[out.write(data) or 0:]
            out.flush()
    except OSError as e:
        if not out_path:
            # the interpreter flushes stdout again at exit; the bytes left
            # in its buffer go to os.devnull so that retry cannot fail too
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise OSError(f"cannot write {out_path or 'stdout'}: {e}") from e


def cmd_coarsen(args) -> int:
    g = _load_graph(args.graph)
    h = coarsen.build_hierarchy(g, args.algo, args.levels,
                                ratio=args.ratio, seed=args.seed)
    _write_output(coarsen.hierarchy_to_json(h) + "\n", args.output)
    for k, lvl in enumerate(h.levels):
        ratio = "" if k == 0 else f" ratio={h.coarsening_ratios[k - 1]:.4f}"
        print(f"level {k}: {lvl.num_nodes} nodes, {lvl.num_edges} edges{ratio}",
              file=sys.stderr)
    return EXIT_OK


def cmd_encode(args) -> int:
    h = _load(args.hierarchy, coarsen.hierarchy_from_json)
    levels = h.max_level + 1 - args.base_level
    if args.format == "bin" and levels > 255:  # refused before encoding
        raise graph.GraphValidationError(
            f"{levels} levels: the binary tensor format holds at most 255; "
            "use --format json")
    t = (distance.high_level_hdse(h, args.base_level, clip=args.clip)
         if args.base_level else distance.hdse(h, clip=args.clip))
    entries, clip = t.entries, t.clip
    if args.format == "json":
        _write_output(distance.tensor_to_json(entries, clip) + "\n", args.output)
    else:
        _write_output(distance.write_tensor(entries, clip), args.output,
                      binary=True)
    print(f"tensor dims {entries.shape[0]} x {entries.shape[1]} "
          f"x {entries.shape[2]}, clip {clip}", file=sys.stderr)
    return EXIT_OK


def _make_encoding(args) -> refine.Encoding:
    if args.enc == "spd":
        return refine.SpdEncoding()
    return refine.HdseEncoding(levels=args.levels, algo=args.algo,
                               clip=args.clip, seed=args.seed)


def cmd_gdwl(args) -> int:
    g1 = _load_graph(args.graph1)
    g2 = _load_graph(args.graph2)
    enc = _make_encoding(args)
    cm1, cm2 = refine.refine_pair(g1, g2, enc)
    distinguished = cm1.histogram() != cm2.histogram()
    stable = None
    if distinguished and args.enc == "hdse":
        # stability across coarsening seeds: args.seed's verdict is the one
        # just computed, and an algorithm ignoring the seed repeats it
        stable = 1 + (2 if args.algo not in coarsen.SEEDED else sum(
            refine.distinguishes(g1, g2, replace(enc, seed=s))
            for s in range(args.seed + 1, args.seed + 3)))
    verdict = {
        "distinguished": distinguished,
        "iterations": len(cm1.colors) - 1,
        "histogram_g1": sorted(cm1.histogram().values(), reverse=True),
        "histogram_g2": sorted(cm2.histogram().values(), reverse=True),
    }
    _write_output(json.dumps(verdict, sort_keys=True) + "\n", args.output)
    if stable is not None:
        print(f"distinguished under {stable}/3 coarsening seeds",
              file=sys.stderr)
    return EXIT_OK if distinguished else EXIT_NEGATIVE


def cmd_demo(args) -> int:
    seeds = range(args.seed, args.seed + args.seeds)
    results, means = demo.run_all_encodings(
        seeds, demo.DemoConfig(epochs=args.epochs, lr=args.lr))
    _write_output(demo.metrics_to_csv(results, means), args.output)
    for enc, runs in results.items():
        for r in runs:
            print(f"{enc:<5} seed={r.seed} train={r.train_accuracy:.3f} "
                  f"val={r.val_accuracy:.3f} test={r.test_accuracy:.3f} "
                  f"best_epoch={r.best_epoch}", file=sys.stderr)
    order = " > " if means["hdse"] > means["none"] else " <= "
    print(f"verdict: hdse {means['hdse']:.4f}{order}none {means['none']:.4f}; "
          f"spd {means['spd']:.4f}", file=sys.stderr)
    return EXIT_OK


def cmd_named_graph(args) -> int:
    g = refine.make_named_graph(args.name)
    _write_output(graph.write_edge_list(g), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdse",
        description="Hierarchy distance encodings over coarsened graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coarsen", help="build and save a coarsening hierarchy")
    p.add_argument("graph")
    p.add_argument("--algo", choices=list(coarsen.ALGOS), default="louvain")
    p.add_argument("--levels", "-K", type=int, default=1)
    p.add_argument("--ratio", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_coarsen)

    p = sub.add_parser("encode", help="compute the distance tensor of a hierarchy")
    p.add_argument("hierarchy")
    p.add_argument("--clip", "-L", type=int, default=30)
    p.add_argument("--base-level", type=int, default=0,
                   help="emit node-to-cluster distances from this level up")
    p.add_argument("--format", choices=["bin", "json"], default="bin")
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("gdwl", help="distance-based color-refinement comparison")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--enc", choices=["spd", "hdse"], default="spd")
    p.add_argument("--algo", choices=list(coarsen.ALGOS), default="newman")
    p.add_argument("--levels", "-K", type=int, default=1)
    p.add_argument("--clip", "-L", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_gdwl)

    p = sub.add_parser("demo", help="community node-classification comparison")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=demo.DemoConfig.epochs)
    p.add_argument("--lr", type=float, default=demo.DemoConfig.lr)
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("named-graph", help="emit a generator graph as edge list")
    p.add_argument("name", help="e.g. dodecahedron, cycle(6), barbell(5), "
                   "community_pair(15,0.3,0.05,0)")
    p.add_argument("--output", "-o")
    p.set_defaults(func=cmd_named_graph)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # refuse an -o path that cannot be created before doing the work
        # (a demo run trains for seconds); _write_output checks again
        if args.output:
            out = Path(args.output)
            if out.is_dir():
                raise OSError(f"cannot write {args.output}: is a directory")
            if not out.parent.is_dir():
                raise OSError(f"cannot write {args.output}: "
                              f"no directory {out.parent}")
        return args.func(args)
    except graph.GraphValidationError as e:
        # _load re-raises an input file's as GraphParseError, so a setting's
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (graph.GraphParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as e:
        # an input past graph.MAX_PAIRS, refused before allocating, or one
        # too large for this machine's memory
        print(f"error: input too large: {e or 'out of memory'}",
              file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
