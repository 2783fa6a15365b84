"""Command-line driver: symmetrize / hierarchy / stats subcommands.

Results go to standard output (or ``-o``); summary statistics go to standard
error so stdout stays pipe-clean TSV.  Exit codes: 0 success, 1 validation
error, 2 I/O error, 3 parse error.
"""
from __future__ import annotations

import argparse
import codecs
import io
import math
import os
import sys
import time
import warnings
from collections import Counter

import numpy as np

from .closure import _check_depth, local_closure
from .graph import (DirectedGraph, ParseError, ValidationError, load_edge_list,
                    write_undirected)
from .hierarchy import auto_hierarchy, load_hierarchy
from .similarity import SymmetrizationConfig, symmetrize


class _Parser(argparse.ArgumentParser):
    # Map argparse usage errors onto the validation exit code.
    def error(self, message):
        raise ValidationError(message)


def _parse_depth(text: str):
    if text.lower() in ("inf", "infinity"):
        return math.inf
    try:
        val = int(text)
    except ValueError:
        raise ValidationError(f"invalid depth {text!r}") from None
    _check_depth(val)
    return val


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="reachsym",
                description="Symmetrize a directed graph into a weighted "
                            "undirected graph via bounded reachability.")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def add_io(sp_, output=True):
        sp_.add_argument("-i", "--input", required=True, help="input edge-list TSV")
        if output:
            sp_.add_argument("-o", "--output", default=None,
                             help="output path (default: stdout)")

    s = sub.add_parser("symmetrize", help="compute the undirected similarity graph")
    add_io(s)
    s.add_argument("--method", default="reach",
                   choices=["reach", "degree-discounted", "bibliometric"])
    s.add_argument("--l", default=None, metavar="DEPTH",
                   help="reach depth bound: integer ≥ 1 or 'inf' (default 2)")
    s.add_argument("--alpha", type=float, default=0.5)
    s.add_argument("--beta", type=float, default=0.5)
    s.add_argument("--gamma", type=float, default=None,
                   help="pair-level hierarchy exponent (default 1)")
    s.add_argument("--delta", type=float, default=None,
                   help="common-neighbor hierarchy exponent (default 1)")
    s.add_argument("--hierarchy", default="none", metavar="none|auto|file:PATH")
    s.add_argument("--epsilon", type=float, default=0.0,
                   help="drop pair weights ≤ epsilon")
    s.add_argument("--top-t", type=int, default=None,
                   help="keep only each node's top-t edges (union semantics)")
    s.add_argument("--hub-cap", type=int, default=None,
                   help="reach only: skip common neighbors above this "
                        "closure degree")
    s.add_argument("--weighted", action="store_true",
                   help="input has a third weight column")
    s.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    s.add_argument("--precision", type=int, default=6,
                   choices=range(18), metavar="0..17")

    h = sub.add_parser("hierarchy", help="emit auto-computed hierarchy scores")
    add_io(h)
    h.add_argument("--precision", type=int, default=6,
                   choices=range(18), metavar="0..17")

    t = sub.add_parser("stats", help="print node/edge counts and degree histograms")
    add_io(t, output=False)
    t.add_argument("--l", default=None, metavar="DEPTH",
                   help="also print closure-degree histograms at this depth")
    return p


def _parse_file(path: str, parse, *args, **kwargs):
    """``parse(stream, *args, **kwargs)`` over a UTF-8 text file; a line that
    is not UTF-8 is a parse error."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return parse(f, *args, **kwargs)
    except UnicodeDecodeError:
        with open(path, "rb") as f:
            for line_no, raw in enumerate(f, 1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError:
                    raise ParseError(f"invalid UTF-8 in {path}", line_no) from None
        raise


def _load_graph(args) -> DirectedGraph:
    return _parse_file(args.input, load_edge_list,
                       weighted=getattr(args, "weighted", False))


def _resolve_hierarchy(args, g):
    choice = args.hierarchy
    if choice == "none":
        return None
    if choice == "auto":
        return auto_hierarchy(g)
    if choice.startswith("file:"):
        return _parse_file(choice[len("file:"):], load_hierarchy, g)
    raise ValidationError(f"invalid --hierarchy value {choice!r}")


def run_symmetrize(args) -> int:
    t0 = time.perf_counter()
    if args.l is not None and args.method != "reach":
        raise ValidationError("--l only applies to --method reach")
    if args.weighted and args.method != "degree-discounted":
        raise ValidationError("--weighted only applies to --method degree-discounted")
    if args.hierarchy == "none" and (args.gamma is not None or args.delta is not None):
        raise ValidationError("--gamma/--delta require --hierarchy auto or file:PATH")
    l = _parse_depth(args.l) if args.l is not None else 2
    g = _load_graph(args)
    scores = _resolve_hierarchy(args, g)
    cfg = SymmetrizationConfig(
        method=args.method, l=l, alpha=args.alpha, beta=args.beta,
        gamma=args.gamma if args.gamma is not None else 1.0,
        delta=args.delta if args.delta is not None else 1.0,
        epsilon=args.epsilon, top_t=args.top_t, hub_cap=args.hub_cap)
    if args.threads < 1:
        raise ValidationError("threads must be ≥ 1")
    result = symmetrize(g, cfg, scores)
    _emit(args, lambda f: write_undirected(result, g.labels, f,
                                           precision=args.precision))
    print(f"nodes={g.n} edges={g.edge_count} "
          f"undirected_edges={len(result)} "
          f"self_loops_dropped={g.self_loops_dropped} "
          f"seconds={time.perf_counter() - t0:.2f}", file=sys.stderr)
    return 0


def run_hierarchy(args) -> int:
    g = _load_graph(args)
    scores = auto_hierarchy(g)
    fmt = f"%.{args.precision}f"
    _emit(args, lambda f: f.writelines(
        f"{lab}\t{fmt % s}\n" for lab, s in zip(g.labels, scores.score.tolist())))
    return 0


def run_stats(args) -> int:
    l = _parse_depth(args.l) if args.l is not None else None
    g = _load_graph(args)
    out = sys.stdout
    out.write(f"nodes\t{g.n}\n")
    out.write(f"edges\t{g.edge_count}\n")
    out.write(f"self_loops_dropped\t{g.self_loops_dropped}\n")

    def hist(name, degrees):
        for d, c in sorted(Counter(degrees.tolist()).items()):
            out.write(f"{name}\t{d}\t{c}\n")

    hist("out_degree", np.diff(g.adj.indptr))
    hist("in_degree", np.bincount(g.adj.indices, minlength=g.n))
    if l is not None:
        c = local_closure(g, l)
        hist("closure_out_degree", c.d_out_plus)
        hist("closure_in_degree", c.d_in_plus)
    return 0


def _emit(args, write_fn) -> None:
    """``write_fn(stream)`` to stdout or to ``-o``.  A regular ``-o`` file is
    replaced only once the write succeeds, so a failed run leaves it as it
    was; anything else (``/dev/null``, a FIFO) is written in place."""
    path = getattr(args, "output", None)
    if not path:
        out = sys.stdout
        if (getattr(out, "buffer", None) is None
                or codecs.lookup(out.encoding).name == "utf-8"):
            return write_fn(out)
        # The same UTF-8 bytes as -o, also when main() runs in a process
        # whose stdout encoding is not UTF-8.
        out.flush()
        f = io.TextIOWrapper(out.buffer, encoding="utf-8")
        try:
            return write_fn(f)
        finally:
            f.detach()  # flushes f and leaves sys.stdout's buffer open
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as f:
            return write_fn(f)
    target = os.path.realpath(path)  # replace a symlink's target, not the link
    tmp = f"{target}.{os.urandom(4).hex()}.tmp"
    try:
        f = open(tmp, "x", encoding="utf-8")  # mode 0o666 & ~umask, as "w" gives
    except OSError as e:
        e.filename = path
        raise
    try:
        with f:
            write_fn(f)
        if os.path.exists(target):
            os.chmod(tmp, os.stat(target).st_mode & 0o7777)  # as "w" keeps it
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise


def main(argv=None) -> int:
    # A warning prints as one line; filters and recorders still apply.
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        args = build_parser().parse_args(argv)
        runner = {"symmetrize": run_symmetrize,
                  "hierarchy": run_hierarchy,
                  "stats": run_stats}[args.subcommand]
        return runner(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = formatwarning


def entrypoint() -> None:
    # Stdout carries the same UTF-8 bytes as -o, whatever the locale says.
    sys.stdout.reconfigure(encoding="utf-8")
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
