"""Command-line driver: symmetrize / hierarchy / stats subcommands.

Results go to standard output as UTF-8 bytes (or to ``-o``); summary
statistics go to standard error so stdout stays pipe-clean TSV.  Exit codes:
0 success, 1 validation error or memory exhausted, 2 I/O error, 3 parse error.
"""
from __future__ import annotations

import argparse
import io
import math
import os
import sys
import time
import warnings
from collections import Counter
from dataclasses import fields

import numpy as np

from .closure import _check_depth, local_closure
from .graph import (DirectedGraph, ParseError, ValidationError, load_edge_list,
                    write_undirected)
from .hierarchy import auto_hierarchy, load_hierarchy
from .similarity import METHODS, SymmetrizationConfig, symmetrize


class _Parser(argparse.ArgumentParser):
    # Map argparse usage errors onto the validation exit code.
    def error(self, message):
        raise ValidationError(message)

    def print_help(self):  # UTF-8 bytes, like every output, in any locale
        _emit(None, lambda f: f.write(self.format_help().encode()))


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
    # A config flag that is not given is None: the config's default applies.
    default = SymmetrizationConfig
    s.add_argument("--method", choices=METHODS)
    s.add_argument("--l", metavar="DEPTH", help="reach depth bound: integer ≥ 1 "
                   f"or 'inf' (default {default.l})")
    s.add_argument("--alpha", type=float)
    s.add_argument("--beta", type=float)
    s.add_argument("--gamma", type=float, help="pair-level hierarchy exponent "
                   f"(default {default.gamma})")
    s.add_argument("--delta", type=float, help="common-neighbor hierarchy "
                   f"exponent (default {default.delta})")
    s.add_argument("--hierarchy", default="none", metavar="none|auto|file:PATH")
    s.add_argument("--epsilon", type=float, help="drop pair weights ≤ epsilon")
    s.add_argument("--top-t", type=int,
                   help="keep only each node's top-t edges (union semantics)")
    s.add_argument("--hub-cap", type=int,
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


def _load_graph(args) -> DirectedGraph:
    with open(args.input, "rb") as f:
        return load_edge_list(f, weighted=getattr(args, "weighted", False))


def run_symmetrize(args) -> int:
    t0 = time.perf_counter()
    # Every flag is checked before the input is read.
    given = {f.name: getattr(args, f.name) for f in fields(SymmetrizationConfig)}
    depth = given.pop("l")
    cfg = SymmetrizationConfig(**{k: v for k, v in given.items() if v is not None})
    if depth is not None:
        if cfg.method != "reach":
            raise ValidationError("--l only applies to --method reach")
        cfg.l = _parse_depth(depth)
    if args.weighted and cfg.method != "degree-discounted":
        raise ValidationError("--weighted only applies to --method degree-discounted")
    if args.hierarchy == "none" and (args.gamma is not None or args.delta is not None):
        raise ValidationError("--gamma/--delta require --hierarchy auto or file:PATH")
    if args.hierarchy not in ("none", "auto") and not args.hierarchy.startswith("file:"):
        raise ValidationError(f"invalid --hierarchy value {args.hierarchy!r}")
    cfg.validate(hierarchy=args.hierarchy != "none")
    if args.threads < 1:
        raise ValidationError("threads must be ≥ 1")
    # A scores file that cannot be opened fails before the input is read.
    path = args.hierarchy[len("file:"):] if args.hierarchy.startswith("file:") else None
    with open(path, "rb") if path is not None else io.BytesIO() as scores:
        g = _load_graph(args)
        h = (None if args.hierarchy == "none" else auto_hierarchy(g) if path is None
             else load_hierarchy(scores, g))
    result = symmetrize(g, cfg, h)
    _emit(args.output, lambda f: write_undirected(result, g.raw_labels, f,
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
    _emit(args.output, lambda f: f.writelines(
        f"{lab}\t{fmt % s}\n".encode() for lab, s in zip(g.labels, scores.score.tolist())))
    return 0


def run_stats(args) -> int:
    l = _parse_depth(args.l) if args.l is not None else None
    g = _load_graph(args)
    degrees = {"out_degree": np.diff(g.adj.indptr),
               "in_degree": np.bincount(g.adj.indices, minlength=g.n)}
    if l is not None:
        c = local_closure(g, l)
        degrees.update(closure_out_degree=c.d_out_plus, closure_in_degree=c.d_in_plus)
    lines = [f"nodes\t{g.n}\n", f"edges\t{g.edge_count}\n",
             f"self_loops_dropped\t{g.self_loops_dropped}\n"]
    lines += [f"{name}\t{d}\t{count}\n" for name, deg in degrees.items()
              for d, count in sorted(Counter(deg.tolist()).items())]
    _emit(None, lambda f: f.write("".join(lines).encode()))
    return 0


def _emit(path, write_fn) -> None:
    """``write_fn(stream)`` of UTF-8 bytes to stdout's buffer, or to ``path``
    (``-o``).  A regular file is replaced only once the write succeeds, so a
    failed run leaves it as it was; anything else (``/dev/null``, a FIFO) is
    written in place."""
    if not path:
        sys.stdout.flush()
        write_fn(sys.stdout.buffer)
        return sys.stdout.buffer.flush()  # a closed pipe fails here, before the summary
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as f:
            return write_fn(f)
    target = os.path.realpath(path)  # replace a symlink's target, not the link
    tmp = f"{target}.{os.urandom(4).hex()}.tmp"
    try:
        f = open(tmp, "xb")  # mode 0o666 & ~umask, as "w" gives
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


def _memory_hint(args) -> str:
    """The flags that lower the peak of a run that ran out of memory: the
    closure and its pairs set it, not the top-t or epsilon cuts after them."""
    command = getattr(args, "subcommand", None)
    if command == "symmetrize" and args.method in (None, "reach"):
        return "; --hub-cap or a smaller --l keep fewer pairs"
    if command == "stats" and args.l is not None:
        return "; a smaller --l keeps a smaller closure"
    return ""


def main(argv=None) -> int:
    # A warning prints as one line; filters and recorders still apply.  Each
    # call runs on a copy of the filters, which starts a fresh once-per-line
    # registry, so a warning printed by an earlier call prints again.
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    args = None  # until parsed; the memory hint reads them
    try:
        with warnings.catch_warnings():
            args = build_parser().parse_args(argv)
            runner = {"symmetrize": run_symmetrize,
                      "hierarchy": run_hierarchy,
                      "stats": run_stats}[args.subcommand]
            return runner(args)
    except (ParseError, ValidationError, OSError, MemoryError) as e:
        why = "out of memory" + _memory_hint(args) if isinstance(
            e, MemoryError) else e
        print(f"error: {why}", file=sys.stderr)
        return 3 if isinstance(e, ParseError) else 2 if isinstance(e, OSError) else 1
    finally:
        warnings.formatwarning = formatwarning


def entrypoint() -> None:
    try:
        code = main()
    except Warning as e:  # made an error by a filter such as -W error
        print(f"error: {e}", file=sys.stderr)
        code = 1
    except SystemExit as e:  # --help
        code = e.code
    # What stdout still buffers is written now.  A reader that has gone is
    # then one error line, unless main has reported it, and fd 1 is pointed
    # at os.devnull so that the flush at exit fails no more.
    try:
        sys.stdout.flush()
    except BrokenPipeError as e:
        if not code:
            print(f"error: {e}", file=sys.stderr)
            code = 2
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
