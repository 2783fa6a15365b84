#!/usr/bin/env python3
"""Timing/memory check of the full pipeline on a synthetic power-law graph.

Runs generation, depth-2 reach symmetrization with defaults, and TSV output,
then reports wall time and peak RSS.
"""
import argparse
import os
import resource
import time

from reachsym import SymmetrizationConfig, symmetrize, write_undirected
from reachsym.synthetic import powerlaw_digraph


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes", type=int, default=50_000)
    ap.add_argument("--edges", type=int, default=100_000)
    ap.add_argument("--exponent", type=float, default=0.45)
    ap.add_argument("--l", type=int, default=2)
    ap.add_argument("--seed", type=int, default=123)
    ap.add_argument("-o", "--output", default=os.devnull)
    args = ap.parse_args()

    t0 = time.perf_counter()
    g = powerlaw_digraph(args.nodes, args.edges, args.exponent, seed=args.seed)
    t1 = time.perf_counter()
    result = symmetrize(g, SymmetrizationConfig(l=args.l))
    t2 = time.perf_counter()
    with open(args.output, "w") as fh:
        write_undirected(result, g.labels, fh)
    t3 = time.perf_counter()

    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 ** 2
    print(f"generate   {t1 - t0:6.2f}s  ({g.edge_count} edges)")
    print(f"symmetrize {t2 - t1:6.2f}s  ({len(result)} pairs)")
    print(f"write      {t3 - t2:6.2f}s")
    print(f"total      {t3 - t0:6.2f}s  peak RSS {peak_gb:.2f} GB")


if __name__ == "__main__":
    main()
