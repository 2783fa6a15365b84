#!/usr/bin/env python3
"""Generate a synthetic directed power-law edge list for benchmarking.

Example:
    python3 scripts/gen_powerlaw.py --nodes 50000 --edges 100000 -o big.tsv
"""
import argparse
import sys

import numpy as np

from reachsym import DirectedGraph, graph_from_pairs


def powerlaw_digraph(n: int, m: int, exponent: float = 0.6,
                     seed: int = 0) -> DirectedGraph:
    """Directed graph with ~m edges whose endpoints are drawn from a
    power-law attachment distribution p(i) ~ (i + 1)^-exponent.

    Self-loops and duplicates are removed; sampling is repeated until m
    distinct edges exist, then the first m (in draw order) are kept, so the
    edge count is exact.  Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    weights = (np.arange(n) + 1.0) ** -exponent
    p = weights / weights.sum()
    seen: dict[tuple[int, int], None] = {}
    while len(seen) < m:
        batch = max(m - len(seen), 1) * 2
        src = rng.choice(n, size=batch, p=p)
        dst = rng.choice(n, size=batch, p=p)
        for u, v in zip(src.tolist(), dst.tolist()):
            if u != v and (u, v) not in seen:
                seen[(u, v)] = None
                if len(seen) == m:
                    break
    return graph_from_pairs(list(seen), n=n)


def write_edge_list(g: DirectedGraph, stream) -> None:
    """Dump a graph back to unweighted TSV (src<TAB>dst per edge)."""
    a = g.adj
    labels = g.labels
    for u in range(g.n):
        for v in a.indices[a.indptr[u]:a.indptr[u + 1]].tolist():
            stream.write(f"{labels[u]}\t{labels[v]}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes", type=int, default=50_000)
    ap.add_argument("--edges", type=int, default=100_000)
    ap.add_argument("--exponent", type=float, default=0.45,
                    help="attachment-weight exponent; larger = stronger hubs")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("-o", "--output", default=None)
    args = ap.parse_args()

    g = powerlaw_digraph(args.nodes, args.edges, args.exponent, seed=args.seed)
    if args.output:
        with open(args.output, "w") as fh:
            write_edge_list(g, fh)
    else:
        write_edge_list(g, sys.stdout)
    print(f"nodes={g.n} edges={g.edge_count}", file=sys.stderr)


if __name__ == "__main__":
    main()
