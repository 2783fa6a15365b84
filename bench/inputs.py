"""Seeded input graphs for the benchmark, owned by the benchmark.

The attachment algorithm follows ``powerlaw_digraph`` (endpoint probability
p(i) ~ (i + 1)^-exponent, self-loops and duplicates dropped, drawn in batches
until exactly m distinct edges exist) but lives here, so a change to the
program cannot change a workload's input.

The graph's shape is drawn once, from ``SHAPE_SEED``; the run's seed draws a
permutation of the node labels.  So every seed gives a different input file
(labels and edge order) but the same amount of work, and a change between
runs with different seeds is the host's or the program's, not the input's.
Edges are written sorted by (src, dst) with labels ``str(i)``, as
``write_edge_list`` does.
"""
from __future__ import annotations

import hashlib
import os

import numpy as np

SHAPE_SEED = 1


def powerlaw_edges(n: int, m: int, exponent: float, seed: int) -> list[tuple[int, int]]:
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
    return sorted(seen)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def edge_list_path(cache_dir: str, n: int, m: int, exponent: float,
                   seed: int) -> str:
    """Path of the TSV for (n, m, exponent, seed), generated on first use:
    the ``SHAPE_SEED`` graph with its labels permuted by ``seed``."""
    path = os.path.join(cache_dir, f"powerlaw-n{n}-m{m}-x{exponent}"
                                   f"-shape{SHAPE_SEED}-s{seed}.tsv")
    if not os.path.exists(path):
        os.makedirs(cache_dir, exist_ok=True)
        label = np.random.default_rng(seed).permutation(n).tolist()
        edges = sorted((label[u], label[v])
                       for u, v in powerlaw_edges(n, m, exponent, SHAPE_SEED))
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            f.writelines(f"{u}\t{v}\n" for u, v in edges)
        os.replace(tmp, path)
    return path
