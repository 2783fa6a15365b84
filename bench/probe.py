"""A fixed amount of work that tells how fast the host runs right now.

The benchmark runs on shared hosts whose speed drifts by 15-30 % over
minutes, so the same program gives different wall times from run to run.
``Probe.time_s`` times a fixed workload shaped like the program's: set unions
over an adjacency dict and dict updates keyed by node pairs in pure Python,
a sparse matrix product and an argsort in numpy/scipy, and float formatting
written to a file.  It does not use the program, so a change to the program
cannot change it.  run.py times it between invocations and scales each
invocation's times by ``REF_PROBE_S / probe time``, which gives the times at
a fixed reference host speed.
"""
from __future__ import annotations

import os
import random
import time

import numpy as np
import scipy.sparse as sp

# A round figure near the probe's median time on a 2-core x86 VM with
# Python 3.11 (0.3-0.55 s as that host's speed drifted).  It only sets the
# unit of the scaled times, which are then close to raw ones.
REF_PROBE_S = 0.4

_N = 20_000


class Probe:
    """The fixed workload's data, built once, and a timer for the workload."""

    def __init__(self, scratch: str):
        self.scratch = scratch  # written and removed on each timing
        rng = random.Random(12345)
        self.adj: dict[int, set[int]] = {u: set() for u in range(_N)}
        for _ in range(3 * _N):
            self.adj[rng.randrange(_N)].add(rng.randrange(_N))
        np_rng = np.random.default_rng(12345)
        self.m = sp.random(_N, _N, density=4 / _N, format="csr", random_state=np_rng)
        self.x = np_rng.random(1_000_000)

    def time_s(self) -> float:
        """Seconds the fixed workload takes now."""
        t0 = time.perf_counter()
        pairs: dict[tuple[int, int], float] = {}
        for s in range(0, _N, 16):
            reach = set(self.adj[s])
            for v in list(reach):
                reach |= self.adj[v]
            r = sorted(reach)
            for i in range(len(r)):
                for j in range(i + 1, min(len(r), i + 8)):
                    k = (r[i], r[j])
                    pairs[k] = pairs.get(k, 0.0) + 1.0 / (i + j + 1)
        product = (self.m @ self.m.T).tocoo()
        order = np.argsort(self.x, kind="stable")
        with open(self.scratch, "w", encoding="utf-8") as f:
            f.writelines(f"{a}\t{b}\t{w:.6f}\n" for (a, b), w in sorted(pairs.items()))
            f.writelines(f"{a}\t{b}\t{w:.6f}\n" for a, b, w in
                         zip(product.row[:50_000].tolist(), product.col[:50_000].tolist(),
                             self.x[order[:50_000]].tolist()))
        os.remove(self.scratch)
        return time.perf_counter() - t0
