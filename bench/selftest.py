#!/usr/bin/env python3
"""Show that the benchmark's correctness check catches a wrong output.

    python3 bench/selftest.py

For two small generated graphs (default flags, and ``--top-t 3 --hierarchy
auto``) it runs ``reachsym symmetrize`` from ``src``, checks the output with
reference.py, then checks two perturbed copies: one with a single weight
changed by two units in the last printed digit, one with a single pair
dropped.  Both perturbations touch a row the check samples.  Exits 0 only if
every clean output passes and every perturbed one fails.
"""
from __future__ import annotations

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work", "selftest")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import reference  # noqa: E402

SEED = 7
CASES = [
    ("reach l=2", [], {}),
    ("reach l=2, top-t 3, auto hierarchy", ["--top-t", "3", "--hierarchy", "auto"],
     {"top_t": 3, "hierarchy": True}),
]


def perturb(lines: list[str], ref: reference.Reference, node: int, how: str
            ) -> list[str]:
    """Copy of the output with one line of ``node``'s row changed or dropped:
    the line of its strongest partner, which is in its top-t for any t."""
    best = reference.Ranking(ref.row(node)).order[0]
    a, b = sorted((node, best))
    key = f"{ref.labels[a]}\t{ref.labels[b]}\t"
    k = next(i for i, line in enumerate(lines) if line.startswith(key))
    if how == "drop":
        return lines[:k] + lines[k + 1:]
    u, v, w = lines[k].rstrip("\n").split("\t")
    return lines[:k] + [f"{u}\t{v}\t{float(w) + 2e-6:.6f}\n"] + lines[k + 1:]


def main() -> int:
    os.makedirs(WORK, exist_ok=True)
    graph = inputs.edge_list_path(WORK, 600, 1500, 0.45, SEED)
    ok = True
    for name, flags, kw in CASES:
        out = os.path.join(WORK, "out.tsv")
        subprocess.run([sys.executable, "-m", "reachsym", "symmetrize", "-i", graph,
                        "-o", out, *flags], cwd=ROOT, check=True,
                       env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
        ref = reference.Reference(graph, l=2, alpha=0.5, beta=0.5,
                                  hierarchy=kw.get("hierarchy", False),
                                  gamma=1.0, delta=1.0)
        problems, _ = reference.check(graph, out, seed=SEED, ref=ref, **kw)
        print(f"{name}: clean output -> {'pass' if not problems else problems}")
        ok &= not problems
        node = next(i for i in reference.sample_nodes(ref.n, 16, SEED) if ref.row(i))
        with open(out, encoding="utf-8") as f:
            lines = f.readlines()
        for how in ("change", "drop"):
            bad = os.path.join(WORK, f"out-{how}.tsv")
            with open(bad, "w", encoding="utf-8") as f:
                f.writelines(perturb(lines, ref, node, how))
            problems, _ = reference.check(graph, bad, seed=SEED, ref=ref, **kw)
            print(f"{name}: {how} one pair of node {ref.labels[node]} -> "
                  f"{problems[0] if problems else 'NOT DETECTED'}")
            ok &= bool(problems)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
