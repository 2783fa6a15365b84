"""Independent correctness check of one ``reachsym symmetrize`` output.

The check re-reads the input TSV, builds adjacency sets, runs a depth-l BFS
from every node and recomputes, for a seeded sample of nodes, their complete
rows from the paper's formula:

    w(a, b) = sum_{k in out(a) & out(b)} d_out(a)^-alpha d_out(b)^-alpha d_in(k)^-beta
            + sum_{k in in(a) & in(b)}   d_in(a)^-beta   d_in(b)^-beta   d_out(k)^-alpha

with the hierarchy discounts multiplied in when asked for.  It uses nothing
from ``reachsym`` except ``auto_hierarchy`` for the hierarchy scores, which
the package's own tests check separately.  Each term is formed in the same
operand order and summed over k in ascending index order, as a row-wise
sparse product does, so exact ties in the program's output are exact ties
here too; near-ties (relative 1e-12) are treated as either order.

The output is checked in full for format, canonical order (u < v by
first-appearance index, rows ascending) and known labels.  Sampled rows are
compared exactly as a pair set, and each weight at the printed precision.
With top-t, the sampled node's certain top-t must be present, and a seeded
sample of its extra and of its missing partners is checked against the
partner's own top-t (union semantics, ties toward the smaller index).
"""
from __future__ import annotations

import bisect
import random

import numpy as np

NEAR = 1e-12


def read_graph(path: str):
    """Labels in first-appearance order and out/in adjacency sets."""
    index: dict[str, int] = {}
    labels: list[str] = []
    out_adj: list[set[int]] = []
    in_adj: list[set[int]] = []

    def intern(tok: str) -> int:
        i = index.get(tok)
        if i is None:
            i = index[tok] = len(labels)
            labels.append(tok)
            out_adj.append(set())
            in_adj.append(set())
        return i

    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            a, b = line.split("\t")[:2]
            u, v = intern(a), intern(b)
            if u != v:
                out_adj[u].add(v)
                in_adj[v].add(u)
    return labels, index, out_adj, in_adj


def bounded_reach(adj: list[set[int]], l: int) -> list[set[int]]:
    """Nodes reachable by a path of length 1..l (the source only via a cycle)."""
    if l == 1:
        return adj
    reach = []
    for s in range(len(adj)):
        seen: set[int] = set()
        frontier = [s]
        for _ in range(l):
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            if not nxt:
                break
            frontier = nxt
        reach.append(seen)
    return reach


def _transpose(sets: list[set[int]]) -> list[set[int]]:
    out: list[set[int]] = [set() for _ in sets]
    for i, s in enumerate(sets):
        for k in s:
            out[k].add(i)
    return out


def _discount(deg: list[int], exponent: float) -> np.ndarray:
    d = np.asarray(deg, dtype=np.float64)
    out = np.zeros(len(d))
    nz = d > 0
    out[nz] = d[nz] ** -exponent
    return out


class Reference:
    """Rows of the expected undirected graph, computed on demand."""

    def __init__(self, input_path: str, *, l: int, alpha: float, beta: float,
                 hierarchy: bool, gamma: float, delta: float):
        self.labels, self.index, out_adj, in_adj = read_graph(input_path)
        n = len(self.labels)
        out_reach = bounded_reach(out_adj, l)
        in_reach = in_adj if l == 1 else _transpose(out_reach)
        self.out_reach = [sorted(s) for s in out_reach]
        self.in_reach = [sorted(s) for s in in_reach]
        d_out = [len(r) for r in self.out_reach]
        d_in = [len(r) for r in self.in_reach]
        self.out_outer = _discount(d_out, alpha).tolist()
        self.out_inner = _discount(d_in, beta).tolist()
        self.in_outer = self.out_inner
        self.in_inner = self.out_outer
        self.h = None
        if hierarchy:
            from reachsym import auto_hierarchy, load_edge_list
            with open(input_path, encoding="utf-8") as f:
                g = load_edge_list(f)
            if list(g.labels) != self.labels:
                raise ValueError("hierarchy graph labels differ from the input's")
            self.h = np.asarray(auto_hierarchy(g).score, dtype=np.float64)
            self.gamma, self.delta = gamma, delta
        self.n = n
        self._rows: dict[int, dict[int, float]] = {}

    def _side(self, i: int, reach, partners, outer, inner, acc) -> None:
        """Add the sum over common k in reach[i] & reach[j] for every j."""
        h = self.h
        for k in reach[i]:
            js = [j for j in partners[k] if j != i]
            if not js:
                continue
            if h is None:
                for j in js:
                    a, b = (i, j) if i < j else (j, i)
                    acc[j] = acc.get(j, 0.0) + (outer[a] * inner[k]) * outer[b]
            else:
                disc = ((1.0 + np.abs(h[np.array([i] + js)] - h[k]))
                        ** -self.delta).tolist()
                di = disc[0]
                for j, dj in zip(js, disc[1:]):
                    if i < j:
                        t = ((outer[i] * di) * inner[k]) * (outer[j] * dj)
                    else:
                        t = ((outer[j] * dj) * inner[k]) * (outer[i] * di)
                    acc[j] = acc.get(j, 0.0) + t

    def row(self, i: int) -> dict[int, float]:
        """Partner -> weight for node i, before any top-t."""
        got = self._rows.get(i)
        if got is not None:
            return got
        out_acc: dict[int, float] = {}
        in_acc: dict[int, float] = {}
        self._side(i, self.out_reach, self.in_reach, self.out_outer,
                   self.out_inner, out_acc)
        self._side(i, self.in_reach, self.out_reach, self.in_outer,
                   self.in_inner, in_acc)
        row = dict(out_acc)
        for j, w in in_acc.items():
            row[j] = row[j] + w if j in row else w
        if self.h is not None and row:
            js = list(row)
            f = ((1.0 + np.abs(self.h[i] - self.h[np.array(js)]))
                 ** -self.gamma).tolist()
            row = {j: row[j] * fj for j, fj in zip(js, f)}
        row = {j: w for j, w in row.items() if w > 0.0}
        self._rows[i] = row
        return row


class Ranking:
    """Order of one node's partners by weight, ties toward the smaller index."""

    def __init__(self, row: dict[int, float]):
        self.order = sorted(row, key=lambda j: (-row[j], j))
        self.w = [row[j] for j in self.order]
        self.pos = {j: p for p, j in enumerate(self.order)}

    def rank_bounds(self, j: int) -> tuple[int, int]:
        """Smallest and largest 0-based rank j can have when near-ties may
        fall either way in the program's arithmetic."""
        p = self.pos[j]
        w = self.w[p]
        lo = p
        q = p - 1
        while q >= 0 and self.w[q] <= w * (1 + NEAR):
            lo -= self.w[q] != w
            q -= 1
        hi = p
        q = p + 1
        while q < len(self.w) and self.w[q] >= w * (1 - NEAR):
            hi += self.w[q] != w
            q += 1
        return lo, hi


def _weight_ok(text: str, ref: float, fmt: str) -> bool:
    return text in (fmt % ref, fmt % (ref * (1 - NEAR)), fmt % (ref * (1 + NEAR)))


def sample_nodes(n: int, size: int, seed: int) -> list[int]:
    return sorted(random.Random(seed).sample(range(n), min(size, n)))


def check(input_path: str, output_path: str, *, l: int = 2,
          alpha: float = 0.5, beta: float = 0.5, hierarchy: bool = False,
          gamma: float = 1.0, delta: float = 1.0, top_t: int | None = None,
          precision: int = 6, seed: int = 0, sample_size: int = 16,
          partner_checks: int = 4, ref: Reference | None = None
          ) -> tuple[list[str], dict]:
    """Return (problems, stats); no problems means the output passed."""
    if ref is None:
        ref = Reference(input_path, l=l, alpha=alpha, beta=beta,
                        hierarchy=hierarchy, gamma=gamma, delta=delta)
    fmt = f"%.{precision}f"
    sample = sample_nodes(ref.n, sample_size, seed)
    wanted = set(sample)
    got: dict[int, dict[int, str]] = {i: {} for i in sample}
    problems: list[str] = []
    lines = 0
    prev = (-1, -1)
    with open(output_path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            lines = line_no
            parts = line.rstrip("\n").split("\t")
            u = ref.index.get(parts[0]) if len(parts) == 3 else None
            v = ref.index.get(parts[1]) if len(parts) == 3 else None
            if u is None or v is None:
                problems.append(f"output line {line_no}: malformed {line!r}")
                break
            if not u < v or (u, v) <= prev:
                problems.append(f"output line {line_no}: pair out of canonical order")
                break
            prev = (u, v)
            if u in wanted:
                got[u][v] = parts[2]
            if v in wanted:
                got[v][u] = parts[2]

    rng = random.Random(seed + 1)
    rows_checked = 0
    for i in sample:
        if problems:
            break
        row = ref.row(i)
        out = got[i]
        lab = ref.labels[i]
        for j, text in out.items():
            if j not in row:
                problems.append(f"pair ({lab}, {ref.labels[j]}) is not in the reference")
            elif not _weight_ok(text, row[j], fmt):
                problems.append(f"pair ({lab}, {ref.labels[j]}): weight {text}, "
                                f"expected {fmt % row[j]}")
        if top_t is None:
            missing = [j for j in row if j not in out]
            if missing:
                problems.append(f"node {lab}: {len(missing)} reference pair(s) "
                                f"missing, e.g. ({lab}, {ref.labels[missing[0]]})")
        else:
            rank = Ranking(row)
            for j in rank.order[:top_t]:
                if rank.rank_bounds(j)[1] < top_t and j not in out:
                    problems.append(f"node {lab}: top-{top_t} partner "
                                    f"{ref.labels[j]} missing")
            extra = [j for j in out if j in row and rank.rank_bounds(j)[0] >= top_t]
            absent = [j for j in row if j not in out]
            for j in rng.sample(extra, min(partner_checks, len(extra))):
                if Ranking(ref.row(j)).rank_bounds(i)[0] >= top_t:
                    problems.append(f"pair ({lab}, {ref.labels[j]}) kept but in "
                                    "neither endpoint's top-t")
            for j in rng.sample(absent, min(partner_checks, len(absent))):
                if Ranking(ref.row(j)).rank_bounds(i)[1] < top_t:
                    problems.append(f"pair ({lab}, {ref.labels[j]}) dropped but in "
                                    f"{ref.labels[j]}'s top-t")
        rows_checked += 1
    stats = {"sampled_nodes": len(sample), "rows_checked": rows_checked,
             "reference_rows": len(ref._rows), "output_lines": lines}
    return problems, stats
