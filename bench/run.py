#!/usr/bin/env python3
"""Benchmark of ``reachsym symmetrize``, input TSV to output TSV.

    python3 bench/run.py --workload first-order --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from ``src``.
The run generates the workload's input from the seed (cached under
``bench/.work``), then for ``--seconds`` starts one fresh, single-threaded
process per invocation, one at a time (closed loop, one client).  Each
process times its cold ``import reachsym.cli`` and one call of
``reachsym.cli.main``.  Every output must be byte-identical to the others and
pass the independent check in reference.py; a failed invocation is counted in
``failed``.

The host's speed drifts, so the fixed workload in probe.py is timed between
invocations, and each invocation's times are scaled by ``REF_PROBE_S`` over
the mean of the probe times on its two sides.  The reported times are those
at that reference host speed; the raw ones are in ``detail``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced invocations and reports the per-layer metrics of the
traced invocation with the median ``cli.main`` time, plus the tracing
overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its unit and a ``detail`` object (samples, quartiles,
input sha256, machine facts).  See bench/README.md for the workload design.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
CHILD_TIMEOUT_S = 120
SPAN_FIELDS = ("id", "parent", "run", "name", "start", "end", "rss_mb")


@dataclass(frozen=True)
class Workload:
    nodes: int
    edges: int
    exponent: float
    flags: tuple = ()
    l: int = 2
    top_t: int | None = None
    hierarchy: bool = False


# Sizes are a quarter of the ROADMAP graphs (see README.md), so that one
# invocation takes about 1.5-4 s and a run holds many.
WORKLOADS = {
    "reach-l2-topt-hier": Workload(12_500, 25_000, 0.45,
                                   ("--top-t", "10", "--hierarchy", "auto"),
                                   top_t=10, hierarchy=True),
    "first-order": Workload(125_000, 250_000, 0.0,
                            ("--method", "degree-discounted"), l=1),
}


def machine() -> dict:
    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {"nproc": os.cpu_count(), "ram_gb": round(ram / 2**30, 2),
            "platform": platform.platform()}


def invoke(argv: list[str], trace: bool, tag: str) -> dict:
    """One child process; returns its record, with ``ok`` and ``why``."""
    result = os.path.join(WORK, f"{tag}.json")
    if os.path.exists(result):
        os.remove(result)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), result,
             "1" if trace else "0", "--", *argv],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "why": f"timed out after {CHILD_TIMEOUT_S} s"}
    try:
        with open(result, encoding="utf-8") as f:
            rec = json.load(f)
    except (OSError, ValueError):
        return {"ok": False, "why": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    rec["ok"] = rec["rc"] == 0
    rec["why"] = rec["error"] or (None if rec["ok"] else
                                  f"exit {rec['rc']}: {proc.stderr.strip()[-300:]}")
    return rec


def main_s(rec: dict) -> float:
    """Traced duration of the invocation's ``cli.main`` span."""
    return sum(s[4] - s[3] for s in rec["spans"] if s[2] == "cli.main")


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "reachsym", "cli.py")):
        print(f"error: no program source at {os.path.join(ROOT, 'src', 'reachsym')}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    # The check takes hierarchy scores from the program (see reference.py).
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import inputs
    import probe
    import reference
    from spans import layer_metrics

    wl = WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    input_path = inputs.edge_list_path(os.path.join(WORK, "inputs"), wl.nodes,
                                       wl.edges, wl.exponent, args.seed)
    with open(input_path, "rb") as f:
        input_edges = sum(1 for _ in f)
    output_path = os.path.join(WORK, f"{args.workload}.out.tsv")
    argv = ["symmetrize", "-i", input_path, "-o", output_path, "--threads", "1",
            *wl.flags]

    # Untimed: compiles the program's bytecode and warms the file cache, so
    # every timed process starts from the same state.
    subprocess.run([sys.executable, "-c", "import reachsym.cli"], cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
                   check=True, timeout=CHILD_TIMEOUT_S)

    # Invocations run back to back, with the host probe timed between them;
    # the next one is started only if it is expected to end within
    # --seconds, but a traced run has at least one of each kind.  Each
    # invocation's scale is REF_PROBE_S over the mean of the probes on its
    # two sides.
    host = probe.Probe(os.path.join(WORK, f"{args.workload}.probe.tsv"))
    records: list[dict] = []
    started = time.perf_counter()
    probes = [host.time_s()]
    while True:
        n_traced = sum(r["traced"] for r in records)
        use_trace = bool(args.trace) and len(records) - n_traced > n_traced
        t0 = time.perf_counter()
        rec = invoke(argv, use_trace, f"{args.workload}.child")
        rec["traced"] = use_trace
        rec["sha256"] = inputs.sha256_file(output_path) if rec["ok"] else None
        probes.append(host.time_s())
        rec["scale"] = probe.REF_PROBE_S / statistics.mean(probes[-2:])
        records.append(rec)
        now = time.perf_counter()
        if (now + (now - t0) - started > args.seconds
                and (n_traced + use_trace > 0 or not args.trace)):
            break
    measured_s = time.perf_counter() - started

    # Correctness: every output byte-identical, and the last one (so all of
    # them) passes the reference check.
    out_hash = records[-1]["sha256"]
    check_stats: dict = {}
    if out_hash is None:
        problems = ["the last invocation failed, so no output was checked"]
    else:
        problems, check_stats = reference.check(
            input_path, output_path, l=wl.l, top_t=wl.top_t,
            hierarchy=wl.hierarchy, seed=args.seed, sample_size=32)
    for rec in records:
        if rec["ok"] and problems:
            rec["ok"], rec["why"] = False, problems[0]
        elif rec["ok"] and rec["sha256"] != out_hash:
            rec["ok"], rec["why"] = False, "output differs from the last invocation's"
    failed = sum(not r["ok"] for r in records)

    # Timings count every invocation that completed, whatever the check says.
    done = [r for r in records if r.get("rc") == 0]
    plain = [r for r in done if not r["traced"]]
    walls = [r["wall_s"] for r in plain]
    ref_walls = [r["wall_s"] * r["scale"] for r in plain]
    setups = [r["setup_s"] for r in done]
    ref_setups = [r["setup_s"] * r["scale"] for r in done]
    rss = [r["peak_rss_mb"] for r in plain]
    wall = statistics.median(walls) if walls else None
    ref_wall = statistics.median(ref_walls) if ref_walls else None
    self_sum_s = None
    if args.trace:
        traced = [r for r in done if r["traced"]]
        metrics = {}
        if traced:
            pick = sorted(traced, key=main_s)[(len(traced) - 1) // 2]
            metrics = layer_metrics(pick["spans"], pick["missing"], pick["counts"],
                                    os.path.getsize(output_path) if out_hash else None)
            if ref_wall:
                metrics["trace.overhead_ratio"] = statistics.median(
                    main_s(r) * r["scale"] for r in traced) / ref_wall - 1
            # Self times partition cli.main: their sum must equal its time.
            self_sum_s = sum(v for k, v in metrics.items()
                             if k.endswith(".self_s") and v is not None)
        wanted = spec["per_layer"]
        with open(os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.json"),
                  "w", encoding="utf-8") as f:
            json.dump([dict(zip(SPAN_FIELDS, (sid, parent, run, *rest)))
                       for run, r in enumerate(traced)
                       for sid, parent, *rest in r["spans"]], f)
    else:
        metrics = {
            "ref_wall_s": ref_wall,
            "ref_edges_per_s": input_edges / ref_wall if ref_wall else None,
            "peak_rss_mb": statistics.median(rss) if rss else None,
            "setup_s": statistics.median(ref_setups) if ref_setups else None,
        }
        wanted = spec["end_to_end"]

    result_metrics = {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]}
                      for m in wanted}
    for name, m in result_metrics.items():
        print(f"{name:40s} {m['value']!s:>24} {m['unit']}")
    versions = next((r["versions"] for r in records if "versions" in r), {})
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "input": {"path": os.path.relpath(input_path, ROOT), "sha256":
                  inputs.sha256_file(input_path), "edges": input_edges,
                  "params": [wl.nodes, wl.edges, wl.exponent]},
        "argv": ["reachsym", "symmetrize", "--threads", "1", *wl.flags],
        "measured_s": measured_s,
        "samples": {"wall_s": len(walls), "traced": len(done) - len(plain)},
        # Raw times, as measured on this host now, beside the scaled ones.
        "wall_s": wall,
        "edges_per_s": input_edges / wall if wall else None,
        "quartiles": {"wall_s": quartiles(walls), "ref_wall_s": quartiles(ref_walls),
                      "setup_s": quartiles(setups), "ref_setup_s": quartiles(ref_setups),
                      "peak_rss_mb": quartiles(rss), "probe_s": quartiles(probes)},
        "errors": failed / len(records),
        "span_self_sum_s": self_sum_s,
        "failures": sorted({r["why"] for r in records if not r["ok"]}),
        "check": dict(check_stats, problems=problems[:5]),
        "output_sha256": out_hash,
        "program": next((r["program"] for r in records if "program" in r), None),
        "machine": dict(machine(), **versions),
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
