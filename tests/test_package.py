import hashlib
import importlib
import importlib.util
import inspect
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reachsym

from conftest import powerlaw_digraph, write_edge_list

# Test-only references, now in tests/reference.py.
MOVED = ["bfs_bounded", "dense_closure", "dense_similarity", "distance_discount",
         "read_undirected"]


def test_every_exported_name_resolves():
    for name in reachsym.__all__:
        assert getattr(reachsym, name) is not None, name


def test_test_only_code_is_not_in_the_package():
    for name in MOVED:
        assert name not in reachsym.__all__
        assert not hasattr(reachsym, name)
    # The power-law generator is scripts/gen_powerlaw.py's.
    for module in ("reachsym.oracle", "reachsym.synthetic"):
        with pytest.raises(ImportError):
            importlib.import_module(module)
    for attr in ("out_neighbors", "in_neighbors", "reversed"):
        assert not hasattr(reachsym.DirectedGraph, attr)
    for attr in ("out_reach", "in_reach", "out_csr", "in_csr"):
        assert not hasattr(reachsym.LocalClosure, attr)


@pytest.mark.parametrize("args, digest", [
    ((3000, 9000, 0.45, 1),
     "4ccad8f91e768916af2b27771f590bc82d15934f493c91849ee4c0eb7edaefbe"),
    # ROADMAP's perf graph.
    ((50_000, 100_000, 0.45, 123),
     "0086d41ed98625a0222aa26c1090759702547201f918bc8ba4ffdd731d47ab2e"),
])
def test_generator_gives_the_pinned_graphs(args, digest):
    # Pinned tests and the ROADMAP baselines are measured on these graphs.
    n, m, exponent, seed = args
    out = io.StringIO()
    write_edge_list(powerlaw_digraph(n, m, exponent, seed=seed), out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def test_no_condensation():
    # auto_hierarchy calls the SCC pass, graph._sccs, itself; nothing in the
    # pipeline builds the condensation DAG.
    assert "condensation" not in reachsym.__all__
    assert not hasattr(reachsym, "condensation")
    assert not hasattr(reachsym.graph, "condensation")


def test_no_threads_knob_in_the_library():
    assert "threads" not in reachsym.SymmetrizationConfig.__dataclass_fields__
    assert "threads" not in inspect.signature(reachsym.local_closure).parameters


def test_one_pair_type():
    # bench/spans.py wraps the pair sum at this path.
    acc = importlib.import_module("reachsym.accumulator")
    assert callable(acc.SimilarityAccumulator.add)
    assert reachsym.SimilarityAccumulator is acc.SimilarityAccumulator
    for name in ("UndirectedWeightedGraph", "CanonicalPairs"):
        assert name not in reachsym.__all__
        assert not hasattr(reachsym, name)
        assert not hasattr(reachsym.graph, name)
    # A weight is read through tests/reference.py's to_dense, a pair set
    # compared through its u, v and w.
    for attr in ("from_matrix", "scaled", "weight", "edge_count", "edges", "get"):
        assert not hasattr(acc.SimilarityAccumulator, attr)
    # The upper triangle as CSR; u is derived from indptr.
    assert list(acc.SimilarityAccumulator.__dataclass_fields__) == \
        ["n", "indptr", "v", "w"]
    assert not hasattr(reachsym.similarity, "_to_undirected")


def test_no_unread_or_test_only_state():
    # The closure's node count is its matrices' shape; the dense view of a
    # pair set is tests/reference.py's to_dense.
    assert list(reachsym.LocalClosure.__dataclass_fields__) == \
        ["l", "out_mat", "in_mat", "d_out_plus", "d_in_plus"]
    assert not hasattr(reachsym.SimilarityAccumulator, "to_dense")


def test_no_stored_derived_state():
    # Hierarchy discounts apply iff scores are passed; the transpose is
    # built where it is needed.
    assert "hierarchy_mode" not in reachsym.SymmetrizationConfig.__dataclass_fields__
    assert not hasattr(reachsym.similarity, "HIERARCHY_MODES")
    for attr in ("rev", "_rev"):
        assert not hasattr(reachsym.DirectedGraph, attr)
        assert attr not in reachsym.DirectedGraph.__dataclass_fields__


def test_names_the_benchmark_check_imports():
    # bench/reference.py imports these two from the package root.
    from reachsym import auto_hierarchy, load_edge_list
    assert callable(auto_hierarchy) and callable(load_edge_list)


def test_every_benchmark_span_resolves(monkeypatch):
    # A span whose target is gone makes the traced benchmark report null.
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # for its dataclass
    spec.loader.exec_module(spans)
    assert len(spans.SPANS) == 12
    for name, module, attr_path in spans.SPANS:
        owner = importlib.import_module(module)
        for part in attr_path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name


@pytest.mark.parametrize("module", ["reachsym", "reachsym.cli"])
def test_import_loads_neither_csgraph_nor_linalg(module):
    # Every CLI run pays for its imports; numpy and scipy.sparse suffice.
    src = os.path.dirname(os.path.dirname(reachsym.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; print(*sorted(sys.modules))"],
        capture_output=True, text=True, timeout=120, check=True,
        env=dict(os.environ, PYTHONPATH=path))
    loaded = proc.stdout.split()
    assert "scipy.sparse" in loaded
    for heavy in ("scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg"):
        assert heavy not in loaded
