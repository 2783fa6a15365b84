import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import reachsym

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
    with pytest.raises(ImportError):
        importlib.import_module("reachsym.oracle")
    for attr in ("out_neighbors", "in_neighbors", "reversed"):
        assert not hasattr(reachsym.DirectedGraph, attr)
    for attr in ("out_reach", "in_reach", "out_csr", "in_csr"):
        assert not hasattr(reachsym.LocalClosure, attr)


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
    for attr in ("from_matrix", "scaled", "weight", "edge_count"):
        assert not hasattr(acc.SimilarityAccumulator, attr)
    # The upper triangle as CSR; u is derived from indptr.
    assert list(acc.SimilarityAccumulator.__dataclass_fields__) == \
        ["n", "indptr", "v", "w"]
    assert not hasattr(reachsym.similarity, "_to_undirected")


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
