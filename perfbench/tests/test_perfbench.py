"""Self-tests of the benchmark.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import gpw  # noqa: E402
import gpw.construction  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Node, Tracer, installed, self_times  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_on_synthetic_tree():
    # root 0..10 s; child a covers 2 s and holds an aggregate of 3 calls
    # covering 0.5 s; child b covers 3 s and has no children
    nodes = [
        Node(0, "root", None, calls=1, total_s=10.0),
        Node(1, "a", 0, calls=1, total_s=2.0),
        Node(2, "k", 1, calls=3, total_s=0.5),
        Node(3, "b", 0, calls=1, total_s=3.0),
        Node(4, "a", 3, calls=2, total_s=1.0),
    ]
    rows = self_times(nodes)
    assert rows["root"]["self_s"] == pytest.approx(5.0)
    assert rows["a"]["self_s"] == pytest.approx(1.5 + 1.0)
    assert rows["a"]["calls"] == 3
    assert rows["k"]["self_s"] == pytest.approx(0.5)
    assert rows["b"]["self_s"] == pytest.approx(2.0)
    assert sum(r["self_s"] for r in rows.values()) == pytest.approx(10.0)


def test_tracer_spans_and_aggregates_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("root"):  # t = 0
        for _ in range(2):
            with tracer.span("kernel", aggregate=True):  # 1..2, 3..4
                pass
        with tracer.span("layer"):  # 5..8
            with tracer.span("kernel", aggregate=True):  # 6..7
                pass
    # root ends at 9
    rows = self_times(tracer.nodes)
    assert rows["root"]["self_s"] == 9 - 2 - 3
    assert rows["kernel"] == {"calls": 3, "errors": 0, "total_s": 3.0, "self_s": 3.0}
    assert rows["layer"]["self_s"] == 2
    assert len(tracer.nodes) == 4  # the two kernel calls under root share a node


@pytest.mark.parametrize(
    "count, expected",
    [(9, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0)],
)
def test_supported_percentile_leaves_ten_samples_beyond(count, expected):
    assert worker.supported_percentile(count) == expected


def test_percentile_interpolates_between_ranks():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert worker.percentile(values, 50) == 3.0
    assert worker.percentile(values, 90) == pytest.approx(4.6)
    assert worker.percentile([7.0], 90) == 7.0


def test_wrappers_reach_name_bindings_and_are_restored():
    original = gpw.construction.build_basis
    tracer = Tracer()
    with installed(tracer, workloads.TARGETS, [workloads]):
        # bench, cli and the package namespace all bind build_basis by name
        assert gpw.bench.build_basis is not original
        assert gpw.cli.build_basis is gpw.bench.build_basis
        assert gpw.build_basis is gpw.bench.build_basis
        op = gpw.case_by_name("cs").family.instantiate((0.1, 0.2), q=2)
        gpw.build_basis(op, 3)
    assert gpw.bench.build_basis is original and gpw.build_basis is original
    assert gpw.taylor2d.TaylorSeries2.__call__.__qualname__ == "TaylorSeries2.__call__"
    rows = self_times(tracer.nodes)
    assert rows["construction.build_basis"]["calls"] == 1
    assert rows["construction.construct_gpw"]["calls"] == 3
    assert rows["operators.residual_series"]["calls"] == 3 * 2  # q levels per wave
    assert tracer.counts["taylor2d.series_created"] > 0


TINY = {
    "order_table": lambda: workloads.OrderTable(centers=2, jobs=2),
    "basis_high_q": lambda: workloads.BasisHighQ(centers=2, orders=(2, 3)),
    "wave_grid": lambda: workloads.WaveGrid(centers=1),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_smoke_run_emits_every_metric(name):
    workload = TINY[name]()
    warnings.filterwarnings("ignore", message=".*not guaranteed to reach order.*")
    plain = worker.run_untraced(workload, seed=2, seconds=0.0)
    traced, tracer = worker.run_traced(workload, seed=2)
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(plain["metrics"]) | {"setup_s"} == end_to_end
    assert set(traced["metrics"]) == per_layer
    assert plain["correct"] and traced["correct"]
    assert all(v > 0 for v in plain["metrics"].values())
    assert tracer.nodes
