"""The package's top-level surface: what ``import gpw`` promises."""

import gpw
import gpw.bench

# the names perfbench/workloads.py reads from the package namespace
BENCHMARK_NAMES = (
    "tri_size",
    "build_basis",
    "case_by_name",
    "draw_centers",
    "residual_series",
    "taylor_match",
    "assemble_gpw_matrix",
    "exact_solution_taylor",
    "disk_points",
    "builtin_cases",
    "TestCase",
)


def test_every_export_resolves_once():
    assert len(gpw.__all__) == len(set(gpw.__all__))
    assert len(gpw.__all__) <= 40
    for name in gpw.__all__:
        assert getattr(gpw, name) is not None, name


def test_benchmark_names_are_exported():
    for name in BENCHMARK_NAMES:
        assert name in gpw.__all__ and hasattr(gpw, name), name


def test_exports_are_the_submodule_objects():
    # the benchmark tracer wraps gpw.bench.build_basis at every name binding,
    # the package namespace included, so both must be the same object
    assert gpw.build_basis is gpw.bench.build_basis
