"""The package's top-level surface: what ``import gpw`` promises."""

import re
from pathlib import Path

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


def test_readme_python_examples_run_in_order():
    # each example builds on the names the ones before it defined
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), flags=re.M | re.S)
    assert len(blocks) == 3
    namespace: dict = {}
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python example {number}", "exec"), namespace)
