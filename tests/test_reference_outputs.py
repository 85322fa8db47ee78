"""Convergence CSVs against the outputs recorded for the benchmark.

``perfbench/reference.json`` holds the seed-1 CSV of every criterion-7
study.  Three of the cheaper studies are rerun here through the CLI and
held to the benchmark's own tolerances, so a change that moves the results
shows up in the test suite, not only in a benchmark run.  This file only
reads ``perfbench/``.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from gpw.bench import CSV_HEADER, DEFAULT_H_GRID
from gpw.cli import main

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"

# the tolerances of perfbench/workloads.py: errors may move by
# reordered float operations, down to the round-off floor
REF_RTOL = 1e-9
REF_ATOL = 1e-12
SLOPE_ATOL = 1e-2


@pytest.mark.parametrize("case", ["cs", "JJ", "Jc"])
def test_convergence_csv_matches_recorded_reference(case):
    argv = ["convergence", "--case", case, "--n", "3", "--q", "2",
            "--centers", "50", "--seed", "1"]
    recorded = json.loads(REFERENCE.read_text())["order_table"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    lines = out.getvalue().splitlines()
    ref_lines = recorded["csv"][" ".join(argv)].splitlines()
    assert lines[0] == ref_lines[0] == recorded["csv_header"] == CSV_HEADER

    rows = [line.split(",") for line in lines[1:]]
    ref = [line.split(",") for line in ref_lines[1:]]
    assert len(rows) == len(ref) == DEFAULT_H_GRID.size
    # case, n, q, p, seed and the h grid are identical, not merely close
    assert [r[:6] for r in rows] == [r[:6] for r in ref]
    errors = np.array([float(r[6]) for r in rows])
    ref_errors = np.array([float(r[6]) for r in ref])
    np.testing.assert_allclose(errors, ref_errors, rtol=REF_RTOL, atol=REF_ATOL)
    assert {(r[7], r[8]) for r in rows} == {(rows[0][7], rows[0][8])}
    assert abs(float(rows[0][7]) - float(ref[0][7])) <= SLOPE_ATOL
