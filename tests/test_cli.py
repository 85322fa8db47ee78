"""Command-line interface: subcommands, flags, config files, exit codes.

Runs everything in-process through ``gpw.cli.main`` so exit codes and
output are asserted directly.
"""

import inspect
import warnings

import numpy as np
import pytest

from gpw.bench import (
    CASE_NAMES,
    DEFAULT_H_GRID,
    DEFAULT_SEED,
    CaseValidation,
    case_by_name,
    emit_report,
    read_report_csv,
    run_convergence,
    validate_case,
)
from gpw.cli import build_parser, main, read_config
from gpw.construction import build_basis, parse_gpw_text, serialize_gpw
from gpw.taylor2d import tri_size


# --- construct -----------------------------------------------------------------


def test_construct_matches_first_basis_member(tmp_path):
    out = tmp_path / "wave.txt"
    rc = main(
        ["construct", "--case", "cs", "--q", "2",
         "--center", "0.3", "-0.2", "--out", str(out)]
    )
    assert rc == 0
    center, M, q, values = parse_gpw_text(out.read_text())
    assert center == (0.3, -0.2)
    assert (M, q) == (2, 2)
    assert len(values) == tri_size(M + q - 1)

    case = case_by_name("cs")
    op = case.family.instantiate((0.3, -0.2), q=2)
    member = build_basis(op, 3).functions[0]  # first angle is the default theta
    assert out.read_text() == serialize_gpw(member)


def test_construct_default_center_is_domain_midpoint(capsys):
    assert main(["construct", "--case", "JJ"]) == 0
    center, M, q, _ = parse_gpw_text(capsys.readouterr().out)
    assert center == (2.0, 2.0)
    assert (M, q) == (2, 1)


def test_construct_respects_theta(capsys):
    assert main(["construct", "--case", "cs", "--theta", "0.0"]) == 0
    _, _, _, values = parse_gpw_text(capsys.readouterr().out)
    # axis-aligned direction: the y component of the first-order pair drops out
    assert values[(1, 0)] == pytest.approx(1.0, abs=1e-14)
    assert values[(0, 1)] == pytest.approx(0.0, abs=1e-14)


def test_construct_rejects_q_below_one(capsys):
    assert main(["construct", "--case", "cs", "--q", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "q must be at least 1, got 0" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--theta", "nan"], "theta must be finite, got nan"),
        (["--theta", "inf"], "theta must be finite, got inf"),
        (["--center", "0.1", "nan"], "center must be finite, got (0.1, nan)"),
        (["--center", "inf", "0"], "center must be finite, got (inf, 0.0)"),
    ],
)
def test_construct_rejects_non_finite_input(capsys, flags, message):
    assert main(["construct", "--case", "cs"] + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


# --- validate ------------------------------------------------------------------


def test_validate_reports_all_cases_and_both_signs(capsys):
    assert main(["validate", "--centers", "5"]) == 0
    out = capsys.readouterr().out
    for name in ("Ad", "Jc", "JJ", "cs"):
        assert f"case {name}:" in out
    assert out.count("-> PASS") == 4
    assert "zeroth-order sign as published" in out
    assert out.count("-> FAIL") == 1


def test_validate_single_case(capsys):
    assert main(["validate", "--case", "Ad", "--centers", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("case") == 1 and "case Ad:" in out


@pytest.mark.parametrize("count", ["0", "-2"])
def test_validate_rejects_no_centers_before_any_work(monkeypatch, capsys, count):
    def no_work(*args, **kwargs):
        raise AssertionError("the validation started")

    monkeypatch.setattr("gpw.bench.draw_centers", no_work)
    assert main(["validate", "--centers", count]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"number of centers must be at least 1, got {count}" in err


def test_validate_exit_code_on_failure(monkeypatch, capsys):
    failing = CaseValidation(case="Ad", trials=5, max_residual=1.0, passed=False)
    monkeypatch.setattr("gpw.cli.validate_case", lambda *a, **k: failing)
    assert main(["validate", "--case", "Ad", "--centers", "5"]) == 1
    assert "-> FAIL" in capsys.readouterr().out


# --- rank-study ------------------------------------------------------------------


def test_rank_study_table_shows_iff_pattern(capsys):
    assert main(["rank-study", "--case", "cs", "--centers", "3", "--seed", "1"]) == 0
    rows = [
        line.split()
        for line in capsys.readouterr().out.splitlines()
        if line and line.lstrip()[0].isdigit()
    ]
    assert len(rows) == 16  # n in 1..4, four p values each
    for n, p, reference, observed, full in rows:
        n, p = int(n), int(p)
        assert int(full) == 2 * n + 1
        assert int(reference) == min(p, 2 * n + 1)
        assert observed == reference  # wave matrix rank equals the reference rank


def test_rank_study_single_cell(capsys):
    assert main(
        ["rank-study", "--case", "Ad", "--n", "2", "--p", "5", "--centers", "2"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3  # title, header, one row
    assert lines[2].split() == ["2", "5", "5", "5", "5"]


def test_rank_study_defaults_to_all_cases(capsys):
    assert main(["rank-study", "--n", "1", "--p", "3", "--centers", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[::3]] == [
        f"case {name}" for name in CASE_NAMES
    ]
    assert all(line.split() == ["1", "3", "3", "3", "3"] for line in lines[2::3])


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--centers", "0"], "number of centers must be at least 1, got 0"),
        (["--n", "0"], "--n must be at least 1, got 0"),
        (["--p", "0"], "--p must be at least 1, got 0"),
    ],
    ids=["centers", "n", "p"],
)
def test_rank_study_rejects_no_centers_before_any_work(monkeypatch, capsys, flags, message):
    def no_work(*args, **kwargs):
        raise AssertionError("the rank study started")

    monkeypatch.setattr("gpw.cli.draw_centers", no_work)
    argv = ["rank-study", "--case", "Ad", "--n", "1", "--p", "3", "--centers", "2"]
    assert main(argv + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert message in captured.err
    assert "rank characterization" not in captured.err


@pytest.mark.parametrize(
    "p, fake_rank",
    [
        (5, "counter"),  # wave ranks differ from the reference rank
        (3, "full"),  # full rank 2n+1 claimed at p < 2n+1
    ],
)
def test_rank_study_fails_when_characterization_breaks(monkeypatch, capsys, p, fake_rank):
    calls = iter(range(100))
    rank = (lambda mat: next(calls)) if fake_rank == "counter" else (lambda mat: 5)
    monkeypatch.setattr("gpw.cli.numeric_rank", rank)
    argv = ["rank-study", "--case", "Ad", "--n", "2", "--p", str(p), "--centers", "2"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 3
    assert f"rank characterization fails at Ad n=2 p={p}" in captured.err


# --- convergence -----------------------------------------------------------------


def test_convergence_csv_reproducible(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["convergence", "--case", "cs", "--n", "1", "--centers", "3",
            "--seed", "7"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    (report,) = read_report_csv(first.read_text())
    assert (report.case, report.n, report.q, report.p, report.seed) == ("cs", 1, 1, 3, 7)


def test_convergence_default_grid(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(
        ["convergence", "--case", "cs", "--n", "1", "--centers", "2",
         "--out", str(out)]
    ) == 0
    (report,) = read_report_csv(out.read_text())
    assert np.array_equal(report.h, DEFAULT_H_GRID)


def test_study_defaults_have_one_home(capsys):
    # gpw convergence with no seed or grid flags is run_convergence with its
    # own defaults, and gpw order-table shares the seed
    assert main(["convergence", "--case", "cs", "--n", "1", "--centers", "2"]) == 0
    want = emit_report(run_convergence(case_by_name("cs"), n=1, q=1, num_centers=2))
    assert capsys.readouterr().out == want
    (report,) = read_report_csv(want)
    assert report.seed == DEFAULT_SEED
    assert build_parser().parse_args(["order-table"]).seed == DEFAULT_SEED
    # both study commands draw run_convergence's default number of centers
    default_centers = inspect.signature(run_convergence).parameters["num_centers"].default
    for command in (["convergence", "--case", "cs", "--n", "1"], ["order-table"]):
        assert build_parser().parse_args(command).centers == default_centers
    # gpw validate draws the centers validate_case draws by default
    validate = build_parser().parse_args(["validate"])
    defaults = inspect.signature(validate_case).parameters
    assert (validate.centers, validate.seed) == (defaults["trials"].default, defaults["seed"].default)


def test_convergence_grid_flags(capsys):
    assert main(
        ["convergence", "--case", "cs", "--n", "1", "--centers", "2",
         "--hmax", "0.1", "--hmin", "0.001", "--hcount", "5"]
    ) == 0
    (report,) = read_report_csv(capsys.readouterr().out)
    assert report.h.size == 5
    assert report.h[0] == pytest.approx(0.1) and report.h[-1] == pytest.approx(0.001)


def test_convergence_plotdata_format(capsys):
    assert main(
        ["convergence", "--case", "cs", "--n", "1", "--centers", "2",
         "--format", "plotdata"]
    ) == 0
    out = capsys.readouterr().out
    assert "," not in out
    first = out.splitlines()[0].split()
    assert len(first) == 2 and float(first[0]) == 1.0


def test_convergence_missing_n_exits_with_usage_error(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("centers = 2\n")
    for argv in (["convergence", "--case", "cs"], ["convergence", "--case", "cs", "--config", str(cfg)]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "the following arguments are required: --n" in capsys.readouterr().err


def test_required_options_may_come_from_the_config_alone(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("case = cs\nn = 1\ncenters = 2\n")
    assert main(["convergence", "--config", str(cfg)]) == 0
    from_file = capsys.readouterr().out
    assert main(["convergence", "--case", "cs", "--n", "1", "--centers", "2"]) == 0
    assert from_file == capsys.readouterr().out
    assert from_file.startswith("case,n,q,p,seed,h,max_err,slope,floor\n")


def test_convergence_rejects_p_below_one_before_drawing_centers(capsys, caplog):
    argv = ["convergence", "--case", "cs", "--n", "2", "--q", "1", "--p", "0", "--centers", "5"]
    with caplog.at_level("WARNING", logger="gpw.bench"):
        assert main(argv) == 1
    assert "p must be positive, got 0" in capsys.readouterr().err
    assert not [r for r in caplog.records if "redrew" in r.getMessage()]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--centers", "0"], "number of centers must be at least 1, got 0"),
        (["--centers", "-1"], "number of centers must be at least 1, got -1"),
        (["--hmin", "0"], "hmin must be positive, got 0.0"),
        (["--hmax", "1e-7"], "hmax must exceed hmin, got hmax 1e-07, hmin 1e-06"),
        (["--n", "0"], "n must be at least 1, got 0"),
        (["--hcount", "2"], "need at least 4 h values to estimate an order, got 2"),
        (["--hcount", "-1"], "--hcount: need at least 4 h values to estimate an order, got -1"),
        (["--hmax", "inf"], "hmax must be finite, got inf"),
        (["--hmax", "nan"], "hmax must be finite, got nan"),
        (["--hmin", "nan"], "hmin must be finite, got nan"),
    ],
)
def test_convergence_rejects_bad_study_arguments_early(monkeypatch, capsys, flags, message):
    def no_work(*args, **kwargs):
        raise AssertionError("the study started")

    monkeypatch.setattr("gpw.bench.validate_case", no_work)
    argv = ["convergence", "--case", "cs", "--n", "2", "--q", "1", "--centers", "5"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way to the message
        assert main(argv + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


# --- order-table -----------------------------------------------------------------


def test_order_table_prints_one_fit_per_cell_and_writes_the_curves(tmp_path, capsys):
    out = tmp_path / "table.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        argv = ["order-table", "--case", "cs", "--centers", "2", "--out", str(out)]
        assert main(argv) == 0
    assert not [w for w in caught if "not guaranteed to reach order" in str(w.message)]

    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "case cs: fitted order, 2 centers, seed 1 (* = stagnation floor detected)"
    assert lines[1].split() == ["q\\n", "1", "2", "3", "4", "5"]
    rows = [line.split() for line in lines[2:6]]
    assert [row[0] for row in rows] == ["1", "2", "3", "4"]
    assert all(len(row) == 6 for row in rows)
    fitted = [
        (int(row[0]), n, cell) for row in rows for n, cell in enumerate(row[1:], 1)
        if cell != "n/a"
    ]

    reports = read_report_csv(out.read_text())
    assert [(r.q, r.n) for r in reports] == [(q, n) for q, n, _ in fitted]
    for report, (_, _, cell) in zip(reports, fitted):
        assert cell == f"{report.slope:.2f}" + ("*" if report.floor > 0 else "")
    assert lines[-1] == f"wrote {len(reports)} error curves to {out}"


def test_order_table_reads_a_config_file(tmp_path, capsys):
    cfg = tmp_path / "table.cfg"
    cfg.write_text("case = cs\ncenters = 2\nseed = 3\n")
    assert main(["order-table", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "case cs: fitted order, 2 centers, seed 3 (* = stagnation floor detected)"
    assert len(lines) == 7  # title, header, four rows, blank line


def test_order_table_rejects_no_centers_before_any_work(monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("the order table started")

    monkeypatch.setattr("gpw.cli.run_convergence", no_work)
    assert main(["order-table", "--case", "cs", "--centers", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "number of centers must be at least 1, got 0" in captured.err


# --- config files ----------------------------------------------------------------


def test_config_overrides_flags(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("# study settings\ncase = cs\nseed = 11\ncenters=3\n")
    out = tmp_path / "run.csv"
    assert main(
        ["convergence", "--case", "Ad", "--n", "1", "--seed", "0",
         "--centers", "2", "--config", str(cfg), "--out", str(out)]
    ) == 0
    (report,) = read_report_csv(out.read_text())
    assert (report.case, report.seed) == ("cs", 11)


def test_config_center_pair(tmp_path, capsys):
    cfg = tmp_path / "wave.cfg"
    cfg.write_text("center = 0.25, -0.5\ntheta = 0.7853981633974483\n")
    assert main(["construct", "--case", "cs", "--config", str(cfg)]) == 0
    center, _, _, _ = parse_gpw_text(capsys.readouterr().out)
    assert center == (0.25, -0.5)


def test_config_center_needs_two_numbers(tmp_path, capsys):
    cfg = tmp_path / "wave.cfg"
    cfg.write_text("center = 0.25\n")
    assert main(["construct", "--case", "cs", "--config", str(cfg)]) == 1
    assert "center needs 2 numbers, got '0.25'" in capsys.readouterr().err


def test_config_unknown_key_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 3\n")
    assert main(["validate", "--config", str(cfg)]) == 1
    assert "unknown config key 'bogus'" in capsys.readouterr().err


def test_config_bad_case_value_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("case = nope\n")
    assert main(["validate", "--config", str(cfg)]) == 1
    assert "unknown case 'nope'" in capsys.readouterr().err


def test_config_bad_number_names_the_key_and_value(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for text, want in (
        ("n = x\n", "config key n: invalid int value 'x'"),
        ("hmin = tiny\n", "config key hmin: invalid float value 'tiny'"),
    ):
        cfg.write_text(text)
        assert main(["convergence", "--case", "cs", "--config", str(cfg)]) == 1
        assert f"error: {want}\n" == capsys.readouterr().err
    cfg.write_text("center = 0.25 y\n")
    assert main(["construct", "--case", "cs", "--config", str(cfg)]) == 1
    assert "config key center: invalid float value 'y'" in capsys.readouterr().err


def test_read_config_grammar(tmp_path):
    cfg = tmp_path / "grammar.cfg"
    cfg.write_text("a = 1\n\n# full-line comment\nb= two words # trailing\n")
    assert read_config(cfg) == {"a": "1", "b": "two words"}
    cfg.write_text("just some text\n")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        read_config(cfg)
