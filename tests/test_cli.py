"""End-to-end command-line tests through a real interpreter, so argument
parsing, exit codes, stream separation, and output formats are all covered
as a user would hit them."""

import csv
import io
import json
import subprocess
import sys
import types

import pytest


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "hypersum", *args],
                          capture_output=True, text=True, timeout=300)


def json_lines(proc):
    return [json.loads(line) for line in proc.stdout.splitlines()]


def csv_records(proc):
    header, *rows = csv.reader(io.StringIO(proc.stdout))
    assert all(len(row) == len(header) for row in rows)
    return [dict(zip(header, row)) for row in rows]


class TestHyp2f1Command:
    def test_x_zero(self):
        proc = run_cli("hyp2f1", "--a", "0.5", "--b", "1", "--c", "2", "--x", "0")
        assert proc.returncode == 0
        rec = json_lines(proc)[0]
        assert rec["value"] == 1.0
        assert rec["status"] == "ok"

    def test_unit_argument(self):
        proc = run_cli("hyp2f1", "--a", "0.5", "--b", "1", "--c", "2", "--x", "1")
        assert proc.returncode == 0
        rec = json_lines(proc)[0]
        assert rec["value"] == pytest.approx(2.0, rel=1e-14)
        assert rec["method"] == "GaussPoint"

    def test_unit_argument_small_c_exits_2(self):
        proc = run_cli("hyp2f1", "--a", "0.5", "--b", "1", "--c", "1", "--x", "1")
        assert proc.returncode == 2
        assert json_lines(proc)[0]["status"] == "DomainError"
        assert "error" in proc.stderr

    def test_overflow_exits_3(self):
        proc = run_cli("hyp2f1", "--a", "300", "--b", "300", "--c", "1", "--x", "0.99")
        assert proc.returncode == 3
        (rec,) = json_lines(proc)
        assert rec["status"] == "OverflowError"
        assert "error" in proc.stderr
        # The record names the series and how far past double range it is.
        assert rec["error"].startswith("2F1(300.0, 300.0; 1.0; 0.99) is past the largest double")
        assert "log|value| = 3168.08" in rec["error"]

    def test_half_one_at_huge_negative_x(self):
        # 2F1(1/2, 1; 4; -1e300) = 3.2e-150, with s = sqrt(1 - x) = 1e150:
        # no step may form (1+s)^3, which is past double range.
        proc = run_cli("hyp2f1", "--a", "0.5", "--b", "1", "--c", "4", "--x=-1e300")
        assert proc.returncode == 0, proc.stderr
        (rec,) = json_lines(proc)
        assert rec["status"] == "ok"
        assert rec["value"] == pytest.approx(3.2e-150, rel=1e-14)

    def test_nan_argument_exits_2(self):
        proc = run_cli("hyp2f1", "--a", "0.5", "--b", "1", "--c", "2", "--x", "nan")
        assert proc.returncode == 2
        assert json_lines(proc)[0]["status"] == "DomainError"

    def test_general_series_route(self):
        proc = run_cli("hyp2f1", "--a", "0.3", "--b", "1.7", "--c", "2.2", "--x", "0.41")
        rec = json_lines(proc)[0]
        assert rec["value"] == pytest.approx(1.1250354463099930076, rel=1e-12)


class TestSumCommand:
    def test_geometric_point(self):
        proc = run_cli("sum", "--eta", "1", "--c", "2", "--x", "0")
        assert proc.returncode == 0
        rec = json_lines(proc)[0]
        assert rec["value"] == pytest.approx(2.0, rel=1e-13)
        assert rec["method"] == "auto"
        assert rec["continuation"] is False

    def test_tiny_eta_at_x_zero(self):
        proc = run_cli("sum", "--eta", "1e-300", "--c", "2", "--x", "0")
        assert proc.returncode == 0
        rec = json_lines(proc)[0]
        assert rec["status"] == "ok"
        assert rec["value"] == pytest.approx(1e300, rel=1e-13)
        proc = run_cli("sum", "--eta", "1e-300", "--c", "2", "--x", "0", "--format", "csv")
        assert proc.returncode == 0
        header, row = proc.stdout.splitlines()
        rec = dict(zip(header.split(","), row.split(",")))
        assert rec["status"] == "ok"
        assert float(rec["value"]) == pytest.approx(1e300, rel=1e-13)

    def test_divergent_exits_2(self):
        proc = run_cli("sum", "--eta", "0.4", "--c", "2", "--x", "0.5")
        assert proc.returncode == 2
        assert json_lines(proc)[0]["status"] == "NotConvergent"

    def test_infinite_argument_exits_2(self):
        proc = run_cli("sum", "--eta", "inf", "--c", "2", "--x", "0.5")
        assert proc.returncode == 2
        assert json_lines(proc)[0]["status"] == "DomainError"

    def test_divergent_csv_is_a_row(self):
        proc = run_cli("sum", "--eta", "0.4", "--c", "2", "--x", "0.5", "--format", "csv")
        assert proc.returncode == 2
        recs = csv_records(proc)
        assert len(recs) == 1
        assert recs[0]["status"] == "NotConvergent"
        assert recs[0]["value"] == ""
        assert "diverges" in proc.stderr

    def test_overflow_csv_exits_3(self):
        proc = run_cli("sum", "--eta", "1e-310", "--c", "2", "--x", "0", "--format", "csv")
        assert proc.returncode == 3
        assert [r["status"] for r in csv_records(proc)] == ["OverflowError"]

    def test_routes_agree(self):
        a = json_lines(run_cli("sum", "--eta", "2", "--c", "2.5", "--x", "0.5",
                               "--method", "direct"))[0]
        b = json_lines(run_cli("sum", "--eta", "2", "--c", "2.5", "--x", "0.5",
                               "--method", "closed"))[0]
        assert a["value"] == pytest.approx(b["value"], rel=1e-9)
        assert a["method"] == "direct"
        assert b["method"] == "closed"

    def test_slow_convergence_exits_3(self):
        # The term ratio 0.999999 is too close to 1 for the fitted tail,
        # so the sum runs to the default cap.
        proc = run_cli("sum", "--eta", "0.500001", "--c", "2", "--x", "0.25",
                       "--method", "direct")
        assert proc.returncode == 3
        assert json_lines(proc)[0]["status"] == "SlowConvergence"

    @pytest.mark.parametrize("c", ["1e10", "1e300", "1.7e308"])
    def test_huge_c_exits_3(self, c):
        proc = run_cli("sum", "--eta", "2", "--c", c, "--x", "0.5", "--method", "direct")
        assert proc.returncode == 3
        assert json_lines(proc)[0]["status"] == "NonConvergent"
        assert "seed columns" in proc.stderr and "Traceback" not in proc.stderr

    def test_huge_c_closed_route_exits_3_at_once(self):
        # The quadratic-transformation series meets a non-finite term at
        # n = 2 and stops there; c = 1e300 answers in 30 terms.
        proc = run_cli("sum", "--eta", "2", "--c", "1.7e308", "--x", "0.5")
        assert proc.returncode == 3
        assert json_lines(proc)[0]["status"] == "OverflowError"
        assert "not finite" in proc.stderr and "Traceback" not in proc.stderr
        proc = run_cli("sum", "--eta", "2", "--c", "1e300", "--x", "0.5")
        assert proc.returncode == 0
        assert json_lines(proc)[0]["value"] == pytest.approx(1.2, rel=1e-14)


class TestProgenyCommand:
    def test_pmf_rows(self):
        proc = run_cli("progeny", "pmf", "--lambda", "0.6", "--lmax", "5")
        assert proc.returncode == 0
        recs = json_lines(proc)
        assert len(recs) == 5
        assert recs[0]["p"] == pytest.approx(0.625, rel=1e-13)
        assert recs[4]["p"] == pytest.approx(0.02175, rel=1e-12)
        assert [r["ell"] for r in recs] == [1, 2, 3, 4, 5]

    def test_pgf_is_proper_at_one(self):
        proc = run_cli("progeny", "pgf", "--lambda", "0.6", "--z", "1")
        rec = json_lines(proc)[0]
        assert rec["value"] == pytest.approx(1.0, rel=1e-12)
        assert rec["route"] == "hypergeometric"

    def test_pgf_beyond_radius_uses_surd(self):
        proc = run_cli("progeny", "pgf", "--lambda", "0.6", "--z", "12")
        assert json_lines(proc)[0]["route"] == "elementary"

    def test_general_running_sum(self):
        proc = run_cli("progeny", "general", "--c", "2.5", "--x", "0.49",
                       "--lmax", "8")
        recs = json_lines(proc)
        sums = [r["running_sum"] for r in recs]
        assert all(b > a for a, b in zip(sums, sums[1:]))
        assert sums[-1] < 1.0
        assert recs[6]["q"] == pytest.approx(0.012759031367243320982, rel=1e-12)

    @pytest.mark.parametrize("c", ["1e10", "1e300"])
    def test_general_at_huge_c_exits_3(self, c):
        proc = run_cli("progeny", "general", "--c", c, "--x", "0.5", "--lmax", "3")
        assert proc.returncode == 3
        assert json_lines(proc)[0]["status"] == "NonConvergent"
        assert "seed columns" in proc.stderr and "Traceback" not in proc.stderr

    def test_stalled_lambda_exits_3(self):
        proc = run_cli("progeny", "pmf", "--lambda", "0.005", "--lmax", "3")
        assert proc.returncode == 3
        assert json_lines(proc)[0]["status"] == "NonConvergent"
        assert "lam = 0.005" in proc.stderr and "Traceback" not in proc.stderr

    def test_bad_lambda_exits_2(self):
        proc = run_cli("progeny", "pmf", "--lambda", "1.0", "--lmax", "3")
        assert proc.returncode == 2

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_tiny_lambda_exits_2(self, fmt):
        # 1 - lam^2 rounds to 1 for lam below about 7.45e-9.
        proc = run_cli("progeny", "pmf", "--lambda", "1e-9", "--lmax", "5", "--format", fmt)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        rec = json_lines(proc)[0] if fmt == "json" else csv_records(proc)[0]
        assert rec["status"] == "DomainError"

    def test_csv_format(self):
        proc = run_cli("progeny", "pmf", "--lambda", "0.6", "--lmax", "3",
                       "--format", "csv")
        lines = proc.stdout.splitlines()
        assert lines[0] == "lambda,ell,p,status"
        assert len(lines) == 4
        assert lines[1].split(",")[1] == "1"


class TestSimulateCommand:
    def test_record_fields_and_determinism(self):
        args = ("simulate", "--lambda", "0.6", "--n", "2000", "--seed", "9")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        rec = json_lines(a)[0]
        assert rec["chi_square"] < rec["threshold_0999"]
        assert rec["censored"] == 0
        assert rec["empirical_counts"]["1"] > 1000

    def test_workers_do_not_change_output(self):
        base = ("simulate", "--lambda", "0.6", "--n", "4000", "--seed", "21")
        one = run_cli(*base, "--workers", "1")
        two = run_cli(*base, "--workers", "2")
        assert one.stdout == two.stdout

    def test_non_half_alpha_has_no_analytic_cells(self):
        proc = run_cli("simulate", "--alpha", "0.3", "--lambda", "0.6",
                       "--n", "500", "--seed", "4")
        rec = json_lines(proc)[0]
        assert rec["chi_square"] is None
        assert rec["dof"] is None

    def test_non_half_alpha_csv_cells_are_empty(self):
        proc = run_cli("simulate", "--alpha", "0.3", "--lambda", "0.6",
                       "--n", "500", "--seed", "4", "--format", "csv")
        assert proc.returncode == 0
        (rec,) = csv_records(proc)
        assert rec["chi_square"] == rec["dof"] == ""
        assert rec["status"] == "ok"


class TestVerifyCommand:
    def test_suite_passes(self):
        proc = run_cli("verify", "--suite", "theorem2")
        assert proc.returncode == 0
        rec = json_lines(proc)[0]
        assert rec["pass"] is True
        assert rec["status"] == "ok"

    def test_suite_record_has_seconds(self):
        # Every suite is timed, not only the two whose pass rules use it.
        rec = json_lines(run_cli("verify", "--suite", "theorem2"))[0]
        assert isinstance(rec["seconds"], float) and 0.0 <= rec["seconds"] < 1e6


    @pytest.mark.parametrize("suite, patch", [
        ("closed-forms", "v._gauss_reference = lambda c: 1.0"),
        ("corollary1", "f = v.general_progeny_pmf_range; "
                       "v.general_progeny_pmf_range = lambda law, n: [2.0 * q for q in f(law, n)]"),
    ], ids=["closed-forms", "corollary1"])
    def test_failing_suite_exits_4(self, suite, patch):
        # A wrong Gauss-theorem reference fails closed-forms; doubled general
        # pmf values fail corollary1's mass check, whose tail fit is solved
        # by numpy. Either verdict must be a Python bool, which the JSON
        # writer takes without a hook.
        code = ("import sys, hypersum.verify as v; from hypersum.cli import main; "
                "%s; sys.exit(main(['verify', '--suite', %r]))" % (patch, suite))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 4, proc.stderr
        (rec,) = json_lines(proc)
        assert rec["pass"] is False
        assert rec["status"] == "fail"


class TestOutputRedirect:
    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "rows.json"
        proc = run_cli("--out", str(target), "progeny", "pmf",
                       "--lambda", "0.6", "--lmax", "2")
        assert proc.returncode == 0
        assert proc.stdout == ""
        recs = [json.loads(line) for line in target.read_text().splitlines()]
        assert len(recs) == 2
        assert recs[0]["p"] == pytest.approx(0.625, rel=1e-13)


def _loaded_after(code):
    """(rc, modules) after ``code`` runs in a fresh interpreter: the value
    ``code`` leaves in ``rc``, and which of numpy, scipy, numpy.random and
    multiprocessing sys.modules then holds."""
    probe = ("import contextlib, io, json, sys\n"
             "rc = None\n"
             "with contextlib.redirect_stdout(io.StringIO()), "
             "contextlib.redirect_stderr(io.StringIO()):\n"
             "    %s\n"
             "print(json.dumps([rc, sorted(m for m in sys.modules if m in "
             "('numpy', 'scipy', 'numpy.random', 'multiprocessing'))]))" % code)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rc, mods = json.loads(proc.stdout)
    return rc, set(mods)


def _main(*argv):
    return "from hypersum import cli; rc = cli.main(%r)" % (list(argv),)


class TestImportSurface:
    def test_public_names(self):
        import hypersum

        names = sorted(n for n, v in vars(hypersum).items()
                       if not n.startswith("_") and not isinstance(v, types.ModuleType))
        assert names == [
            "AsymptoticEval", "ClosedFormArgument", "ConvergenceVerdict", "DomainError",
            "DualOffspringSampler", "EvalResult", "GeneralProgenyLaw", "GofReport", "HypParams",
            "HypersumError", "InsufficientData", "Method", "NonConvergent", "NotConvergent",
            "ProgenyHalfLaw", "QuadratureFailure", "Reason", "RootFindFailure", "ScaledSibuya",
            "SimConfig", "SimCounts", "SlowConvergence", "SumParams", "chi_square_threshold",
            "convergence_check", "dual_offspring_pmf", "evaluate", "extinction_prob",
            "functional_equation_residual", "general_progeny_pmf", "general_progeny_pmf_range",
            "gof_compare", "h_alpha_pgf", "hyp2f1_half_one", "hyp2f1_ladder", "hyp2f1_large_k",
            "hyp2f1_series", "letac_sum", "normalization_identity", "progeny_pgf_elementary",
            "progeny_pgf_hypergeometric", "progeny_pmf", "progeny_pmf_bessel_oracle",
            "progeny_pmf_range", "progeny_pmf_series_coeffs", "run_suite", "sibuya_pgf",
            "sibuya_pmf", "simulate_total_progeny", "sum_closed", "sum_direct", "sum_special",
        ]

    @pytest.mark.parametrize("code", ["import hypersum", "import hypersum.cli"],
                             ids=["package", "cli"])
    def test_import_loads_neither_numpy_nor_scipy(self, code):
        # Each is imported by the functions that compute with it: simulate
        # imports numpy.random where it draws and multiprocessing where it
        # forks workers.
        assert _loaded_after(code) == (None, set())

    def test_cli_import_loads_no_scipy(self):
        code = ("import sys, hypersum.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_loads_no_random_or_multiprocessing(self):
        # simulate imports them where it draws and where it forks workers.
        code = ("import sys, hypersum.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'multiprocessing' or m.startswith('numpy.random')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv,rc", [
        (("hyp2f1", "--a", "0.5", "--b", "1", "--c", "2.5", "--x", "-3"), 0),
        (("hyp2f1", "--a", "0.7", "--b", "1.2", "--c", "2.5", "--x", "0.3"), 0),
        (("sum", "--eta", "2", "--c", "2", "--x", "0.5"), 0),
        (("sum", "--eta", "2", "--c", "2", "--x", "0.5", "--method", "closed"), 0),
        (("sum", "--eta", "2", "--c", "2", "--x", "0.5", "--method", "special"), 0),
        (("sum", "--eta", "0.4", "--c", "2", "--x", "0.5"), 2),
        (("sum", "--eta", "0.4", "--c", "2", "--x", "0.5", "--method", "direct"), 2),
        (("progeny", "pmf", "--lambda", "0.6", "--lmax", "0"), 2),
        (("hyp2f1", "--a", "0.5", "--b", "1", "--c", "2", "--x", "nan"), 2),
        (("progeny", "pgf", "--lambda", "0.6", "--z", "0.5"), 0),
        (("progeny", "pgf", "--lambda", "0.6", "--z", "12"), 0),
        (("verify", "--suite", "functional-eq"), 0),
    ])
    def test_plain_python_routes_and_error_paths_load_no_numpy(self, argv, rc):
        got, mods = _loaded_after(_main(*argv))
        assert got == rc
        assert "numpy" not in mods and "scipy" not in mods

    @pytest.mark.parametrize("argv", [
        ("simulate", "--lambda", "0.6", "--n", "2000", "--seed", "3"),
        ("verify", "--suite", "montecarlo", "--replicates", "20000"),
    ])
    def test_monte_carlo_loads_no_scipy(self, argv):
        got, mods = _loaded_after(_main(*argv))
        assert got == 0
        assert "numpy" in mods and "scipy" not in mods

    @pytest.mark.parametrize("code", [
        _main("verify", "--suite", "corollary1"),
        "from hypersum import ProgenyHalfLaw, progeny_pmf_bessel_oracle; "
        "rc = 0 if progeny_pmf_bessel_oracle(ProgenyHalfLaw(0.6), 15) > 0 else 1",
    ], ids=["corollary1", "bessel-oracle"])
    def test_quadrature_and_zeta_tail_load_no_scipy(self, code):
        # The Bessel oracle's trapezoid sums and corollary1's Hurwitz-zeta
        # tail run in plain Python.
        got, mods = _loaded_after(code)
        assert got == 0
        assert "scipy" not in mods
