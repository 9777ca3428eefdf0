import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import weitzlab
from weitzlab import cli
from weitzlab import curvature as curv
from weitzlab import representations as reps
from weitzlab import so_algebra as so
from weitzlab import spin, suites
from weitzlab import weitzenbock as wb
from weitzlab.report import CheckReport, digest


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def run_json(args, capsys):
    code, out = run_cli(args + ["--format", "json"], capsys)
    return code, json.loads(out)


class TestKCommand:
    def test_spinor_sphere_quarter_scalar(self, capsys):
        code, payload = run_json(
            ["k", "--n", "4", "--rep", "spin", "--curvature", "sphere", "--t", "-4"], capsys
        )
        assert code == 0
        spectrum = payload["reports"][0]["spectrum"]
        assert spectrum == [6, 6, 6, 6]
        assert payload["reports"][0]["details"]["vanishing_verdict"] == "vanishes"

    def test_trivial_rep_zero_matrix(self, capsys):
        code, payload = run_json(
            ["k", "--n", "3", "--rep", "trivial", "--curvature", "random:7"], capsys
        )
        assert code == 0
        assert payload["reports"][0]["spectrum"] == [0]
        assert payload["reports"][0]["details"]["vanishing_verdict"] == "parallel-only"

    def test_tolerance_zero_sets_the_vanishing_threshold(self, capsys):
        # t K has spectrum -3e-12 everywhere: inside the default 1e-9,
        # so parallel-only, but negative at an explicit tolerance of 0
        args = ["k", "--n", "4", "--rep", "vector", "--curvature", "sphere", "--t", "1e-12"]
        _, default = run_json(args, capsys)
        _, zero = run_json(args + ["--tolerance", "0"], capsys)
        assert max(default["reports"][0]["spectrum"]) < 0
        assert default["reports"][0]["details"]["vanishing_verdict"] == "parallel-only"
        assert zero["reports"][0]["details"]["vanishing_verdict"] == "no-conclusion"

    def test_vector_sphere_ricci(self, capsys):
        code, payload = run_json(
            ["k", "--n", "3", "--rep", "vector", "--curvature", "sphere", "--t", "-2"], capsys
        )
        assert code == 0
        assert payload["reports"][0]["spectrum"] == [4, 4, 4]

    def test_preset(self, capsys):
        code, payload = run_json(
            ["k", "--n", "4", "--rep", "spin", "--curvature", "sphere", "--preset", "spinor_dirac"],
            capsys,
        )
        assert code == 0
        assert payload["reports"][0]["spectrum"] == [6, 6, 6, 6]

    @pytest.mark.parametrize("t", ("-2.5", "0", "-0", "3"))
    def test_spectrum_is_t_times_k_spectrum(self, t, capsys):
        code, out = run_cli(["k", "--n", "4", "--rep", "exterior:2", "--curvature", "random:3", "--t", t], capsys)
        report = json.loads(out)["reports"][0]
        assert code == 0
        assert report["spectrum"] == list(np.sort(float(t) * np.array(report["details"]["k_spectrum"])))
        # no negative zero in the canonical payload
        assert not re.search(r"[\[,]-0[,\]]", out)

    def test_tensor_selector(self, capsys):
        code, payload = run_json(
            ["k", "--n", "3", "--rep", "tensor:vector,vector", "--curvature", "sphere"], capsys
        )
        assert code == 0
        assert len(payload["reports"][0]["spectrum"]) == 9

    def test_group_source(self, capsys):
        code, payload = run_json(
            ["k", "--rep", "spin", "--curvature", "group:A1", "--t", "-4"], capsys
        )
        assert code == 0
        # -4K = s/4 = dim/16 = 3/16 on the A1 group spinors
        assert np.allclose(payload["reports"][0]["spectrum"], 3.0 / 16.0)

    @pytest.mark.parametrize(
        ("argv", "definiteness", "verdict"),
        [
            (["--n", "4", "--rep", "spin", "--t", "-4"], "positive-definite", "vanishes"),
            (["--n", "4", "--rep", "vector", "--t", "2"], "negative-definite", "no-conclusion"),
            (["--n", "4", "--rep", "trivial"], "zero", "parallel-only"),
            (["--n", "4", "--rep", "exterior:4", "--preset", "hodge"], "zero", "parallel-only"),
        ],
    )
    def test_definiteness_field(self, argv, definiteness, verdict, capsys):
        code, payload = run_json(["k", *argv, "--curvature", "sphere"], capsys)
        assert code == 0
        details = payload["reports"][0]["details"]
        assert details["definiteness"] == definiteness
        assert details["vanishing_verdict"] == verdict

    def test_indefinite_field(self, tmp_path, capsys):
        # diag(1, -1) on the first two basis directions: K has both signs on
        # the vector representation of so(3)
        path = tmp_path / "indefinite.json"
        path.write_text(json.dumps(oracles.curvature_json(curv.curvature_operator(3, np.diag([1.0, -1.0, 0.0])))))
        code, payload = run_json(["k", "--n", "3", "--rep", "vector", "--curvature", f"file:{path}"], capsys)
        assert code == 0
        assert payload["reports"][0]["details"]["definiteness"] == "indefinite"

    def test_compatibility_error_exit_3_other_value_error_exit_2(self, monkeypatch, capsys):
        # the exit code follows the exception type, not its message
        argv = ["k", "--n", "3", "--rep", "vector", "--curvature", "sphere"]

        def raising(exc):
            def k_term(r, rep):
                raise exc
            return k_term

        monkeypatch.setattr(wb, "k_term", raising(wb.CompatibilityError("x")))
        assert cli.main(argv) == 3
        monkeypatch.setattr(wb, "k_term", raising(ValueError("3 basis directions; lives on so(3)")))
        assert cli.main(argv) == 2
        capsys.readouterr()

    @staticmethod
    def _upper_vector(spec, basis):
        """The vector generators with their entries below the diagonal
        dropped: no representation by skew matrices, and K on it is not
        self-adjoint."""
        t = reps.rep_vector(basis).table
        up = t.row < t.col
        return reps.Rep(basis, basis.n, reps.gen_table(t.gen[up], t.row[up], t.col[up], t.val[up], basis.n), "upper")

    def test_non_self_adjoint_k_fails_its_report(self, monkeypatch, capsys):
        # the residual ||K - K*|| / max(1, ||K||) is the report's verdict,
        # exit 1, not a refusal of the solver
        monkeypatch.setattr(cli, "_k_rep", self._upper_vector)
        code, payload = run_json(["k", "--n", "3", "--rep", "vector", "--curvature", "random:1"], capsys)
        [report] = payload["reports"]
        k = wb.k_matrix(curv.random_curvature(3, 1), self._upper_vector(None, so.basis(3)))
        want = np.linalg.norm(k - k.conj().T) / max(1.0, np.linalg.norm(k))
        assert code == 1 and report["pass"] is False
        assert want > 0.1 and abs(report["residual"] - want) <= 1e-15
        assert report["details"]["k_spectrum"] == np.linalg.eigvalsh(((k + k.conj().T) / 2).real).tolist()

    def test_non_finite_k_exit_2(self, monkeypatch, capsys):
        monkeypatch.setattr(wb, "k_matrix", lambda r, rep: np.full((rep.dim, rep.dim), np.nan))
        code = cli.main(["k", "--n", "3", "--rep", "vector", "--curvature", "sphere"])
        assert (code, capsys.readouterr().err) == (2, "error: matrix has non-finite entries\n")

    def test_dimension_mismatch_exit_3(self, capsys):
        code = cli.main(["k", "--n", "5", "--rep", "vector", "--curvature", "group:A1"])
        capsys.readouterr()
        assert code == 3

    def test_unknown_rep_exit_2(self, capsys):
        code = cli.main(["k", "--n", "3", "--rep", "wobble", "--curvature", "sphere"])
        capsys.readouterr()
        assert code == 2

    def test_out_of_range_degree_exit_2(self, capsys):
        code = cli.main(["k", "--n", "3", "--rep", "exterior:9", "--curvature", "sphere"])
        capsys.readouterr()
        assert code == 2

    def test_half_spin_odd_n_exit_2(self, capsys):
        code = cli.main(["k", "--n", "3", "--rep", "spin:+", "--curvature", "sphere"])
        capsys.readouterr()
        assert code == 2

    def test_module_entry_point(self):
        out = subprocess.run(
            [sys.executable, "-m", "weitzlab", "--version"], capture_output=True, text=True
        )
        assert out.returncode == 0
        assert out.stdout.strip() == "0.1.0"

    def test_bare_random_rejected(self, capsys):
        code = cli.main(["k", "--n", "3", "--rep", "vector", "--curvature", "random"])
        capsys.readouterr()
        assert code == 2


CAP_BYTES = 3 << 30


def _capped_child(args) -> dict:
    """Arguments of a child process that runs the CLI under a 3 GiB
    address-space cap, set in the child only, with one BLAS thread."""
    src = os.path.dirname(os.path.dirname(weitzlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return dict(
        args=[sys.executable, "-m", "weitzlab", *args],
        env=env,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (CAP_BYTES, CAP_BYTES)),
    )


def run_capped(args):
    return subprocess.run(**_capped_child(args), capture_output=True, timeout=300)


def run_capped_peak(args) -> tuple[int, str, str, float]:
    """:func:`run_capped` with the child's own peak RSS, in MiB, from
    ``os.wait4``: exit code, stdout, stderr and the peak."""
    with subprocess.Popen(**_capped_child(args), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        out, err = proc.stdout.read(), proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, usage.ru_maxrss / 1024


class TestScaleLimit:
    def test_exterior6_n12_sphere(self):
        # K of the sphere is the Casimir, -p(n - p) on all of Lambda^p
        out = run_capped(["k", "--n", "12", "--rep", "exterior:6", "--curvature", "sphere"])
        assert out.returncode == 0, out.stderr
        spectrum = json.loads(out.stdout)["reports"][0]["spectrum"]
        assert len(spectrum) == 924
        assert np.max(np.abs(np.array(spectrum) + 36.0)) <= 36.0 * 1e-12

    def test_exterior6_n12_random(self):
        out = run_capped(["k", "--n", "12", "--rep", "exterior:6", "--curvature", "random:1"])
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["reports"][0]["pass"] is True

    def test_group_model_c3(self):
        # spinors of so(21): 210 generators on 1024 dimensions
        out = run_capped(["check", "group-model", "--algebra", "C3", "--seed", "1"])
        assert out.returncode == 0, out.stderr
        reports = json.loads(out.stdout)["reports"]
        assert [r["check"] for r in reports][-1] == "group-spin-curvature-term"
        assert all(r["pass"] for r in reports)

    def test_group_model_defaults_pass_without_a_dense_k(self):
        # the default algebras include D4, whose spinors of so(28) would take
        # a 4 GiB dense K; the suite reads K from its blade coefficients
        started = time.perf_counter()
        code, out, err, peak_mb = run_capped_peak(["check", "group-model"])
        elapsed = time.perf_counter() - started
        assert code == 0, err
        reports = json.loads(out)["reports"]
        spin_terms = [r for r in reports if r["check"] == "group-spin-curvature-term"]
        assert [r["inputs"]["algebra"] for r in spin_terms] == ["A1", "A2", "B2", "C3", "D4", "G2"]
        assert all(r["pass"] for r in reports)
        assert elapsed < 2.0 and peak_mb < 100


    def test_sphere_casimir_n12_from_the_tables(self):
        # the Casimir is the self-join of each rep's table: no (N, d, d)
        # stack, 66 x 495 x 495 complex for exterior(4), is formed
        code, out, err, peak_mb = run_capped_peak(["check", "sphere-casimir", "--n", "12"])
        assert code == 0, err
        assert all(r["pass"] for r in json.loads(out)["reports"])
        assert peak_mb < 200


class TestSizePreflight:
    def test_k_term_refused_before_k_on_a_tensor_rep(self):
        # d = 120^2: a float64 K of 1.66 GB fits, but not the spectrum's
        # three K-sized arrays beside the table (604800 entries x 40 bytes,
        # nnz1 d2 + d1 nnz2 counted from the factors)
        code, out, err, peak_mb = run_capped_peak(
            ["k", "--n", "10", "--rep", "tensor:exterior:3,exterior:3", "--curvature", "random:1"]
        )
        assert code == 2 and out == ""
        what = "the spectrum of K (3 x 14400 x 14400 x 8 bytes beside 24192000 bytes of its representation) needs 5000832000"
        assert err == f"error: out of memory: {what} bytes, more than the address-space limit of 3221225472 bytes\n"
        assert peak_mb < 100  # refused from the factors, before their table is joined

    @pytest.mark.parametrize(
        "argv, n, peak_bound_mb",
        (
            (["check", "lichnerowicz", "--n", "64", "--trials", "2"], 64, 150),
            # so(80) from the dimension of A8, before its model is built
            (["check", "group-model", "--algebra", "A8"], 80, 150),
        ),
        ids=["lichnerowicz-n64", "group-model-A8"],
    )
    def test_spinors_beyond_63_generators_refused(self, argv, n, peak_bound_mb):
        # blade masks are int64 bit sets of the generators: from n = 64 they
        # would overflow, so the request is refused with one line, no verdict
        code, out, err, peak_mb = run_capped_peak(argv)
        assert code == 2 and out == ""
        assert err == f"error: spinors of so({n}) are out of range: blade masks are 64-bit sets of at most 63 generators\n"
        assert peak_mb <= peak_bound_mb

    def test_group_curvature_refused_before_its_algebra(self):
        # R of A20 on so(440) is 96580^2 float64, about 75 GB: refused from
        # the label, before the 440 brackets of its model are formed
        code, out, err, peak_mb = run_capped_peak(["k", "--rep", "vector", "--curvature", "group:A20"])
        assert code == 2 and out == ""
        assert err.startswith("error: out of memory: the curvature operator of group:A20 on so(440)")
        assert err.count("\n") == 1
        assert peak_mb < 100

    def test_group_bianchi_check_refused_before_its_tables(self):
        # A11 on so(143): R is 10153^2 float64 (825 MB), and the Bianchi
        # check's 4-subset tables peak near 3.2 GB beside it
        started = time.perf_counter()
        code, out, err, peak_mb = run_capped_peak(["k", "--rep", "vector", "--curvature", "group:A11"])
        elapsed = time.perf_counter() - started
        assert code == 2 and out == ""
        assert err == (
            "error: out of memory: the curvature operator of group:A11 on so(143) and its Bianchi check "
            "(10153^2 x 8 bytes beside 16701685 4-subsets x 190 bytes) needs 3997987422 bytes, "
            "more than the address-space limit of 3221225472 bytes\n"
        )
        assert peak_mb < 100 and elapsed < 1.0

    @pytest.mark.parametrize("label", ("A9", "A10"))
    def test_group_that_fits_with_its_bianchi_check_is_not_refused(self, label, monkeypatch):
        # A9 and A10 run to exit 0 under a 3 GiB cap, at 0.96 and 2.01 GB
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        monkeypatch.setattr(resource, "getrlimit", lambda which: (3 << 30, hard))
        curv.require_group(label)

    def test_spin_n40_refused_before_its_tables(self):
        # the (780, 2^20) spin table would take about 100 GB: refused from
        # its size, in about a start-up's time, before anything is built
        started = time.perf_counter()
        out = run_capped(["k", "--n", "40", "--rep", "spin", "--curvature", "sphere"])
        elapsed = time.perf_counter() - started
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.startswith("error: out of memory: ") and out.stderr.count("\n") == 1
        assert "bytes, more than the address-space limit of 3221225472 bytes" in out.stderr
        assert elapsed < 2.0

    @pytest.mark.parametrize("rep, n", (("spin", 28), ("spin:-", 30), ("spin:+", 28)))
    def test_spin_k_refused_before_its_rep(self, rep, n):
        # a 4 GiB complex K on 2^14 spinors: refused from n alone before the
        # table of the rep (about 750 MB at n = 28) is built.  The 1 GiB K of
        # spin:+ at n = 28 fits, but the spectrum's three K-sized arrays
        # beside the rep's table (378 generators x 8192 rows x 40 bytes) do not
        started = time.perf_counter()
        code, out, err, peak_mb = run_capped_peak(["k", "--n", str(n), "--rep", rep, "--curvature", "sphere"])
        elapsed = time.perf_counter() - started
        assert code == 2 and out == ""
        if rep == "spin:+":
            what = "the spectrum of K (3 x 8192 x 8192 x 16 bytes beside 123863040 bytes of its representation) needs 3345088512"
        else:
            what = "K (1 x 16384 x 16384 x 16 bytes) needs 4294967296"
        assert err == f"error: out of memory: {what} bytes, more than the address-space limit of 3221225472 bytes\n"
        assert peak_mb < 100 and elapsed < 2.0

    @pytest.mark.parametrize(
        "n, rep, sub, label, pieces, nbytes",
        # 16 bytes per entry of (pieces + 6) d^2: spin (x) spin under u(3) has
        # d = 64 and 10 pieces, exterior(4) under u(6) d = 495 and 9; both
        # need more than the torus eigendecompositions' 192 d^2
        (
            (6, "tensor:spin,spin", "u:3", "spin(x)spin|u(3)", 10, 1048576),
            (12, "exterior:4", "u:6", "exterior(4)|u(6)", 9, 58806000),
        ),
    )
    def test_projectors_refused_before_they_are_formed(self, n, rep, sub, label, pieces, nbytes, monkeypatch, capsys):
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        argv = ["decompose", "--n", str(n), "--rep", rep, "--sub", sub]
        monkeypatch.setattr(resource, "getrlimit", lambda which: (nbytes - 1, hard))
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"error: out of memory: the projectors of the {pieces} isotypic pieces of {label} "
            f"needs {nbytes} bytes, more than the address-space limit of {nbytes - 1} bytes\n"
        )
        monkeypatch.setattr(resource, "getrlimit", lambda which: (nbytes, hard))
        assert cli.main(argv) == 0

    def test_torus_eigendecomposition_refused_before_its_matrices(self, monkeypatch, capsys):
        # spin of so(4): two 4 x 4 eigendecompositions, 96 bytes an entry
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        monkeypatch.setattr(resource, "getrlimit", lambda which: (3071, hard))
        code = cli.main(["decompose", "--n", "4", "--rep", "spin", "--sub", "so-full"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "error: out of memory: the torus eigendecompositions of spin and spin needs 3072 bytes, "
            "more than the address-space limit of 3071 bytes\n"
        )


class TestTrialPreflight:
    def test_huge_trial_count_refused_before_any_work(self):
        # 10^9 lemma:k2 trials would be hours of work and gigabytes of
        # reports; the pre-flight refuses them in about a start-up's time
        started = time.perf_counter()
        out = run_capped(["check", "lemma:k2", "--trials", "1000000000", "--seed", "1"])
        elapsed = time.perf_counter() - started
        assert out.returncode == 2
        assert elapsed < 2.0
        assert out.stdout == ""
        [line] = out.stderr.splitlines()
        assert line.startswith("error: ") and "1000000000" in line and "MiB" in line


class TestCheckCommand:
    def test_lichnerowicz_passes(self, capsys):
        code, payload = run_json(
            ["check", "lichnerowicz", "--n", "5", "--trials", "5", "--seed", "1"], capsys
        )
        assert code == 0
        assert payload["summary"]["failed"] == 0
        checks = {r["check"] for r in payload["reports"]}
        assert checks == {"lichnerowicz", "lichnerowicz-negative-control"}

    def test_strange_all_algebras(self, capsys):
        code, payload = run_json(["check", "strange", "--algebra", "A1,A2,B2,G2"], capsys)
        assert code == 0
        assert payload["summary"]["total"] == 4
        assert payload["summary"]["passed"] == 4

    def test_strange_builds_no_matrix_model(self, capsys, monkeypatch):
        class NoModels(dict):
            def __getitem__(self, family):
                raise AssertionError(f"the strange suite built a matrix model of family {family}")

        monkeypatch.setattr(so, "_MODEL_BUILDERS", NoModels())
        code, payload = run_json(["check", "strange", "--seed", "1"], capsys)
        assert code == 0 and payload["summary"]["passed"] == 6
        code, payload = run_json(["check", "strange", "--algebra", "A10,D7", "--seed", "1"], capsys)
        assert code == 0 and [r["inputs"] for r in payload["reports"]] == [
            {"algebra": "A10", "dim": 120},
            {"algebra": "D7", "dim": 91},
        ]

    @pytest.mark.parametrize(
        "suite, check",
        (
            ("lichnerowicz", "lichnerowicz"),
            ("bochner", "bochner"),
            ("sphere-casimir", "sphere-casimir"),
            ("blocks4", "blocks4-einstein-mixed-vanishes"),
            ("positivity", "positivity-forward"),
        ),
    )
    def test_tolerance_zero_gates_at_zero(self, suite, check, capsys):
        # an explicit 0 is a tolerance, not a request for the default: the
        # gate is the tolerance the config echoes
        _, payload = run_json(["check", suite, "--n", "4", "--trials", "2", "--seed", "1", "--tolerance", "0"], capsys)
        assert payload["config"]["tolerance"] == 0
        gated = [r for r in payload["reports"] if r["check"] == check]
        assert gated and all(r["tolerance"] == 0 for r in gated)

    def test_unknown_suite_exit_2(self, capsys):
        code = cli.main(["check", "wibble"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("diagnostics", (0, 2))
    def test_run_without_gating_reports_fails(self, diagnostics, capsys, monkeypatch):
        # zero gating reports verify nothing: no report at all, or diagnostic
        # ones alone, that all pass
        stub = [
            CheckReport(check="demo", inputs={}, residual=0.0, tolerance=1.0, passed=True, diagnostic=True)
            for _ in range(diagnostics)
        ]
        monkeypatch.setattr(cli.suites, "run_suite", lambda *args, **kwargs: stub)
        code, payload = run_json(["check", "bochner", "--n", "3"], capsys)
        assert code == 1
        assert payload["summary"] == {"diagnostic": diagnostics, "failed": 0, "passed": diagnostics, "total": diagnostics}

    def test_positivity_with_indefinite_file_is_diagnostic(self, tmp_path, capsys):
        op = curv.curvature_operator(3, np.diag([1.0, 1.0, -1.0]))
        path = tmp_path / "r.json"
        path.write_text(json.dumps(oracles.curvature_json(op)))
        code, payload = run_json(
            ["check", "positivity", "--n", "3", "--curvature", f"file:{path}"], capsys
        )
        # diagnostic entries never affect the exit code
        assert code == 0
        assert payload["summary"]["diagnostic"] >= 1

    def test_positivity_calls_a_negative_entry_negative(self, capsys):
        # at n = 3, -K on spin is (s/16) Id, and random:1 has s < 0: the
        # spin entry is negative, not indefinite, and still a counterexample
        code, payload = run_json(["check", "positivity", "--n", "3", "--curvature", "random:1"], capsys)
        details = payload["reports"][0]["details"]
        assert code == 0
        assert {e["label"]: e["verdict"] for e in details["entries"]} == {
            "vector": "indefinite",
            "sym0(2)": "indefinite",
            "spin": "negative",
            "adjoint": "indefinite",
        }
        assert "spin" in details["diagnostic"]["counterexamples"]

    @pytest.mark.parametrize(("n", "seed"), ((4, 1), (5, 2)))
    def test_positivity_search_completes_for_random_curvature(self, n, seed, capsys):
        # these random operators are indefinite, so the only report is the
        # diagnostic one; the product search classifies -K without solving
        # a commutant per product
        code, payload = run_json(
            ["check", "positivity", "--n", str(n), "--curvature", f"random:{seed}"], capsys
        )
        assert code == 0
        [report] = payload["reports"]
        assert report["check"] == "positivity-report"
        assert report["diagnostic"] is True
        assert "DIAGNOSTIC" in report["details"]["overall"]

    def test_schema_violation_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 3, "R": [[1.0]]}))
        code = cli.main(["check", "positivity", "--n", "3", "--curvature", f"file:{path}"])
        capsys.readouterr()
        assert code == 2

    def test_ci_mode_requires_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("WEITZLAB_CI", "1")
        code = cli.main(["check", "bochner", "--n", "3", "--trials", "2"])
        capsys.readouterr()
        assert code == 2
        code = cli.main(["check", "bochner", "--n", "3", "--trials", "2", "--seed", "4"])
        capsys.readouterr()
        assert code == 0

    def test_tolerance_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("WEITZLAB_TOL", "1e-30")
        # an impossible tolerance must make a suite with nonzero rounding fail
        code, payload = run_json(
            ["check", "lichnerowicz", "--n", "5", "--trials", "2", "--seed", "1"], capsys
        )
        assert code == 1
        assert payload["reports"][0]["tolerance"] == 1e-30
        assert payload["config"]["tolerance"] == 1e-30

    def test_positivity_at_n2_passes(self, tmp_path, capsys):
        # so(2)'s adjoint is trivial, so the family leaves it out and the
        # forward claim holds on every entry
        code, payload = run_json(["check", "positivity", "--n", "2", "--seed", "1"], capsys)
        assert code == 0
        path = tmp_path / "r.json"
        path.write_text(json.dumps(oracles.curvature_json(curv.curvature_operator(2, np.eye(1)))))
        code, payload = run_json(["check", "positivity", "--curvature", f"file:{path}"], capsys)
        assert code == 0
        assert [e["label"] for e in payload["reports"][0]["details"]["entries"]] == ["vector", "sym0(2)", "spin+", "spin-"]
        code, payload = run_json(["check", "sphere-casimir", "--n", "2"], capsys)
        assert code == 0
        assert [r["inputs"]["rep"] for r in payload["reports"]] == ["vector", "sym0(2)", "spin+", "spin-"]


#: Command lines refused with exit 2 and one ``error:`` line, by test id.
_USAGE_LINES = {
    "unknown-algebra": ["check", "strange", "--algebra", "E8"],
    "malformed-subalgebra-size": ["decompose", "--n", "6", "--rep", "vector", "--sub", "u:x"],
    "n-below-2": ["k", "--n", "1", "--rep", "vector", "--curvature", "sphere"],
    "zero-trials": ["check", "lemma:k4", "--trials", "0"],
    "nan-t": ["k", "--n", "3", "--rep", "vector", "--curvature", "sphere", "--t", "nan"],
    "infinite-t": ["k", "--n", "3", "--rep", "vector", "--curvature", "sphere", "--t", "inf"],
    "empty-algebra-labels": ["check", "strange", "--algebra", ","],
    "trailing-comma-algebra": ["check", "strange", "--algebra", "A2,"],
    "blank-algebra": ["check", "strange", "--algebra", " "],
    "n-for-strange": ["check", "strange", "--n", "6", "--algebra", "A1"],
    "n-for-group-model": ["check", "group-model", "--n", "6", "--algebra", "A1"],
    "algebra-for-bochner": ["check", "bochner", "--n", "3", "--trials", "1", "--algebra", "G2"],
    "group-model-spinors-beyond-63": ["check", "group-model", "--algebra", "A8"],
    "lichnerowicz-spinors-beyond-63": ["check", "lichnerowicz", "--n", "64", "--trials", "2", "--seed", "1"],
}

#: ``(env, payload, argv)`` of command lines refused with exit 2 and one
#: ``error:`` line, by test id; a payload is written to ``{path}`` as JSON.
_CONTRACT_LINES = {
    "env-tolerance-not-a-float": ({"WEITZLAB_TOL": "abc"}, None, ["k", "--n", "3", "--rep", "vector", "--curvature", "sphere"]),
    "nan-tolerance": ({}, None, ["check", "lemma:k2", "--tolerance", "nan", "--trials", "1"]),
    "negative-tolerance": ({}, None, ["k", "--n", "3", "--rep", "vector", "--curvature", "sphere", "--tolerance=-1e-9"]),
    "infinite-env-tolerance": ({"WEITZLAB_TOL": "inf"}, None, ["check", "lemma:k2", "--trials", "1"]),
    "empty-subalgebra-file": ({}, [], ["decompose", "--n", "3", "--rep", "vector", "--sub", "file:{path}"]),
    "nan-subalgebra-entry": (
        {}, [[[0.0, math.nan, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]],
        ["decompose", "--n", "3", "--rep", "vector", "--sub", "file:{path}"],
    ),
    "symmetric-subalgebra-element": ({}, [np.eye(3).tolist()], ["decompose", "--n", "3", "--rep", "vector", "--sub", "file:{path}"]),
    "zero-subalgebra-element": ({}, [np.zeros((2, 2)).tolist()], ["decompose", "--n", "2", "--rep", "vector", "--sub", "file:{path}"]),
    "fractional-curvature-n": (
        {}, {"n": 2.7, "basis": "lex-upper", "normalization": "half-tensor", "R": [[1.0]]},
        ["k", "--rep", "vector", "--curvature", "file:{path}"],
    ),
    "boolean-curvature-n": (
        {}, {"n": True, "basis": "lex-upper", "normalization": "half-tensor", "R": [[1.0]]},
        ["k", "--rep", "vector", "--curvature", "file:{path}"],
    ),
    "huge-curvature-entry": (
        {}, {"n": 2, "basis": "lex-upper", "normalization": "half-tensor", "R": [[1e300]]},
        ["check", "positivity", "--curvature", "file:{path}"],
    ),
    "negative-curvature-seed": ({}, None, ["k", "--n", "3", "--rep", "vector", "--curvature", "random:-1"]),
    "negative-suite-seed": ({}, None, ["check", "bochner", "--n", "3", "--seed", "-1"]),
    "negative-decompose-seed": ({}, None, ["decompose", "--n", "3", "--rep", "vector", "--sub", "so-full", "--seed", "-2"]),
    "lemma-k4-other-n": ({}, None, ["check", "lemma:k4", "--n", "6", "--trials", "1"]),
    "lemma-k2-other-n": ({}, None, ["check", "lemma:k2", "--n", "4", "--trials", "1"]),
    "blocks4-other-n": ({}, None, ["check", "blocks4", "--n", "5", "--trials", "1"]),
    "lichnerowicz-operator": ({}, None, ["check", "lichnerowicz", "--n", "4", "--curvature", "sphere"]),
    "lemma-k4-operator": ({}, None, ["check", "lemma:k4", "--n", "4", "--curvature", "random:1"]),
    "blocks4-operator": ({}, None, ["check", "blocks4", "--n", "4", "--curvature", "sphere"]),
}


class TestUsageErrors:
    @pytest.mark.parametrize("argv", list(_USAGE_LINES.values()), ids=list(_USAGE_LINES))
    def test_exit_2_with_error_line(self, argv, capsys):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(("env", "payload", "argv"), list(_CONTRACT_LINES.values()), ids=list(_CONTRACT_LINES))
    def test_contract_inputs_exit_2_with_one_error_line(self, env, payload, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("WEITZLAB_TOL", raising=False)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        code = cli.main([a.format(path=path) for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_memory_error_exit_2_with_error_line(self, monkeypatch, capsys):
        # an allocation failure is a resource error, not a failed check: one
        # line that keeps numpy's message, exit 2, no traceback
        message = "Unable to allocate 657. MiB for an array with shape (81, 81, 81, 81) and data type complex128"

        def cmd_check(args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "cmd_check", cmd_check)
        code = cli.main(["check", "positivity", "--n", "4", "--curvature", "random:1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: out of memory: {message}\n"

    @pytest.mark.parametrize("target", ("missing-directory", "directory"))
    def test_unwritable_out_exit_2_with_one_error_line(self, target, tmp_path, capsys):
        path = tmp_path / "absent" / "x.json" if target == "missing-directory" else tmp_path
        code = cli.main(["k", "--n", "4", "--rep", "vector", "--curvature", "sphere", "--out", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_closed_stdout_pipe_exit_2_with_one_error_line(self):
        # the reader has gone before the report is written: EPIPE
        read, write = os.pipe()
        os.close(read)
        try:
            out = subprocess.run(
                **_capped_child(["k", "--n", "10", "--rep", "sym:3", "--curvature", "sphere"]),
                stdout=write, stderr=subprocess.PIPE, timeout=120,
            )
        finally:
            os.close(write)
        assert out.returncode == 2
        assert out.stderr == "error: cannot write to stdout: Broken pipe\n"

    @pytest.mark.parametrize("rep", ("tensor:(vector),spin", "tensor:(tensor:vector,vector),spin"))
    def test_parenthesised_tensor_factor_exit_2(self, rep, capsys):
        code = cli.main(["k", "--n", "4", "--rep", rep, "--curvature", "sphere"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_right_nested_tensor_is_the_iterated_product(self):
        b = so.basis(4)
        got = cli.parse_rep("tensor:vector,tensor:vector,spin", b)
        want = reps.rep_tensor(reps.rep_tensor(reps.rep_vector(b), reps.rep_vector(b)), spin.rep_spin(b))
        assert got.dim == want.dim == 64
        assert all(np.array_equal(a, w) for a, w in zip(got.table, want.table))

    def test_positivity_with_operator_ignores_trials(self, tmp_path, capsys):
        # an explicit operator gives one report and runs no trials
        op = curv.curvature_operator(3, np.eye(3))
        path = tmp_path / "r.json"
        path.write_text(json.dumps(oracles.curvature_json(op)))
        argv = ["check", "positivity", "--n", "3", "--curvature", f"file:{path}", "--trials", "0"]
        code, payload = run_json(argv, capsys)
        assert code == 0
        assert payload["reports"][0]["check"] == "positivity-report"


class TestDecomposeCommand:
    def test_exterior2_full_so4(self, capsys):
        code, payload = run_json(
            ["decompose", "--n", "4", "--rep", "exterior:2", "--sub", "so-full"], capsys
        )
        assert code == 0
        dims = sorted(p["dim"] for p in payload["reports"][0]["details"]["pieces"])
        assert dims == [3, 3]

    def test_vector_so2_under_u1(self, capsys):
        code, payload = run_json(
            ["decompose", "--n", "2", "--rep", "vector", "--sub", "u:1"], capsys
        )
        assert code == 0
        dims = [p["dim"] for p in payload["reports"][0]["details"]["pieces"]]
        assert dims == [1, 1]

    def test_exterior2_under_u2(self, capsys):
        code, payload = run_json(
            ["decompose", "--n", "4", "--rep", "exterior:2", "--sub", "u:2"], capsys
        )
        assert code == 0
        pieces = payload["reports"][0]["details"]["pieces"]
        assert sorted(p["dim"] for p in pieces) == [1, 1, 1, 3]
        assert sum(p["dim"] for p in pieces) == 6
        trivial = [p for p in pieces if abs(p["casimir_eigenvalue"]) < 1e-9]
        assert len(trivial) == 1 and trivial[0]["dim"] == 1

    @pytest.mark.parametrize(
        "n, rep, sub", ((6, "exterior:2", "u:3"), (5, "adjoint", "so:4"), (5, "sym0", "so:3"), (4, "tensor:vector,vector", "so-full"))
    )
    def test_pieces_do_not_depend_on_the_seed(self, n, rep, sub, capsys):
        # the seed selects the generic torus element, never the pieces or
        # their order, and here not their rounded projectors either
        runs = []
        for seed in (0, 1, 7, 999999):
            code, payload = run_json(["decompose", "--n", str(n), "--rep", rep, "--sub", sub, "--seed", str(seed)], capsys)
            assert code == 0
            runs.append(payload["reports"][0]["details"]["pieces"])
        for pieces in runs[1:]:
            assert [(p["dim"], p["multiplicity"], p["projector_digest"]) for p in pieces] == [
                (p["dim"], p["multiplicity"], p["projector_digest"]) for p in runs[0]
            ]
            for p, q in zip(pieces, runs[0]):
                assert abs(p["casimir_eigenvalue"] - q["casimir_eigenvalue"]) <= 1e-12 * max(1.0, abs(q["casimir_eigenvalue"]))

    def test_singular_torus_element_refused(self, capsys):
        # seed 2^63 - 1 gives the one coefficient 2 frac(k/φ) - 1 = 0 on
        # so(2): X = 0, whose weight pass would count a commutant of
        # dimension 16 where the vector of so(4) under so(2) has 6
        code = cli.main(["decompose", "--n", "4", "--rep", "vector", "--sub", "so:2", "--seed", str(2**63 - 1)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: the torus element is not regular on vector|so(2): ")
        assert captured.err.count("\n") == 1

    def test_u_subalgebra_dimension_mismatch(self, capsys):
        code = cli.main(["decompose", "--n", "5", "--rep", "vector", "--sub", "u:2"])
        capsys.readouterr()
        assert code == 3

    def test_block_so3_inside_so4(self, capsys):
        code, payload = run_json(
            ["decompose", "--n", "4", "--rep", "vector", "--sub", "so:3"], capsys
        )
        assert code == 0
        dims = sorted(p["dim"] for p in payload["reports"][0]["details"]["pieces"])
        assert dims == [1, 3]


    def test_projector_digest_ignores_sign_of_zero(self):
        # off-diagonal dust rounds to +0.0 in one projector and -0.0 in the other
        p = np.array([[0.5, 1e-17], [3e-18, 0.5]])
        q = np.array([[0.5, -1e-17], [-3e-18, 0.5]])
        assert digest(np.round(p, 12)) != digest(np.round(q, 12))
        assert cli.projector_digest(p) == cli.projector_digest(q)
        assert cli.projector_digest(p) != cli.projector_digest(p + 1e-6)


class TestOutputFormats:
    def test_csv(self, capsys):
        code, out = run_cli(
            ["check", "strange", "--algebra", "A1", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "check,residual,tolerance,pass"
        assert lines[1].startswith("strange-formula,")

    def test_pretty(self, capsys):
        code, out = run_cli(
            ["check", "strange", "--algebra", "A1", "--format", "pretty"], capsys
        )
        assert code == 0
        assert "[PASS] strange-formula" in out

    def test_float_serialisation_has_17_digits(self, capsys):
        code, out = run_cli(
            ["check", "bochner", "--n", "3", "--trials", "1", "--seed", "1"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        # round-trip exactness for every float in the report
        for rep in payload["reports"]:
            assert rep["residual"] == float(format(rep["residual"], ".17g"))


#: ``python -m weitzlab ARG...`` in a fresh interpreter (as ``python -c
#: PROBE REFUSE ENTRY ARG...``), with every import of numpy refused when
#: REFUSE is "1"; ENTRY "-m" runs the package as ``python -m`` does, and a
#: ``module:function`` target is called as an installed script calls it.  At
#: exit it adds one stderr line: whether numpy is loaded, the number of
#: objects frozen by ``gc.freeze``, the package's modules that executed
#: (comma-separated, "-" for none) and whether the collector is enabled.  A module that was imported lazily and
#: never used sits in ``sys.modules`` as a stub of another type, which
#: ``type`` reads without loading it.
_FRONT_END_PROBE = """
import atexit, gc, importlib, runpy, sys, types

def executed():
    names = [n.partition(".")[2] for n, m in sys.modules.items() if n.startswith("weitzlab.") and type(m) is types.ModuleType]
    return ",".join(sorted(n for n in names if n != "__main__")) or "-"

class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError("numpy is refused in this probe")

refuse, entry = sys.argv[1:3]
if refuse == "1":
    sys.meta_path.insert(0, RefuseNumpy())
atexit.register(lambda: print("numpy" in sys.modules, gc.get_freeze_count(), executed(), gc.isenabled(), file=sys.stderr))
del sys.argv[1:3]
if entry == "-m":
    runpy.run_module("weitzlab", run_name="__main__", alter_sys=True)
else:
    module, _, function = entry.partition(":")
    sys.exit(getattr(importlib.import_module(module), function)())
"""

#: ``(env, argv, exit code)`` of the command lines that the options front
#: end answers alone, by test id: ``--version``, ``--help`` and every usage
#: line above that needs no file contents.
_FRONT_END_LINES = {
    "version": ({}, ["--version"], 0),
    "help": ({}, ["--help"], 0),
    **{name: ({}, argv, 2) for name, argv in _USAGE_LINES.items()},
    **{name: (env, argv, 2) for name, (env, payload, argv) in _CONTRACT_LINES.items() if payload is None},
}


class FrontEndRun(NamedTuple):
    code: int
    first_err: str
    numpy_loaded: bool
    frozen: int
    out: str
    executed: tuple[str, ...]
    gc_enabled: bool
    err: str


def _front_end(env: dict, argv: list[str], refuse_numpy: bool = False, entry: str = "-m") -> FrontEndRun:
    """Exit code, first stderr line, whether numpy was loaded at exit, the
    frozen object count at exit, stdout, the package's executed modules,
    whether the collector was enabled at exit and the stderr before the
    probe's line of ``python -m weitzlab ARGV`` (or of the script
    ``entry``) in a fresh interpreter (:data:`_FRONT_END_PROBE`)."""
    src = os.path.dirname(os.path.dirname(weitzlab.__file__))
    base = {k: v for k, v in os.environ.items() if k not in ("WEITZLAB_TOL", "WEITZLAB_CI", "PYTHONUNBUFFERED")}
    out = subprocess.run(
        [sys.executable, "-c", _FRONT_END_PROBE, "1" if refuse_numpy else "0", entry, *argv],
        env=dict(base, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", **env), capture_output=True, text=True, timeout=60,
    )
    *lines, at_exit = out.stderr.splitlines(keepends=True)
    loaded, frozen, executed, enabled = at_exit.split()
    modules = () if executed == "-" else tuple(executed.split(","))
    err = "".join(lines)
    first = err.partition("\n")[0]
    return FrontEndRun(out.returncode, first, loaded == "True", int(frozen), out.stdout, modules, enabled == "True", err)


#: A valid request, which loads numpy and runs with the import-time heap frozen.
_VALID_LINE = ["k", "--n", "4", "--rep", "vector", "--curvature", "sphere"]


class TestOptionsFrontEnd:
    @pytest.mark.parametrize(("env", "argv", "code"), list(_FRONT_END_LINES.values()), ids=list(_FRONT_END_LINES))
    def test_answered_before_numpy_loads(self, env, argv, code):
        # ... and before anything is frozen
        run = _front_end(env, argv)
        assert (run.code, run.numpy_loaded, run.frozen) == (code, False, 0)

    @pytest.mark.parametrize(("env", "argv", "code"), list(_FRONT_END_LINES.values()), ids=list(_FRONT_END_LINES))
    def test_same_answer_as_main_with_numpy_refused(self, env, argv, code, monkeypatch, capsys):
        # the child cannot import numpy at all, and still answers as main does
        monkeypatch.delenv("WEITZLAB_TOL", raising=False)
        monkeypatch.delenv("WEITZLAB_CI", raising=False)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        try:
            want = cli.main(argv)
        except SystemExit as exc:
            want = exc.code
        first = (capsys.readouterr().err.splitlines() or [""])[0]
        assert want == code
        assert _front_end(env, argv, refuse_numpy=True)[:2] == (want, first)


class TestFrozenHeap:
    """``python -m weitzlab`` freezes the objects left by import before a
    valid request runs; ``cli.main`` and ``cli.run`` never freeze."""

    def test_valid_request_runs_frozen_with_main_s_answer(self, capsys):
        run = _front_end({}, _VALID_LINE)
        want = cli.main(_VALID_LINE)
        assert run.frozen > 0 and run.numpy_loaded
        assert (run.code, run.out) == (want, capsys.readouterr().out)

    def test_main_in_process_freezes_nothing(self, capsys):
        import gc

        before = gc.get_freeze_count()
        assert cli.main(_VALID_LINE) == 0
        assert cli.main(["check", "lemma:k4", "--trials", "0"]) == 2
        assert gc.get_freeze_count() == before

    def test_script_runs_what_python_m_runs(self):
        # the installed script's target is the function that python -m
        # weitzlab runs: same answers, the front end and the freeze included
        tomllib = pytest.importorskip("tomllib")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["weitzlab"]
        assert target == "weitzlab.__main__:main"
        for argv in (_VALID_LINE, ["--version"], ["check", "lemma:k4", "--trials", "0"]):
            script, module = (_front_end({}, argv, entry=entry) for entry in (target, "-m"))
            assert script._replace(frozen=script.frozen > 0) == module._replace(frozen=module.frozen > 0), argv


#: The einstein_n4 operator of the golden records, an n = 4 ``file:`` source.
_EINSTEIN_N4 = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "golden", "einstein_n4.json")

#: ``(env, argv, exit code)`` of command lines that end the process through
#: :func:`weitzlab.__main__.main`, one for each exit code, by test id.
_EXIT_LINES = {
    "pass": ({}, _VALID_LINE, 0),
    "check-failed": ({"WEITZLAB_TOL": "1e-30"}, ["check", "lichnerowicz", "--n", "5", "--trials", "2", "--seed", "1"], 1),
    "refused-by-the-options": ({}, ["check", "lemma:k4", "--trials", "0"], 2),
    "refused-after-numpy": ({}, ["k", "--n", "4", "--rep", "vector", "--curvature", "file:/nonexistent/R.json"], 2),
    "dimension-mismatch": ({}, ["k", "--n", "5", "--rep", "vector", "--curvature", f"file:{_EINSTEIN_N4}"], 3),
}

#: ``python -m weitzlab ARG...`` in a fresh interpreter, run with ``-v``
#: so that interpreter teardown writes its "# cleanup[" lines to stderr.
#: An atexit handler adds a stdout line with the number of collections that
#: started while numpy was being imported: numpy in ``sys.modules`` and
#: nothing frozen yet.
_EXIT_PROBE = """
import atexit, gc, runpy, sys

def count(phase, info):
    if phase == "start" and "numpy" in sys.modules and not gc.get_freeze_count():
        during_import.append(info["generation"])

def report():
    gc.callbacks.remove(count)
    print("collections while numpy imports:", len(during_import))

during_import = []
gc.callbacks.append(count)
atexit.register(report)
runpy.run_module("weitzlab", run_name="__main__", alter_sys=True)
"""


def _exit_probe(argv: list[str]) -> subprocess.CompletedProcess:
    """``python -m weitzlab ARGV`` under :data:`_EXIT_PROBE`, with stdout
    block-buffered as a pipe has it by default."""
    src = os.path.dirname(os.path.dirname(weitzlab.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, "-v", "-c", _EXIT_PROBE, *argv],
        env=dict(env, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True, timeout=60,
    )


class TestProcessExit:
    """Once it has the exit code of a valid request or of a refusal,
    ``python -m weitzlab`` runs the atexit handlers, flushes and ends the
    process with no interpreter teardown; ``cli.main`` does none of it."""

    @pytest.mark.parametrize("entry", ("-m", "weitzlab.__main__:main"))
    @pytest.mark.parametrize(("env", "argv", "code"), list(_EXIT_LINES.values()), ids=list(_EXIT_LINES))
    def test_same_code_and_bytes_as_main(self, env, argv, code, entry, monkeypatch, capsys):
        monkeypatch.delenv("WEITZLAB_TOL", raising=False)
        monkeypatch.delenv("WEITZLAB_CI", raising=False)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        want = cli.main(argv)
        captured = capsys.readouterr()
        run = _front_end(env, argv, entry=entry)
        assert want == code
        assert (run.code, run.out, run.err) == (want, captured.out, captured.err)

    @pytest.mark.parametrize(("env", "argv", "code"), list(_EXIT_LINES.values()), ids=list(_EXIT_LINES))
    def test_atexit_handler_runs_once_with_the_collector_on(self, env, argv, code):
        # the probe's handler writes the last stderr line; had it run twice,
        # a second line would sit in the stderr before it
        run = _front_end(env, argv)
        assert run.code == code and run.gc_enabled
        assert not re.search(r"^(True|False) \d+ ", run.err, re.MULTILINE), run.err

    def test_out_file_is_complete(self, tmp_path, capsys):
        argv = ["k", "--n", "6", "--rep", "exterior:2", "--curvature", "random:1", "--format", "json"]
        assert cli.main([*argv, "--out", str(tmp_path / "want.json")]) == 0
        run = _front_end({}, [*argv, "--out", str(tmp_path / "got.json")])
        assert (run.code, run.out, run.err) == (0, "", "") and capsys.readouterr().out == ""
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    @pytest.mark.parametrize(
        "argv, code, teardown",
        ((_VALID_LINE, 0, False), (["check", "lemma:k4", "--trials", "0"], 2, False), (["--version"], 0, True)),
        ids=["valid", "refused", "version"],
    )
    def test_no_teardown_after_the_exit_code(self, argv, code, teardown):
        # argparse's own exits raise SystemExit and the interpreter exits as
        # usual; either way the atexit handler's stdout line is flushed
        out = _exit_probe(argv)
        assert out.returncode == code
        assert ("\n# cleanup[" in out.stderr) is teardown
        assert out.stdout.endswith("collections while numpy imports: 0\n"), out.stdout

    def test_no_collection_while_numpy_imports(self):
        # the collector is off from before numpy's import to the freeze, so
        # the probe's count is 0, where it was 26 to 30 young collections
        out = _exit_probe(_VALID_LINE)
        assert out.returncode == 0
        assert out.stdout.splitlines()[-1] == "collections while numpy imports: 0"

    def test_failed_flush_returns_the_code_for_the_interpreter_s_exit(self, monkeypatch):
        import atexit

        from weitzlab import __main__ as entry

        class BrokenStream:
            def flush(self):
                raise OSError(28, "No space left on device")

        ran = []
        monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: ran.append(True))
        monkeypatch.setattr(os, "_exit", lambda code: pytest.fail("os._exit after a failed flush"))
        monkeypatch.setattr(sys, "stderr", BrokenStream())
        assert entry._end(3) == 3 and ran == [True]

    def test_main_in_process_leaves_the_collector_and_atexit_alone(self, capsys):
        import atexit
        import gc

        handlers = atexit._ncallbacks()
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            try:
                assert cli.main(_VALID_LINE) == 0
                assert cli.main(["check", "lemma:k4", "--trials", "0"]) == 2
                assert gc.isenabled() is enabled
            finally:
                gc.enable()
        assert atexit._ncallbacks() == handlers


#: The modules of the package that each command line below executes.
_ALWAYS_EXECUTED = ("cli", "numerics", "options", "report", "representations", "so_algebra")

#: ``(argv, modules it must not execute)`` of command lines whose process
#: runs only part of the package, by test id.
_LAZY_LINES = {
    "decompose": (
        ["decompose", "--n", "6", "--rep", "exterior:2", "--sub", "u:3"],
        ("curvature", "spin", "weitzenbock", "suites", "casimir_weights"),
    ),
    "k-vector": (["k", "--n", "4", "--rep", "vector", "--curvature", "sphere"], ("suites", "casimir_weights", "spin")),
    "lichnerowicz": (["check", "lichnerowicz", "--n", "4", "--seed", "1"], ("weitzenbock",)),
}


class TestLazyLoading:
    """``python -m weitzlab`` loads the package lazily, so a command
    executes only the modules it runs; ``cli.main`` in process and
    ``import weitzlab.cli`` stay eager (:class:`TestColdStart`)."""

    @pytest.mark.parametrize(("argv", "unused"), list(_LAZY_LINES.values()), ids=list(_LAZY_LINES))
    def test_command_executes_only_what_it_runs(self, argv, unused, capsys, monkeypatch):
        monkeypatch.delenv("WEITZLAB_TOL", raising=False)
        monkeypatch.delenv("WEITZLAB_CI", raising=False)
        run = _front_end({}, argv)
        assert (run.code, run.out) == (cli.main(argv), capsys.readouterr().out)
        assert set(_ALWAYS_EXECUTED) <= set(run.executed)
        assert not set(unused) & set(run.executed), run.executed

    def test_usage_answer_executes_options_alone(self):
        assert _front_end({}, ["--version"]).executed == ("options",)

    def test_main_in_process_leaves_the_import_system_alone(self, capsys):
        import types

        before = list(sys.meta_path)
        assert cli.main(_VALID_LINE) == 0
        capsys.readouterr()
        assert sys.meta_path == before
        loaded = {n: type(m) for n, m in sys.modules.items() if n.startswith("weitzlab.")}
        assert set(loaded.values()) == {types.ModuleType}, loaded


#: Reports, in a fresh interpreter, the standard modules below that
#: ``import weitzlab.cli`` loads, then those that a ``k`` run loads as well,
#: and whether every module of the package named on the command line is loaded.
_IMPORT_PROBE = """
import sys
watched = ("dataclasses", "decimal", "fractions", "hashlib", "json")
before = set(sys.modules)
import weitzlab.cli
on_import = [m for m in watched if m in sys.modules and m not in before]
layers = all("weitzlab." + m in sys.modules for m in sys.argv[1:])
weitzlab.cli.main(["k", "--n", "4", "--rep", "vector", "--curvature", "sphere"])
on_run = [m for m in watched if m in sys.modules and m not in before]
print(repr((on_import, layers, on_run)))
"""


class TestColdStart:
    def test_import_loads_every_layer_and_no_unused_standard_module(self):
        # the tracer that times each layer wraps only the modules loaded by
        # ``import weitzlab.cli``, so all of them must load eagerly; the
        # standard modules a command does not use must not load at all
        import ast
        import importlib.util

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = importlib.util.spec_from_file_location("tracing", os.path.join(root, "clibench", "tracing.py"))
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        src = os.path.dirname(os.path.dirname(weitzlab.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, *tracing.MODULES],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        on_import, layers, on_run = ast.literal_eval(out.stdout.splitlines()[-1])
        assert layers, tracing.MODULES
        assert on_import == [] and on_run == []


#: Modules that no command may load: numpy's random state, the ``secrets``
#: module it imports, OpenSSL's hash bindings, and numpy's masked arrays
#: (which ``np.unique`` imports to test its input unless asked for indices).
_UNWANTED_MODULES = ("numpy.random", "secrets", "_hashlib", "numpy.ma")

#: Runs the CLI on each command line of the JSON list given, in one fresh
#: interpreter, and reports after each its exit code and which of the
#: unwanted modules are loaded by then.
_RANDOM_PROBE = """
import json, sys
import weitzlab.cli
for argv in json.loads(sys.argv[1]):
    code = weitzlab.cli.main(argv)
    print(repr((code, [m for m in json.loads(sys.argv[2]) if m in sys.modules])), file=sys.stderr)
"""


def _probe(commands: list[list[str]]) -> list[tuple]:
    import ast

    src = os.path.dirname(os.path.dirname(weitzlab.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", _RANDOM_PROBE, json.dumps(commands), json.dumps(_UNWANTED_MODULES)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return [ast.literal_eval(line) for line in out.stderr.splitlines()[-len(commands):]]


class TestNoRandomState:
    @pytest.mark.parametrize("command", ("decompose", "positivity"))
    def test_runs_without_numpy_random(self, command, tmp_path):
        # the torus element of the weight pass has closed-form
        # coefficients, so neither command imports numpy.random
        if command == "decompose":
            argv = ["decompose", "--n", "6", "--rep", "exterior:2", "--sub", "u:3", "--seed", "7"]
        else:
            path = tmp_path / "r.json"
            path.write_text(json.dumps(oracles.curvature_json(curv.curvature_operator(3, np.diag([1.0, 1.0, -1.0])))))
            argv = ["check", "positivity", "--n", "3", "--curvature", f"file:{path}"]
        assert _probe([argv]) == [(0, [])]

    def test_no_suite_draws_from_random_state_or_hashes_with_openssl(self):
        # random operators come from the counter hash and digests from the
        # same hash, so no suite, no k on random: curvature and no
        # decompose loads numpy.random, secrets or _hashlib
        suite_args = {
            "lichnerowicz": ["--n", "4", "--trials", "2"],
            "bochner": ["--n", "4", "--trials", "2"],
            "sphere-casimir": ["--n", "4"],
            "lemma:k2": ["--trials", "2"],
            "lemma:k4": ["--trials", "2"],
            "strange": ["--algebra", "A2"],
            "group-model": ["--algebra", "A2"],
            "blocks4": ["--trials", "2"],
            "positivity": ["--n", "3", "--trials", "2"],
        }
        assert sorted(suite_args) == sorted(suites.SUITE_NAMES)
        commands = [["check", name, *args, "--seed", "3"] for name, args in suite_args.items()]
        commands += [
            ["k", "--n", "4", "--rep", "vector", "--curvature", "random:1"],
            ["decompose", "--n", "4", "--rep", "vector", "--sub", "so:3", "--seed", "1"],
        ]
        assert _probe(commands) == [(0, [])] * len(commands)

    def test_seed_past_64_bits(self, capsys):
        import warnings

        # uint64 overflow is the hash's arithmetic, and warns on no array
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["check", "lichnerowicz", "--n", "4", "--trials", "2", "--seed", "99999999999999999999999"])
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert code == 0
        assert [r["inputs"]["seed"] for r in reports[:2]] == [99999999999999999999999, 100000000000000000000000]
        assert reports[0]["inputs"]["curvature"] != reports[1]["inputs"]["curvature"]


class TestDeterminism:
    def test_byte_identical_json(self):
        args = [
            sys.executable,
            "-m",
            "weitzlab.cli",
            "check",
            "lichnerowicz",
            "--n",
            "4",
            "--trials",
            "3",
            "--seed",
            "1",
        ]
        first = subprocess.run(args, capture_output=True, check=True).stdout
        second = subprocess.run(args, capture_output=True, check=True).stdout
        assert first == second
        assert first.strip()

    def test_decompose_byte_identical(self):
        args = [
            sys.executable,
            "-m",
            "weitzlab.cli",
            "decompose",
            "--n",
            "4",
            "--rep",
            "exterior:2",
            "--sub",
            "u:2",
            "--seed",
            "0",
        ]
        first = subprocess.run(args, capture_output=True, check=True).stdout
        second = subprocess.run(args, capture_output=True, check=True).stdout
        assert first == second


# ---------------------------------------------------------------------------
# Fuzzed exit-code contract
# ---------------------------------------------------------------------------

_K_SPHERE = ["k", "--n", "3", "--rep", "vector", "--curvature", "sphere"]
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
_ENTRY = st.one_of(st.integers(-3, 3), st.floats(-10, 10), _ANY_FLOAT)
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


def _not_skew(m: np.ndarray) -> bool:
    """||m + m^T|| > 1e-9 max(1, ||m||), evaluated on m scaled to entries
    of magnitude at most 1 where it is larger, so nothing overflows."""
    a = m / max(1.0, float(np.max(np.abs(m))))
    return float(np.linalg.norm(a + a.T)) > 1e-9 * max(1.0, float(np.linalg.norm(a)))


def _refused_tolerance(raw: str) -> bool:
    try:
        tol = float(raw)
    except ValueError:
        return True
    return not (math.isfinite(tol) and tol >= 0)


def _matrix(n: int):
    """An n x n list of rows: skew, arbitrary, or with junk entries."""
    def skew(upper):
        m = np.zeros((n, n))
        m[np.triu_indices(n, 1)] = upper
        return (m - m.T).tolist()

    entries = st.lists(_ENTRY, min_size=n * n, max_size=n * n).map(lambda v: np.reshape(v, (n, n)).tolist())
    upper = st.lists(_ENTRY, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    return st.one_of(upper.map(skew), entries, st.lists(st.lists(st.one_of(_ENTRY, _JUNK), max_size=n), max_size=n))


#: Degrees of ``exterior:p`` and ``sym:p``: at most 3, so that sym:3 at
#: n = 6 (d = 56) is the largest factor, and a few that do not parse.
_DEGREE = st.one_of(st.integers(-1, 3).map(str), st.sampled_from(("", "x", "1.5", " 2", "+1")))
_BASE_REP = st.one_of(
    st.sampled_from(("vector", "trivial", "adjoint", "sym0", "spin", "spin:+", "spin:-", " vector", "Vector", "")),
    st.tuples(st.sampled_from(("exterior", "sym")), _DEGREE).map(":".join),
    st.text(max_size=4),
)
#: Selectors, tensor products of two factors only up to n = 4, where a
#: product has d <= 400 and K at most 2.5 MB.
_TENSOR_REP = st.tuples(_BASE_REP, _BASE_REP).map(lambda ab: "tensor:" + ",".join(ab)) | st.just("tensor:vector")
#: Algebra labels: the small ones that build (so(14) at most), labels that do
#: not parse, and junk without digits, so no larger algebra is ever named.
_LABEL = st.one_of(
    st.sampled_from(("A1", "A2", "B2", "G2", "a1", "A_2", " A1", "A0", "B1", "E8", "Z3", "A", "")),
    st.text("ABCDEGab_ -", max_size=3),
)
_SOURCE = st.one_of(
    st.sampled_from(("sphere", "random", "random:", "random:x", "random: 2", "file:", "file:/nonexistent.json", "moon")),
    st.integers(-3, 2**70).map(lambda s: f"random:{s}"),
    _LABEL.map(lambda label: f"group:{label}"),
    st.text(max_size=5),
)


@st.composite
def _contract_case(draw):
    """``(env, argv, payload, must_refuse)``: one CLI run with a fuzzed
    ``--tolerance``, ``WEITZLAB_TOL``, ``--sub file:`` payload, curvature
    JSON payload (written to ``{path}``), ``--rep`` selector, ``--curvature``
    source or ``--algebra`` list, and whether the contract requires exit 2
    for it."""
    kind = draw(st.sampled_from(("tolerance", "env", "sub", "curvature", "rep", "source", "algebra")))
    if kind == "rep":
        n = draw(st.integers(2, 6))
        selector = draw(_BASE_REP | _TENSOR_REP if n <= 4 else _BASE_REP)
        source = draw(st.sampled_from(("sphere", "random:1")))
        return {}, ["k", "--n", str(n), f"--rep={selector}", "--curvature", source], None, False
    if kind == "source":
        n = draw(st.one_of(st.none(), st.integers(2, 6)))
        size = [] if n is None else ["--n", str(n)]
        return {}, ["k", *size, "--rep", "vector", f"--curvature={draw(_SOURCE)}"], None, False
    if kind == "algebra":
        # an empty list means the default algebras, run whole in TestScaleLimit
        labels = draw(st.lists(_LABEL, min_size=1, max_size=2).map(",".join).filter(bool))
        suite = draw(st.sampled_from(("strange", "group-model")))
        return {}, ["check", suite, f"--algebra={labels}"], None, False
    if kind == "tolerance":
        tol = repr(draw(_ANY_FLOAT))
        return {}, _K_SPHERE + [f"--tolerance={tol}"], None, _refused_tolerance(tol)
    if kind == "env":
        text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=6)
        raw = draw(st.one_of(_ANY_FLOAT.map(repr), text))
        return {"WEITZLAB_TOL": raw}, _K_SPHERE, None, _refused_tolerance(raw)
    if kind == "sub":
        n = draw(st.integers(2, 4))
        payload = draw(st.one_of(st.lists(st.one_of(_matrix(n), _matrix(n - 1)), max_size=3), _JUNK))
        mats = [np.array(m, dtype=object) for m in payload] if isinstance(payload, list) else []
        if all(m.shape == (n, n) and all(isinstance(x, (int, float)) for x in m.flat) for m in mats):
            mats = [m.astype(float) for m in mats]
            bad = [not np.all(np.isfinite(a)) or _not_skew(a) for a in mats]
        else:
            bad = []
        refuse = payload == [] or any(bad)
        argv = ["decompose", "--n", str(n), "--rep", "vector", "--sub", "file:{path}"]
        return {}, argv, payload, refuse
    m = draw(st.integers(2, 4))
    n = draw(st.one_of(st.just(m), st.integers(-1, 5), _ANY_FLOAT, _JUNK, st.lists(st.integers(2, 4), max_size=1)))
    upper = draw(st.lists(_ENTRY, min_size=m * (m - 1) // 2, max_size=m * (m - 1) // 2))
    v = np.asarray(upper, dtype=float)
    with np.errstate(all="ignore"):
        # symmetric diagonal, symmetric rank one, or not symmetric
        rows = draw(st.sampled_from((np.diag(v), np.outer(v, v), np.add.outer(v, 2 * v))))
    payload = {"n": n, "basis": "lex-upper", "normalization": "half-tensor", "R": rows.tolist()}
    command = draw(st.sampled_from((["k", "--rep", "vector"], ["check", "positivity"])))
    refuse = isinstance(n, bool) or not isinstance(n, int) or n < 2
    return {}, command + ["--curvature", "file:{path}"], payload, refuse


def _run_main(env: dict, argv: list[str], payload) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        for key in ("WEITZLAB_TOL", "WEITZLAB_CI"):
            os.environ.pop(key, None)
        os.environ.update(env)
        code = cli.main([a.replace("{path}", path) for a in argv])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_contract_case())
def test_fuzzed_inputs_keep_the_exit_code_contract(case):
    """main never raises, returns 1 only with a failing gating report or
    none at all, and refuses an invalid tolerance, subalgebra file or
    curvature ``n`` with exit 2 and one ``error:`` line."""
    env, argv, payload, must_refuse = case
    code, out, err = _run_main(env, argv, payload)
    assert code in (0, 1, 2, 3)
    if code == 1:
        summary = json.loads(out)["summary"]
        assert summary["failed"] > 0 or summary["diagnostic"] == summary["total"]
    if code in (2, 3):
        assert out == "" and err.count("\n") == 1
    if must_refuse:
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
