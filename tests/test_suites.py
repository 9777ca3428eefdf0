import re

import numpy as np
import pytest

from weitzlab import curvature as curv
from weitzlab import options
from weitzlab import so_algebra as so
from weitzlab import spin, suites
from weitzlab import weitzenbock as wb
from weitzlab.report import CheckReport, _hash_bytes, canonical_json, digest


class TestCanonicalJson:
    def test_sorted_keys_and_17g_floats(self):
        text = canonical_json({"b": 1.0 / 3.0, "a": 1})
        assert text == '{"a":1,"b":0.33333333333333331}'

    def test_float_round_trip(self):
        import json

        values = [1.0 / 3.0, 1e-300, 123456.789e10, 5.0]
        parsed = json.loads(canonical_json(values))
        assert parsed == values

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json(float("nan"))

    def test_ndarray_support(self):
        assert canonical_json(np.array([1.0, 2.0])) == "[1,2]"

    @pytest.mark.parametrize(
        "value",
        (
            np.array([-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e-300, 1e-300, 1.0 / 3.0]),
            np.array([[1e300, -0.0], [5e-324, -1e-300]]),
            np.random.default_rng(0).standard_normal((3, 4, 5)),
            np.random.default_rng(1).standard_normal((6, 6))[:, ::2],
            np.array([0.5, -0.0], dtype=np.float32),
            np.array(-0.0),
            np.array(2.5),
            np.zeros(0),
            np.zeros((0, 3)),
            np.zeros((3, 0)),
            np.arange(6).reshape(2, 3),
            np.array([True, False]),
            np.array([1.0 + 2.0j, -0.0 - 1e-300j]),
            np.array([[complex(-0.0, 0.0), complex(0.0, -0.0), complex(5e-324, -1e300)], [1e-300j, -1e300, 1 / 3 - 1j / 7]]),
            (lambda g: g.standard_normal((3, 4, 5)) + 1j * g.standard_normal((3, 4, 5)))(np.random.default_rng(2)),
            (np.arange(36.0) - 1j * np.arange(36.0)[::-1]).reshape(6, 6)[::2, 1::2],
            np.array([0.5 - 0.25j, -0.0j], dtype=np.complex64),
            np.array(complex(-0.0, -0.0)),
            np.zeros(0, dtype=complex),
            np.zeros((0, 3), dtype=complex),
            np.zeros((3, 0), dtype=complex),
        ),
        ids=(
            "signed-zero-subnormal-extremes", "matrix", "rank-3", "strided", "float32", "zero-d-negative-zero",
            "zero-d", "empty", "empty-rows", "empty-columns", "int", "bool", "complex", "complex-matrix-extremes",
            "complex-rank-3", "complex-strided", "complex64", "complex-zero-d", "complex-empty",
            "complex-empty-rows", "complex-empty-columns",
        ),
    )
    def test_array_rendering_equals_the_list_rendering(self, value):
        from weitzlab import report

        assert canonical_json(value) == report._render(value.tolist())
        assert canonical_json({"m": value}) == report._render({"m": value.tolist()})

    def test_tuple_with_to_dict_renders_as_its_dict(self):
        from typing import NamedTuple

        class Record(NamedTuple):
            b: float
            a: int

            def to_dict(self):
                return {"a": self.a, "b": self.b}

        assert canonical_json(Record(0.5, 2)) == '{"a":2,"b":0.5}'
        assert canonical_json([Record(1.0, 0)]) == '[{"a":0,"b":1}]'
        assert canonical_json((0.5, 2)) == "[0.5,2]"

    def test_negative_zero_renders_signed(self):
        assert canonical_json(np.array([[-0.0, 0.0]])) == "[[-0,0]]"

    def test_rows_render_the_bytes_of_format(self):
        # each row is one printf-style call; %.17g must write what
        # format(v, ".17g") writes for every finite double
        rng = np.random.default_rng(3)
        edge = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308, 1.7976931348623157e308,
                1.0, -3.0, 1e16, 2.0**53, 123456789012345678.0, 0.1, 1 / 3]
        mags = rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-300, 300, 2000)
        for row in (np.array(edge), mags):
            assert canonical_json(row) == "[" + ",".join(format(v, ".17g") for v in row.tolist()) + "]"
            c = row + 1j * row[::-1]
            want = ",".join(f'{{"im":{format(v.imag, ".17g")},"re":{format(v.real, ".17g")}}}' for v in c.tolist())
            assert canonical_json(c) == "[" + want + "]"

    @pytest.mark.parametrize(
        "bad",
        (
            np.array([1.0, np.nan]),
            np.array([[0.0], [np.inf]]),
            np.array(-np.inf),
            np.array([1j, complex(np.nan, 0.0)]),
            np.array([[0j], [complex(0.0, -np.inf)]]),
            np.array(complex(np.inf, 1.0)),
        ),
    )
    def test_non_finite_array_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json(bad)

    def test_digest_stable(self):
        a = digest({"x": [1.0, 2.0]})
        b = digest({"x": [1.0, 2.0]})
        assert a == b and len(a) == 16

    @pytest.mark.parametrize("bad", (np.array([1.0, np.nan]), np.array([[0j], [complex(0.0, -np.inf)]]), np.array(np.inf)))
    def test_digest_rejects_non_finite_arrays(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            digest(bad)

    def test_digest_of_an_array_reads_dtype_shape_and_values(self):
        a = np.arange(12.0).reshape(3, 4)
        seen = {
            digest(a),
            digest(a.reshape(4, 3)),
            digest(a.ravel()),
            digest(a.astype(np.float32)),
            digest(a.astype(np.int64)),
            digest(a.astype(complex)),
            digest(a + 2.0**-40 * np.eye(3, 4)),
            digest(a.tolist()),
        }
        assert len(seen) == 8 and all(len(d) == 16 and int(d, 16) >= 0 for d in seen)
        # the values decide, not the memory layout or byte order
        assert digest(np.asfortranarray(a)) == digest(a) == digest(a.astype(">f8"))
        assert digest(a[:, ::2]) == digest(np.ascontiguousarray(a[:, ::2]))
        # -0.0 and +0.0 differ in their bytes, as in their JSON text
        assert digest(np.zeros(2)) != digest(-np.zeros(2))

    def test_digest_of_text_reads_every_byte(self):
        # values whose canonical JSON bytes differ only in padding or in
        # one character of the last word still differ
        texts = ["", "a", "ab", "abcdefgh", "abcdefgh" + "\x00", "abcdefgi", "x" * 1000, "x" * 999 + "y"]
        assert len({digest(t) for t in texts}) == len(texts)
        assert len({digest(s) for s in range(10_000)}) == 10_000
        # trailing zero bytes pad a word alike, so the byte count goes in too
        key = np.zeros(1, np.uint64)
        assert _hash_bytes(b"a", key) != _hash_bytes(b"a\x00", key)

    def test_check_report_schema(self):
        rep = CheckReport(
            check="demo", inputs={"seed": 1}, residual=0.0, tolerance=1e-9, passed=True,
            spectrum=[1.0],
        )
        d = rep.to_dict()
        assert set(d) == {"check", "inputs", "residual", "tolerance", "pass", "spectrum"}


class TestSuites:
    def test_dispatch_unknown(self):
        with pytest.raises(ValueError):
            suites.run_suite("bogus")

    def test_fixed_n_is_the_n_each_suite_runs_on(self):
        assert options.FIXED_N == {
            "lemma:k2": suites._lemma_k2_config()[0],
            "lemma:k4": suites._lemma_k4_config()[0],
            "blocks4": 4,
        }
        for name, n in options.FIXED_N.items():
            assert {r.inputs.get("n", n) for r in suites.run_suite(name, n=n, trials=1)} == {n}

    @pytest.mark.parametrize("name, n", (("lemma:k2", 4), ("lemma:k4", 3), ("lemma:k4", 6), ("blocks4", 5)))
    def test_other_n_of_a_fixed_suite_rejected(self, name, n):
        with pytest.raises(suites.SuiteConfigError, match=re.escape(f"runs on so({options.FIXED_N[name]}) only")):
            suites.run_suite(name, n=n, trials=1)

    @pytest.mark.parametrize("name", [s for s in suites.SUITE_NAMES if s != "positivity"])
    def test_operator_for_a_suite_that_ignores_it_rejected(self, name):
        n = options.FIXED_N.get(name, 4)
        with pytest.raises(suites.SuiteConfigError, match="takes no curvature operator"):
            suites.run_suite(name, n=n, trials=1, operator=curv.sphere(n))

    @pytest.mark.parametrize("name", options.ALGEBRA_SUITES)
    def test_n_for_an_algebra_suite_rejected(self, name):
        with pytest.raises(suites.SuiteConfigError, match="takes no n"):
            suites.run_suite(name, n=6, algebras=["A1"])

    @pytest.mark.parametrize("name", [s for s in suites.SUITE_NAMES if s not in options.ALGEBRA_SUITES])
    def test_algebras_for_another_suite_rejected(self, name):
        with pytest.raises(suites.SuiteConfigError, match="takes no algebras"):
            suites.run_suite(name, n=options.FIXED_N.get(name, 3), trials=1, algebras=["G2"])

    @pytest.mark.parametrize("name", ("lichnerowicz", "bochner", "lemma:k2", "lemma:k4", "blocks4", "positivity"))
    def test_zero_trials_rejected(self, name):
        with pytest.raises(suites.SuiteConfigError):
            suites.run_suite(name, n=3, trials=0)

    @pytest.mark.parametrize("name", ("lichnerowicz", "bochner", "lemma:k2", "lemma:k4", "blocks4", "positivity"))
    def test_trial_count_over_the_report_budget_rejected(self, name, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("an operator was drawn before the pre-flight")

        monkeypatch.setattr(curv, "random_symmetric", no_draws)
        trials = 10**9
        with pytest.raises(suites.SuiteConfigError) as info:
            suites.run_suite(name, n=3, trials=trials)
        message = str(info.value)
        assert str(trials) in message
        assert f"{options.REPORT_BUDGET_BYTES >> 20} MiB" in message
        assert "\n" not in message

    def test_report_budget_is_a_trial_cap(self, monkeypatch):
        monkeypatch.setattr(options, "REPORT_BUDGET_BYTES", 3 * options.REPORT_BYTES)
        assert len(suites.run_suite("bochner", n=3, trials=3)) == 3
        with pytest.raises(suites.SuiteConfigError, match="at most 3 trials"):
            suites.run_suite("bochner", n=3, trials=4)

    def test_lichnerowicz_suite_contains_control(self):
        reports = suites.run_suite("lichnerowicz", n=3, trials=2, seed=5)
        names = [r.check for r in reports]
        assert names.count("lichnerowicz") == 2
        assert "lichnerowicz-negative-control" in names
        assert all(r.passed for r in reports)

    def test_sphere_casimir_suite(self):
        reports = suites.run_suite("sphere-casimir", n=5)
        assert all(r.passed for r in reports)
        assert any(r.check == "casimir-highest-weight" for r in reports)

    def test_group_model_suite(self):
        reports = suites.run_suite("group-model", algebras=["A1"])
        assert all(r.passed for r in reports)
        checks = {r.check for r in reports}
        assert "group-spin-curvature-term" in checks

    def test_spinor_suites_build_no_spin_rep_and_no_k(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a spinor suite built a spin rep or a dense K")

        for module, name in ((spin, "rep_spin"), (spin, "rep_half_spin"), (wb, "k_matrix")):
            monkeypatch.setattr(module, name, refuse)
        assert suites.run_passed(suites.run_suite("lichnerowicz", n=6, trials=3, seed=2))
        assert suites.run_passed(suites.run_suite("group-model", algebras=["A1", "B2"]))

    def test_blocks4_suite(self):
        reports = suites.run_suite("blocks4", trials=5, seed=9)
        assert all(r.passed for r in reports)
        ratio = [r for r in reports if r.check == "blocks4-ratio-constant"]
        assert len(ratio) == 1
        assert abs(ratio[0].details["ratio"] - 0.25) < 1e-9

    def test_positivity_suite_forward(self):
        reports = suites.run_suite("positivity", n=4, trials=5, seed=3)
        assert len(reports) == 1 and reports[0].passed

    def test_positivity_suite_with_operator_is_diagnostic(self):
        op = curv.curvature_operator(3, np.diag([1.0, 1.0, -1.0]))
        reports = suites.run_suite("positivity", n=3, operator=op)
        assert reports[0].diagnostic

    def test_positive_definite_generator(self):
        for n in (3, 5):
            op = suites.positive_definite_curvature(n, 0)
            assert op.bianchi_flag
            assert np.min(np.linalg.eigvalsh(op.matrix)) > 0.5


def _dense_lichnerowicz_residual(op, rep):
    """The Lichnerowicz residual ``||-4K - (s/4) Id|| / (1 + ||K||)`` from the
    dense K of the spin rep."""
    k = wb.k_matrix(op, rep)
    s = curv.scalar(op)
    return float(np.linalg.norm(-4.0 * k - (s / 4.0) * np.eye(len(k)))) / (1.0 + float(np.linalg.norm(k)))


class TestSpinorClosedForms:
    @pytest.mark.parametrize("n", range(3, 12))
    def test_lichnerowicz_residual_is_the_dense_one(self, n):
        # on Bianchi operators (residual near 0) and unprojected symmetric ones
        b = so.basis(n)
        rep, blades = spin.rep_spin(b), spin.spinor_blades(b)
        for ops in (curv.random_curvature(n, [1, 7, 42]), curv.random_symmetric(n, [1, 7, 42])):
            got, scal = suites._lichnerowicz_residuals(blades, ops)
            for op, r, s in zip(ops.unstack(), got, scal):
                want = _dense_lichnerowicz_residual(op, rep)
                assert abs(r - want) <= 2.1e-14 * max(1.0, want)
                assert s == curv.scalar(op)

    @pytest.mark.parametrize("label", ("A1", "A2", "B2", "G2"))
    def test_group_spin_term_is_the_dense_one(self, label):
        g = so.simple_algebra(label)
        rep = spin.rep_spin(so.basis(g.dim))
        k = wb.k_matrix(curv.bi_invariant_group(g), rep)
        want = float(np.linalg.norm(-4.0 * k - (g.dim / 16.0) * np.eye(rep.dim)))
        [report] = [r for r in suites.group_model_suite([label]) if r.check == "group-spin-curvature-term"]
        assert abs(report.details["via_k_term"] - want) <= 2.1e-14 * max(1.0, want)


class TestBatchedTrials:
    CASES = (
        ("lichnerowicz", {"n": 3, "trials": 4, "seed": 2}),
        ("lichnerowicz", {"n": 5, "trials": 6, "seed": 7}),
        ("bochner", {"n": 6, "trials": 5, "seed": 3}),
        ("blocks4", {"trials": 5, "seed": 4}),
        ("lemma:k2", {"trials": 5, "seed": 5}),
        ("lemma:k4", {"trials": 2, "seed": 6}),
        ("positivity", {"n": 4, "trials": 3, "seed": 5}),
    )

    @pytest.mark.parametrize("name, kwargs", CASES, ids=[c[0] for c in CASES])
    def test_batch_size_does_not_change_the_reports(self, name, kwargs, monkeypatch):
        # the default budget takes each of these suites in one batch; a budget
        # of one byte takes one trial per batch
        whole = [canonical_json(r.to_dict()) for r in suites.run_suite(name, **kwargs)]
        monkeypatch.setattr(suites, "TRIAL_BATCH_BYTES", 1)
        assert [canonical_json(r.to_dict()) for r in suites.run_suite(name, **kwargs)] == whole

    def test_seed_batches_cover_the_trials_in_order(self, monkeypatch):
        batches = list(suites._seed_batches(10, 100, 7, 32 * 64 * 64))
        assert [s for b in batches for s in b] == list(range(10, 110))
        per_trial = 32 * 21**2 + 32 * 64 * 64
        assert all(len(b) * per_trial <= suites.TRIAL_BATCH_BYTES for b in batches)
        assert len(batches) > 1
        monkeypatch.setattr(suites, "TRIAL_BATCH_BYTES", 1)
        assert [len(b) for b in suites._seed_batches(0, 3, 4, 32 * 256 * 256)] == [1, 1, 1]

    def test_batches_do_not_grow_with_the_trials(self, monkeypatch):
        sizes = []
        coefficients = spin.SpinorBlades.coefficients

        def counting(blades, matrix):
            sizes.append(matrix.shape[0] if matrix.ndim == 3 else 1)
            return coefficients(blades, matrix)

        monkeypatch.setattr(spin.SpinorBlades, "coefficients", counting)
        # five trials at n = 3: four N x N curvature matrices (N = 3) and 4
        # blade coefficients each
        monkeypatch.setattr(suites, "TRIAL_BATCH_BYTES", (32 * 3**2 + 8 * 4) * 5)
        suites.lichnerowicz_suite(3, 23, 1)
        assert max(sizes) == 5 and sum(sizes) == 23 + 100

    def test_lemma_batches_hold_their_k_q_blocks(self, monkeypatch):
        # a lemma:k4 trial holds two (256, 21) blocks of K Q, far more than
        # its 16 x 16 two-slot operator, and its batches are sized by them
        sizes = []
        restricted_k = wb._restricted_k

        def counting(r, *args):
            sizes.append(len(r.matrix))
            return restricted_k(r, *args)

        monkeypatch.setattr(wb, "_restricted_k", counting)
        suites.lemma_suite("k4", 12, 1)
        per_trial = 32 * 6**2 + 32 * 4**4 * 21
        assert max(sizes) == suites.TRIAL_BATCH_BYTES // per_trial and sum(sizes) == 12


class TestLemmaK4Basis:
    def test_closed_form_columns_span_the_svd_oracle(self):
        # oracle: an SVD of the 21 unnormalised vectors q_a (x) q_b + q_b (x) q_a
        from weitzlab import numerics, spin

        n, k, q, _ = suites._lemma_k4_config()
        q2 = spin.clifford_symbol(4)[:, 5:11]
        pairs = [(a, b) for a in range(6) for b in range(a, 6)]
        cols = np.array([np.kron(q2[:, a], q2[:, b]) + np.kron(q2[:, b], q2[:, a]) for a, b in pairs]).T
        assert np.array_equal(cols.conj().T @ cols, np.diag([4.0 if a == b else 2.0 for a, b in pairs]))
        u = numerics.orthonormal_columns(cols)
        assert (n, k) == (4, 4) and q.shape == u.shape == (256, 21)
        assert np.abs(q.conj().T @ q - np.eye(21)).max() <= 1e-15
        assert np.abs(q @ q.conj().T - u @ u.conj().T).max() <= 1e-15
