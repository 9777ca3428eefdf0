import numpy as np
import pytest

from weitzlab import curvature as curv
from weitzlab import suites
from weitzlab.report import CheckReport, canonical_json, digest


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

    def test_digest_stable(self):
        a = digest({"x": [1.0, 2.0]})
        b = digest({"x": [1.0, 2.0]})
        assert a == b and len(a) == 16

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

    @pytest.mark.parametrize("name", ("lichnerowicz", "bochner", "lemma:k2", "lemma:k4", "blocks4", "positivity"))
    def test_zero_trials_rejected(self, name):
        with pytest.raises(suites.SuiteConfigError):
            suites.run_suite(name, n=3, trials=0)

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
