from fractions import Fraction

import numpy as np
import pytest

from weitzlab import casimir_weights as cw
from weitzlab import representations as reps
from weitzlab import so_algebra as so
from weitzlab import spin


LABELS = ["A1", "A2", "B2", "C3", "D4", "G2"]


class TestWeylVector:
    def test_a1_half_the_root(self):
        g = so.simple_algebra("A1")
        assert cw.weyl_vector(g) == (Fraction(1, 2),)

    def test_a2_sum_of_simples(self):
        g = so.simple_algebra("A2")
        assert cw.weyl_vector(g) == (Fraction(1), Fraction(1))

    @pytest.mark.parametrize("label", LABELS)
    def test_coroot_pairings_are_one(self, label):
        g = so.simple_algebra(label)
        delta = cw.weyl_vector(g)
        for alpha in g.roots.simple_roots:
            pairing = 2 * g.roots.inner_norm(delta, alpha) / g.roots.inner_norm(alpha, alpha)
            assert pairing == 1


class TestCasimirScalar:
    def test_zero_weight(self):
        # the trivial representation: <0, 0 + 2 delta> = 0
        for n in (3, 4, 7, 8):
            assert cw.so_casimir_scalar(n, (Fraction(0),) * (n // 2)) == 0

    def test_so3_vector_cross_module(self):
        # matrix Casimir -(n-1) = -2 equals -<w, w+2delta> with factor 1
        value = cw.so_casimir_scalar(3, (Fraction(1),))
        assert value == 2
        cas = reps.casimir(reps.rep_vector(so.basis(3)))
        assert np.allclose(cas, -float(value) * np.eye(3), atol=1e-12)

    def test_so5_spin_cross_module(self):
        value = cw.so_casimir_scalar(5, cw.spin_highest_weight(5))
        assert value == Fraction(5, 2)
        r = spin.rep_spin(so.basis(5))
        assert np.allclose(reps.casimir(r), -float(value) * np.eye(r.dim), atol=1e-12)

    @pytest.mark.parametrize("n", (3, 4, 5, 6))
    def test_family_cross_module(self, n):
        b = so.basis(n)
        m = n // 2
        e1 = tuple(Fraction(int(i == 0)) for i in range(m))
        hw2 = e1 if n == 3 else tuple(Fraction(int(i <= 1)) for i in range(m))
        cases = [
            (reps.rep_vector(b), e1),
            (reps.rep_exterior(b, 2), hw2),
            (spin.rep_spin(b), cw.spin_highest_weight(n)),
        ]
        for r, w in cases:
            cas = reps.casimir(r)
            scalar = float(np.real(np.trace(cas))) / r.dim
            assert np.linalg.norm(cas - scalar * np.eye(r.dim)) <= 1e-9 * max(1.0, abs(scalar))
            assert abs(scalar + float(cw.so_casimir_scalar(n, w))) <= 1e-9


class TestSpinHighestWeight:
    def test_values(self):
        assert cw.spin_highest_weight(3) == (Fraction(1, 2),)
        assert cw.spin_highest_weight(4) == (Fraction(1, 2), Fraction(1, 2))
        assert cw.spin_highest_weight(5) == (Fraction(1, 2), Fraction(1, 2))
        assert cw.spin_highest_weight(8) == tuple(Fraction(1, 2) for _ in range(4))

    def test_needs_n_at_least_3(self):
        with pytest.raises(ValueError):
            cw.spin_highest_weight(2)


class TestStrangeFormula:
    @pytest.mark.parametrize(
        "label,norm2",
        [
            ("A1", Fraction(1, 8)),
            ("A2", Fraction(1, 3)),
            ("B2", Fraction(5, 12)),
            ("C3", Fraction(7, 8)),
            ("D4", Fraction(7, 6)),
            ("G2", Fraction(7, 12)),
        ],
    )
    def test_exact_values(self, label, norm2):
        g = so.simple_algebra(label)
        delta = cw.weyl_vector(g)
        assert g.roots.inner_killing(delta, delta) == norm2
        assert 24 * norm2 == g.dim

    @pytest.mark.parametrize("label", LABELS)
    def test_check_report_passes(self, label):
        rep = cw.strange_formula_check(so.simple_algebra(label))
        assert rep.passed
        assert rep.residual == 0.0


class TestSoWeights:
    def test_positive_root_counts(self):
        # B_m: m^2 roots; D_m: m(m-1)
        assert len(cw.so_positive_roots(5)) == 4
        assert len(cw.so_positive_roots(7)) == 9
        assert len(cw.so_positive_roots(6)) == 6
        assert len(cw.so_positive_roots(8)) == 12

    def test_weyl_vectors(self):
        assert cw.so_weyl_vector(5) == (Fraction(3, 2), Fraction(1, 2))
        assert cw.so_weyl_vector(6) == (Fraction(2), Fraction(1), Fraction(0))

    def test_killing_factor(self):
        assert cw.so_weight_killing_factor(5) == Fraction(1, 6)
        assert cw.so_weight_killing_factor(3) == Fraction(1, 2)
