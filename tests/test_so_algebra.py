import itertools

import numpy as np
import pytest

import oracles
from weitzlab import so_algebra as so


def _inner(a, b):
    """The invariant inner product ``-tr(a b) / 2`` (real part)."""
    return float(np.real(-np.trace(a @ b) / 2.0))


def test_n2_single_element():
    b = so.basis(2)
    assert b.dim == 1
    assert np.array_equal(b.elements[0], np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_rejects_n_below_2():
    with pytest.raises(ValueError):
        so.basis(1)


def test_n3_brackets_by_direct_multiplication():
    b = so.basis(3)
    x12, x13, x23 = b.elements
    # oracle: plain 3x3 matrix arithmetic
    assert np.array_equal(x12 @ x23 - x23 @ x12, x13)
    assert np.array_equal(x12 @ x13 - x13 @ x12, -x23)


def test_n4_orthonormal_under_trace_form():
    b = so.basis(4)
    for x, y in itertools.combinations_with_replacement(b.elements, 2):
        expected = 1.0 if x is y else 0.0
        assert abs(-np.trace(x @ y) / 2.0 - expected) < 1e-14


@pytest.mark.parametrize("label", ["A2", "B2", "C3", "G2"])
def test_expand_equals_the_inner_products_bit_for_bit(label):
    # the closed form against -tr(x_ij m)/2 per basis element, signs of zero
    # included, on the ad matrices that build the group curvature operators
    g = so.simple_algebra(label)
    b = so.basis(g.dim)
    for a in g.ad:
        want = np.array([_inner(x, a) for x in b.elements])
        got = so.expand(b, a)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_expand_reads_the_real_skew_part():
    b = so.basis(5)
    m = np.random.default_rng(3).standard_normal((2, 5, 5))
    z = m[0] + 1j * m[1]
    want = np.array([_inner(x, z) for x in b.elements])
    assert np.allclose(so.expand(b, z), want, rtol=0, atol=1e-15)
    assert np.allclose(so.expand(b, m[0] - m[0].T), 2 * so.expand(b, m[0]), rtol=0, atol=1e-15)


def test_elements_skew():
    for n in range(2, 9):
        for x in so.basis(n).elements:
            assert np.array_equal(x.T, -x)


@pytest.mark.parametrize("n", range(2, 9))
def test_jacobi_identity_all_triples(n):
    b = so.basis(n)
    worst = 0.0
    for x, y, z in itertools.combinations(b.elements, 3):
        s = (
            so.bracket(x, so.bracket(y, z))
            + so.bracket(y, so.bracket(z, x))
            + so.bracket(z, so.bracket(x, y))
        )
        worst = max(worst, np.linalg.norm(s))
    assert worst <= 1e-12


@pytest.mark.parametrize("n", range(2, 7))
def test_ad_invariance_of_inner_product(n):
    b = so.basis(n)
    for xc, xa, xb in itertools.product(b.elements, repeat=3):
        lhs = _inner(so.bracket(xc, xa), xb) + _inner(xa, so.bracket(xc, xb))
        assert abs(lhs) <= 1e-12


def test_disjoint_pairs_commute():
    b = so.basis(4)
    x12 = b.elements[b.pairs.index((0, 1))]
    x34 = b.elements[b.pairs.index((2, 3))]
    assert np.linalg.norm(so.bracket(x12, x34)) == 0.0


def test_bracket_size_mismatch():
    with pytest.raises(ValueError):
        so.bracket(np.eye(2), np.eye(3))


class TestUSubalgebra:
    def test_u1_is_so2(self):
        h = so.u_subalgebra(1)
        assert h.dim == 1
        j = h.elements[0]
        assert abs(abs(_inner(j, so.basis(2).elements[0])) - 1.0) < 1e-12

    def test_u2_dimension_and_closure(self):
        h = so.u_subalgebra(2)
        assert h.dim == 4
        assert h.closure_residual() <= 1e-12
        for g in h.elements:
            assert np.linalg.norm(g + g.T) <= 1e-12

    def test_u_elements_orthonormal(self):
        h = so.u_subalgebra(2)
        for i, a in enumerate(h.elements):
            for j, b in enumerate(h.elements):
                assert abs(_inner(a, b) - (1.0 if i == j else 0.0)) <= 1e-12

    def test_elements_commute_with_complex_structure(self):
        for m in (1, 2, 3):
            h = so.u_subalgebra(m)
            jmat = np.zeros((2 * m, 2 * m))
            for k in range(m):
                jmat[2 * k + 1, 2 * k] = 1.0
                jmat[2 * k, 2 * k + 1] = -1.0
            for g in h.elements:
                assert np.linalg.norm(g @ jmat - jmat @ g) <= 1e-12

    def test_rejects_m_below_1(self):
        with pytest.raises(ValueError):
            so.u_subalgebra(0)


LABELS = ["A1", "A2", "B2", "C3", "D4", "G2"]


class TestSimpleAlgebra:
    @pytest.mark.parametrize("label", LABELS)
    def test_killing_orthonormal(self, label):
        g = so.simple_algebra(label)
        ad = np.array(g.ad)
        killing = np.einsum("pij,qji->pq", ad, ad)
        assert np.linalg.norm(killing + np.eye(g.dim)) <= 1e-10

    @pytest.mark.parametrize("label", LABELS)
    def test_ad_casimir_is_minus_identity(self, label):
        g = so.simple_algebra(label)
        cas = sum(a @ a for a in g.ad)
        assert np.linalg.norm(cas + np.eye(g.dim)) <= 1e-10

    @pytest.mark.parametrize("label", LABELS)
    def test_jacobi(self, label):
        g = so.simple_algebra(label)
        rng = np.random.default_rng(0)
        idx = rng.integers(0, g.dim, size=(25, 3))
        for a, b, c in idx:
            x, y, z = g.model[a], g.model[b], g.model[c]
            s = (
                so.bracket(x, so.bracket(y, z))
                + so.bracket(y, so.bracket(z, x))
                + so.bracket(z, so.bracket(x, y))
            )
            assert np.linalg.norm(s) <= 1e-12

    def test_a1_killing_negative_definite(self):
        g = so.simple_algebra("A1")
        ad = np.array(g.ad)
        killing = np.einsum("pij,qji->pq", ad, ad)
        assert np.max(np.linalg.eigvalsh(killing)) < 0

    def test_a1_frobenius_sum_is_dim(self):
        # sum_a ||ad(y_a)||_F^2 = -tr(sum ad^2) = dim for a -B-orthonormal basis
        g = so.simple_algebra("A1")
        total = sum(np.linalg.norm(a) ** 2 for a in g.ad)
        assert abs(total - 3.0) <= 1e-10

    def test_g2_dimensions(self):
        g = so.simple_algebra("G2")
        assert g.dim == 14
        assert g.rank == 2
        assert len(g.roots.positive_roots) == 6

    def test_g2_model_derives_the_octonions(self):
        # D(xy) = D(x) y + x D(y) on the imaginary units, where
        # e_i e_j = -delta_ij + sum_k c[i,j,k] e_k
        c = so._octonion_table()
        g = so.simple_algebra("G2")
        assert len(g.model) == 14
        for d in g.model:
            d = np.real(d)
            lhs = np.einsum("km,ijm->ijk", d, c)
            rhs = np.einsum("ai,ajk->ijk", d, c) + np.einsum("aj,iak->ijk", d, c)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12
            # the real parts: -<D e_i, e_j> - <e_i, D e_j> = 0, i.e. D is skew
            assert np.max(np.abs(d + d.T)) <= 1e-12

    @pytest.mark.parametrize("label", LABELS)
    def test_positive_root_count(self, label):
        g = so.simple_algebra(label)
        assert len(g.roots.positive_roots) == (g.dim - g.rank) // 2

    @pytest.mark.parametrize("label", LABELS)
    def test_root_data_matches_matrix_model(self, label):
        g = so.simple_algebra(label)
        assert oracles.root_consistency_residual(g, seed=0) <= 1e-8

    @pytest.mark.parametrize("label", ["E8", "D2", "B1", "X4", "A0"])
    def test_unsupported_labels(self, label):
        with pytest.raises(ValueError):
            so.simple_algebra(label)

    def test_model_matrices_anti_hermitian(self):
        for label in LABELS:
            g = so.simple_algebra(label)
            for y in g.model:
                assert np.linalg.norm(y + y.conj().T) <= 1e-12
