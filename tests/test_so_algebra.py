import itertools
import json
import tracemalloc

import numpy as np
import pytest

import oracles
from weitzlab import cli, numerics
from weitzlab import so_algebra as so


def _inner(a, b):
    """The invariant inner product ``-tr(a b) / 2`` (real part)."""
    return float(np.real(-np.trace(a @ b) / 2.0))


def test_n2_single_element():
    b = so.basis(2)
    assert b.dim == 1
    assert np.array_equal(so.matrices(b)[0], np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_rejects_n_below_2():
    with pytest.raises(ValueError):
        so.basis(1)


def test_n3_brackets_by_direct_multiplication():
    b = so.basis(3)
    x12, x13, x23 = so.matrices(b)
    # oracle: plain 3x3 matrix arithmetic
    assert np.array_equal(x12 @ x23 - x23 @ x12, x13)
    assert np.array_equal(x12 @ x13 - x13 @ x12, -x23)


def test_n4_orthonormal_under_trace_form():
    xs = so.matrices(so.basis(4))
    for a, b in itertools.combinations_with_replacement(range(len(xs)), 2):
        expected = 1.0 if a == b else 0.0
        assert abs(-np.trace(xs[a] @ xs[b]) / 2.0 - expected) < 1e-14


@pytest.mark.parametrize("label", ["A2", "B2", "C3", "G2"])
def test_expand_equals_the_inner_products_bit_for_bit(label):
    # the closed form against -tr(x_ij m)/2 per basis element, signs of zero
    # included, on the ad matrices that build the group curvature operators
    g = so.simple_algebra(label)
    b = so.basis(g.dim)
    for a in g.ad:
        want = np.array([_inner(x, a) for x in oracles.dense_basis(g.dim)])
        got = so.expand(b, a)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_expand_reads_the_real_skew_part():
    b = so.basis(5)
    m = np.random.default_rng(3).standard_normal((2, 5, 5))
    z = m[0] + 1j * m[1]
    want = np.array([_inner(x, z) for x in oracles.dense_basis(5)])
    assert np.allclose(so.expand(b, z), want, rtol=0, atol=1e-15)
    assert np.allclose(so.expand(b, m[0] - m[0].T), 2 * so.expand(b, m[0]), rtol=0, atol=1e-15)


def test_elements_skew():
    for n in range(2, 9):
        for x in so.matrices(so.basis(n)):
            assert np.array_equal(x.T, -x)


@pytest.mark.parametrize("n", range(2, 9))
def test_jacobi_identity_all_triples(n):
    worst = 0.0
    for x, y, z in itertools.combinations(so.matrices(so.basis(n)), 3):
        s = (
            oracles.bracket(x, oracles.bracket(y, z))
            + oracles.bracket(y, oracles.bracket(z, x))
            + oracles.bracket(z, oracles.bracket(x, y))
        )
        worst = max(worst, np.linalg.norm(s))
    assert worst <= 1e-12


@pytest.mark.parametrize("n", range(2, 7))
def test_ad_invariance_of_inner_product(n):
    xs = so.matrices(so.basis(n))
    for xc, xa, xb in itertools.product(xs, repeat=3):
        lhs = _inner(oracles.bracket(xc, xa), xb) + _inner(xa, oracles.bracket(xc, xb))
        assert abs(lhs) <= 1e-12


def test_disjoint_pairs_commute():
    xs = so.matrices(so.basis(4))
    x12 = xs[so.pair_number(4, 0, 1)]
    x34 = xs[so.pair_number(4, 2, 3)]
    assert np.linalg.norm(oracles.bracket(x12, x34)) == 0.0


def test_bracket_size_mismatch():
    with pytest.raises(ValueError):
        oracles.bracket(np.eye(2), np.eye(3))


class TestPairBasis:
    @pytest.mark.parametrize("n", range(2, 12))
    def test_pair_number_is_the_position_in_pair_list(self, n):
        pairs = so.pair_list(n)
        i, j = np.array(pairs).T
        assert so.pair_number(n, i, j).tolist() == list(range(len(pairs)))
        assert [so.pair_number(n, *p) for p in pairs] == list(range(len(pairs)))

    def test_basis_is_its_pairs(self):
        b = so.basis(5)
        assert b == (5, so.pair_list(5)) and b.dim == 10
        assert not hasattr(b, "elements")
        assert not hasattr(so.u_subalgebra(2), "elements")

    def test_basis_n60_allocates_no_matrices(self):
        # 1770 dense 60 x 60 basis matrices took 49 MiB
        tracemalloc.start()
        try:
            b = so.basis(60)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert b.dim == 1770 and peak < 1 << 20

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matrices_bit_equal_to_the_dense_basis(self, n):
        b = so.basis(n)
        assert so.matrices(b).tobytes() == np.array(oracles.dense_basis(n)).tobytes()
        rows = np.random.default_rng(n).standard_normal((3, b.dim))
        rows[0, 0] = 0.0
        want = np.array(oracles.elements(so.Subalgebra(ambient=b, coeff=rows)))
        assert so.matrices(b, rows).tobytes() == want.tobytes()


def _jmat(m):
    """The standard complex structure of R^2m, J e_2k = e_2k+1 (0-based)."""
    jmat = np.zeros((2 * m, 2 * m))
    for k in range(m):
        jmat[2 * k + 1, 2 * k] = 1.0
        jmat[2 * k, 2 * k + 1] = -1.0
    return jmat


class TestUSubalgebra:
    def test_u1_is_so2(self):
        h = so.u_subalgebra(1)
        assert h.dim == 1
        j = so.matrices(h.ambient, h.coeff)[0]
        assert abs(abs(_inner(j, so.matrices(so.basis(2))[0])) - 1.0) < 1e-12

    def test_u2_dimension_and_closure(self):
        h = so.u_subalgebra(2)
        assert h.dim == 4
        assert h.closure_residual() <= 1e-12
        for g in so.matrices(h.ambient, h.coeff):
            assert np.linalg.norm(g + g.T) <= 1e-12

    def test_u_elements_orthonormal(self):
        h = so.u_subalgebra(2)
        xs = so.matrices(h.ambient, h.coeff)
        for i, a in enumerate(xs):
            for j, b in enumerate(xs):
                assert abs(_inner(a, b) - (1.0 if i == j else 0.0)) <= 1e-12

    def test_elements_commute_with_complex_structure(self):
        for m in (1, 2, 3):
            h = so.u_subalgebra(m)
            jmat = _jmat(m)
            for g in so.matrices(h.ambient, h.coeff):
                assert np.linalg.norm(g @ jmat - jmat @ g) <= 1e-12

    def test_rejects_m_below_1(self):
        with pytest.raises(ValueError):
            so.u_subalgebra(0)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_closed_form_spans_the_nullspace_oracle(self, m):
        h = so.u_subalgebra(m)
        c = h.coeff
        assert h.ambient == so.basis(2 * m) and h.label == f"u({m})" and c.shape == (m * m, m * (2 * m - 1))
        assert np.max(np.abs(c @ c.T - np.eye(m * m))) <= 1e-15
        jmat = _jmat(m)
        xs = so.matrices(h.ambient, c)
        assert np.max(np.abs(xs @ jmat - jmat @ xs)) <= 1e-15
        assert h.closure_residual() <= 1e-14
        null = oracles.u_nullspace(m)
        assert np.max(np.abs(c.T @ c - null.T @ null)) <= 1e-14

    def test_row_order(self):
        # x_01, x_23, then (x_02 + x_13) / sqrt 2 and (x_03 - x_12) / sqrt 2
        s = np.sqrt(0.5)
        want = np.zeros((4, 6))
        for row, entries in enumerate(([(0, 1, 1.0)], [(2, 3, 1.0)], [(0, 2, s), (1, 3, s)], [(0, 3, s), (1, 2, -s)])):
            for i, j, v in entries:
                want[row, so.pair_list(4).index((i, j))] = v
        assert so.u_subalgebra(2).coeff.tobytes() == want.tobytes()

    def test_no_singular_value_decomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("u(m) is a closed form")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(so.numerics, "nullspace", refuse)
        assert so.u_subalgebra(4).dim == 16


def _padded(n, m):
    """The old dense so(m) on the first m coordinates of R^n."""
    out = []
    for x in oracles.dense_basis(m):
        big = np.zeros((n, n))
        big[:m, :m] = x
        out.append(big)
    return out


def _bits(rows):
    """The bytes of coefficient rows with -0.0 read as +0.0: a restriction
    skips zero coefficients of either sign."""
    return (np.asarray(rows) + 0.0).tobytes()


class TestSubalgebraRows:
    """The rows of every ``--sub`` against ``expand`` of the dense elements
    that the subalgebras were once stored as."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_so_full(self, n):
        h = cli.parse_subalgebra("so-full", n)
        want = [so.expand(h.ambient, x) for x in oracles.dense_basis(n)]
        assert h.label == f"so({n})" and _bits(h.coeff) == _bits(want)

    @pytest.mark.parametrize("n, m", [(3, 2), (4, 3), (5, 3), (6, 4), (7, 5), (5, 5)])
    def test_so_m(self, n, m):
        h = cli.parse_subalgebra(f"so:{m}", n)
        want = [so.expand(h.ambient, x) for x in _padded(n, m)]
        assert h.label == f"so({m})" and _bits(h.coeff) == _bits(want)

    @pytest.mark.parametrize("n", (4, 5, 6))
    def test_file(self, n, tmp_path):
        q, _ = np.linalg.qr(np.cos(np.arange(n * n, dtype=float).reshape(n, n)) + np.eye(n))
        mats = [q @ x @ q.T for x in _padded(n, 3)]
        mats.append(mats[0] + 2.0 * mats[1])  # a redundant element
        path = tmp_path / "sub.json"
        path.write_text(json.dumps([m.tolist() for m in mats]))
        h = cli.parse_subalgebra(f"file:{path}", n)
        amb = so.basis(n)
        span = numerics.orthonormal_columns(np.array([so.expand(amb, m) for m in mats]).T)
        xs = oracles.dense_basis(n)
        old = [sum(float(np.real(span[a, k])) * xs[a] for a in range(amb.dim)) for k in range(span.shape[1])]
        assert h.dim == 3 and _bits(h.coeff) == _bits([so.expand(amb, x) for x in old])


def _old_raw(family, rank):
    """The matrix models as the dense basis once built them."""
    if family == "G":
        a, b = np.triu_indices(7, 1)
        null = numerics.nullspace(so._octonion_table()[:, a, b])
        dense = np.array(oracles.dense_basis(7))
        return [np.asarray(np.tensordot(np.real(null[:, k]), dense, axes=(0, 0)), dtype=complex) for k in range(14)]
    return [np.asarray(x, dtype=complex) for x in oracles.dense_basis(2 * rank + (family == "B"))]


def _raw(label):
    """The matrix model of a label, as the algebra is built from it."""
    family, rank = so.parse_type_rank(label)
    return np.array(so._MODEL_BUILDERS[family](rank))


@pytest.mark.parametrize("label", ["B2", "B3", "D4", "G2"])
def test_matrix_models_bit_equal_to_the_dense_basis_construction(label):
    family, rank = so.parse_type_rank(label)
    raw, old = _raw(label), _old_raw(family, rank)
    assert raw.tobytes() == np.array(old).tobytes()
    # the batched Killing pass sums in another order than the loop one
    _, ad = oracles.killing_orthonormal_loop(old)
    assert np.max(np.abs(so.simple_algebra(label).ad - np.real(np.array(ad)))) <= 1e-14


#: A1-A8, B2-B6, C2-C6, D3-D7 and G2.
ROOT_LABELS = (
    [f"A{r}" for r in range(1, 9)]
    + [f"{family}{r}" for family in "BC" for r in range(2, 7)]
    + [f"D{r}" for r in range(3, 8)]
    + ["G2"]
)


#: The dual Coxeter numbers, by family and rank.
DUAL_COXETER = {"A": lambda r: r + 1, "B": lambda r: 2 * r - 1, "C": lambda r: r + 1, "D": lambda r: 2 * r - 2, "G": lambda r: 4}


@pytest.mark.parametrize("label", ROOT_LABELS)
def test_roots_equal_the_fraction_root_string_search(label):
    family, rank = so.parse_type_rank(label)
    roots = so.root_data(label)
    assert roots.positive_roots == oracles.fraction_positive_roots(family, rank)
    assert all(type(c) is int for beta in roots.positive_roots for c in beta)
    assert roots.gram == tuple(map(tuple, oracles.fraction_gram(family, rank)))
    assert roots.dual_coxeter == DUAL_COXETER[family](rank)


@pytest.mark.parametrize("label", ["A1", "A2", "A4", "A8", "B2", "B3", "B5", "C2", "C3", "C5", "D3", "D4", "D7", "G2"])
def test_killing_ad_equals_the_loop_pass(label):
    g = so.simple_algebra(label)
    _, ad = oracles.killing_orthonormal_loop(list(_raw(label)))
    assert g.ad.shape == (g.dim, g.dim, g.dim) and g.ad.dtype == np.float64
    assert np.max(np.abs(g.ad - np.real(np.array(ad)))) <= 1e-14
    assert np.max(np.abs(np.einsum("aij,ajk->ik", g.ad, g.ad) + np.eye(g.dim))) <= 1e-14


def test_an_open_model_is_refused():
    # x_01 and x_12 of so(3) do not close: their bracket is x_02
    raw = np.array(oracles.dense_basis(3)[::2], dtype=complex)
    with pytest.raises(RuntimeError, match="not closed"):
        so._killing_ad(raw)


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
        model = _raw(label)
        rng = np.random.default_rng(0)
        idx = rng.integers(0, len(model), size=(25, 3))
        for a, b, c in idx:
            x, y, z = model[a], model[b], model[c]
            s = (
                oracles.bracket(x, oracles.bracket(y, z))
                + oracles.bracket(y, oracles.bracket(z, x))
                + oracles.bracket(z, oracles.bracket(x, y))
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
        model = _raw("G2")
        assert len(model) == 14
        for d in model:
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
            for y in _raw(label):
                assert np.linalg.norm(y + y.conj().T) <= 1e-12
