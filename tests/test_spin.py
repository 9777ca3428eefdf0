import itertools
import tracemalloc
from functools import reduce
from math import comb

import numpy as np
import pytest

import oracles
from weitzlab import curvature as curv
from weitzlab import options
from weitzlab import representations as reps
from weitzlab import so_algebra as so
from weitzlab import spin
from weitzlab import weitzenbock as wb


def _generators(n):
    """The package's Clifford generators, densified from their Pauli strings."""
    return oracles.dense_pauli(*spin._clifford_strings(n), 2 ** (n // 2))


def _volume(n):
    """The Pauli string of the volume element ``e_1 ... e_n``."""
    return spin._product(zip(*spin._clifford_strings(n)))


class TestGamma:
    @pytest.mark.parametrize("n", range(2, 12))
    def test_monomial_form_equals_dense_kronecker_oracle(self, n):
        got = _generators(n)
        want = oracles.gamma_dense(n)
        assert len(got) == len(want) == n
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_clifford_relations(self, n):
        # e_i e_j + e_j e_i + 2 delta_ij = 0 for every pair
        g = _generators(n)
        assert g.shape[1] == 2 ** (n // 2)
        acomm = g[:, None] @ g[None] + g[None] @ g[:, None]
        acomm[np.arange(n), np.arange(n)] += 2.0 * np.eye(g.shape[1])
        assert np.linalg.norm(acomm) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_generators_unitary_and_skew(self, n):
        for g in _generators(n):
            assert np.allclose(g @ g.conj().T, np.eye(g.shape[0]), atol=1e-12)
            assert np.allclose(g.conj().T, -g, atol=1e-12)

    def test_n2_anticommuting_pair(self):
        e1, e2 = _generators(2)
        assert np.allclose(e1 @ e1, -np.eye(2))
        assert np.allclose(e2 @ e2, -np.eye(2))
        assert np.linalg.norm(e1 @ e2 + e2 @ e1) == 0.0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_volume_element_square_sign(self, n):
        # direct multiplication oracle: (e_1...e_n)^2 = (-1)^{n(n+1)/2} I
        g = _generators(n)
        vol = reduce(np.matmul, g)
        sign = (-1) ** (n * (n + 1) // 2)
        assert np.allclose(vol @ vol, sign * np.eye(g.shape[1]), atol=1e-12)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            spin._clifford_strings(1)

    def test_construction_deterministic(self):
        a = spin._clifford_strings(6)
        b = spin._clifford_strings(6)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestRepSpin:
    @pytest.mark.parametrize("n", range(2, 12))
    def test_table_equals_dense_products(self, n):
        # the old construction: -e_i e_j / 2 by dense products
        b = so.basis(n)
        g = oracles.gamma_dense(n)
        want = np.array([-(g[i] @ g[j]) / 2.0 for i, j in b.pairs])
        r = spin.rep_spin(b)
        assert np.array_equal(oracles.dense(r), want)
        # monomial: one entry per row and generator
        assert len(r.table.val) == len(b.pairs) * r.dim

    @pytest.mark.parametrize("n", range(2, 9))
    def test_generator_squares(self, n):
        r = spin.rep_spin(so.basis(n))
        for m in oracles.dense(r):
            assert np.allclose(m @ m, -0.25 * np.eye(r.dim), atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_rep_invariants(self, n):
        r = spin.rep_spin(so.basis(n))
        m = oracles.dense(r)
        assert oracles.homomorphism_residual(r) <= 1e-10
        assert np.linalg.norm(m + m.conj().swapaxes(1, 2)) <= 1e-12

    def test_explicit_bracket_n3(self):
        b = so.basis(3)
        r = spin.rep_spin(b)
        i12, i23, i13 = (b.pairs.index(p) for p in ((0, 1), (1, 2), (0, 2)))
        m = oracles.dense(r)
        got = m[i12] @ m[i23] - m[i23] @ m[i12]
        assert np.linalg.norm(got - m[i13]) <= 1e-12

    @pytest.mark.parametrize("n", range(3, 8))
    def test_casimir(self, n):
        r = spin.rep_spin(so.basis(n))
        cas = reps.casimir(r)
        assert np.allclose(cas, -n * (n - 1) / 8.0 * np.eye(r.dim), atol=1e-12)


class TestHalfSpin:
    @pytest.mark.parametrize("n", (4, 6, 8))
    def test_chirality_splits_evenly(self, n):
        plus, minus = spin.half_spin_rows(n)
        assert len(plus) == len(minus) == 2 ** (n // 2 - 1)
        assert np.array_equal(np.sort(np.concatenate([plus, minus])), np.arange(2 ** (n // 2)))

    @pytest.mark.parametrize("n", range(2, 25, 2))
    def test_volume_element_is_a_real_unit_diagonal(self, n):
        x, z, phase = _volume(n)
        rows = np.arange(2 ** (n // 2))
        odd = np.array([bin(r & z).count("1") % 2 for r in rows], dtype=bool)
        chi = np.where(odd, -phase, phase) * (1.0 if n % 4 == 0 else 1.0j)
        assert x == 0
        assert not np.any(chi.imag) and np.array_equal(np.abs(chi.real), np.ones(len(chi)))
        plus, minus = spin.half_spin_rows(n)
        assert np.all(np.diff(plus) > 0) and np.all(np.diff(minus) > 0)
        assert np.all(chi.real[plus] == 1.0) and np.all(chi.real[minus] == -1.0)

    @pytest.mark.parametrize("n", range(2, 17, 2))
    def test_monomial_chirality_is_the_dense_diagonal(self, n):
        nu = oracles.chirality(n)
        assert np.array_equal(nu, np.diag(np.diag(nu)))
        sign = np.zeros(len(nu))
        for s, rows in zip((1.0, -1.0), spin.half_spin_rows(n)):
            sign[rows] = s
        assert np.array_equal(np.diag(nu), sign)

    @pytest.mark.parametrize("n", range(2, 17, 2))
    def test_columns_bit_equal_to_the_complex_solve(self, n):
        # oracle: the eigh of the dense chirality; its eigenvectors are unit
        # vectors, and ordered by their one nonzero row they are the unit
        # columns of the half's rows
        nu = oracles.chirality(n)
        w, v = np.linalg.eigh(nu)
        for want, rows in zip((v[:, w > 0], v[:, w < 0]), spin.half_spin_rows(n)):
            want = want[:, np.argsort(np.abs(want).argmax(axis=0))]
            phases = want[rows, np.arange(len(rows))]
            assert np.array_equal(want / phases, np.eye(len(nu))[:, rows])

    @pytest.mark.parametrize("n", range(2, 13, 2))
    def test_table_bit_equal_to_dense_conjugation(self, n):
        # oracle: cols^H m cols per dense generator, cols the half's unit columns
        b = so.basis(n)
        full = spin.rep_spin(b)
        for sign, rows in zip((1, -1), spin.half_spin_rows(n)):
            cols = np.eye(full.dim)[:, rows]
            want = oracles.rep_from_mats(b, len(rows), (cols.T @ m @ cols for m in oracles.dense(full)), "oracle")
            got = spin.rep_half_spin(b, sign)
            assert got.dim == len(rows)
            for a, w in zip(got.table, want.table):
                assert a.dtype == w.dtype and np.array_equal(a, w)

    @pytest.mark.parametrize("n", range(2, 13, 2))
    def test_marked_with_the_rows_of_its_columns(self, n):
        b = so.basis(n)
        nu = oracles.chirality(n)
        for sign, rows in zip((1, -1), spin.half_spin_rows(n)):
            mark = spin.rep_half_spin(b, sign).clifford
            assert isinstance(mark, spin.SpinorBlades) and np.array_equal(mark.rows, rows)
            cols = np.eye(len(nu))[:, rows]
            assert np.array_equal(nu @ cols, sign * cols)

    @pytest.mark.parametrize("n", range(2, 11, 2))
    def test_k_is_the_spin_k_on_the_rows(self, n):
        b = so.basis(n)
        op = curv.random_curvature(n, 7)
        k_spin = wb.k_matrix(op, spin.rep_spin(b))
        for sign, rows in zip((1, -1), spin.half_spin_rows(n)):
            got = wb.k_matrix(op, spin.rep_half_spin(b, sign))
            assert np.array_equal(got, k_spin[rows][:, rows])

    def test_n24_builds_without_a_dense_spinor_matrix(self):
        # one dense 4096 x 4096 complex matrix is 256 MiB
        tracemalloc.start()
        try:
            r = spin.rep_half_spin(so.basis(24), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.dim == 2048 and len(r.table.val) == comb(24, 2) * 2048
        assert peak < 256 << 20

    def test_chirality_squares_to_identity(self):
        # the monomial volume element, times i when n = 2 mod 4
        for n in (4, 6):
            x, z, phase = _volume(n)
            nu = oracles.dense_pauli(x, z, phase if n % 4 == 0 else 1.0j * phase, 2 ** (n // 2))
            assert np.allclose(nu @ nu, np.eye(2 ** (n // 2)), atol=1e-12)
            assert np.allclose(nu, nu.conj().T, atol=1e-12)

    def test_half_spin_reps_pass_invariants(self):
        b = so.basis(4)
        for sign in (+1, -1):
            r = spin.rep_half_spin(b, sign)
            assert r.dim == 2
            assert oracles.homomorphism_residual(r) <= 1e-10
            assert reps.commutant_dimension(r) == 1

    def test_odd_n_has_no_half_spin(self):
        with pytest.raises(ValueError):
            spin.rep_half_spin(so.basis(5), +1)


class TestSpinorBlades:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_blade_count(self, n):
        # the even blades of grade 0, 2 and 4 (at n = 2 only grade 0: x_12^2)
        assert spin.rep_spin(so.basis(n)).clifford.count == sum(comb(n, g) for g in (0, 2, 4))

    @pytest.mark.parametrize("n", range(2, 15))
    def test_table_is_the_closed_form_of_the_blades(self, n):
        # every generator is a signed XOR permutation: row r of rho_a holds
        # phase[a] (-1)^|r & z_a| at column r ^ x_a, on every row of the table
        rep = spin.rep_spin(so.basis(n))
        blades, t = rep.clifford, rep.table
        assert np.array_equal(t.gen, np.repeat(np.arange(rep.count), rep.dim))
        assert np.array_equal(t.row, np.tile(np.arange(rep.dim), rep.count))
        gen, row = t.gen, t.row
        assert np.array_equal(t.col, row ^ blades.x[gen])
        odd = np.array([bin(r & z).count("1") % 2 for r, z in zip(row, blades.z[gen])], dtype=bool)
        assert np.array_equal(t.val, np.where(odd, -blades.phase[gen], blades.phase[gen]))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_each_pair_product_is_its_signed_blade(self, n):
        # rho_a rho_b = s_ab Gamma_B on every row, Gamma_B from its entries
        # and rho_a = -e_i e_j / 2 from the dense Kronecker generators
        b = so.basis(n)
        g = oracles.gamma_dense(n)
        m = np.array([-(g[i] @ g[j]) / 2.0 for i, j in b.pairs])
        blades = spin.spinor_blades(b)
        d = len(g[0])
        key, sign = blades.key, blades.sign
        col, val = blades.entries(0, d)
        gamma = np.zeros((blades.count, d, d), dtype=complex)
        gamma[np.arange(blades.count), np.arange(d)[:, None], col] = np.where(blades.imaginary, 1.0j, 1.0) * val
        key, sign = key.reshape(len(m), -1), sign.reshape(len(m), -1)
        for a in range(len(m)):
            assert np.array_equal(m[a] @ m, sign[a, :, None, None] * gamma[key[a]])

    @pytest.mark.parametrize("n", range(2, 15))
    def test_spinor_blades_are_those_of_the_rep(self, n):
        b = so.basis(n)
        mark, blades = spin.rep_spin(b).clifford, spin.spinor_blades(b)
        for name in ("masks", "x", "z", "phase", "rows", "key", "sign", "bx", "bz", "imaginary", "value"):
            assert np.array_equal(getattr(mark, name), getattr(blades, name))

    @pytest.mark.parametrize("n", range(2, 10))
    def test_scalar_split_is_the_dense_decomposition(self, n):
        # oracle: the trace and the traceless remainder of the dense K
        b = so.basis(n)
        rep, blades = spin.rep_spin(b), spin.spinor_blades(b)
        ops = curv.random_curvature(n, [3, 4])
        sigma, rho = blades.scalar_split(blades.coefficients(ops.matrix))
        for k, s, r in zip(wb.k_matrix(ops, rep), sigma, rho):
            trace = np.trace(k) / rep.dim
            assert abs(s - trace) <= 1e-15 * max(1.0, abs(trace))
            rest = np.linalg.norm(k - trace * np.eye(rep.dim)) / np.sqrt(rep.dim)
            assert abs(r - rest) <= 1e-14 * max(1.0, rest)

    def test_scalar_split_refuses_a_half_spin(self):
        # on a half, the volume blade is a scalar too
        half = spin.rep_half_spin(so.basis(4), 1).clifford
        with pytest.raises(ValueError, match="full spin module"):
            half.scalar_split(np.zeros((1, half.count)))

    def test_mark_kept_by_relabel_and_dropped_by_other_constructions(self):
        b = so.basis(4)
        sp, half = spin.rep_spin(b), spin.rep_half_spin(b, 1)
        assert sp.relabeled("s").clifford is sp.clifford
        assert half.relabeled("h").clifford is half.clifford
        h = so.Subalgebra(ambient=b, coeff=np.eye(b.dim), label="so(4)")
        unmarked = [
            reps.rep_tensor(sp, sp),
            reps.rep_tensor(reps.rep_trivial(b), sp),
            reps.rep_restrict(sp, h),
            reps.rep_restrict(half, h),
            oracles.rep_from_mats(b, sp.dim, oracles.dense(sp), "spin"),
            reps.rep_exterior(b, 2),
        ]
        assert all(r.clifford is None for r in unmarked)


def _pairing(n):
    """The closed-form invariant pairing B, densified."""
    return oracles.dense_pauli(*spin._invertible_pairing(n), 2 ** (n // 2))


class TestFullModuleBlades:
    def test_no_spinor_sized_array_kept(self):
        # n = 40: 2^20 spinor rows against 780^2 = 608400 generator pairs;
        # the rows of the full module are formed a chunk at a time where read
        blades = spin.spinor_blades(so.basis(40))
        assert blades.rows is None and blades.dim == 2**20
        assert max(a.size for a in vars(blades).values() if isinstance(a, np.ndarray)) < blades.dim

    @pytest.mark.parametrize("n", (4, 7))
    def test_entries_on_any_rows(self, n):
        blades = spin.spinor_blades(so.basis(n))
        col, val = blades.entries(0, blades.dim)
        for lo, hi in ((0, 1), (1, 3), (blades.dim - 2, blades.dim)):
            c, v = blades.entries(lo, hi)
            assert c.dtype == col.dtype and v.dtype == val.dtype
            assert np.array_equal(c, col[lo:hi]) and np.array_equal(v, val[lo:hi])
        rows = np.arange(blades.dim)[:, None]
        assert np.array_equal(col, rows ^ blades.bx)


    def test_sphere_at_n60_with_no_sign_table(self):
        # 2^30 spinor rows: the signs are parities of the generators' bit
        # sets, so the blades of so(60) and their coefficients need nothing
        # of that size.  On the sphere -4K = s/4, so K = -n(n-1)/8 Id.
        tracemalloc.start()
        try:
            blades = spin.spinor_blades(so.basis(60))
            sigma, rho = blades.scalar_split(blades.coefficients(curv.sphere(60).matrix))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert blades.dim == 2**30
        assert sigma.tolist() == [-442.5] and rho.tolist() == [0.0]
        assert peak < 300 << 20

    def test_entries_stay_float32(self):
        blades = spin.spinor_blades(so.basis(8))
        col, val = blades.entries(0, blades.dim)
        assert col.dtype == np.int32 and val.dtype == np.float32

    @pytest.mark.parametrize("n", (64, 65, 80))
    def test_beyond_63_generators_refused(self, n):
        with pytest.raises(options.UsageError, match=f"spinors of so\\({n}\\) are out of range"):
            spin.spinor_blades(so.basis(n))


class TestParitySigns:
    def test_against_a_bit_count(self):
        rng = np.random.default_rng(0)
        v = np.concatenate([np.arange(4096), rng.integers(-(2**63), 2**63 - 1, 4096, dtype=np.int64), [-1, -(2**63)]])
        want = np.array([1.0 - 2.0 * (bin(int(x) & (2**64 - 1)).count("1") % 2) for x in v], dtype=np.float32)
        got = spin._parity_signs(v)
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(2, 15))
    def test_pair_products_equal_the_dense_products(self, n):
        # every product of two generators, its sign from the fold, against
        # the dense matrices of the Pauli strings
        dim = 2 ** (n // 2)
        x, z, phase = spin._clifford_strings(n)
        gx, gz, gp = spin._product([(x[:, None], z[:, None], phase[:, None]), (x, z, phase)])
        dense = oracles.dense_pauli(x, z, phase, dim)
        want = np.einsum("aij,bjk->abik", dense, dense)
        assert np.array_equal(oracles.dense_pauli(gx, gz, gp, dim), want)


class TestSpinorPairing:
    def test_schur_one_form_per_half_n4(self):
        # each half is self-dual: one invariant form (Schur), the restriction of B
        b, bmat = so.basis(4), _pairing(4)
        for sign, rows in zip((1, -1), spin.half_spin_rows(4)):
            half = spin.rep_half_spin(b, sign)
            assert len(oracles.dense_intertwiners(half, oracles.dual(half))) == 1
            assert np.any(bmat[np.ix_(rows, rows)])

    def test_n4_half_forms_antisymmetric(self):
        bmat = _pairing(4)
        for rows in spin.half_spin_rows(4):
            block = bmat[np.ix_(rows, rows)]
            assert np.array_equal(block.T, -block)

    def test_n6_halves_pair_crosswise(self):
        # no half is self-dual, and B pairs each half with the other
        b, bmat = so.basis(6), _pairing(6)
        plus, minus = spin.half_spin_rows(6)
        for sign in (1, -1):
            half = spin.rep_half_spin(b, sign)
            assert oracles.dense_intertwiners(half, oracles.dual(half)) == []
        assert not np.any(bmat[np.ix_(plus, plus)]) and not np.any(bmat[np.ix_(minus, minus)])
        assert np.any(bmat[np.ix_(plus, minus)])

    @pytest.mark.parametrize("n", (3, 4, 5, 6))
    def test_invariance_equation(self, n):
        r = spin.rep_spin(so.basis(n))
        forms = oracles.dense_intertwiners(r, oracles.dual(r))
        assert forms
        for bform in forms:
            for m in oracles.dense(r):
                assert np.linalg.norm(m.T @ bform + bform @ m) <= 1e-12

    @pytest.mark.parametrize("n", (4, 6))
    def test_algebra_lands_in_sym_or_skew_as_form_dictates(self, n):
        # with B^T = s B, every B rho(x_a) satisfies (B rho)^T = -s (B rho)
        r = spin.rep_spin(so.basis(n))
        bmat = _pairing(n)
        s = 1 if np.array_equal(bmat.T, bmat) else -1
        assert np.array_equal(bmat.T, s * bmat)
        for m in oracles.dense(r):
            prod = bmat @ m
            assert np.linalg.norm(prod.T + s * prod) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 11))
    def test_closed_form_pairing_is_a_unitary_monomial_invariant(self, n):
        # the product of the symmetric generators: exact, and in the span of
        # the forms the dense normal-matrix solve finds
        bmat = _pairing(n)
        d = 2 ** (n // 2)
        r = spin.rep_spin(so.basis(n))
        for m in oracles.dense(r):
            assert not np.any(m.T @ bmat + bmat @ m)
        assert np.array_equal(bmat.conj().T @ bmat, np.eye(d))
        nz = bmat != 0
        assert np.all(nz.sum(axis=0) == 1) and np.all(nz.sum(axis=1) == 1)
        assert np.all(np.abs(bmat[nz]) == 1.0)
        forms = np.array([f.ravel() for f in oracles.dense_intertwiners(r, oracles.dual(r))]).T
        coef = np.linalg.lstsq(forms, bmat.ravel(), rcond=None)[0]
        assert np.linalg.norm(forms @ coef - bmat.ravel()) <= 1e-12


def _symbol_blocks(n):
    """Each exterior power of so(n) with its block of columns of the symbol,
    degree by degree."""
    b, t = so.basis(n), spin.clifford_symbol(n)
    start = 0
    for p in range(n + 1):
        ext = reps.rep_exterior(b, p)
        yield ext, t[:, start : start + ext.dim]
        start += ext.dim
    assert start == t.shape[1]


class TestCliffordSymbol:
    @pytest.mark.parametrize("n", (2, 4, 6))
    def test_dimensions_and_unitarity(self, n):
        t = spin.clifford_symbol(n)
        d = 2 ** n
        assert t.shape == (d, d)
        assert np.allclose(t.conj().T @ t, np.eye(d), atol=1e-12)
        assert np.linalg.cond(t) < 1.0 + 1e-9

    @pytest.mark.parametrize("n", (2, 4, 6))
    def test_intertwines(self, n):
        # each degree's columns intertwine that exterior power with spin (x) spin
        b = so.basis(n)
        ss = reps.rep_tensor(spin.rep_spin(b), spin.rep_spin(b))
        for ext, block in _symbol_blocks(n):
            for mext, mss in zip(oracles.dense(ext), oracles.dense(ss)):
                assert np.linalg.norm(mss @ block - block @ mext) <= 1e-9

    def test_degree_zero_maps_to_identity_endomorphism(self):
        # undoing the pairing on the degree-0 column recovers a multiple of Id
        n = 4
        t = spin.clifford_symbol(n)
        m = t[:, 0].reshape(4, 4) @ _pairing(n)
        lam = np.trace(m) / 4.0
        assert np.linalg.norm(m - lam * np.eye(4)) <= 1e-12
        assert abs(lam) > 1e-3

    @pytest.mark.parametrize("n", (2, 4, 6))
    def test_equals_the_dense_products(self, n):
        # oracle: vec(e_i1 ... e_ip B^H) / sqrt(d) from the dense generators,
        # B the product of the symmetric ones; the products are exact
        g = oracles.gamma_dense(n)
        d = len(g[0])
        bmat = reduce(np.matmul, [m for m in g if np.array_equal(m, m.T)])
        cols = []
        for p in range(n + 1):
            for combo in itertools.combinations(range(n), p):
                prod = reduce(np.matmul, [g[i] for i in combo], np.eye(d, dtype=complex))
                cols.append((prod @ bmat.conj().T).ravel() / np.sqrt(d))
        assert np.array_equal(spin.clifford_symbol(n), np.array(cols).T)

    def test_odd_dimension_refused(self):
        with pytest.raises(ValueError, match="half the exterior algebra"):
            spin.clifford_symbol(5)

    def test_full_exterior_dimension(self):
        # the exterior powers of so(4) fill the 16 columns of the symbol
        exts = [ext for ext, _ in _symbol_blocks(4)]
        assert sum(ext.dim for ext in exts) == 16
        assert all(oracles.homomorphism_residual(ext) <= 1e-10 for ext in exts)

    def test_intertwiner_space_nonempty_n4(self):
        b = so.basis(4)
        ss = reps.rep_tensor(spin.rep_spin(b), spin.rep_spin(b))
        for ext, _ in _symbol_blocks(4):
            assert len(oracles.dense_intertwiners(ext, ss)) >= 1
