import numpy as np
import pytest

import oracles
from weitzlab import numerics


class TestEigHermitian:
    def test_identity(self):
        w, v = numerics.eig_hermitian(np.eye(3))
        assert np.allclose(w, [1.0, 1.0, 1.0])
        assert np.allclose(v.conj().T @ v, np.eye(3))

    def test_already_diagonal(self):
        w, _ = numerics.eig_hermitian(np.diag([-2.0, 0.0, 5.0]))
        assert np.allclose(w, [-2.0, 0.0, 5.0])

    def test_two_by_two_offdiagonal(self):
        # characteristic polynomial of [[0,1],[1,0]] is t^2 - 1 by hand
        w, v = numerics.eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.linalg.norm(a @ v - v @ np.diag(w)) < 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            numerics.eig_hermitian(np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            numerics.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reconstruction_on_random_hermitian(self):
        # sizes up to 256, 1000 draws, residual <= 1e-10 * ||A||
        rng = np.random.default_rng(20240817)
        sizes = rng.integers(1, 257, size=1000)
        for size in sizes:
            g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            a = (g + g.conj().T) / 2.0
            w, v = numerics.eig_hermitian(a)
            scale = np.linalg.norm(a)
            assert np.linalg.norm(a @ v - v @ np.diag(w)) <= 1e-10 * max(scale, 1.0)
            assert np.linalg.norm(v.conj().T @ v - np.eye(size)) <= 1e-10 * size

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((17, 17))
        w, _ = numerics.eig_hermitian((g + g.T) / 2)
        assert np.all(np.diff(w) >= 0)

    def test_phase_fixing_is_deterministic(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        a = (g + g.conj().T) / 2
        _, v1 = numerics.eig_hermitian(a)
        _, v2 = numerics.eig_hermitian(a.copy())
        assert np.array_equal(v1, v2)


class TestNullspace:
    def test_zero_matrix(self):
        basis = numerics.nullspace(np.zeros((3, 3)))
        assert basis.shape == (3, 3)
        assert np.allclose(basis.conj().T @ basis, np.eye(3))

    def test_identity_has_empty_nullspace(self):
        assert numerics.nullspace(np.eye(3)).shape == (3, 0)

    def test_rank_one(self):
        basis = numerics.nullspace(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert basis.shape == (2, 1)
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert min(np.linalg.norm(basis[:, 0] - expected), np.linalg.norm(basis[:, 0] + expected)) < 1e-12

    def test_vectors_annihilated(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 10))
        basis = numerics.nullspace(a)
        assert basis.shape[1] == 4
        assert np.linalg.norm(a @ basis) <= 1e-9 * np.linalg.norm(a)

    def test_dimension_invariant_under_orthogonal_change(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((8, 8))
        a[:, -2] = a[:, 0] + a[:, 1]
        a[:, -1] = a[:, 2] - a[:, 3]
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        d1 = numerics.nullspace(a).shape[1]
        d2 = numerics.nullspace(a @ q).shape[1]
        d3 = numerics.nullspace(q @ a).shape[1]
        assert d1 == d2 == d3 == 2

    @pytest.mark.parametrize(
        "shape, rank",
        (((40, 6), 4), ((6, 6), 4), ((1, 7), 1), ((3, 9), 3)),
        ids=("tall", "square", "wide-row", "wide"),
    )
    def test_shapes(self, shape, rank):
        rng = np.random.default_rng(12)
        rows, cols = shape
        a = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        basis = numerics.nullspace(a)
        assert basis.shape == (cols, cols - rank)
        assert np.linalg.norm(basis.conj().T @ basis - np.eye(cols - rank)) <= 1e-12
        assert np.linalg.norm(a @ basis) <= 1e-12 * np.linalg.norm(a)

    def test_positive_tolerance_required(self):
        with pytest.raises(ValueError):
            numerics.nullspace(np.eye(2), tol=0.0)


class TestKron:
    def test_kron_sum_rectangular_stack(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 2, 3)) + 1j * rng.standard_normal((5, 2, 3))
        b = rng.standard_normal((5, 4, 1)) + 1j * rng.standard_normal((5, 4, 1))
        want = sum(np.kron(x, y) for x, y in zip(a, b))
        got = oracles.kron_sum(a, b)
        assert got.shape == (8, 3)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


class TestProjectors:
    def test_projector_idempotent(self):
        rng = np.random.default_rng(1)
        q = numerics.orthonormal_columns(rng.standard_normal((7, 3)))
        p = numerics.projector(q)
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.allclose(p, p.conj().T, atol=1e-12)

    def test_orthonormal_columns_of_dust_is_empty(self):
        dust = 1e-17 * np.ones((4, 2))
        assert numerics.orthonormal_columns(dust, atol=1e-10).shape[1] == 0


def _fix_phases_loop(v, tol=1e-12):
    """Oracle: the phase convention one column at a time.  Complex input is
    fixed in complex arithmetic; real input stays real, where the factor is
    the sign of the pivot."""
    v = np.array(v, dtype=np.result_type(v, np.float64), copy=True)
    for j in range(v.shape[1]):
        col = v[:, j]
        nz = np.nonzero(np.abs(col) > tol)[0]
        if nz.size:
            v[:, j] = col * (np.abs(col[nz[0]]) / col[nz[0]])
    return v


def _awkward_columns(rng, d, k):
    """Complex (d, k) with exact zeros, signed zeros, entries near the 1e-12
    cutoff, subnormals and whole zero columns."""
    a = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    a[rng.random((d, k)) < 0.3] = 0
    a[rng.random((d, k)) < 0.1] *= 1e-12
    a[rng.random((d, k)) < 0.1] = complex(-0.0, -0.0)
    a[rng.random((d, k)) < 0.05] = 5e-324
    a[:, rng.random(k) < 0.2] = 0
    return a


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestPositiveDefinite:
    def test_definite_matrices(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert numerics.positive_definite(a)
        assert numerics.positive_definite(np.array([[2.0, 1.0j], [-1.0j, 2.0]]))
        assert not numerics.positive_definite(-a)

    @pytest.mark.parametrize(
        "a",
        (np.zeros((3, 3)), np.diag([1.0, 0.0, 2.0]), np.diag([1.0, -1e-12, 2.0]), np.diag([1.0, np.nan, 2.0])),
        ids=("zero", "singular", "slightly-negative", "nan-pivot"),
    )
    def test_not_definite(self, a):
        assert not numerics.positive_definite(a)

    def test_nan_below_the_diagonal(self):
        a = np.eye(3)
        a[2, 0] = a[0, 2] = np.nan
        assert not numerics.positive_definite(a)


class TestFixPhases:
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_equal_to_the_column_loop(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            d, k = rng.integers(1, 12, size=2)
            if d * k == 1:
                continue  # see test_single_entry
            a = _awkward_columns(rng, d, k)
            for x in (a, a.real.copy(), a.imag.copy()):
                got, want = numerics.fix_phases(x), _fix_phases_loop(x)
                assert got.dtype == want.dtype == (np.complex128 if x is a else np.float64)
                assert np.array_equal(_bits(got), _bits(want))

    def test_single_entry(self):
        # numpy multiplies a one-entry 2-d array by another path than a
        # one-entry column, which may round the last bit of the complex
        # product apart; the convention and the value hold
        for z in (0.3 - 1.7j, -2.0 + 0j, 1e-13j, -5.0, 0.0):
            got, want = numerics.fix_phases(np.array([[z]])), _fix_phases_loop(np.array([[z]]))
            assert got.dtype == want.dtype
            assert abs(got[0, 0] - want[0, 0]) <= 1e-15 * abs(z)
            assert got[0, 0].real >= 0 and (abs(z) <= 1e-12 or abs(got[0, 0].imag) <= 1e-15 * abs(z))

    def test_zero_columns_untouched(self):
        a = np.array([[-0.0, 1.0], [-0.0, -2.0]]) * (1 - 1j)
        got = numerics.fix_phases(a)
        assert np.array_equal(_bits(got[:, 0]), _bits(a[:, 0]))
        assert got[0, 1] == abs(a[0, 1])


class TestRealEigHermitian:
    def test_eigenvalues_match_the_complex_solver(self):
        rng = np.random.default_rng(11)
        for size in (1, 2, 5, 17, 64, 130):
            g = rng.standard_normal((size, size))
            a = (g + g.T) / 2
            w, v = numerics.eig_hermitian(a)
            want = np.linalg.eigvalsh(a.astype(complex))
            assert v.dtype == np.float64
            assert np.max(np.abs(w - want)) <= 1e-12 * np.linalg.norm(a)
            assert np.linalg.norm(a @ v - v * w) <= 1e-12 * max(1.0, np.linalg.norm(a))
            assert np.linalg.norm(v.T @ v - np.eye(size)) <= 1e-12 * size

    def test_columns_keep_the_first_nonzero_positive_convention(self):
        rng = np.random.default_rng(12)
        g = rng.standard_normal((40, 40))
        _, v = numerics.eig_hermitian(g + g.T)
        first = v[np.argmax(np.abs(v) > 1e-12, axis=0), np.arange(40)]
        assert np.all(first > 0)

    def test_complex_input_with_zero_imaginary_part_is_solved_real(self):
        rng = np.random.default_rng(13)
        g = rng.standard_normal((9, 9))
        a = (g + g.T).astype(complex)
        w, v = numerics.eig_hermitian(a)
        w_real, v_real = numerics.eig_hermitian(a.real)
        assert v.dtype == np.float64
        assert np.array_equal(w, w_real) and np.array_equal(v, v_real)

    def test_complex_hermitian_stays_complex(self):
        rng = np.random.default_rng(14)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        w, v = numerics.eig_hermitian(g + g.conj().T)
        assert v.dtype == np.complex128
        want_w, want_v = np.linalg.eigh(g + g.conj().T)
        assert np.array_equal(w, want_w)
        assert np.array_equal(_bits(v), _bits(_fix_phases_loop(want_v)))

    def test_non_symmetric_real_input_raises(self):
        a = np.array([[1.0, 2.0], [2.0 + 1e-6, 1.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            numerics.eig_hermitian(a)

    def test_real_if_exact(self):
        z = np.array([[1.0, -0.0j]])
        assert numerics.real_if_exact(z).dtype == np.float64
        assert numerics.real_if_exact(z + 1e-300j).dtype == np.complex128
        r = np.eye(2)
        assert numerics.real_if_exact(r) is r


class TestCounterHashDraws:
    def test_splitmix64_matches_the_sequential_generator(self):
        # the reference splitmix64: state += gamma, then the finaliser, in
        # Python integers modulo 2^64
        mask = (1 << 64) - 1

        def sequential(state, count):
            out = []
            for _ in range(count):
                state = (state + 0x9E3779B97F4A7C15) & mask
                z = state
                z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
                out.append(z ^ (z >> 31))
            return out

        for state in (0, 1, 12345, mask):
            got = numerics.splitmix64(np.full(1, state, dtype=np.uint64), np.arange(50, dtype=np.uint64))
            assert [int(v) for v in got] == sequential(state, 50)

    def test_seeds_past_64_bits_stay_distinct(self):
        big = 99999999999999999999999
        seeds = [0, 1, 2**64 - 1, 2**64, 2**64 + 1, 2**65 + 1, 2**128, big, big + 1, big + 10_000, 2**64 * 5 + 7, 7]
        keys = [int(numerics.seed_key(s)[0]) for s in seeds]
        assert len(set(keys)) == len(seeds)
        normals = numerics.standard_normal(seeds, 8)
        assert len({row.tobytes() for row in normals}) == len(seeds)
        with pytest.raises(ValueError, match="non-negative"):
            numerics.seed_key(-1)
        with pytest.raises(TypeError):
            numerics.seed_key(1.5)

    def test_mean_and_variance_over_1e5_draws(self):
        # standard errors: 1/sqrt(1e5) = 0.0032 for the mean and sqrt(2/1e5)
        # = 0.0045 for the variance; the bounds sit at about six of them
        for seed in (0, 1, 2**70):
            z = numerics.standard_normal([seed], 100_000)[0]
            assert abs(z.mean()) <= 0.02
            assert abs(z.var() - 1.0) <= 0.03
            assert abs(np.mean(z**4) - 3.0) <= 0.15
            assert abs(np.mean(np.abs(z) <= 1.0) - 0.6827) <= 0.01
        # across seeds as well: the first normal of each of 20000 seeds
        first = numerics.standard_normal(range(20_000), 1)[:, 0]
        assert abs(first.mean()) <= 0.05 and abs(first.var() - 1.0) <= 0.06

    def test_a_seed_draws_the_same_alone_or_among_others(self):
        seeds = [3, 2**65 + 3, 11, 0]
        together = numerics.standard_normal(seeds, 1001)
        for seed, row in zip(seeds, together):
            assert np.array_equal(row, numerics.standard_normal([seed], 1001)[0])
        assert numerics.standard_normal([], 5).shape == (0, 5)

    def test_no_runtime_warning(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            numerics.standard_normal([0, 2**64 - 1, 99999999999999999999999], 100)
            numerics.splitmix64(np.full(1, 2**64 - 1, dtype=np.uint64), np.full(1, 2**64 - 2, dtype=np.uint64))
