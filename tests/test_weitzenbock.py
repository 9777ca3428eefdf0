import itertools
import re

import numpy as np
import pytest

import oracles
from weitzlab import curvature as curv
from weitzlab import numerics, options
from weitzlab import representations as reps
from weitzlab import so_algebra as so
from weitzlab import spin
from weitzlab import weitzenbock as wb


@pytest.fixture(scope="module")
def b3():
    return so.basis(3)


@pytest.fixture(scope="module")
def b4():
    return so.basis(4)


class TestKTerm:
    def test_identity_curvature_gives_casimir(self, b4):
        sph = curv.sphere(4)
        for r in wb.standard_family(b4):
            k = wb.k_matrix(sph, r)
            assert np.allclose(k, reps.casimir(r), atol=1e-12)

    def test_trivial_rep_gives_zero(self, b3):
        k = wb.k_matrix(curv.random_curvature(3, 0), reps.rep_trivial(b3))
        assert np.linalg.norm(k) == 0.0

    def test_positive_curvature_negative_k_on_vector(self, b3):
        # R = diag(1,2,3) is symmetric, hence Bianchi at n=3
        op = curv.curvature_operator(3, np.diag([1.0, 2.0, 3.0]))
        assert op.bianchi_flag
        ken = wb.k_term(op, reps.rep_vector(b3))
        assert np.max(ken.spectrum) < 0.0

    def test_self_adjointness(self, b4):
        for seed in range(10):
            op = curv.random_curvature(4, seed)
            for r in (reps.rep_vector(b4), spin.rep_spin(b4), reps.rep_sym0(b4)):
                ken = wb.k_term(op, r)
                assert ken.self_adjoint_residual <= 1e-10

    def test_linearity(self, b3):
        r = spin.rep_spin(b3)
        a = curv.random_curvature(3, 1)
        b = curv.random_curvature(3, 2)
        combo = curv.curvature_operator(3, 2.5 * a.matrix - 0.5 * b.matrix)
        lhs = wb.k_matrix(combo, r)
        rhs = 2.5 * wb.k_matrix(a, r) - 0.5 * wb.k_matrix(b, r)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))

    def test_dimension_mismatch_rejected(self, b3):
        with pytest.raises(ValueError):
            wb.k_matrix(curv.sphere(4), reps.rep_vector(b3))

    def test_spectrum_ascending(self, b4):
        ken = wb.k_term(curv.random_curvature(4, 3), reps.rep_exterior(b4, 2))
        assert np.all(np.diff(ken.spectrum) >= 0)


def _k_matrix_dense(r, rep):
    """Oracle: K from the dense (N, d, d) generator stack, by N dense products."""
    m = oracles.dense(rep)
    s = np.tensordot(r.matrix, m, axes=(1, 0))
    return np.matmul(m, s).sum(axis=0)


def _constructor_cases(n):
    """One rep from every constructor on so(n), restrictions included."""
    b = so.basis(n)
    vec, sp = reps.rep_vector(b), spin.rep_spin(b)
    cases = [vec, reps.rep_trivial(b), reps.rep_adjoint(b), reps.rep_sym0(b), sp]
    cases += [reps.rep_exterior(b, p) for p in range(n + 1)]
    cases += [reps.rep_sym(b, p) for p in (1, 2, 3)]
    cases += [reps.rep_tensor(vec, sp), oracles.tensor_power_rep(vec, 2), oracles.tensor_power_rep(vec, 3)]
    if n % 2 == 0:
        cases += [spin.rep_half_spin(b, 1), spin.rep_half_spin(b, -1)]
        cases.append(reps.rep_restrict(reps.rep_exterior(b, 2), so.u_subalgebra(n // 2)))
    block = np.eye(b.dim)[so.pair_number(n, *np.triu_indices(n - 1, 1))]
    cases.append(reps.rep_restrict(sp, so.Subalgebra(ambient=b, coeff=block, label=f"so({n - 1})")))
    return cases


class TestKMatrixAgainstDenseOracle:
    @pytest.mark.parametrize("n", range(3, 7))
    def test_every_constructor(self, n):
        b = so.basis(n)
        ops = [curv.random_curvature(n, 7), curv.random_symmetric(n, 7)]
        assert ops[0].bianchi_flag and not ops[1].bianchi_flag
        for rep in _constructor_cases(n):
            if isinstance(rep.basis, so.Subalgebra):
                # R compressed onto the subalgebra, and a random symmetric form on it
                coeff = rep.basis.coeff
                m = np.random.default_rng(n).standard_normal((rep.count, rep.count))
                forms = [coeff @ op.matrix @ coeff.T for op in ops] + [m + m.T]
                cases = [curv.CurvatureOperator(n=n, matrix=f, bianchi_flag=False) for f in forms]
            else:
                cases = ops
            for op in cases:
                want = _k_matrix_dense(op, rep)
                got = wb.k_matrix(op, rep)
                scale = max(1.0, float(np.max(np.abs(want))))
                assert got.shape == want.shape and got.dtype == _k_dtype(rep), rep.label
                assert np.max(np.abs(got - want)) <= 1e-12 * scale, (n, rep.label)

    def test_chunked_join_equals_one_chunk(self, monkeypatch):
        # a one-byte budget puts every row of K in a chunk of its own; the
        # pairs of each row and their order are the same
        rep = reps.rep_sym(so.basis(5), 2)
        op = curv.random_curvature(5, 3)
        whole = wb.k_matrix(op, rep)
        monkeypatch.setattr(numerics, "CHUNK_BYTES", 1)
        assert np.array_equal(wb.k_matrix(op, rep), whole)


def _k_dtype(rep):
    """K is complex exactly when the generator table is."""
    return np.dtype(complex if np.any(rep.table.val.imag) else float)


def _batch_cases(n):
    """Spin, vector, Lambda^2 and sym0 on so(n); at n = 4 also the lemma:k4
    power, the fourth tensor power of the spinors."""
    b = so.basis(n)
    cases = [spin.rep_spin(b), reps.rep_vector(b), reps.rep_exterior(b, 2), reps.rep_sym0(b)]
    if n == 4:
        cases.append(oracles.tensor_power_rep(cases[0], 4))
    return cases


class TestBatchedKMatrix:
    SEEDS = (20, 21, 22, 23, 24)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_stack_equals_single_joins(self, n):
        stacks = [curv.random_curvature(n, self.SEEDS), curv.random_symmetric(n, self.SEEDS)]
        for rep in _batch_cases(n):
            for stack in stacks:
                got = wb.k_matrix(stack, rep)
                assert got.shape == (len(self.SEEDS), rep.dim, rep.dim) and got.dtype == _k_dtype(rep)
                for k, op in zip(got, stack.unstack()):
                    assert np.array_equal(k, wb.k_matrix(op, rep)), (n, rep.label)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_one_pair_budget(self, n, monkeypatch):
        # every row of K is a chunk of its own and every operator a group of
        # its own; each row is still summed in one pass, in pair order, so
        # nothing moves
        stack = curv.random_symmetric(n, self.SEEDS[:2])
        cases = _batch_cases(n)
        whole = [wb.k_matrix(stack, rep) for rep in cases]
        monkeypatch.setattr(numerics, "CHUNK_BYTES", 1)
        for rep, want in zip(cases, whole):
            got = wb.k_matrix(stack, rep)
            assert np.array_equal(got, want), (n, rep.label)
            for k, op in zip(got, stack.unstack()):
                assert np.array_equal(k, wb.k_matrix(op, rep)), (n, rep.label)

    @pytest.mark.parametrize("n", (4, 5))
    def test_groups_smaller_than_the_stack(self, n, monkeypatch):
        # budgets between one row and the whole rep: chunks of several rows,
        # weighted by groups of 1 to 5 operators
        stack = curv.random_curvature(n, self.SEEDS)
        for rep in _batch_cases(n):
            want = wb.k_matrix(stack, rep)
            for budget in (1 << 12, 1 << 14, 1 << 16, 1 << 18):
                monkeypatch.setattr(numerics, "CHUNK_BYTES", budget)
                assert np.array_equal(wb.k_matrix(stack, rep), want), (rep.label, budget)
            monkeypatch.undo()

    def test_stack_of_one_and_empty_stack(self, b4):
        rep = spin.rep_spin(b4)
        one = curv.random_curvature(4, [7])
        assert np.array_equal(wb.k_matrix(one, rep)[0], wb.k_matrix(curv.random_curvature(4, 7), rep))
        assert wb.k_matrix(curv.random_curvature(4, []), rep).shape == (0, 4, 4)

    def test_neg_k_spectrum_of_a_stack(self, b4):
        stack = curv.random_curvature(4, self.SEEDS)
        for rep in wb.standard_family(b4):
            rows = wb.neg_k_spectrum(stack, rep)
            for row, op in zip(rows, stack.unstack()):
                assert np.array_equal(row, wb.neg_k_spectrum(op, rep)), rep.label


def _unmarked(rep):
    """The same generator table without the Clifford mark, so K comes from
    the table join."""
    return reps.Rep(rep.basis, rep.dim, rep.table, rep.label)


def _spinor_builders(n):
    """Spin, and for even n the two half-spins, as constructors on so(n)."""
    b = so.basis(n)
    builders = [lambda: spin.rep_spin(b)]
    if n % 2 == 0:
        builders += [lambda: spin.rep_half_spin(b, 1), lambda: spin.rep_half_spin(b, -1)]
    return builders


def _assert_join_agrees(op, rep):
    want = wb.k_matrix(op, _unmarked(rep))
    got = wb.k_matrix(op, rep)
    assert got.shape == want.shape and got.dtype == want.dtype == complex
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, float(np.max(np.abs(want)))), rep.label


class TestBladeKMatrix:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_equals_the_join(self, n):
        ops = [curv.sphere(n), curv.random_curvature(n, 11), curv.random_symmetric(n, 11)]
        if n == 10:
            ops.append(curv.bi_invariant_group(so.simple_algebra("B2")))
        for build in _spinor_builders(n):
            rep = build()
            assert rep.clifford is not None
            for op in ops:
                _assert_join_agrees(op, rep)

    def test_group_g2_equals_the_join(self):
        op = curv.bi_invariant_group(so.simple_algebra("G2"))
        for build in _spinor_builders(14):
            _assert_join_agrees(op, build())

    def test_marked_reps_take_the_blade_path(self, monkeypatch):
        calls = []
        blade = wb._blade_k_matrix
        monkeypatch.setattr(wb, "_blade_k_matrix", lambda r, blades: calls.append(blades) or blade(r, blades))
        op = curv.random_curvature(4, 1)
        for build in _spinor_builders(4):
            wb.k_matrix(op, build())
        wb.k_matrix(op, reps.rep_tensor(spin.rep_spin(so.basis(4)), reps.rep_vector(so.basis(4))))
        assert len(calls) == 3

    @pytest.mark.parametrize("n", (3, 4, 6, 7))
    def test_stack_equals_single_operators(self, n, monkeypatch):
        stack = curv.random_symmetric(n, (1, 2, 3, 4, 5))
        for build in _spinor_builders(n):
            rep = build()
            got = wb.k_matrix(stack, rep)
            singles = [wb.k_matrix(op, rep) for op in stack.unstack()]
            assert got.shape == (5, rep.dim, rep.dim)
            assert all(np.array_equal(k, one) for k, one in zip(got, singles)), rep.label
            # one row per chunk and one operator per group: each bin sums the
            # same blades in the same order
            monkeypatch.setattr(numerics, "CHUNK_BYTES", 1)
            assert np.array_equal(wb.k_matrix(stack, build()), got), rep.label
            monkeypatch.undo()

    def test_needs_no_numpy_2(self, monkeypatch):
        # numpy >= 1.24 is supported, and np.bitwise_count came with numpy 2
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        op = curv.random_curvature(8, 1)
        for build in _spinor_builders(8):
            _assert_join_agrees(op, build())


def _budget_cases():
    """Joins on exterior(2) at n = 6, sym0 at n = 5 and vector (x) spin at
    n = 4; blade sums on spin at n = 7 and the + half-spin at n = 8."""
    b4, b5, b6, b7, b8 = (so.basis(n) for n in (4, 5, 6, 7, 8))
    return [
        reps.rep_exterior(b6, 2),
        reps.rep_sym0(b5),
        reps.rep_tensor(reps.rep_vector(b4), spin.rep_spin(b4)),
        spin.rep_spin(b7),
        spin.rep_half_spin(b8, 1),
    ]


class TestChunkBudget:
    @pytest.mark.parametrize("case", range(5))
    def test_one_row_per_chunk_is_bit_identical(self, case, monkeypatch):
        rep = _budget_cases()[case]
        n = rep.basis.n
        for op in (curv.random_curvature(n, 3), curv.random_symmetric(n, (1, 2, 3, 4, 5))):
            want = wb.k_matrix(op, rep)
            monkeypatch.setattr(numerics, "CHUNK_BYTES", 1)
            assert np.array_equal(wb.k_matrix(op, rep), want), rep.label
            monkeypatch.undo()

    def test_reused_blades_equal_fresh_ones(self):
        stack = curv.random_symmetric(8, (1, 2, 3))
        for build in _spinor_builders(8):
            reused = build()
            first = wb.k_matrix(stack, reused)
            fresh = wb.k_matrix(stack, build())
            assert np.array_equal(first, fresh) and np.array_equal(wb.k_matrix(stack, reused), fresh)

    @pytest.mark.parametrize(
        "build",
        [lambda: reps.rep_exterior(so.basis(10), 5), lambda: spin.rep_spin(so.basis(14))],
        ids=["exterior5-n10", "spin-n14"],
    )
    def test_temporaries_within_twice_the_budget(self, build):
        import tracemalloc

        rep = build()
        op = curv.random_curvature(rep.basis.n, 1)
        tracemalloc.start()
        try:
            k = wb.k_matrix(op, rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= k.nbytes + 2 * numerics.CHUNK_BYTES, (peak, k.nbytes)

    def test_k_larger_than_the_limit_is_refused_before_allocation(self, monkeypatch):
        import resource

        rep = reps.rep_exterior(so.basis(6), 3)
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        monkeypatch.setattr(resource, "getrlimit", lambda which: (3199, hard))
        message = "K (2 x 20 x 20 x 8 bytes) needs 6400 bytes, more than the address-space limit of 3199 bytes"
        with pytest.raises(MemoryError, match=re.escape(message)):
            wb.k_matrix(curv.random_curvature(6, [1, 2]), rep)


class TestRealSpectrum:
    def test_real_k_takes_the_real_solver(self):
        # vector, exterior and sym0 tables are real: K is real and its
        # eigenvalues come from the real symmetric solver, within rounding of
        # the complex one
        b = so.basis(6)
        op = curv.random_curvature(6, 2)
        for rep in (reps.rep_vector(b), reps.rep_exterior(b, 3), reps.rep_sym0(b)):
            k = wb.k_matrix(op, rep)
            assert not np.any(k.imag)
            ken = wb.k_term(op, rep)
            assert np.array_equal(ken.spectrum, np.linalg.eigvalsh(((k + k.conj().T) / 2).real))
            complex_w = np.linalg.eigvalsh((k + k.conj().T) / 2)
            assert np.max(np.abs(ken.spectrum - complex_w)) <= 1e-12 * max(1.0, np.max(np.abs(complex_w)))

    def test_complex_k_keeps_the_complex_solver(self):
        rep = spin.rep_spin(so.basis(6))
        op = curv.random_symmetric(6, 2)
        k = wb.k_matrix(op, rep)
        assert np.any(k.imag)
        assert np.array_equal(wb.k_term(op, rep).spectrum, np.linalg.eigvalsh((k + k.conj().T) / 2))

    def test_hermiticity_precondition_still_applies(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            numerics.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestLichnerowicz:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_identity_on_bianchi_curvatures(self, n):
        sp = spin.rep_spin(so.basis(n))
        for seed in range(5):
            op = curv.random_curvature(n, seed)
            k = wb.k_matrix(op, sp)
            s = curv.scalar(op)
            resid = np.linalg.norm(-4.0 * k - (s / 4.0) * np.eye(sp.dim))
            assert resid <= 1e-9 * (1.0 + np.linalg.norm(k))

    def test_negative_control_needs_bianchi(self):
        # raw symmetric operators at n >= 4 generically violate the identity
        n = 4
        sp = spin.rep_spin(so.basis(n))
        hits = 0
        for seed in range(100):
            op = curv.random_symmetric(n, seed)
            k = wb.k_matrix(op, sp)
            s = curv.scalar(op)
            resid = np.linalg.norm(-4.0 * k - (s / 4.0) * np.eye(sp.dim)) / (
                1.0 + np.linalg.norm(k)
            )
            if resid > 1e-3:
                hits += 1
        assert hits >= 95


class TestBochner:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_ricci_identity(self, n):
        v = reps.rep_vector(so.basis(n))
        for seed in range(5):
            op = curv.random_curvature(n, seed)
            assert np.linalg.norm(-2.0 * wb.k_matrix(op, v) - curv.ricci(op)) <= 1e-10


class TestNaturality:
    def test_k_commutes_with_intertwiners(self, b3):
        r1 = reps.rep_exterior(b3, 2)
        r2 = reps.rep_vector(b3)
        t = reps.intertwiners(r1, r2)[0]
        for seed in range(5):
            op = curv.random_curvature(3, seed)
            k1 = wb.k_matrix(op, r1)
            k2 = wb.k_matrix(op, r2)
            assert np.linalg.norm(t @ k1 - k2 @ t) <= 1e-9 * max(1.0, np.linalg.norm(k1))

    def test_hodge_term_transports_through_clifford_symbol(self, b4):
        # degree by degree: the symbol's columns of degree p carry the Hodge
        # term on Lambda^p to the one on spin (x) spin
        t = spin.clifford_symbol(4)
        ss = reps.rep_tensor(spin.rep_spin(b4), spin.rep_spin(b4))
        hodge = options.laplacian_t("hodge")
        for seed in range(5):
            op = curv.random_curvature(4, seed)
            hodge_ss = hodge * wb.k_matrix(op, ss)
            start = 0
            for p in range(5):
                ext = reps.rep_exterior(b4, p)
                block = t[:, start : start + ext.dim]
                start += ext.dim
                hodge_ext = hodge * wb.k_matrix(op, ext)
                resid = np.linalg.norm(hodge_ss @ block - block @ hodge_ext)
                assert resid <= 1e-9 * (1.0 + np.linalg.norm(hodge_ext))


class TestCompatibility:
    def test_mismatch_is_a_typed_value_error(self, b4):
        # so(3) inside so(4): three generators like so(3), but over so(4)
        so3 = so.Subalgebra(ambient=b4, coeff=np.eye(6)[so.pair_number(4, *np.triu_indices(3, 1))])
        with pytest.raises(wb.CompatibilityError, match=re.escape("curvature lives on so(3)")):
            wb.k_matrix(curv.sphere(3), reps.rep_restrict(reps.rep_vector(b4), so3))
        with pytest.raises(wb.CompatibilityError, match="basis directions"):
            wb.k_matrix(curv.sphere(4), reps.rep_restrict(reps.rep_vector(b4), so.u_subalgebra(2)))
        assert issubclass(wb.CompatibilityError, ValueError)


class TestLaplacianPresets:
    def test_preset_values(self):
        assert options.LAPLACIAN_PRESETS == {
            "spinor_dirac": -4.0,
            "hodge": -2.0,
            "lichnerowicz": -2.0,
            "killing": 2.0,
            "curvature_tensor": -1.0,
        }

    def test_spinor_preset_is_quarter_scalar(self, b4):
        op = curv.random_curvature(4, 9)
        term = options.laplacian_t("spinor_dirac") * wb.k_matrix(op, spin.rep_spin(b4))
        s = curv.scalar(op)
        assert np.linalg.norm(term - (s / 4.0) * np.eye(4)) <= 1e-9 * (1 + np.linalg.norm(term))

    def test_hodge_preset_on_vector_is_ricci(self, b4):
        op = curv.random_curvature(4, 10)
        term = options.laplacian_t("hodge") * wb.k_matrix(op, reps.rep_vector(b4))
        assert np.linalg.norm(term - curv.ricci(op)) <= 1e-10

    def test_zero_t(self, b3):
        term = options.laplacian_t(0.0) * wb.k_matrix(curv.sphere(3), reps.rep_vector(b3))
        assert np.linalg.norm(term) == 0.0

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="preset"):
            options.laplacian_t("bogus")


def _permutation_oracle(perm, d):
    """Matrix of a permutation of the k tensor slots of (C^d)^(x)k: write
    src in base d (slot 0 most significant), move the digit of slot s to
    slot perm[s], read dst back."""
    k = len(perm)
    out = np.zeros((d ** k, d ** k))
    for src in range(d ** k):
        digits = [(src // d ** (k - 1 - s)) % d for s in range(k)]
        moved = [0] * k
        for s in range(k):
            moved[perm[s]] = digits[s]
        out[sum(v * d ** (k - 1 - s) for s, v in enumerate(moved)), src] = 1.0
    return out


def _fixed_columns(perms, d):
    """Orthonormal columns of the subspace of (C^d)^(x)k fixed by a group
    of slot permutations, listed in full: the image of their average."""
    average = sum(_permutation_oracle(p, d) for p in perms) / len(perms)
    return numerics.orthonormal_columns(average)


def _sym_columns(d, k):
    return _fixed_columns(list(itertools.permutations(range(k))), d)


def _k4_columns():
    t = spin.clifford_symbol(4)
    q2 = t[:, 5:11]
    cols = []
    for a in range(6):
        for b in range(a, 6):
            v = np.kron(q2[:, a], q2[:, b]) + np.kron(q2[:, b], q2[:, a])
            cols.append(v)
    return numerics.orthonormal_columns(np.array(cols).T)


K4_GENERATORS = [(1, 0, 3, 2), (2, 3, 0, 1)]


def _twisted_loop_oracle(op, rho, k):
    """The twisted term on the whole k-th tensor power, from a plain double
    loop over ``W = -4 sum_ab R_ab (rho_a rho_b (x) 1 + rho_a (x) tail_b)``,
    ``tail_b`` the action of x_b on slots 2..k (zero when k = 1)."""
    d, mats = rho.dim, oracles.dense(rho)
    eye = np.eye(d ** (k - 1))
    tails = []
    for m in mats:
        tail = np.zeros((d ** (k - 1), d ** (k - 1)), dtype=complex)
        for s in range(k - 1):
            tail += np.kron(np.kron(np.eye(d ** s), m), np.eye(d ** (k - 2 - s)))
        tails.append(tail)
    w = np.zeros((d ** k, d ** k), dtype=complex)
    for a in range(rho.count):
        for b in range(rho.count):
            w += -4.0 * op.matrix[a, b] * (np.kron(mats[a] @ mats[b], eye) + np.kron(mats[a], tails[b]))
    return w


class TestRestrictedTwistedTerm:
    """The lemma forms W only on E, as ``4 sum_ab R_ab Y1_a^H Y_b``; on any
    orthonormal columns Q this must be ``Q^H W Q`` of the loop oracle."""

    @pytest.mark.parametrize("n, k", ((3, 1), (3, 2), (3, 3), (4, 2), (4, 4)))
    def test_against_loop_oracle(self, n, k):
        rho = spin.rep_spin(so.basis(n))
        q = _random_columns(rho.dim ** k, 3, 10 * n + k)  # neither invariant nor slot-symmetric
        op = curv.random_curvature(n, k)
        gram = wb._twisted_gram(*wb._generator_action(oracles.dense(rho), q.reshape((rho.dim,) * k + (-1,))))
        got = 4.0 * np.tensordot(op.matrix, gram, axes=2)
        want = q.conj().T @ _twisted_loop_oracle(op, rho, k) @ q
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("n, k", ((3, 1), (3, 3), (4, 2), (4, 4)))
    def test_generator_action_is_the_tensor_power_action(self, n, k):
        # Y_a = P_a Q with P_a the generator of the k-th tensor power, and
        # Y1_a = (rho_a (x) 1) Q
        rho = spin.rep_spin(so.basis(n))
        power = oracles.tensor_power_rep(rho, k)
        q = _random_columns(power.dim, 3, n + k)
        y1, y = wb._generator_action(oracles.dense(rho), q.reshape((rho.dim,) * k + (-1,)))
        assert np.abs(y - oracles.dense(power) @ q).max() <= 1e-14
        first = np.stack([np.kron(m, np.eye(rho.dim ** (k - 1))) for m in oracles.dense(rho)])
        assert np.abs(y1 - first @ q).max() <= 1e-14


def _random_columns(rows, m, seed):
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((rows, m)) + 1j * rng.standard_normal((rows, m)))[0]


#: (n, k) with d^k <= 1024 for n = 3 ... 6, d the spinor dimension.
_POWER_CASES = tuple((n, k) for n in range(3, 7) for k in range(1, 5) if 2 ** (n // 2 * k) <= 1024)


class TestRestrictedK:
    """``Q^H K Q`` and ``||K||`` of the lemma come from the one-slot and
    two-slot parts of K; the oracle is the join of the tensor power."""

    @pytest.mark.parametrize("draw", (curv.random_curvature, curv.random_symmetric), ids=("bianchi", "symmetric"))
    @pytest.mark.parametrize("n, k", _POWER_CASES)
    def test_against_the_tensor_power_join(self, n, k, draw):
        rho = spin.rep_spin(so.basis(n))
        power = oracles.tensor_power_rep(rho, k)
        ops = draw(n, [3 * n + k, 4 * n + k])
        q = _random_columns(power.dim, 3, 5 * n + k)
        restricted, knorm = wb._restricted_k(ops, rho, oracles.dense(rho), q.reshape((rho.dim,) * k + (-1,)))
        kmats = wb.k_matrix(ops, power)
        want = np.linalg.norm(kmats, axis=(1, 2))
        assert np.abs(knorm / want - 1.0).max() <= 1e-14
        assert np.abs(restricted - q.conj().T @ kmats @ q).max() <= 1e-14 * want.max()

    @pytest.mark.parametrize(
        "n, k, columns, generators",
        (
            (3, 2, lambda: _sym_columns(2, 2), [(1, 0)]),
            (3, 3, lambda: _sym_columns(2, 3), [(1, 0, 2), (0, 2, 1)]),
            (4, 4, _k4_columns, K4_GENERATORS),
        ),
        ids=("k2", "k3", "k4"),
    )
    def test_lemma_reports_against_the_join(self, n, k, columns, generators):
        q = columns()
        ops = [curv.random_curvature(n, s) for s in (21, 22)] + [curv.random_symmetric(n, 23)]
        reports = wb.lemma_check(ops, k, q, generators, tol=1e-8)
        power = oracles.tensor_power_rep(spin.rep_spin(so.basis(n)), k)
        for op, rep in zip(ops, reports):
            kmat = wb.k_matrix(op, power)
            knorm = np.linalg.norm(kmat)
            assert abs(rep.details["k_norm"] / knorm - 1.0) <= 1e-14
            spectrum = np.linalg.eigvalsh(q.conj().T @ kmat @ q)
            assert np.abs(np.array(rep.spectrum) - spectrum).max() <= 1e-14 * knorm
        assert all(rep.passed for rep in reports)

    @pytest.mark.parametrize("kind", ("k2", "k4"))
    def test_lemma_builds_no_tensor_power(self, kind, monkeypatch):
        from weitzlab import suites

        n, k, q, generators = getattr(suites, f"_lemma_{kind}_config")()

        def refused(*args):
            raise AssertionError("the lemma built a tensor power")

        dims = []
        k_matrix = wb.k_matrix

        def recording(r, rep):
            dims.append(rep.dim)
            return k_matrix(r, rep)

        monkeypatch.setattr(wb, "rep_tensor", refused)
        monkeypatch.setattr(wb, "k_matrix", recording)
        reports = wb.lemma_check([curv.random_curvature(n, range(3))], k, q, generators, tol=1e-8)
        assert all(rep.passed for rep in reports)
        assert dims and max(dims) == 2 ** (n // 2)


class TestLemmaCheck:
    def test_k2_sym_square(self):
        ops = [curv.random_curvature(3, seed) for seed in range(20)]
        reports = wb.lemma_check(ops, 2, _sym_columns(2, 2), [(1, 0)])
        assert len(reports) == 20
        for rep in reports:
            assert rep.passed
            assert rep.details["t"] == -2.0

    def test_suite_k2_columns_span_sym_square(self):
        from weitzlab import suites

        n, k, q, generators = suites._lemma_k2_config()
        assert (n, k, generators) == (3, 2, [(1, 0)])
        assert np.allclose(q.conj().T @ q, np.eye(3), atol=1e-15)
        oracle = _sym_columns(2, 2)
        assert np.allclose(q @ q.conj().T, oracle @ oracle.conj().T, atol=1e-15)

    def test_k4_curvature_tensor_space(self):
        ops = [curv.random_curvature(4, seed) for seed in range(3)]
        reports = wb.lemma_check(ops, 4, _k4_columns(), K4_GENERATORS, tol=1e-8)
        assert len(reports) == 3
        for rep in reports:
            assert rep.passed
            assert rep.details["t"] == -1.0
            assert rep.inputs["subspace_dim"] == 21

    def test_k3_symmetric_cube(self):
        # the identity is not specific to k = 2 or 4: Sym^3 with the full S_3
        # gives t = -4/3
        ops = [curv.random_curvature(3, seed) for seed in range(5)]
        for rep in wb.lemma_check(ops, 3, _sym_columns(2, 3), [(1, 0, 2), (0, 2, 1)]):
            assert rep.passed
            assert abs(rep.details["t"] + 4.0 / 3.0) < 1e-12

    @pytest.mark.parametrize("cycle", ((1, 2, 0), (2, 0, 1)))
    def test_k3_cyclic_subspace_either_convention(self, cycle):
        # the cyclic group is transitive, so the identity holds on its fixed
        # subspace, which for d = 4 a transposition does not fix (for d = 2
        # it is Sym^3); a 3-cycle and its inverse fix the same vectors, so
        # both conventions give one verdict
        q = _fixed_columns([(0, 1, 2), (1, 2, 0), (2, 0, 1)], 4)
        assert q.shape == (64, 24)
        ops = [curv.random_curvature(4, seed) for seed in range(3)]
        assert all(rep.passed for rep in wb.lemma_check(ops, 3, q, [cycle]))
        with pytest.raises(
            wb.LemmaPreconditionError, match=re.escape("permutation (1, 0, 2) does not fix the subspace pointwise")
        ):
            wb.lemma_check(ops, 3, q, [cycle, (1, 0, 2)])

    @pytest.mark.parametrize(
        "n, k, columns, generators",
        (
            (3, 2, lambda: _sym_columns(2, 2), [(1, 0)]),
            (4, 4, _k4_columns, K4_GENERATORS),
        ),
    )
    def test_sequence_equals_one_call_per_operator(self, n, k, columns, generators):
        from weitzlab.report import canonical_json

        q = columns()
        ops = [curv.random_curvature(n, seed) for seed in (11, 12, 13)]
        together = wb.lemma_check(ops, k, q, generators, tol=1e-8)
        assert len(together) == 3
        for op, rep in zip(ops, together):
            [alone] = wb.lemma_check([op], k, q, generators, tol=1e-8)
            assert canonical_json(rep.to_dict()) == canonical_json(alone.to_dict())

    @pytest.mark.parametrize(
        "n, k, columns, generators",
        (
            (3, 2, lambda: _sym_columns(2, 2), [(1, 0)]),
            (4, 4, _k4_columns, K4_GENERATORS),
        ),
    )
    def test_stacks_equal_single_operators(self, n, k, columns, generators):
        from weitzlab.report import canonical_json

        q = columns()
        seeds = (11, 12, 13, 14)
        entries = [curv.random_curvature(n, seeds[:3]), curv.random_curvature(n, seeds[3])]
        stacked = wb.lemma_check(entries, k, q, generators, tol=1e-8)
        alone = wb.lemma_check([curv.random_curvature(n, s) for s in seeds], k, q, generators, tol=1e-8)
        assert [canonical_json(r.to_dict()) for r in stacked] == [canonical_json(r.to_dict()) for r in alone]

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="at least one curvature operator") as info:
            wb.lemma_check([], 2, _sym_columns(2, 2), [(1, 0)])
        assert not isinstance(info.value, wb.LemmaPreconditionError)

    def test_mixed_n_rejected(self):
        ops = [curv.random_curvature(3, 0), curv.random_curvature(4, 0)]
        with pytest.raises(ValueError, match=re.escape("different so(n)")) as info:
            wb.lemma_check(ops, 2, _sym_columns(2, 2), [(1, 0)])
        assert not isinstance(info.value, wb.LemmaPreconditionError)

    def test_wrong_row_count_rejected(self):
        ops = [curv.random_curvature(3, 0)]
        with pytest.raises(ValueError, match="with 4 rows") as info:
            wb.lemma_check(ops, 2, np.eye(8)[:, :3], [(1, 0)])
        assert not isinstance(info.value, wb.LemmaPreconditionError)

    def test_full_tensor_square_fails_precondition(self):
        # the swap acts as -1 on the antisymmetric part, so E = V (x) V fails
        ops = [curv.random_curvature(3, 0), curv.random_curvature(3, 1)]
        with pytest.raises(
            wb.LemmaPreconditionError,
            match=re.escape("permutation (1, 0) does not fix the subspace pointwise"),
        ):
            wb.lemma_check(ops, 2, np.eye(4), [(1, 0)])

    def test_intransitive_group_fails_precondition(self):
        ops = [curv.random_curvature(3, 0), curv.random_curvature(3, 1)]
        with pytest.raises(
            wb.LemmaPreconditionError,
            match=re.escape("the permutation group is not transitive on the factors"),
        ):
            wb.lemma_check(ops, 2, np.eye(4), [(0, 1)])  # identity permutation only

    @pytest.mark.parametrize(
        "skew",
        (
            lambda q: 0.5 * q,
            lambda q: (1.0 + 1e-6) * q,
            # unit length, not orthogonal to column 0
            lambda q: np.column_stack([q[:, 0], (q[:, 0] + q[:, 1]) / np.sqrt(2.0), q[:, 2]]),
            lambda q: np.where(np.arange(3) == 1, np.nan, q),
        ),
    )
    def test_non_orthonormal_columns_rejected(self, skew):
        ops = [curv.random_curvature(3, 0), curv.random_curvature(3, 1)]
        with pytest.raises(wb.LemmaPreconditionError, match=re.escape("E columns are not orthonormal")):
            wb.lemma_check(ops, 2, skew(_sym_columns(2, 2)), [(1, 0)])

    @pytest.mark.parametrize("perm", ((0, 0), (1, 2), (0, 0, 1)))
    def test_non_permutation_generator_rejected(self, perm):
        ops = [curv.random_curvature(3, 0)]
        with pytest.raises(wb.LemmaPreconditionError, match=re.escape(f"{perm}")):
            wb.lemma_check(ops, 2, _sym_columns(2, 2), [(1, 0), perm])

    def test_non_invariant_subspace_rejected(self):
        ops = [curv.random_curvature(3, 0), curv.random_curvature(3, 1)]
        q = np.eye(4)[:, :1]  # spans e_1 (x) e_1, not spin-invariant
        with pytest.raises(
            wb.LemmaPreconditionError,
            match=re.escape("E is not invariant under the spin action"),
        ):
            wb.lemma_check(ops, 2, q, [(1, 0)])

    @pytest.mark.parametrize("k", range(1, 5))
    @pytest.mark.parametrize("d", range(1, 4))
    def test_slot_transpose_fixes_what_the_oracle_fixes(self, k, d):
        # a column is fixed by the slot transpose of a permutation exactly
        # when the digit-loop matrix of that permutation fixes it
        rng = np.random.default_rng(d * 10 + k)
        for perm in itertools.permutations(range(k)):
            fixed = numerics.nullspace(_permutation_oracle(perm, d) - np.eye(d ** k), atol=1e-12)
            loose = rng.standard_normal((d ** k, 1))
            for cols in (fixed, loose):
                slots = cols.reshape((d,) * k + (-1,))
                by_transpose = np.linalg.norm(slots.transpose(*perm, k) - slots) <= 1e-12
                by_oracle = np.linalg.norm(_permutation_oracle(perm, d) @ cols - cols) <= 1e-12
                assert by_transpose == by_oracle


class TestPositivity:
    def test_sphere_positive_on_family(self, b3):
        rep = wb.positivity_report(curv.sphere(3))
        assert "positive" in rep.overall
        for e in rep.entries:
            assert e.verdict == "positive"
            assert e.min_eig_neg_k > 0

    def test_zero_curvature_semidefinite(self, b3):
        npairs = 3
        op = curv.curvature_operator(3, np.zeros((npairs, npairs)))
        rep = wb.positivity_report(op)
        assert "parallel" in rep.overall

    def test_indefinite_curvature_diagnostic_search(self, monkeypatch):
        op = curv.curvature_operator(3, np.diag([1.0, 1.0, -1.0]))
        monkeypatch.setattr(wb, "SEARCH_DIM_CAP", 64)
        rep = wb.positivity_report(op)
        assert rep.diagnostic
        assert "DIAGNOSTIC" in rep.overall
        assert "searched" in rep.diagnostic

    def test_forward_direction_randomised(self):
        from weitzlab.suites import positive_definite_curvature

        for n in (3, 4):
            b = so.basis(n)
            family = wb.standard_family(b)
            for seed in range(10):
                op = positive_definite_curvature(n, seed)
                assert np.min(np.linalg.eigvalsh(op.matrix)) > 0
                for r in family:
                    k = wb.k_matrix(op, r)
                    w = np.linalg.eigvalsh((k + k.conj().T) / 2)
                    assert np.min(-w) > 0, f"n={n} seed={seed} rep={r.label}"

    def test_search_solves_commutants_for_family_only(self, monkeypatch):
        # irreducibility is reported for family entries only, so the product
        # search must not solve a commutant
        op = curv.curvature_operator(3, np.diag([1.0, 1.0, -1.0]))
        family = wb.standard_family(so.basis(3))
        calls = []
        solve = wb.commutant_dimension

        def counting(rep):
            calls.append(rep.label)
            return solve(rep)

        monkeypatch.setattr(wb, "commutant_dimension", counting)
        rep = wb.positivity_report(op, reps=family)
        assert calls == [r.label for r in family]
        assert len(rep.diagnostic["searched"]) > len(family)

    @pytest.mark.parametrize(
        ("n", "matrix", "cap"),
        (
            (3, np.diag([1.0, 1.0, -1.0]), 4096),
            (3, np.diag([-1.7, 1.3, 1.7]), 4096),
            (4, np.diag([1.0, -1.0, 2.0, 0.5, -0.25, 1.5]), 24),
        ),
        ids=("n3-one-negative", "n3-mixed-verdicts", "n4-cap24"),
    )
    def test_report_equals_full_entry_oracle(self, n, matrix, cap, monkeypatch):
        # oracle: the search builds a full entry, commutant included, for
        # every product and keeps only its label and verdict
        op = curv.curvature_operator(n, matrix)
        family = wb.standard_family(so.basis(n))

        def full_entry(rep):
            k = wb.k_matrix(op, rep)
            neg_w = -np.linalg.eigvalsh(numerics.real_if_exact((k + k.conj().T) / 2.0))
            label = wb.definiteness(neg_w, TOL)
            verdict = {
                "positive-definite": "positive",
                "zero": "semi-definite",
                "positive-semidefinite": "semi-definite",
                "negative-semidefinite": "negative",
                "negative-definite": "negative",
            }
            return wb.PositivityEntry(
                label=rep.label,
                dim=rep.dim,
                irreducible=reps.commutant_dimension(rep) == 1,
                min_eig_neg_k=float(np.min(neg_w)),
                verdict=verdict.get(label, "indefinite"),
            )

        entries = [full_entry(r) for r in family]
        searched = [e.label for e in entries]
        counterexamples = [e.label for e in entries if e.verdict in ("negative", "indefinite")]
        for ra, rb in itertools.combinations_with_replacement(family, 2):
            if ra.dim * rb.dim <= cap:
                e = full_entry(reps.rep_tensor(ra, rb))
                searched.append(e.label)
                if e.verdict in ("negative", "indefinite"):
                    counterexamples.append(e.label)

        monkeypatch.setattr(wb, "SEARCH_DIM_CAP", cap)
        got = wb.positivity_report(op, reps=family, tol=TOL).to_dict()
        assert got["diagnostic"]["searched"] == searched
        assert got["diagnostic"]["counterexamples"] == sorted(set(counterexamples))
        assert got["overall"] == (
            "curvature operator not positive: counterexample representations found (DIAGNOSTIC)"
            if counterexamples
            else "curvature operator not positive: no counterexample within the finite family (DIAGNOSTIC)"
        )
        assert got["entries"] == [
            {
                "label": e.label,
                "dim": e.dim,
                "irreducible": e.irreducible,
                "min_eig_neg_k": e.min_eig_neg_k,
                "verdict": e.verdict,
            }
            for e in entries
        ]

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_negative_direction_is_the_indefinite_verdict(self, n):
        # one Cholesky of tol Id - H answers what the eigenvalues of -K
        # answered: an eigenvalue below -tol, "negative" or "indefinite" in
        # an entry, also where -K is semi-definite or zero
        npairs = n * (n - 1) // 2
        ops = [curv.random_curvature(n, seed) for seed in (1, 2, 3)]
        ops += [curv.sphere(n), curv.curvature_operator(n, -np.eye(npairs)), curv.curvature_operator(n, np.zeros((npairs, npairs)))]
        family = wb.standard_family(so.basis(n))
        products = [reps.rep_tensor(a, b) for a, b in itertools.combinations_with_replacement(family, 2)]
        verdicts = set()
        for op in ops:
            for t in family + products:
                verdict = wb._classify_neg_k(op, t, TOL)[1]
                want = verdict in ("negative", "indefinite")
                assert wb._negative_direction(op, t, TOL) == want, (t.label, verdict)
                verdicts.add(verdict)
        assert {"negative", "indefinite"} <= verdicts and len(verdicts) > 2

    def test_nan_operator_has_a_negative_direction(self):
        op = curv.CurvatureOperator(n=3, matrix=np.full((3, 3), np.nan), bianchi_flag=False)
        assert wb._negative_direction(op, reps.rep_vector(so.basis(3)), TOL)

    def test_empty_family_rejected(self, b3):
        with pytest.raises(ValueError):
            wb.positivity_report(curv.sphere(3), reps=[])

    def test_report_serialises(self):
        rep = wb.positivity_report(curv.sphere(3))
        d = rep.to_dict()
        assert set(d) == {"curvature", "r_spectrum", "entries", "overall", "diagnostic"}


TOL = 1e-9
# (spectrum, definiteness, vanishing verdict, positivity-entry verdict when
# -K has this spectrum): all six labels, each extreme just inside and just
# outside +-TOL
CLASSIFIER_CASES = [
    ([1.5 * TOL, 1.0], "positive-definite", "vanishes", "positive"),
    ([TOL, 1.0], "positive-semidefinite", "parallel-only", "semi-definite"),
    ([-TOL, 1.0], "positive-semidefinite", "parallel-only", "semi-definite"),
    ([-1.5 * TOL, 1.0], "indefinite", "no-conclusion", "indefinite"),
    ([-TOL, TOL], "zero", "parallel-only", "semi-definite"),
    ([-1.0, 1.5 * TOL], "indefinite", "no-conclusion", "indefinite"),
    ([-1.0, TOL], "negative-semidefinite", "no-conclusion", "negative"),
    ([-1.0, -TOL], "negative-semidefinite", "no-conclusion", "negative"),
    ([-1.0, -1.5 * TOL], "negative-definite", "no-conclusion", "negative"),
]


@pytest.mark.parametrize(("w", "label", "vanishing", "entry"), CLASSIFIER_CASES)
def test_one_spectrum_classifier(w, label, vanishing, entry, monkeypatch):
    w = np.array(w)
    assert wb.definiteness(w, TOL) == label
    assert wb.definiteness(w[::-1], TOL) == label  # only the extremes count
    assert wb.vanishing_conclusion(label) == vanishing
    # _entry_for classifies -K; hand it a K whose -K has spectrum w
    monkeypatch.setattr(wb, "k_matrix", lambda r, rep: np.diag(-w))
    e = wb._entry_for(curv.sphere(2), reps.rep_vector(so.basis(2)), TOL)
    assert e.verdict == entry
    assert e.min_eig_neg_k == w.min()


def test_nan_spectrum_entry_is_indefinite(monkeypatch):
    monkeypatch.setattr(wb, "neg_k_spectrum", lambda r, rep: np.array([np.nan, 1.0]))
    assert wb._classify_neg_k(curv.sphere(2), reps.rep_vector(so.basis(2)), TOL)[1] == "indefinite"


def test_classifier_edge_spectra():
    assert wb.definiteness(np.array([]), TOL) == "zero"
    assert wb.definiteness(np.array([np.nan, 1.0]), TOL) == "indefinite"
    assert wb.vanishing_conclusion(wb.definiteness(np.array([]), TOL)) == "parallel-only"


class TestVanishingConclusion:
    """The vanishing conclusion of a self-adjoint ``t K``, as the CLI's ``k``
    forms it: :func:`vanishing_conclusion` of the :func:`definiteness` of its
    spectrum."""

    @staticmethod
    def _conclusion(m):
        return wb.vanishing_conclusion(wb.definiteness(np.linalg.eigvalsh(m), TOL))

    def test_positive(self):
        assert self._conclusion(np.eye(3)) == "vanishes"

    def test_zero(self):
        assert self._conclusion(np.zeros((3, 3))) == "parallel-only"

    def test_negative(self):
        assert self._conclusion(-np.eye(3)) == "no-conclusion"

    def test_spinor_preset_on_sphere_vanishes(self, b4):
        term = options.laplacian_t("spinor_dirac") * wb.k_matrix(curv.sphere(4), spin.rep_spin(b4))
        assert self._conclusion(term) == "vanishes"
        # the value is s/4 = 6 at n=4
        assert np.allclose(term, 6.0 * np.eye(4), atol=1e-12)


class TestStandardFamily:
    @pytest.mark.parametrize("n", (3, 4, 5, 6))
    def test_family_members(self, n):
        fam = wb.standard_family(so.basis(n))
        labels = [r.label for r in fam]
        assert "vector" in labels
        assert "sym0(2)" in labels
        assert "adjoint" in labels
        if n % 2 == 0:
            assert "spin+" in labels and "spin-" in labels
        else:
            assert "spin" in labels
        if n >= 5:
            assert "exterior(2)" in labels
        for r in fam:
            assert oracles.homomorphism_residual(r) <= 1e-10

    def test_so2_family_leaves_out_the_trivial_adjoint(self):
        # so(2) is abelian, so its adjoint is trivial and -K vanishes on it
        fam = wb.standard_family(so.basis(2))
        assert [r.label for r in fam] == ["vector", "sym0(2)", "spin+", "spin-"]
        op = curv.curvature_operator(2, np.eye(1))
        assert "FORWARD-VIOLATION" not in wb.positivity_report(op).overall

    @pytest.mark.parametrize("n", (3, 4, 5, 6, 7))
    def test_adjoint_shares_the_exterior2_table(self, n):
        fam = {r.label: r for r in wb.standard_family(so.basis(n))}
        adjoint = fam["adjoint"]
        assert np.array_equal(oracles.dense(adjoint), oracles.dense(reps.rep_adjoint(so.basis(n))))
        if n >= 5:
            assert adjoint.table is fam["exterior(2)"].table


class TestDistinctTables:
    """positivity_report computes each entry and each product once per
    distinct (ordered pair of) generator tables, and its payload equals the
    one that computes every family member and product on its own."""

    @staticmethod
    def _undeduplicated(op, family, tol=1e-9, cap=4096) -> dict:
        entries = [wb._entry_for(op, r, tol) for r in family]
        searched = [e.label for e in entries]
        counterexamples = [e.label for e in entries if e.verdict in ("negative", "indefinite")]
        for ra, rb in itertools.combinations_with_replacement(family, 2):
            if ra.dim * rb.dim <= cap:
                t = reps.rep_tensor(ra, rb)
                searched.append(t.label)
                if wb._classify_neg_k(op, t, tol)[1] in ("negative", "indefinite"):
                    counterexamples.append(t.label)
        return {"entries": entries, "searched": searched, "counterexamples": sorted(set(counterexamples))}

    @pytest.mark.parametrize("n", (5, 6))
    def test_each_distinct_entry_and_product_once(self, n, monkeypatch):
        op = curv.random_curvature(n, 2)
        family = wb.standard_family(so.basis(n))
        want = self._undeduplicated(op, family)
        classified, searched, solved = [], [], []
        classify, negative, solve = wb._classify_neg_k, wb._negative_direction, wb.commutant_dimension

        def counting_classify(r, rep, tol):
            classified.append(rep.label)
            return classify(r, rep, tol)

        def counting_negative(r, rep, tol):
            searched.append(rep.label)
            return negative(r, rep, tol)

        def counting_solve(rep):
            solved.append(rep.label)
            return solve(rep)

        monkeypatch.setattr(wb, "_classify_neg_k", counting_classify)
        monkeypatch.setattr(wb, "_negative_direction", counting_negative)
        monkeypatch.setattr(wb, "commutant_dimension", counting_solve)
        got = wb.positivity_report(op, reps=family)
        tables = [id(r.table) for r in family]
        pairs = {(id(a.table), id(b.table)) for a, b in itertools.combinations_with_replacement(family, 2)}
        assert len(set(tables)) == len(family) - 1  # the adjoint is exterior(2)'s table
        assert solved == [r.label for r in family if r.label != "adjoint"]
        assert len(classified) == len(set(tables)) == len(set(classified))
        assert len(searched) == len(pairs) == len(set(searched))
        assert got.entries == want["entries"]
        assert got.diagnostic["searched"] == want["searched"]
        assert got.diagnostic["counterexamples"] == want["counterexamples"]

    @pytest.mark.parametrize("n", (5, 6))
    def test_forward_suite_classifies_each_table_once(self, n, monkeypatch):
        from weitzlab import suites

        tables = []
        neg_k = wb.neg_k_spectrum

        def counting(ops, rep):
            tables.append(rep.table)
            return neg_k(ops, rep)

        monkeypatch.setattr(wb, "neg_k_spectrum", counting)
        suites.positivity_suite(n, 2, 1)
        family = wb.standard_family(so.basis(n))
        assert len(tables) == len({id(t) for t in tables}) == len(family) - 1
