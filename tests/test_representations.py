import functools
import itertools
import math

import numpy as np
import pytest

import oracles
from weitzlab import cli, numerics
from weitzlab import representations as reps
from weitzlab import so_algebra as so
from weitzlab import weitzenbock as wb
from weitzlab.spin import rep_half_spin, rep_spin


def _exterior_action_loop(x, n, p):
    """Oracle: derivation action of x on Lambda^p, term by term, with the
    sign of each term from the cycle structure of the sorting permutation."""
    combos = list(itertools.combinations(range(n), p))
    index = {c: k for k, c in enumerate(combos)}
    out = np.zeros((len(combos), len(combos)), dtype=complex)
    for col, combo in enumerate(combos):
        for slot in range(p):
            i = combo[slot]
            for j in range(n):
                c = x[j, i]
                if c == 0 or (j != i and j in combo):
                    continue
                replaced = list(combo)
                replaced[slot] = j
                order = np.argsort(replaced)
                sign = 1.0
                seen = [False] * p
                for start in range(p):
                    if seen[start]:
                        continue
                    cycle = 0
                    k = start
                    while not seen[k]:
                        seen[k] = True
                        k = int(order[k])
                        cycle += 1
                    if cycle % 2 == 0:
                        sign = -sign
                out[index[tuple(sorted(replaced))], col] += sign * c
    return out


def _sym_action_loop(x, n, p):
    """Oracle: derivation action of x on Sym^p in the orthonormal monomial
    basis, term by term."""
    monos = list(itertools.combinations_with_replacement(range(n), p))
    index = {m: k for k, m in enumerate(monos)}
    norms = np.array([np.prod([float(math.factorial(len(list(g)))) for _, g in itertools.groupby(m)]) for m in monos])
    out = np.zeros((len(monos), len(monos)), dtype=complex)
    for col, mono in enumerate(monos):
        for slot in range(p):
            i = mono[slot]
            for j in range(n):
                c = x[j, i]
                if c == 0:
                    continue
                row = index[tuple(sorted(mono[:slot] + (j,) + mono[slot + 1:]))]
                out[row, col] += c * np.sqrt(norms[row] / norms[col])
    return out


def _power_mats_dense(b, p, alternating, dim):
    """Oracle: the dense generators of Lambda^p or Sym^p, written one
    generator at a time from the derivation table."""
    col, i, j, row, weight = reps._derivation_table(b.n, p, alternating)
    mats = []
    for x in b.elements:
        c = np.asarray(x, dtype=complex)[j, i]
        nz = c != 0
        out = np.zeros((dim, dim), dtype=complex)
        np.add.at(out, (row[nz], col[nz]), weight[nz] * c[nz])
        mats.append(out)
    return np.array(mats)


def _stacked_kernel(blocks) -> np.ndarray:
    """Oracle: SVD nullspace of the stacked (N d1 d2) x (d1 d2) system."""
    return numerics.nullspace(np.vstack(blocks))


def _intertwiners_oracle(r1, r2) -> np.ndarray:
    """Columns: row-major vec T of a basis of {T : sigma T = T rho}."""
    i1, i2 = np.eye(r1.dim), np.eye(r2.dim)
    return _stacked_kernel([np.kron(m2, i1) - np.kron(i2, m1.T) for m1, m2 in zip(oracles.dense(r1), oracles.dense(r2))])


def _forms_oracle(r) -> np.ndarray:
    """Columns: row-major vec B of a basis of the invariant bilinear forms,
    from the stacked system rho^T B + B rho = 0."""
    eye = np.eye(r.dim)
    return _stacked_kernel([np.kron(m.T, eye) + np.kron(eye, m.T) for m in oracles.dense(r)])


def _center_oracle(comm) -> list[np.ndarray]:
    """Oracle: the center of the commutant, the nullspace of the matrix whose
    column j stacks [C_j, C_i] over i."""
    if len(comm) == 1:
        return list(comm)
    cols = [np.concatenate([so.bracket(a, b).ravel() for b in comm]) for a in comm]
    null = numerics.nullspace(np.array(cols).T, atol=1e-10)
    return [sum(null[j, m] * comm[j] for j in range(len(comm))) for m in range(null.shape[1])]


def _isotypic_oracle(r, comm, seed=0, cluster_tol=1e-6) -> list:
    """Oracle: isotypic pieces from the eigenspaces of a seeded Hermitian
    element of the center of the commutant (orthonormalised over R), with
    each multiplicity from the rank of the commutant's block on the piece."""
    vecs = []
    for z in _center_oracle(comm):
        for h in ((z + z.conj().T) / 2, (z - z.conj().T) / 2j):
            v = h.ravel()
            vecs.append(np.concatenate([v.real, v.imag]))
    span = numerics.orthonormal_columns(np.array(vecs).T, atol=1e-10)
    d2 = r.dim * r.dim
    herm = [(span[:d2, m].real + 1j * span[d2:, m].real).reshape(r.dim, r.dim) for m in range(span.shape[1])]
    coeff = np.random.default_rng(seed).standard_normal(len(herm))
    generic = sum(c * h for c, h in zip(coeff, herm))
    w, v = numerics.eig_hermitian((generic + generic.conj().T) / 2, hermitian_tol=1e-8)
    scale = max(1.0, float(np.max(np.abs(w))))
    clusters = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[i - 1] <= cluster_tol * scale:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    cas = reps.casimir(r)
    pieces = []
    for idx in clusters:
        cols = v[:, idx]
        proj = numerics.projector(cols)
        lam = float(np.real(np.trace(cols.conj().T @ cas @ cols)) / len(idx))
        svals = np.linalg.svd(np.array([(proj @ t @ proj).ravel() for t in comm]), compute_uv=False)
        rank = int(np.sum(svals > 1e-8 * max(1.0, svals[0])))
        pieces.append(reps.IsotypicPiece(proj, len(idx), int(round(np.sqrt(rank))), lam))
    pieces.sort(key=functools.cmp_to_key(reps._piece_order))
    return pieces


def _isotypic_cases() -> dict:
    """Vector, exterior 2 and 3, sym0, spin, the half-spins and vector (x)
    spin at n = 3 ... 7, with their restrictions to so(n-1) and u(n/2).
    vector (x) spin stops at n = 5: at n = 6 its complex commutant solve
    (d = 48) takes about half a minute."""
    cases = {}
    for n in range(3, 8):
        kinds = ["vector", "exterior:2", "exterior:3", "sym0", "spin"]
        kinds += ["spin:+", "spin:-"] if n % 2 == 0 else []
        kinds += ["tensor:vector,spin"] if n <= 5 else []
        subs = [None, f"so:{n - 1}"] + ([f"u:{n // 2}"] if n % 2 == 0 else [])
        cases.update({f"{kind}|{sub or 'full'} n={n}": (n, kind, sub) for kind in kinds for sub in subs})
    return cases


def _real_kernel_cases() -> dict:
    """Real reps at n = 3 ... 7 and their restrictions to u(m) and so(m)."""
    cases = {}
    for n in range(3, 8):
        for kind in ("vector", "exterior:2", "exterior:3", "sym0", "adjoint"):
            cases[f"{kind} n={n}"] = (n, kind, None)
            if n <= 6:
                subs = [f"so:{n - 1}"] + ([f"u:{n // 2}"] if n % 2 == 0 else [])
                cases.update({f"{kind}|{sub} n={n}": (n, kind, sub) for sub in subs})
    return cases


def _build_rep(n, kind, sub):
    from weitzlab.cli import parse_rep, parse_subalgebra

    r = parse_rep(kind, so.basis(n))
    return r if sub is None else reps.rep_restrict(r, parse_subalgebra(sub, n))


def _span_projector(vecs) -> np.ndarray:
    q = np.array([np.ravel(v) for v in vecs]).T
    return q @ q.conj().T


def _oracle_cases():
    b3, b4, b6 = so.basis(3), so.basis(4), so.basis(6)
    v3 = reps.rep_vector(b3)
    return {
        "vector->vector(x)vector": (v3, reps.rep_tensor(v3, v3)),
        "exterior(2)|u(3)": 2 * (reps.rep_restrict(reps.rep_exterior(b6, 2), so.u_subalgebra(3)),),
        "sym0 n=4": 2 * (reps.rep_sym0(b4),),
        "spin+ n=4": 2 * (rep_half_spin(b4, 1),),
        "spin- n=6": 2 * (rep_half_spin(b6, -1),),
        "spin+ n=8": 2 * (rep_half_spin(so.basis(8), 1),),
    }


@pytest.fixture(scope="module")
def b3():
    return so.basis(3)


@pytest.fixture(scope="module")
def b4():
    return so.basis(4)


class TestConstructors:
    def test_trivial(self, b3):
        r = reps.rep_trivial(b3)
        assert r.dim == 1
        assert all(np.linalg.norm(m) == 0.0 for m in oracles.dense(r))

    def test_vector_is_defining(self, b3):
        r = reps.rep_vector(b3)
        for m, x in zip(oracles.dense(r), b3.elements):
            assert np.array_equal(np.real(m), x)

    def test_exterior2_n4(self, b4):
        r = reps.rep_exterior(b4, 2)
        assert r.dim == 6
        m = oracles.dense(r)
        assert oracles.homomorphism_residual(r) <= 1e-10
        assert np.linalg.norm(m + m.conj().swapaxes(1, 2)) <= 1e-12

    def test_exterior_range(self, b4):
        with pytest.raises(ValueError):
            reps.rep_exterior(b4, 5)
        assert reps.rep_exterior(b4, 0).dim == 1
        assert reps.rep_exterior(b4, 4).dim == 1

    def test_exterior_top_is_trivial_for_so(self, b4):
        # so(n) acts trivially on the volume form
        r = reps.rep_exterior(b4, 4)
        assert all(np.linalg.norm(m) <= 1e-14 for m in oracles.dense(r))

    def test_sym_dims(self, b3):
        assert reps.rep_sym(b3, 2).dim == 6
        assert reps.rep_sym(b3, 3).dim == 10
        with pytest.raises(ValueError):
            reps.rep_sym(b3, 0)

    def test_sym0_dimension_and_invariants(self, b4):
        r = reps.rep_sym0(b4)
        assert r.dim == 4 * 5 // 2 - 1
        m = oracles.dense(r)
        assert oracles.homomorphism_residual(r) <= 1e-10
        assert np.linalg.norm(m + m.conj().swapaxes(1, 2)) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_homomorphism_residuals_across_n(self, n):
        b = so.basis(n)
        for r in (reps.rep_vector(b), reps.rep_adjoint(b), reps.rep_exterior(b, 2)):
            assert oracles.homomorphism_residual(r) <= 1e-10

    @pytest.mark.parametrize("n", range(2, 9))
    def test_adjoint_equals_bracket_construction(self, n):
        # oracle: column b of ad(x_a) is the expansion of [x_a, x_b]
        b = so.basis(n)
        oracle = [
            np.array([so.expand(b, so.bracket(xa, xb)) for xb in b.elements], dtype=complex).T
            for xa in b.elements
        ]
        r = reps.rep_adjoint(b)
        assert r.label == "adjoint" and r.dim == b.dim
        assert len(oracles.dense(r)) == len(oracle)
        assert all(np.array_equal(m, o) for m, o in zip(oracles.dense(r), oracle))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_exterior_bit_equal_to_loop_oracle(self, n):
        b = so.basis(n)
        for p in range(n + 1):
            r = reps.rep_exterior(b, p)
            oracle = [_exterior_action_loop(np.asarray(x, dtype=complex), n, p) for x in b.elements]
            assert r.dim == oracle[0].shape[0] and r.label == f"exterior({p})"
            assert [m.tobytes() for m in oracles.dense(r)] == [o.tobytes() for o in oracle]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_sym_bit_equal_to_loop_oracle(self, n):
        b = so.basis(n)
        for p in range(1, 5):
            r = reps.rep_sym(b, p)
            oracle = [_sym_action_loop(np.asarray(x, dtype=complex), n, p) for x in b.elements]
            assert r.dim == oracle[0].shape[0] and r.label == f"sym({p})"
            assert [m.tobytes() for m in oracles.dense(r)] == [o.tobytes() for o in oracle]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_power_tables_equal_dense_construction(self, n):
        b = so.basis(n)
        for p in range(n + 1):
            r = reps.rep_exterior(b, p)
            assert np.array_equal(oracles.dense(r), _power_mats_dense(b, p, True, r.dim))
        for p in range(1, 5):
            r = reps.rep_sym(b, p)
            assert np.array_equal(oracles.dense(r), _power_mats_dense(b, p, False, r.dim))

    def test_dispatcher(self, b3):
        assert reps.rep_standard(b3, "vector").label == "vector"
        assert reps.rep_standard(b3, "exterior", 2).dim == 3
        with pytest.raises(ValueError):
            reps.rep_standard(b3, "exterior")
        with pytest.raises(ValueError):
            reps.rep_standard(b3, "nonsense")


class TestGenTable:
    def test_canonical_form(self):
        # duplicates summed in the order given, exact zeros dropped, entries
        # sorted by (gen, row, col)
        t = reps.gen_table([1, 0, 1, 0, 0], [0, 1, 0, 0, 1], [1, 0, 1, 1, 0], [2.0, 1j, 3.0, 5.0, -1j], 2)
        assert t.gen.tolist() == [0, 1] and t.row.tolist() == [0, 0] and t.col.tolist() == [1, 1]
        assert t.val.tolist() == [5.0, 5.0]

    def test_from_mats_round_trip(self, b4):
        r = reps.rep_sym0(b4)
        again = oracles.rep_from_mats(b4, r.dim, oracles.dense(r), r.label)
        for a, b in zip(again.table, r.table):
            assert np.array_equal(a, b)

    def test_tensor_table_size(self, b4):
        # nnz(rho (x) 1 + 1 (x) sigma) = nnz(rho) d_sigma + d_rho nnz(sigma)
        # when no diagonal entries meet
        v, e = reps.rep_vector(b4), reps.rep_exterior(b4, 2)
        t = reps.rep_tensor(v, e)
        assert len(t.table.val) == len(v.table.val) * e.dim + v.dim * len(e.table.val)


class TestConjugatedTable:
    @pytest.mark.parametrize("make", [lambda b: reps.rep_exterior(b, 2), rep_spin, lambda b: reps.rep_sym(b, 2)])
    def test_equals_dense_conjugation(self, make):
        # oracle: cols^H m cols per dense generator, for sparse complex columns
        r = make(so.basis(5))
        rng = np.random.default_rng(4)
        cols = rng.standard_normal((r.dim, 4)) + 1j * rng.standard_normal((r.dim, 4))
        cols[rng.random(cols.shape) < 0.6] = 0.0
        got = reps.Rep(r.basis, 4, reps.conjugated_table(r.table, cols), "c")
        want = np.array([cols.conj().T @ m @ cols for m in oracles.dense(r)])
        assert np.max(np.abs(oracles.dense(got) - want)) <= 1e-14 * np.max(np.abs(want))
        # only entries the dense product has can appear
        assert not np.any((oracles.dense(got) != 0) & (want == 0))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_sym0_within_rounding_of_dense_conjugation(self, n):
        b = so.basis(n)
        s2 = reps.rep_sym(b, 2)
        metric = np.array([float(i == j) for i, j in itertools.combinations_with_replacement(range(n), 2)])
        cols = numerics.nullspace((metric / np.linalg.norm(metric))[None, :].astype(complex))
        want = np.array([cols.conj().T @ m @ cols for m in oracles.dense(s2)])
        got = reps.rep_sym0(b)
        assert np.max(np.abs(oracles.dense(got) - want)) <= 2.3e-16
        assert len(got.table.val) <= np.count_nonzero(want)


class TestTensor:
    def test_trivial_factor_is_identity(self, b3):
        r = reps.rep_vector(b3)
        t = reps.rep_tensor(reps.rep_trivial(b3), r)
        for mt, mr in zip(oracles.dense(t), oracles.dense(r)):
            assert np.allclose(mt, mr)

    def test_vector_squared_casimir_partition(self, b3):
        t = reps.rep_tensor(reps.rep_vector(b3), reps.rep_vector(b3))
        assert t.dim == 9
        got = np.sort(np.linalg.eigvalsh(reps.casimir(t)))
        want = np.sort(
            np.concatenate(
                [
                    np.linalg.eigvalsh(reps.casimir(reps.rep_exterior(b3, 2))),
                    np.linalg.eigvalsh(reps.casimir(reps.rep_sym0(b3))),
                    np.linalg.eigvalsh(reps.casimir(reps.rep_trivial(b3))),
                ]
            )
        )
        assert np.allclose(got, want, atol=1e-9)

    def test_basis_mismatch(self, b3, b4):
        with pytest.raises(ValueError):
            reps.rep_tensor(reps.rep_vector(b3), reps.rep_vector(b4))

    def test_spin_squared_matches_exterior_dimension(self, b4):
        s = rep_spin(b4)
        t = reps.rep_tensor(s, s)
        assert t.dim == 16 == 2 ** 4


def _rotated_so3(n: int) -> so.Subalgebra:
    """so(3) on the first three axes, conjugated by a fixed rotation of R^n:
    every element has a dense row of coefficients over the so(n) basis."""
    q, _ = np.linalg.qr(np.cos(np.arange(n * n, dtype=float).reshape(n, n)) + np.eye(n))
    elements = []
    for x in so.basis(3).elements:
        big = np.zeros((n, n))
        big[:3, :3] = x
        elements.append(q @ big @ q.T)
    return so.Subalgebra(ambient=so.basis(n), elements=tuple(elements), label="rotated so(3)")


#: (n, rep, subalgebra) of restricted reps; None is :func:`_rotated_so3`
RESTRICTIONS = (
    (6, "exterior:2", "u:3"),
    (8, "exterior:3", "u:4"),
    (5, "adjoint", "so:4"),
    (5, "sym0", "so:3"),
    (6, "spin", "u:3"),
    (6, "tensor:vector,spin:+", "so:4"),
    (5, "exterior:2", None),
    (5, "spin", None),
)


def _restriction(n, rep, sub):
    """The rep of so(n) and the subalgebra of a :data:`RESTRICTIONS` case."""
    h = _rotated_so3(n) if sub is None else cli.parse_subalgebra(sub, n)
    return cli.parse_rep(rep, so.basis(n)), h


class TestRestrict:
    @pytest.mark.parametrize("n, rep, sub", RESTRICTIONS)
    def test_bit_equal_to_tensordot_oracle(self, n, rep, sub):
        r, h = _restriction(n, rep, sub)
        got, want = reps.rep_restrict(r, h), oracles.restrict(r, h)
        assert (got.dim, got.label, got.count) == (want.dim, want.label, want.count)
        for a, b in zip(got.table, want.table):
            assert a.tobytes() == b.tobytes()

    def test_restrict_to_full_so_is_identity(self, b4):
        r = reps.rep_vector(b4)
        full = so.Subalgebra(ambient=b4, elements=b4.elements, label="so(4)")
        got = reps.rep_restrict(r, full)
        for ma, mb in zip(oracles.dense(got), oracles.dense(r)):
            assert np.allclose(ma, mb, atol=1e-12)

    def test_vector_so4_restricted_to_u2(self, b4):
        h = so.u_subalgebra(2)
        r = reps.rep_restrict(reps.rep_vector(b4), h)
        assert r.dim == 4
        assert oracles.homomorphism_residual(r) <= 1e-10

    def test_ambient_mismatch(self, b3):
        h = so.u_subalgebra(2)
        with pytest.raises(ValueError):
            reps.rep_restrict(reps.rep_vector(b3), h)


class TestIntertwiners:
    def test_schur_for_irreducible(self, b3):
        r = reps.rep_vector(b3)
        basis = reps.intertwiners(r, r)
        assert len(basis) == 1

    def test_basis_frobenius_orthonormal(self, b4):
        basis = reps.intertwiners(reps.rep_exterior(b4, 2), reps.rep_exterior(b4, 2))
        assert len(basis) == 2
        for i, s in enumerate(basis):
            for j, t in enumerate(basis):
                gram = np.sum(np.conj(s) * t)
                assert abs(gram - (1.0 if i == j else 0.0)) <= 1e-10

    def test_intertwiners_intertwine(self, b3):
        r1 = reps.rep_exterior(b3, 2)  # isomorphic to the vector rep
        r2 = reps.rep_vector(b3)
        basis = reps.intertwiners(r1, r2)
        assert len(basis) == 1
        t = basis[0]
        for m1, m2 in zip(oracles.dense(r1), oracles.dense(r2)):
            assert np.linalg.norm(m2 @ t - t @ m1) <= 1e-10

    def test_irreducibility_examples(self, b3, b4):
        # irreducible over C exactly when the commutant is the scalars
        assert reps.commutant_dimension(reps.rep_trivial(b3)) == 1
        assert reps.commutant_dimension(reps.rep_vector(b3)) == 1
        assert reps.commutant_dimension(reps.rep_vector(b4)) == 1
        assert reps.commutant_dimension(reps.rep_exterior(b4, 2)) == 2

    def test_real_commutant_flag(self, b3):
        # the complex 2-dim rep of so(2) is real-irreducible but splits over C
        b2 = so.basis(2)
        r = reps.rep_vector(b2)
        assert reps.commutant_dimension(r, "C") == 2
        assert reps.commutant_dimension(r, "R") == 2  # {aI + bJ}
        assert reps.commutant_dimension(reps.rep_vector(b3), "R") == 1


class TestKernelOracle:
    """intertwiners, and the invariant bilinear forms as the intertwiners to
    the dual, against the stacked
    Kronecker system solved by SVD."""

    @pytest.mark.parametrize("case", list(_oracle_cases()))
    def test_intertwiners_match_stacked_system(self, case):
        r1, r2 = _oracle_cases()[case]
        got = reps.intertwiners(r1, r2)
        want = _intertwiners_oracle(r1, r2)
        assert len(got) == want.shape[1]
        assert all(t.shape == (r2.dim, r1.dim) for t in got)
        assert np.linalg.norm(_span_projector(got) - want @ want.conj().T) <= 1e-12

    def test_rectangular_hom_is_one_dimensional(self):
        r1, r2 = _oracle_cases()["vector->vector(x)vector"]
        assert len(reps.intertwiners(r1, r2)) == 1

    @pytest.mark.parametrize("case", list(_oracle_cases())[1:])
    def test_forms_match_stacked_system(self, case):
        r, _ = _oracle_cases()[case]
        got = reps.intertwiners(r, oracles.dual(r))
        want = _forms_oracle(r)
        assert len(got) == want.shape[1]
        assert np.linalg.norm(_span_projector(got) - want @ want.conj().T) <= 1e-12

    def test_real_commutant_rejects_complex_matrices(self, b4):
        with pytest.raises(ValueError):
            reps.commutant_dimension(rep_spin(b4), "R")


def _complex_table_cases() -> dict:
    """Spin and half-spin reps and vector (x) spin, whose tables are complex."""
    cases = {}
    for n in (3, 4, 5, 6):
        cases[f"spin n={n}"] = lambda b: rep_spin(b)
    for n in (4, 6, 8):
        cases[f"spin+ n={n}"] = lambda b: rep_half_spin(b, 1)
        cases[f"spin- n={n}"] = lambda b: rep_half_spin(b, -1)
    for n in (3, 4):
        cases[f"vector(x)spin n={n}"] = lambda b: reps.rep_tensor(reps.rep_vector(b), rep_spin(b))
    return cases


def _complex_table_rep(case: str) -> reps.Rep:
    return _complex_table_cases()[case](so.basis(int(case.split(" n=")[1])))


def _pair_cases() -> dict:
    """Pairs r1 -> r2 of different reps: the vector into vector (x) vector
    and into two reps that it does not occur in, and reps into their duals
    (real, complex, self-dual or not)."""
    v3 = reps.rep_vector(so.basis(3))
    cases = {
        "vector->vector(x)vector n=3": (v3, reps.rep_tensor(v3, v3)),
        "vector->trivial n=3": (v3, reps.rep_trivial(v3.basis)),
        "vector->sym0 n=3": (v3, reps.rep_sym0(v3.basis)),
    }
    for name, r in (
        ("exterior(2) n=4", reps.rep_exterior(so.basis(4), 2)),
        ("sym0 n=5", reps.rep_sym0(so.basis(5))),
        ("spin n=5", rep_spin(so.basis(5))),
        ("spin+ n=4", rep_half_spin(so.basis(4), 1)),
        ("spin- n=6", rep_half_spin(so.basis(6), -1)),
    ):
        cases[f"{name}->dual"] = (r, oracles.dual(r))
    return cases


class TestRealKernel:
    """The torus-block solve against the kernel of the full normal matrix G
    (the dense-G oracle): the same span to 1e-12, real float64 intertwiners
    for real tables, and the same span from a degenerate torus element."""

    @pytest.mark.parametrize(("case", "spec"), list(_real_kernel_cases().items()), ids=list(_real_kernel_cases()))
    def test_real_kernel_spans_the_complex_kernel(self, case, spec):
        r = _build_rep(*spec)
        assert not np.any(r.table.val.imag)
        got = reps.intertwiners(r, r)
        want = oracles.dense_intertwiners(r, r)
        assert len(got) == len(want)
        assert all(t.dtype == np.float64 for t in got)
        assert np.linalg.norm(_span_projector(got) - _span_projector(want)) <= 1e-12

    @pytest.mark.parametrize("case", list(_complex_table_cases()))
    def test_complex_tables_span_the_dense_solve(self, case):
        r = _complex_table_rep(case)
        assert np.any(r.table.val.imag)
        got = reps.intertwiners(r, r)
        want = oracles.dense_intertwiners(r, r)
        assert len(got) == len(want)
        assert np.linalg.norm(_span_projector(got) - _span_projector(want)) <= 1e-12

    @pytest.mark.parametrize("case", list(_pair_cases()))
    def test_pairs_span_the_dense_solve(self, case):
        r1, r2 = _pair_cases()[case]
        got = reps.intertwiners(r1, r2)
        want = oracles.dense_intertwiners(r1, r2)
        assert len(got) == len(want)
        assert all(t.shape == (r2.dim, r1.dim) for t in got)
        if want:
            assert np.linalg.norm(_span_projector(got) - _span_projector(want)) <= 1e-12

    @pytest.mark.parametrize(
        "case", ("exterior:2|u:3 n=6", "sym0|so:4 n=5", "adjoint n=4", "spin n=5", "vector(x)spin n=4", "pair")
    )
    def test_degenerate_torus_element_gives_the_same_span(self, case):
        # X = 0 pairs every position with every other: the solve is then
        # the full normal matrix in the eigenbasis of the zero matrix
        if case == "pair":
            r1, r2 = _pair_cases()["vector->vector(x)vector n=3"]
        elif case in _complex_table_cases():
            r1 = r2 = _complex_table_rep(case)
        else:
            kind, n = case.split(" n=")
            r1 = r2 = _build_rep(int(n), *(kind.split("|") + [None])[:2])
        got = reps._intertwiners_at(r1, r2, np.zeros(r1.count))
        want = reps.intertwiners(r1, r2)
        assert len(got) == len(want) >= 1
        assert np.linalg.norm(_span_projector(got) - _span_projector(want)) <= 1e-12

    def test_golden_coefficients_are_fixed_distinct_and_seed_selected(self):
        first = reps._golden(50)
        assert np.array_equal(first, reps._golden(50))
        assert np.all((first >= -1.0) & (first < 1.0)) and len(np.unique(first)) == 50
        # seed s takes the run of count values after the first s runs
        assert np.array_equal(reps._golden(10, seed=3), reps._golden(40)[30:])
        assert len(np.unique(reps._golden(8, seed=2**70))) == 8


class TestInvariantForms:
    def test_vector_standard_form(self, b3):
        r = reps.rep_vector(b3)
        forms = reps.intertwiners(r, oracles.dual(r))
        assert len(forms) == 1
        b = forms[0]
        assert np.array_equal(b, b.T)
        assert np.allclose(b, b[0, 0] * np.eye(3), atol=1e-12)

    def test_defining_equation(self, b4):
        r = reps.rep_exterior(b4, 2)
        for b in reps.intertwiners(r, oracles.dual(r)):
            for m in oracles.dense(r):
                assert np.linalg.norm(m.T @ b + b @ m) <= 1e-12


class TestCasimir:
    def test_trivial_zero(self, b3):
        assert np.linalg.norm(reps.casimir(reps.rep_trivial(b3))) == 0.0

    @pytest.mark.parametrize("n", range(2, 8))
    def test_vector_value(self, n):
        b = so.basis(n)
        cas = reps.casimir(reps.rep_vector(b))
        assert np.allclose(cas, -(n - 1) * np.eye(n), atol=1e-12)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_spin_value(self, n):
        b = so.basis(n)
        r = rep_spin(b)
        assert np.allclose(reps.casimir(r), -n * (n - 1) / 8.0 * np.eye(r.dim), atol=1e-12)

    def test_commutes_with_generators(self, b4):
        r = reps.rep_exterior(b4, 2)
        cas = reps.casimir(r)
        scale = max(1.0, np.linalg.norm(cas))
        for m in oracles.dense(r):
            assert np.linalg.norm(cas @ m - m @ cas) <= 1e-10 * scale

    @pytest.mark.parametrize("n", range(2, 9))
    def test_table_join_bit_equal_to_einsum_on_the_family(self, n):
        for r in wb.standard_family(so.basis(n)):
            assert reps.casimir(r).tobytes() == oracles.casimir(r).tobytes(), r.label

    @pytest.mark.parametrize("n, rep, sub", RESTRICTIONS)
    def test_table_join_bit_equal_to_einsum_when_restricted(self, n, rep, sub):
        r = reps.rep_restrict(*_restriction(n, rep, sub))
        assert reps.casimir(r).tobytes() == oracles.casimir(r).tobytes()

    def test_scalar_on_irreducible(self, b3):
        r = reps.rep_sym0(b3)
        cas = reps.casimir(r)
        lam = np.trace(cas) / r.dim
        assert np.linalg.norm(cas - lam * np.eye(r.dim)) <= 1e-9 * max(1.0, np.linalg.norm(cas))


def _assert_same_pieces(got, want):
    assert [(p.dim, p.multiplicity) for p in got] == [(p.dim, p.multiplicity) for p in want]
    for a, b in zip(got, want):
        assert np.linalg.norm(a.projector - b.projector) <= 1e-12
        assert abs(a.casimir_eigenvalue - b.casimir_eigenvalue) <= 1e-12


class TestIsotypic:
    def test_trivial_single_piece(self, b3):
        pieces = reps.isotypic_decompose(reps.rep_trivial(b3))
        assert len(pieces) == 1
        assert pieces[0].dim == 1

    def test_exterior2_so4_selfdual_split(self, b4):
        pieces = reps.isotypic_decompose(reps.rep_exterior(b4, 2))
        assert sorted(p.dim for p in pieces) == [3, 3]
        assert all(abs(p.casimir_eigenvalue + 4.0) < 1e-9 for p in pieces)

    def test_exterior2_u2_pieces_and_kahler_form(self, b4):
        h = so.u_subalgebra(2)
        r = reps.rep_restrict(reps.rep_exterior(b4, 2), h)
        pieces = reps.isotypic_decompose(r)
        dims = sorted(p.dim for p in pieces)
        assert dims == [1, 1, 1, 3]
        assert sum(p.dim for p in pieces) == 6
        trivial = [p for p in pieces if abs(p.casimir_eigenvalue) < 1e-9]
        assert len(trivial) == 1 and trivial[0].dim == 1
        # the Kahler 2-form (coefficient vector of the complex structure J
        # over the pair basis) spans that trivial piece
        jmat = np.zeros((4, 4))
        for k in range(2):
            jmat[2 * k + 1, 2 * k] = 1.0
            jmat[2 * k, 2 * k + 1] = -1.0
        omega = so.expand(b4, jmat)
        omega = omega / np.linalg.norm(omega)
        assert np.linalg.norm(trivial[0].projector @ omega - omega) <= 1e-9

    def test_projector_properties(self, b4):
        h = so.u_subalgebra(2)
        r = reps.rep_restrict(reps.rep_exterior(b4, 2), h)
        pieces = reps.isotypic_decompose(r)
        total = sum(p.projector for p in pieces)
        assert np.linalg.norm(total - np.eye(r.dim)) <= 1e-10
        for p in pieces:
            assert np.linalg.norm(p.projector @ p.projector - p.projector) <= 1e-10
            assert np.linalg.norm(p.projector - p.projector.conj().T) <= 1e-10
            for q in pieces:
                if p is not q:
                    assert np.linalg.norm(p.projector @ q.projector) <= 1e-10
            for m in oracles.dense(r):
                off = (np.eye(r.dim) - p.projector) @ m @ p.projector
                assert np.linalg.norm(off) <= 1e-9

    def test_exterior2_so6_under_u3(self):
        # the Kahler-type split of 2-forms in six dimensions: the invariant
        # form, the two (2,0)-type pieces and the primitive (1,1) part
        b6 = so.basis(6)
        h = so.u_subalgebra(3)
        r = reps.rep_restrict(reps.rep_exterior(b6, 2), h)
        pieces = reps.isotypic_decompose(r)
        assert sorted(p.dim for p in pieces) == [1, 3, 3, 8]
        trivial = [p for p in pieces if abs(p.casimir_eigenvalue) < 1e-9]
        assert len(trivial) == 1 and trivial[0].dim == 1

    def test_multiplicity_detection(self, b4):
        r = reps.rep_vector(b4)
        mats = tuple(
            np.block([[m, np.zeros((4, 4))], [np.zeros((4, 4)), m]]) for m in oracles.dense(r)
        )
        doubled = oracles.rep_from_mats(b4, 8, mats, "vector+vector")
        pieces = reps.isotypic_decompose(doubled)
        assert len(pieces) == 1
        assert pieces[0].dim == 8
        assert pieces[0].multiplicity == 2

    def test_seed_recorded_determinism(self, b4):
        r = reps.rep_exterior(b4, 2)
        p1 = reps.isotypic_decompose(r, seed=5)
        p2 = reps.isotypic_decompose(r, seed=5)
        for a, b in zip(p1, p2):
            assert np.array_equal(a.projector, b.projector)

    def test_complex_structure_splits_the_2_0_and_0_2_forms(self):
        # exterior(2)|u(3) is real, and its commutant holds the antisymmetric
        # complex structure J; only a complex combination of the commutant
        # basis keeps J in its Hermitian part and separates the conjugate
        # 3-dimensional pieces, which a real one merges into one of dim 6
        r = reps.rep_restrict(reps.rep_exterior(so.basis(6), 2), so.u_subalgebra(3))
        pieces = reps.isotypic_decompose(r)
        assert sorted(p.dim for p in pieces) == [1, 3, 3, 8]
        assert [p.multiplicity for p in pieces] == [1, 1, 1, 1]
        a, b = (p.projector for p in pieces if p.dim == 3)
        assert np.linalg.norm(a - b.conj()) <= 1e-12

    @pytest.mark.parametrize(("case", "spec"), list(_isotypic_cases().items()), ids=list(_isotypic_cases()))
    def test_matches_the_center_of_commutant_oracle(self, case, spec, monkeypatch):
        r = _build_rep(*spec)
        comm = reps.intertwiners(r, r)
        want = _isotypic_oracle(r, comm)
        monkeypatch.setattr(reps, "intertwiners", lambda *a: comm)
        got = reps.isotypic_decompose(r)
        _assert_same_pieces(got, want)

    def test_doubled_vector_matches_the_oracle(self, b4):
        r = reps.rep_vector(b4)
        mats = tuple(np.block([[m, np.zeros((4, 4))], [np.zeros((4, 4)), m]]) for m in oracles.dense(r))
        doubled = oracles.rep_from_mats(b4, 8, mats, "vector+vector")
        _assert_same_pieces(reps.isotypic_decompose(doubled), _isotypic_oracle(doubled, reps.intertwiners(doubled, doubled)))

    def test_piece_order_independent_of_nullspace_basis(self, monkeypatch):
        # the two 3-dimensional pieces of the 2-forms under u(3) tie on
        # Casimir eigenvalue and dimension and are complex conjugates; their
        # order must not follow the commutant basis
        r = reps.rep_restrict(reps.rep_exterior(so.basis(6), 2), so.u_subalgebra(3))
        want = reps.isotypic_decompose(r)
        solve = reps.intertwiners
        monkeypatch.setattr(reps, "intertwiners", lambda *a: solve(*a)[::-1])
        got = reps.isotypic_decompose(r)
        assert [p.dim for p in got] == [p.dim for p in want]
        for a, b in zip(want, got):
            assert np.linalg.norm(a.projector - b.projector) <= 1e-9
