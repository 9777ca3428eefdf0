"""Independent references for the tests.

The package builds the Clifford generators, the half-spins and the
projection lemma from closed forms, keeps a representation as the table of
its generators' nonzero entries, solves for intertwiners on the weight
blocks of a torus element, keeps curvature operators in pair
coordinates, and keeps so(n) and its subalgebras as coefficient rows (u(m)
in closed form).  These are the slower, direct constructions those are checked
against (dense generator stacks and dense basis matrices among them), and checks of the premises
every verdict rests on.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import reduce

import numpy as np

from weitzlab import numerics
from weitzlab import representations as reps
from weitzlab import so_algebra as so


def bracket(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix commutator ``a b - b a``."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"bracket needs equal square matrices, got {a.shape} and {b.shape}")
    return a @ b - b @ a


def dense_basis(n: int) -> tuple[np.ndarray, ...]:
    """The so(n) basis matrices ``x_ij = E_ij - E_ji``, one array each, in
    pair order."""
    out = []
    for i, j in so.pair_list(n):
        x = np.zeros((n, n))
        x[i, j] = 1.0
        x[j, i] = -1.0
        out.append(x)
    return tuple(out)


def elements(basis) -> tuple[np.ndarray, ...]:
    """The basis matrices of so(n), or those of a subalgebra as the sums
    ``sum_a c_ja x_a`` of its rows over :func:`dense_basis`."""
    if isinstance(basis, so.SoBasis):
        return dense_basis(basis.n)
    xs = dense_basis(basis.ambient.n)
    return tuple(sum(float(c) * x for c, x in zip(row, xs)) for row in basis.coeff)


def subalgebra(ambient: so.SoBasis, mats, label: str = "h") -> so.Subalgebra:
    """The subalgebra whose rows are the expansions of the given
    orthonormal skew matrices."""
    return so.Subalgebra(ambient=ambient, coeff=np.array([so.expand(ambient, m) for m in mats]), label=label)


def u_nullspace(m: int) -> np.ndarray:
    """u(m) in so(2m) as the nullspace of its 4m^2 bracket equations: the
    coefficient vectors c with ``[sum_a c_a x_a, J] = 0`` (J e_2k = e_2k+1,
    0-based), as orthonormal rows from an SVD."""
    xs = dense_basis(2 * m)
    jmat = np.zeros((2 * m, 2 * m))
    for k in range(m):
        jmat[2 * k + 1, 2 * k] = 1.0
        jmat[2 * k, 2 * k + 1] = -1.0
    null = numerics.nullspace(np.array([bracket(x, jmat).ravel() for x in xs]).T)
    assert null.shape[1] == m * m, f"u({m}) nullspace of dimension {null.shape[1]}"
    return np.real(null).T


def so_positive_roots(n: int) -> list[tuple[Fraction, ...]]:
    """Positive roots of so(n) in the x_i coordinates: e_i +- e_j (i < j),
    plus the short roots e_i when n is odd."""
    m = n // 2
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            plus = [Fraction(0)] * m
            plus[i], plus[j] = Fraction(1), Fraction(1)
            minus = [Fraction(0)] * m
            minus[i], minus[j] = Fraction(1), Fraction(-1)
            out.extend([tuple(plus), tuple(minus)])
    if n % 2 == 1:
        for i in range(m):
            short = [Fraction(0)] * m
            short[i] = Fraction(1)
            out.append(tuple(short))
    return out


def dense(r: reps.Rep) -> np.ndarray:
    """The (N, d, d) stack of a representation's generators, scattered from
    its table."""
    out = np.zeros((r.count, r.dim, r.dim), dtype=complex)
    out[r.table.gen, r.table.row, r.table.col] = r.table.val
    return out


def rep_from_mats(basis, dim: int, mats, label: str) -> reps.Rep:
    """A representation from dense generators: the table of their nonzero
    entries."""
    mats = np.asarray(list(mats), dtype=complex).reshape(-1, dim, dim)
    gen, row, col = np.nonzero(mats)
    return reps.Rep(basis, dim, reps.gen_table(gen, row, col, mats[gen, row, col], dim), label)


def casimir(r: reps.Rep) -> np.ndarray:
    """``sum_a rho_a^2`` by an einsum over the dense stack."""
    m = dense(r)
    return np.einsum("aij,ajk->ik", m, m)


def restrict(r: reps.Rep, h: so.Subalgebra) -> reps.Rep:
    """The restriction to a subalgebra by a ``tensordot`` of each
    coefficient row with the dense stack."""
    stacked = dense(r)
    mats = [np.tensordot(row, stacked, axes=(0, 0)) for row in h.coeff]
    return rep_from_mats(h, r.dim, mats, f"{r.label}|{h.label}")


def dense_pauli(x, z, phase, dim: int) -> np.ndarray:
    """The dense matrices on ``dim`` dimensions of Pauli strings given as
    arrays ``x``, ``z`` and ``phase`` of shape (...): row r of each holds
    ``phase (-1)^|r & z|`` in column ``r ^ x``, the parity counted bit by
    bit."""
    x, z, phase = np.asarray(x)[..., None], np.asarray(z)[..., None], np.asarray(phase)[..., None]
    rows = np.arange(dim)
    parity = sum((rows & z) >> k & 1 for k in range(dim.bit_length())) % 2
    out = np.zeros(np.broadcast(x, z, phase).shape[:-1] + (dim, dim), dtype=complex)
    np.put_along_axis(out, (rows ^ x)[..., None], (phase * (1 - 2 * parity))[..., None], axis=-1)
    return out


def gamma_dense(n: int) -> list[np.ndarray]:
    """The Clifford generators by dense Kronecker products: the seed 2x2
    pair, each step tensoring the old generators with diag(1, -1) and
    appending two new ones on the fresh factor, and for odd n the scaled
    volume element of the even rank below."""
    g1 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    g2 = np.array([[0.0, 1.0j], [1.0j, 0.0]], dtype=complex)
    gammas = [g1, g2]
    m = 1
    while 2 * m < n - (n % 2):
        s3 = np.diag([1.0, -1.0]).astype(complex)
        gammas = [np.kron(g, s3) for g in gammas]
        gammas += [np.kron(np.eye(2**m), g1), np.kron(np.eye(2**m), g2)]
        m += 1
    if n % 2 == 1:
        gammas.append((1.0j if m % 2 == 0 else 1.0) * reduce(np.matmul, gammas))
    return gammas


def chirality(n: int) -> np.ndarray:
    """The normalised volume element of :func:`gamma_dense` (even n), by
    dense products: Hermitian, squaring to the identity."""
    vol = reduce(np.matmul, gamma_dense(n))
    return vol if n % 4 == 0 else 1.0j * vol


def tensor_power_rep(rho: reps.Rep, k: int) -> reps.Rep:
    """The k-fold tensor power by iterated ``rep_tensor``: generators act
    by the sum over the k slots, from a table of every entry."""
    power = rho
    for _ in range(k - 1):
        power = reps.rep_tensor(power, rho)
    return power.relabeled(f"{rho.label}^(x){k}")


def kron_sum(a, b) -> np.ndarray:
    """``sum_x a[x] (x) b[x]`` for stacks ``a`` of shape (N, p, q) and ``b`` of
    shape (N, r, s): one (p q, N) @ (N, r s) product, then one transpose."""
    a, b = np.asarray(a), np.asarray(b)
    (count, p, q), (_, r, s) = a.shape, b.shape
    prod = a.reshape(count, p * q).T @ b.reshape(count, r * s)
    return prod.reshape(p, q, r, s).transpose(0, 2, 1, 3).reshape(p * r, q * s)


def dense_intertwiners(r1: reps.Rep, r2: reps.Rep) -> list[np.ndarray]:
    """The intertwiners from ``r1`` to ``r2`` as the kernel of the full
    normal matrix ``G = sum_a B_a^H B_a``, ``B_a = sigma_a (x) 1 - 1 (x)
    rho_a^T`` on the row-major ``vec T``, (d1 d2)^2 entries, from the
    complex Hermitian solver with the cutoff of ``representations.KERNEL_TOL``."""
    d1, d2 = r1.dim, r2.dim
    rho, sigma = dense(r1), dense(r2)
    cross = kron_sum(sigma.conj().transpose(0, 2, 1), rho.transpose(0, 2, 1))
    g = np.kron(np.einsum("aji,ajk->ik", sigma.conj(), sigma), np.eye(d1)) - cross
    g += np.kron(np.eye(d2), np.einsum("aij,akj->ik", rho.conj(), rho)) - cross.conj().T
    w, v = np.linalg.eigh((g + g.conj().T) / 2.0)
    kernel = v[:, w <= reps.KERNEL_TOL * w[-1]]
    return [kernel[:, k].reshape(d2, d1) for k in range(kernel.shape[1])]


def direct_sum(r1: reps.Rep, r2: reps.Rep) -> reps.Rep:
    """``rho (+) sigma`` on the space of ``r1`` followed by that of ``r2``:
    the two tables side by side, r2's shifted by ``r1.dim``.  Its commutant
    holds Hom(r1, r2) as the lower-left (d2, d1) blocks."""
    t1, t2, d = r1.table, r2.table, r1.dim + r2.dim
    table = reps.gen_table(
        np.concatenate([t1.gen, t2.gen]),
        np.concatenate([t1.row, t2.row + r1.dim]),
        np.concatenate([t1.col, t2.col + r1.dim]),
        np.concatenate([t1.val, t2.val]),
        d,
    )
    return reps.Rep(r1.basis, d, table, f"{r1.label}+{r2.label}")


def dual(r: reps.Rep) -> reps.Rep:
    """The dual representation ``-rho^T``: its intertwiners from ``r`` are
    the invariant bilinear forms, the B with ``rho^T B + B rho = 0``."""
    t = r.table
    return reps.Rep(r.basis, r.dim, reps.gen_table(t.gen, t.col, t.row, -t.val, r.dim), f"{r.label}*")


def homomorphism_residual(r: reps.Rep) -> float:
    """Worst ``|| rho([x_a, x_b]) - [rho(x_a), rho(x_b)] ||`` over pairs,
    each bracket expanded over the orthonormal basis matrices with the
    inner product ``-tr(a b) / 2``."""
    xs, mats = elements(r.basis), dense(r)
    worst = 0.0
    for a, b in itertools.combinations(range(len(xs)), 2):
        lie = bracket(xs[a], xs[b])
        coeff = np.array([-np.trace(e @ lie).real / 2.0 for e in xs])
        target = np.tensordot(coeff, mats, axes=(0, 0))
        worst = max(worst, float(np.linalg.norm(bracket(mats[a], mats[b]) - target)))
    return worst


def fraction_gram(family: str, rank: int) -> list[list[Fraction]]:
    """The Gram matrix of the simple roots, entry by entry, normalised so
    long roots have squared length 2."""
    g = [[Fraction(0)] * rank for _ in range(rank)]
    if family == "A":
        for i in range(rank):
            g[i][i] = Fraction(2)
        for i in range(rank - 1):
            g[i][i + 1] = g[i + 1][i] = Fraction(-1)
    elif family == "B":
        # last simple root short (length^2 = 1)
        for i in range(rank):
            g[i][i] = Fraction(2) if i < rank - 1 else Fraction(1)
        for i in range(rank - 1):
            g[i][i + 1] = g[i + 1][i] = Fraction(-1)
    elif family == "C":
        # last simple root long (length^2 = 2), others short (1)
        for i in range(rank):
            g[i][i] = Fraction(1) if i < rank - 1 else Fraction(2)
        for i in range(rank - 2):
            g[i][i + 1] = g[i + 1][i] = Fraction(-1, 2)
        if rank >= 2:
            g[rank - 2][rank - 1] = g[rank - 1][rank - 2] = Fraction(-1)
    elif family == "D":
        for i in range(rank):
            g[i][i] = Fraction(2)
        for i in range(rank - 2):
            g[i][i + 1] = g[i + 1][i] = Fraction(-1)
        g[rank - 3][rank - 1] = g[rank - 1][rank - 3] = Fraction(-1)
    elif family == "G":
        g[0][0] = Fraction(2, 3)
        g[1][1] = Fraction(2)
        g[0][1] = g[1][0] = Fraction(-1)
    return g


def fraction_positive_roots(family: str, rank: int) -> tuple[tuple[Fraction, ...], ...]:
    """The positive roots over the simple roots by the root-string search
    in ``Fraction`` arithmetic on the Gram matrix: ``beta + alpha_i`` is a
    root iff ``q - <beta, alpha_i^v> > 0``, q the length of the
    alpha_i-string below beta, each pairing a sum of rank^2 products.
    Sorted by height, then lexicographically.  Each new root enters the
    frontier once."""
    gram = fraction_gram(family, rank)

    def inner(u, v):
        return sum(Fraction(u[i]) * gram[i][j] * Fraction(v[j]) for i in range(rank) for j in range(rank))

    simple = [tuple(Fraction(int(i == k)) for i in range(rank)) for k in range(rank)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        new = set()
        for beta in frontier:
            for i in range(rank):
                q = 0
                back = list(beta)
                while True:
                    back[i] -= 1
                    if tuple(back) not in roots:
                        break
                    q += 1
                if q - 2 * inner(beta, simple[i]) / inner(simple[i], simple[i]) > 0:
                    fwd = list(beta)
                    fwd[i] += 1
                    new.add(tuple(fwd))
        frontier = sorted(new - roots)
        roots.update(frontier)
    return tuple(sorted(roots, key=lambda r: (sum(r), r)))


def killing_orthonormal_loop(raw) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(-B)-orthonormal basis matrices of the algebra that the matrices
    ``raw`` span, and their ad matrices, one bracket and one pseudo-inverse
    product at a time."""
    d = len(raw)
    flat = np.array([m.ravel() for m in raw]).T  # (size^2, d)
    pinv = np.linalg.pinv(flat)
    ad_raw = np.zeros((d, d, d), dtype=complex)
    for p in range(d):
        for q in range(d):
            x = bracket(raw[p], raw[q])
            coeff = pinv @ x.ravel()
            assert np.linalg.norm(flat @ coeff - x.ravel()) <= 1e-9 * max(1.0, np.linalg.norm(x))
            ad_raw[p][:, q] = coeff
    ad_raw = np.real(ad_raw)
    killing = np.einsum("pij,qji->pq", ad_raw, ad_raw)
    minv = np.linalg.inv(np.linalg.cholesky(-killing)).T  # columns: coefficients of y_c over raw
    y = [sum(minv[p, c] * raw[p] for p in range(d)) for c in range(d)]
    basis_change = np.linalg.inv(minv)
    ad_y = [basis_change @ sum(minv[p, c] * ad_raw[p] for p in range(d)) @ minv for c in range(d)]
    return y, ad_y


def root_consistency_residual(g: so.SimpleAlgebraData, seed: int = 0) -> float:
    """The matrix model of a simple algebra against its rational root data.

    A generic element's centralizer gives a Cartan subalgebra; the joint ad
    spectrum on it yields the roots in coordinates over a -B-orthonormal
    Cartan basis, where the Killing-dual inner product is plain Euclidean.
    Returns the largest difference between the sorted squared root lengths
    and those of the rational data.
    """
    rng = np.random.default_rng(seed)
    ad = np.array([np.real(a) for a in g.ad])
    h = np.tensordot(rng.standard_normal(g.dim), ad, axes=(0, 0))
    kernel = numerics.nullspace(h, tol=1e-7)
    # the kernel of a real matrix has a real basis; re-orthonormalise over R
    real_span = numerics.orthonormal_columns(np.hstack([np.real(kernel), np.imag(kernel)]), atol=1e-8)
    assert real_span.shape[1] == g.rank, f"{g.label}: generic centralizer of dimension {real_span.shape[1]}"
    ad_t = [np.tensordot(np.real(real_span[:, i]), ad, axes=(0, 0)) for i in range(g.rank)]
    combo = sum(c * a for c, a in zip(rng.standard_normal(g.rank), ad_t))
    _, vecs = np.linalg.eig(combo)
    lengths = []
    for k in range(g.dim):
        coords = np.array([float(np.imag(np.vdot(vecs[:, k], a @ vecs[:, k]))) for a in ad_t])
        if coords @ coords > 1e-8:
            lengths.append(float(coords @ coords))
    expected = [float(g.roots.inner_killing(beta, beta)) for beta in g.roots.positive_roots for _ in (0, 1)]
    assert len(lengths) == len(expected), f"{g.label}: {len(lengths)} nonzero roots, expected {len(expected)}"
    return float(np.max(np.abs(np.sort(lengths) - np.sort(expected))))


def to_tensor(op) -> np.ndarray:
    """Rank-4 form of an operator or a stack: ``T[i,j,k,l]`` with the pair
    (anti)symmetries, ``T = 2 R`` on sorted pairs."""
    n = op.n
    v = 2.0 * np.asarray(op.matrix, dtype=float)
    t = np.zeros(v.shape[:-2] + (n, n, n, n))
    i, j = np.triu_indices(n, 1)
    i, j, k, l = i[:, None], j[:, None], i[None, :], j[None, :]
    t[..., i, j, k, l] = v
    t[..., j, i, k, l] = -v
    t[..., i, j, l, k] = -v
    t[..., j, i, l, k] = v
    return t


def pair_matrix(t: np.ndarray) -> np.ndarray:
    """Symmetric pair-basis matrix ``R_ab = T[i_a, j_a, i_b, j_b] / 2``, over
    the last four axes."""
    i, j = np.triu_indices(t.shape[-1], 1)
    r = t[..., i[:, None], j[:, None], i[None, :], j[None, :]] / 2.0
    return (r + r.swapaxes(-1, -2)) / 2.0


def cyclic_sum(t: np.ndarray) -> np.ndarray:
    """First-Bianchi cyclic sum ``T_ijkl + T_jkil + T_kijl``, over the last
    four axes."""
    return t + np.einsum("...jkil->...ijkl", t) + np.einsum("...kijl->...ijkl", t)


def alt(t: np.ndarray) -> np.ndarray:
    """Full antisymmetrisation of a 4-tensor over its 24 signed
    permutations (an orthogonal projector), over the last four axes."""
    batch = tuple(range(t.ndim - 4))
    out = np.zeros_like(t)
    for perm in itertools.permutations(range(4)):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        out += sign * np.transpose(t, batch + tuple(len(batch) + p for p in perm))
    return out / 24.0


def bianchi_project(op) -> np.ndarray:
    """The Bianchi projection ``T -> T - Alt(T)`` on the tensor form, back
    in pair coordinates."""
    t = to_tensor(op)
    return pair_matrix(t - alt(t))


def bianchi_residual(op) -> float:
    """``||cyclic sum of T|| / max(1, ||T||)`` on the tensor form."""
    t = to_tensor(op)
    return float(np.linalg.norm(cyclic_sum(t))) / max(1.0, float(np.linalg.norm(t)))


def ricci(op) -> np.ndarray:
    """Ricci tensor ``sum_j T_ijkj`` by an einsum over the tensor form."""
    return np.einsum("...ijkj->...ik", to_tensor(op))


def curvature_json(op) -> dict:
    """The JSON schema that ``curvature.curvature_from_json`` reads, written
    out from the operator's pair-basis matrix."""
    return {"n": op.n, "basis": "lex-upper", "normalization": "half-tensor", "R": op.matrix.tolist()}
