"""Independent references for the tests.

The package builds the Clifford generators, the half-spins and the
projection lemma from closed forms, keeps a representation as the table of
its generators' nonzero entries, solves for intertwiners on the weight
blocks of a torus element, and keeps curvature operators in pair
coordinates.  These are the slower, direct constructions those are checked
against (dense generator stacks among them), and checks of the premises
every verdict rests on.  Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import itertools
from functools import reduce

import numpy as np

from weitzlab import numerics
from weitzlab import representations as reps
from weitzlab import so_algebra as so


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
    """The restriction to a subalgebra by a ``tensordot`` of each element's
    coefficients with the dense stack."""
    stacked = dense(r)
    mats = [np.tensordot(so.expand(r.basis, g), stacked, axes=(0, 0)) for g in h.elements]
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


def dual(r: reps.Rep) -> reps.Rep:
    """The dual representation ``-rho^T``: its intertwiners from ``r`` are
    the invariant bilinear forms, the B with ``rho^T B + B rho = 0``."""
    t = r.table
    return reps.Rep(r.basis, r.dim, reps.gen_table(t.gen, t.col, t.row, -t.val, r.dim), f"{r.label}*")


def homomorphism_residual(r: reps.Rep) -> float:
    """Worst ``|| rho([x_a, x_b]) - [rho(x_a), rho(x_b)] ||`` over pairs,
    each bracket expanded over the orthonormal basis matrices with the
    inner product ``-tr(a b) / 2``."""
    elements, mats = r.basis.elements, dense(r)
    worst = 0.0
    for a, b in itertools.combinations(range(len(elements)), 2):
        lie = so.bracket(elements[a], elements[b])
        coeff = np.array([-np.trace(e @ lie).real / 2.0 for e in elements])
        target = np.tensordot(coeff, mats, axes=(0, 0))
        worst = max(worst, float(np.linalg.norm(so.bracket(mats[a], mats[b]) - target)))
    return worst


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
