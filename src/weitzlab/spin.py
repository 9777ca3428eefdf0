"""Clifford algebra generators, the spin representation and the symbol map
identifying spin (x) spin with the exterior algebra in even dimensions.

Generator conventions: ``e_i e_j + e_j e_i = -2 delta_ij``, each ``e_i``
unitary and skew-adjoint.  The construction is a fixed recursive scheme
(n -> n+2 by tensoring with 2x2 blocks), so every run produces the same
matrices.  A basis element ``x_ij`` of so(n) acts on spinors as
``-e_i e_j / 2``.
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import NamedTuple

import numpy as np

from . import numerics
from .representations import Rep, gen_table, invariant_bilinear_forms, rep_exterior
from .so_algebra import SoBasis

__all__ = [
    "CliffordGenerators",
    "SpinorPairing",
    "chirality",
    "clifford_symbol",
    "gamma",
    "half_spin_columns",
    "rep_full_exterior",
    "rep_half_spin",
    "rep_spin",
    "spinor_pairing",
]


class CliffordGenerators(NamedTuple):
    n: int
    dim: int
    gammas: tuple[np.ndarray, ...]

    def relation_residual(self) -> float:
        """Worst violation of ``e_i e_j + e_j e_i + 2 delta_ij = 0``."""
        worst = 0.0
        for i in range(self.n):
            for j in range(i, self.n):
                acomm = self.gammas[i] @ self.gammas[j] + self.gammas[j] @ self.gammas[i]
                if i == j:
                    acomm = acomm + 2.0 * np.eye(self.dim)
                worst = max(worst, float(np.linalg.norm(acomm)))
        return worst


def _kron_monomial(a, b):
    """Kronecker product of monomial matrices given as (perm, phase) pairs:
    row r of a matrix holds its one nonzero, phase[r], in column perm[r]."""
    (pa, fa), (pb, fb) = a, b
    return (pa[:, None] * len(pb) + pb).ravel(), (fa[:, None] * fb).ravel()


def _clifford_monomials(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The generators of :func:`gamma` as monomial matrices: ``(perm,
    phase)`` of shape (n, dim), ``gamma_i[r, perm[i, r]] = phase[i, r]``."""
    if n < 2:
        raise ValueError("gamma needs n >= 2")
    swap = np.array([1, 0])
    g1 = (swap, np.array([1.0, -1.0], dtype=complex))
    g2 = (swap, np.array([1.0j, 1.0j]))
    gammas = [g1, g2]
    m = 1
    while 2 * m < n - (n % 2):
        s3 = (np.arange(2), np.array([1.0, -1.0], dtype=complex))
        eye = (np.arange(2 ** m), np.ones(2 ** m))
        gammas = [_kron_monomial(g, s3) for g in gammas] + [_kron_monomial(eye, g1), _kron_monomial(eye, g2)]
        m += 1
    if n % 2 == 1:
        # the volume element: (a b)[r, pb[pa[r]]] = fa[r] fb[pa[r]]
        perm, phase = gammas[0]
        for pb, fb in gammas[1:]:
            perm, phase = pb[perm], phase * fb[perm]
        gammas.append((perm, (1.0j if m % 2 == 0 else 1.0) * phase))
    perm, phase = (np.array(a) for a in zip(*gammas))
    return perm, phase


def gamma(n: int) -> CliffordGenerators:
    """Clifford generators on ``2^floor(n/2)`` dimensions.

    Even ranks are built recursively: the two seed 2x2 generators, then each
    step tensors the old generators with diag(1, -1) and appends two new ones
    acting on the fresh factor.  Odd ranks append the (suitably scaled) volume
    element of the even-rank algebra below.  Every generator is monomial
    (:func:`_clifford_monomials`); this densifies them.
    """
    perm, phase = _clifford_monomials(n)
    dim = perm.shape[1]
    gammas = np.zeros((n, dim, dim), dtype=complex)
    gammas[np.arange(n)[:, None], np.arange(dim), perm] = phase
    return CliffordGenerators(n=n, dim=dim, gammas=tuple(gammas))


def rep_spin(basis: SoBasis) -> Rep:
    """Spin representation: ``x_ij`` maps to ``-e_i e_j / 2``, monomial like
    the Clifford generators: row r holds its one entry in column
    ``perm_j[perm_i[r]]``."""
    perm, phase = _clifford_monomials(basis.n)
    count, dim = len(basis.pairs), perm.shape[1]
    i, j = np.array(basis.pairs).reshape(-1, 2).T
    col = np.take_along_axis(perm[j], perm[i], axis=1)
    val = -(phase[i] * np.take_along_axis(phase[j], perm[i], axis=1)) / 2.0
    gen, row = np.repeat(np.arange(count), dim), np.tile(np.arange(dim), count)
    return Rep(basis=basis, dim=dim, table=gen_table(gen, row, col.ravel(), val.ravel(), dim), label="spin")


def chirality(cg: CliffordGenerators) -> np.ndarray:
    """Normalised volume element: Hermitian, squares to the identity (even n)."""
    if cg.n % 2 != 0:
        raise ValueError("chirality element is defined for even n")
    vol = reduce(lambda a, b: a @ b, cg.gammas)
    return vol if cg.n % 4 == 0 else 1.0j * vol


def half_spin_columns(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (as columns) of the +1 and -1 chirality eigenspaces."""
    cg = gamma(n)
    w, v = numerics.eig_hermitian(chirality(cg), hermitian_tol=1e-10)
    minus = v[:, w < 0]
    plus = v[:, w > 0]
    return plus, minus


def rep_half_spin(basis: SoBasis, sign: int) -> Rep:
    """Half-spin representation on the +-1 chirality eigenspace (even n)."""
    if basis.n % 2 != 0:
        raise ValueError("half-spin representations need even n")
    full = rep_spin(basis)
    plus, minus = half_spin_columns(basis.n)
    cols = plus if sign > 0 else minus
    mats = (cols.conj().T @ m @ cols for m in full.each_mat())
    return Rep.from_mats(basis, cols.shape[1], mats, f"spin{'+' if sign > 0 else '-'}")


class SpinorPairing(NamedTuple):
    """Invariant bilinear forms on spinors.

    ``forms`` lives on the full spinor space; ``half_forms`` holds the induced
    forms on the two chirality halves (even n only; ``None`` when a half pairs
    with the opposite half instead of itself, as happens for n = 2 mod 4).
    """

    n: int
    forms: tuple[tuple[np.ndarray, int], ...]
    half_forms: dict | None


def spinor_pairing(n: int) -> SpinorPairing:
    """Invariant pairings ``B`` with ``rho(x)^T B + B rho(x) = 0`` and their
    symmetry signs (``B^T = s B``)."""
    from .so_algebra import basis as so_basis

    b = so_basis(n)
    full = tuple(invariant_bilinear_forms(rep_spin(b)))
    halves = None
    if n % 2 == 0:
        halves = {}
        for sign, tag in ((1, "+"), (-1, "-")):
            sols = invariant_bilinear_forms(rep_half_spin(b, sign))
            halves[tag] = sols[0] if sols else None
    return SpinorPairing(n=n, forms=full, half_forms=halves)


def _invertible_pairing(n: int) -> np.ndarray:
    """An invertible invariant pairing on the full spinor space, polar
    normalised to be unitary (so the symbol map below is an isometry)."""
    from .so_algebra import basis as so_basis

    sols = invariant_bilinear_forms(rep_spin(so_basis(n)))
    bmat = sum((k + 1) * b for k, (b, _) in enumerate(sols))
    w, v = numerics.eig_hermitian(bmat.conj().T @ bmat, hermitian_tol=1e-9)
    if np.min(w) < 1e-12:
        raise RuntimeError("could not build an invertible spinor pairing")
    inv_sqrt = v @ np.diag(w ** -0.5) @ v.conj().T
    return bmat @ inv_sqrt


def rep_full_exterior(basis: SoBasis) -> Rep:
    """Block sum of all exterior powers, degree-major basis order."""
    parts = [rep_exterior(basis, p) for p in range(basis.n + 1)]
    offsets = np.cumsum([0] + [r.dim for r in parts])
    blocks = [(r.table.gen, r.table.row + off, r.table.col + off, r.table.val) for r, off in zip(parts, offsets)]
    gen, row, col, val = (np.concatenate(a) for a in zip(*blocks))
    dim = int(offsets[-1])
    return Rep(basis=basis, dim=dim, table=gen_table(gen, row, col, val, dim), label="exterior(*)")


def clifford_symbol(n: int) -> np.ndarray:
    """Unitary intertwiner from the full exterior algebra to spin (x) spin.

    Columns are indexed like :func:`rep_full_exterior`; the column of the
    monomial ``e_{i1} ^ ... ^ e_{ip}`` is ``vec(gamma_{i1} ... gamma_{ip}
    B^{-1}) / sqrt(dim V)`` with B the unitary invariant pairing, which turns
    endomorphisms of the spinor space V into elements of V (x) V.  In odd
    dimensions the spinor square is only half the exterior algebra, so this
    map does not exist and a ValueError is raised.
    """
    if n % 2 != 0:
        raise ValueError(
            "clifford_symbol needs even n: in odd dimensions spin (x) spin "
            "is only half the exterior algebra"
        )
    cg = gamma(n)
    binv = np.linalg.inv(_invertible_pairing(n))
    cols = []
    for p in range(n + 1):
        for combo in itertools.combinations(range(n), p):
            prod = np.eye(cg.dim, dtype=complex)
            for i in combo:
                prod = prod @ cg.gammas[i]
            cols.append((prod @ binv).ravel() / np.sqrt(cg.dim))
    return np.array(cols).T
