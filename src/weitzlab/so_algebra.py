"""The Lie algebra so(n) and compact simple Lie algebra models.

Conventions fixed here and relied on everywhere else:

* inner product on so(n): ``<A, B> = -tr(A B) / 2``, which makes the matrices
  ``x_ij = E_ij - E_ji`` (i < j) an orthonormal basis;
* basis order: lexicographic on the index pairs (i, j), i < j;
* an algebra is stored by coefficient rows over that basis: so(n) by its
  pairs, a subalgebra by orthonormal rows; only :func:`matrices` forms
  n x n matrices, for the matrix models and the closure check;
* compact simple algebras carry a basis ``y_a`` orthonormal for ``-B`` where
  B is the Killing form, so that ``sum_a ad(y_a)^2 = -Id``; they are kept
  by the ad matrices of that basis alone.

Root data holds the positive roots as integer coefficients over the simple
roots, found from the integer Cartan matrix, and the rational Gram matrix of
the simple roots, normalised so long roots have squared length 2.
``Fraction`` is imported in the functions that use it, so a process that
never builds root data loads neither ``fractions`` nor ``decimal``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import numerics
from .options import algebra_dim, parse_type_rank

__all__ = [
    "SoBasis",
    "Subalgebra",
    "RootData",
    "SimpleAlgebraData",
    "basis",
    "expand",
    "matrices",
    "pair_list",
    "pair_number",
    "root_data",
    "simple_algebra",
    "u_subalgebra",
]


def pair_list(n: int) -> tuple[tuple[int, int], ...]:
    """Index pairs (i, j), i < j, in lexicographic order."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def pair_number(n: int, i, j):
    """Position of the pair (i, j), i < j, in the lexicographic pair basis
    of so(n), elementwise over arrays."""
    return i * (2 * n - i - 1) // 2 + j - i - 1


class SoBasis(NamedTuple):
    """Orthonormal basis of so(n), the matrices x_ij = E_ij - E_ji, stored
    as its index pairs (i, j); :func:`matrices` forms the matrices."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    @property
    def dim(self) -> int:
        return len(self.pairs)


def basis(n: int) -> SoBasis:
    """Orthonormal so(n) basis ``x_ij = E_ij - E_ji`` (unit norm for -tr/2)."""
    if n < 2:
        raise ValueError("so(n) basis needs n >= 2")
    return SoBasis(n=n, pairs=pair_list(n))


def matrices(so: SoBasis, coeff=None) -> np.ndarray:
    """The (h, n, n) array of ``sum_a c_ja x_a`` for each row c_j of the
    (h, N) ``coeff`` (the basis matrices by default).  Entry (i, j) is
    ``c_ij + 0.0`` and (j, i) is ``0.0 - c_ij``: a zero of either sign
    leaves +0.0, like the zeros around it."""
    coeff = np.eye(so.dim) if coeff is None else np.asarray(coeff, dtype=float)
    i, j = np.triu_indices(so.n, 1)
    out = np.zeros((len(coeff), so.n, so.n))
    out[:, i, j] = coeff + 0.0
    out[:, j, i] = 0.0 - coeff
    return out


def expand(so: SoBasis, m: np.ndarray) -> np.ndarray:
    """Coefficients of a skew matrix, or of each of a stack, over the
    orthonormal basis of ``so``: ``<x_ij, m> = (m[i, j] - m[j, i]) / 2`` of
    the real part, written so that a zero coefficient carries the sign
    that the trace gives."""
    m = np.real(np.asarray(m))
    i, j = np.triu_indices(so.n, 1)
    return -(m[..., j, i] - m[..., i, j]) / 2.0


class Subalgebra(NamedTuple):
    """A subalgebra h of so(n), stored as the (h, N) array ``coeff`` of
    orthonormal coefficient rows over the pair basis of ``ambient``."""

    ambient: SoBasis
    coeff: np.ndarray
    label: str = "h"

    @property
    def dim(self) -> int:
        return len(self.coeff)

    def closure_residual(self) -> float:
        """Largest norm of a bracket's component outside span(h), from all
        brackets at once, refused first if their (h, h, n, n) products and
        brackets cannot fit."""
        h, n = self.dim, self.ambient.n
        numerics.require_bytes(24 * h * h * n * n, f"the brackets of {self.label} (3 x {h}^2 x {n}^2 x 8 bytes)")
        x = matrices(self.ambient, self.coeff)
        prod = np.matmul(x[:, None], x[None])
        v = expand(self.ambient, prod - prod.swapaxes(0, 1))  # (h, h, N)
        return float(np.max(np.linalg.norm(v - v @ self.coeff.T @ self.coeff, axis=-1)))


def u_subalgebra(m: int) -> Subalgebra:
    """The unitary subalgebra u(m) of so(2m): the matrices commuting with
    the standard complex structure J (J e_2k = e_2k+1, 0-based), in closed
    form.  Its rows are x_(2k,2k+1) for k < m, then for each i < j < m
    ``(x_(2i,2j) + x_(2i+1,2j+1)) / sqrt 2`` and ``(x_(2i,2j+1) -
    x_(2i+1,2j)) / sqrt 2``."""
    if m < 1:
        raise ValueError("u(m) needs m >= 1")
    so = basis(2 * m)
    k = np.arange(m)
    i, j = np.triu_indices(m, 1)
    row = m + 2 * np.arange(len(i))
    s = np.sqrt(0.5)
    coeff = np.zeros((m * m, so.dim))
    coeff[k, pair_number(so.n, 2 * k, 2 * k + 1)] = 1.0
    coeff[row, pair_number(so.n, 2 * i, 2 * j)] = s
    coeff[row, pair_number(so.n, 2 * i + 1, 2 * j + 1)] = s
    coeff[row + 1, pair_number(so.n, 2 * i, 2 * j + 1)] = s
    coeff[row + 1, pair_number(so.n, 2 * i + 1, 2 * j)] = -s
    return Subalgebra(ambient=so, coeff=coeff, label=f"u({m})")


# ---------------------------------------------------------------------------
# Root data
# ---------------------------------------------------------------------------


def _cartan(family: str, rank: int) -> tuple[np.ndarray, list[Fraction]]:
    """The integer Cartan matrix ``a[k, i] = <alpha_k, alpha_i^v>`` of a
    family (its Dynkin diagram a chain, forked at the end for D) and the
    squared lengths of the simple roots, long roots of length^2 2."""
    from fractions import Fraction

    a = 2 * np.eye(rank, dtype=np.int64) - np.eye(rank, k=1, dtype=np.int64) - np.eye(rank, k=-1, dtype=np.int64)
    length = [Fraction(2)] * rank
    if family == "B":  # the last simple root short
        a[-2, -1], length[-1] = -2, Fraction(1)
    elif family == "C":  # the last simple root long, the others short
        a[-1, -2], length[:-1] = -2, [Fraction(1)] * (rank - 1)
    elif family == "D":  # the last node hangs from the third last
        a[-1, -2] = a[-2, -1] = 0
        a[-1, -3] = a[-3, -1] = -1
    elif family == "G":
        a[1, 0], length[0] = -3, Fraction(2, 3)
    return a, length


class RootData(NamedTuple):
    """Root data: the positive roots as integer coefficient vectors over the
    simple roots, and the rational Gram matrix of the simple roots."""

    family: str
    rank: int
    gram: tuple[tuple[Fraction, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]
    dual_coxeter: int

    @property
    def label(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def dim(self) -> int:
        return algebra_dim(self.label)

    def inner_norm(self, u, v) -> Fraction:
        """Inner product in the long-root-length^2 = 2 normalisation."""
        return sum(u[i] * self.gram[i][j] * v[j] for i in range(self.rank) for j in range(self.rank))

    def inner_killing(self, u, v) -> Fraction:
        """Inner product induced by the Killing form, ``inner_norm / (2 h^v)``."""
        return self.inner_norm(u, v) / (2 * self.dual_coxeter)


def _positive_roots(cartan: np.ndarray) -> np.ndarray:
    """The positive roots of the integer Cartan matrix ``cartan[k, i] =
    <alpha_k, alpha_i^v>``, as rows of coefficients over the simple roots,
    by height and within a height in lexicographic order.

    Root strings (Humphreys, Introduction to Lie Algebras and Representation
    Theory, 9.4): beta + alpha_i is a root iff ``p - <beta, alpha_i^v> > 0``,
    where p is the length of the alpha_i-string below beta and
    ``<beta, alpha_i^v> = sum_k beta_k cartan[k, i]``.  A root of the next
    height steps down by alpha_j into this one or leaves the roots, so its
    string lengths ``below`` are one more than that root's, or 0."""
    rank = len(cartan)
    eye = np.eye(rank, dtype=np.int64)
    level, below = eye[::-1], np.zeros((rank, rank), dtype=np.int64)
    levels = []
    while True:
        levels.append(level)
        k, i = np.nonzero(below - level @ cartan > 0)
        if not len(k):
            return np.concatenate(levels)
        # sorted rows; asking for the inverse skips the masked-array test
        # of np.unique, which would import numpy.ma (about 15 ms)
        up = np.unique(level[k] + eye[i], axis=0, return_inverse=True)[0]
        # which root of this height, if any, each up - alpha_j is
        rows, ids = np.unique(np.concatenate([level, (up[:, None] - eye).reshape(-1, rank)]), axis=0, return_inverse=True)
        at = np.full(len(rows), -1)
        at[ids[: len(level)]] = np.arange(len(level))
        down = at[ids[len(level) :]].reshape(len(up), rank)
        below = np.where(down >= 0, below[down, np.arange(rank)] + 1, 0)
        level = up


def root_data(label: str) -> RootData:
    """Root data of the compact simple algebra of a label such as ``A2``,
    ``C3`` or ``G2``: no matrix model is built.  The dual Coxeter number
    is ``1 + <rho, theta^v>``, theta the highest root (the last one), whose
    coroot has the coefficients ``theta_k |alpha_k|^2 / 2`` over the simple
    coroots."""
    family, rank = parse_type_rank(label)
    cartan, length = _cartan(family, rank)
    roots = tuple(map(tuple, _positive_roots(cartan).tolist()))
    data = RootData(
        family=family,
        rank=rank,
        # (alpha_k, alpha_i) = <alpha_k, alpha_i^v> |alpha_i|^2 / 2
        gram=tuple(tuple(int(cartan[k, i]) * length[i] / 2 for i in range(rank)) for k in range(rank)),
        positive_roots=roots,
        dual_coxeter=1 + int(sum(c * l / 2 for c, l in zip(roots[-1], length))),
    )
    if len(roots) != (data.dim - rank) // 2:
        raise RuntimeError(f"{label}: generated {len(roots)} positive roots, expected {(data.dim - rank) // 2}")
    return data


# ---------------------------------------------------------------------------
# Compact matrix models
# ---------------------------------------------------------------------------


def _su_basis(m: int) -> list[np.ndarray]:
    """Anti-Hermitian traceless m x m matrices (su(m))."""
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            a = np.zeros((m, m), dtype=complex)
            a[i, j] = 1.0
            a[j, i] = -1.0
            out.append(a)
            b = np.zeros((m, m), dtype=complex)
            b[i, j] = 1j
            b[j, i] = 1j
            out.append(b)
    for k in range(m - 1):
        d = np.zeros((m, m), dtype=complex)
        d[k, k] = 1j
        d[k + 1, k + 1] = -1j
        out.append(d)
    return out


def _sp_basis(r: int) -> list[np.ndarray]:
    """Compact symplectic sp(r) inside u(2r): blocks [[A, B], [-conj(B), conj(A)]]
    with A anti-Hermitian and B complex symmetric."""
    out = []

    def emb(a, b):
        x = np.zeros((2 * r, 2 * r), dtype=complex)
        x[:r, :r] = a
        x[:r, r:] = b
        x[r:, :r] = -np.conj(b)
        x[r:, r:] = np.conj(a)
        return x

    for a in _su_basis(r):
        out.append(emb(a, np.zeros((r, r))))
    # the u(1) part of A (su basis is traceless only)
    a = 1j * np.eye(r)
    out.append(emb(a, np.zeros((r, r))))
    for i in range(r):
        for j in range(i, r):
            b = np.zeros((r, r), dtype=complex)
            b[i, j] = b[j, i] = 1.0
            out.append(emb(np.zeros((r, r)), b))
            b2 = np.zeros((r, r), dtype=complex)
            b2[i, j] = b2[j, i] = 1j
            out.append(emb(np.zeros((r, r)), b2))
    return out


#: Octonion structure constants on the seven imaginary units: e_i e_{i+1} = e_{i+3}
#: cyclically (indices mod 7), plus e_i^2 = -1.
def _octonion_table() -> np.ndarray:
    c = np.zeros((7, 7, 7))
    for i in range(7):
        a, b, k = i, (i + 1) % 7, (i + 3) % 7
        for x, y, z in ((a, b, k), (b, k, a), (k, a, b)):
            c[x, y, z] = 1.0
            c[y, x, z] = -1.0
    return c


def _g2_basis() -> np.ndarray:
    """Derivations of the octonions, acting on the imaginary units, as a
    (14, 7, 7) array.

    so(7) splits as g2 plus a copy of R^7, and contracting D with the
    octonion 3-form c projects onto that copy, so g2 is the D in so(7) with
    ``sum_jk c[i,j,k] D[j,k] = 0`` for every i: over the pair basis
    x_ab = E_ab - E_ba, seven equations ``sum_(a<b) c[i,a,b] t_ab = 0``.
    """
    a, b = np.triu_indices(7, 1)
    return matrices(basis(7), np.real(numerics.nullspace(_octonion_table()[:, a, b])).T)


class SimpleAlgebraData(NamedTuple):
    """A compact simple Lie algebra in a -B-orthonormal basis y_a.

    ``ad`` is the (dim, dim, dim) real array of the adjoint matrices
    ``ad(y_a)``, skew, with ``sum_a ad(y_a)^2 = -Id``; ``roots`` is the
    root data."""

    label: str
    dim: int
    rank: int
    ad: np.ndarray
    roots: RootData


def _killing_ad(raw: np.ndarray) -> np.ndarray:
    """The adjoint matrices of a (-B)-orthonormal basis of the algebra that
    the (d, s, s) stack ``raw`` spans.

    Every bracket ``[raw_p, raw_q]`` comes from one batched product and is
    expanded over raw by one solve with the Frobenius Gram matrix of raw;
    a bracket that leaves the span is refused.  With ``-B = L L^T`` the
    basis ``y = raw L^-T`` is -B-orthonormal, and its ad matrices come from
    those of raw in one contraction."""
    d = len(raw)
    flat = raw.reshape(d, -1)
    prod = np.matmul(raw[:, None], raw[None])
    brackets = (prod - prod.swapaxes(0, 1)).reshape(d * d, -1)
    del prod
    coeff = np.linalg.solve(flat.conj() @ flat.T, flat.conj() @ brackets.T)  # (d, d^2)
    resid = coeff.T @ flat
    resid -= brackets
    if np.any(np.linalg.norm(resid, axis=1) > 1e-9 * np.maximum(1.0, np.linalg.norm(brackets, axis=1))):
        raise RuntimeError("bracket left the algebra span; model is not closed")
    # ad_raw[p, r, q]: the coefficient of raw_r in [raw_p, raw_q]
    ad_raw = np.real(coeff).reshape(d, d, d).transpose(1, 0, 2)
    lmat = np.linalg.cholesky(-np.einsum("pij,qji->pq", ad_raw, ad_raw, optimize=True))
    minv = np.linalg.inv(lmat).T  # column c: the coefficients of y_c over raw
    return np.einsum("ar,pc,prq,qb->cab", lmat.T, minv, ad_raw, minv, optimize=True)


_MODEL_BUILDERS = {
    "A": lambda r: _su_basis(r + 1),
    "B": lambda r: list(matrices(basis(2 * r + 1)).astype(complex)),
    "C": lambda r: _sp_basis(r),
    "D": lambda r: list(matrices(basis(2 * r)).astype(complex)),
    "G": lambda r: list(_g2_basis().astype(complex)),
}


def simple_algebra(type_rank: str) -> SimpleAlgebraData:
    """Compact simple Lie algebra data for a label like ``A2``, ``C3`` or ``G2``.

    The returned basis is orthonormal with respect to -B (B the Killing form);
    root data is rational and Killing-normalised via ``roots.inner_killing``.
    The brackets of the s x s matrix model, two (dim^2, s^2) arrays, real
    for a real model, are refused first if they cannot fit.
    """
    roots = root_data(type_rank)
    raw = numerics.real_if_exact(np.array(_MODEL_BUILDERS[roots.family](roots.rank)))
    if len(raw) != roots.dim:
        raise RuntimeError(f"{type_rank}: model has {len(raw)} elements, expected {roots.dim}")
    size, item = raw.shape[1] ** 2, raw.itemsize
    numerics.require_bytes(2 * roots.dim**2 * size * item, f"the brackets of {roots.label} (2 x {roots.dim}^2 x {size} x {item} bytes)")
    return SimpleAlgebraData(label=roots.label, dim=roots.dim, rank=roots.rank, ad=_killing_ad(raw), roots=roots)
