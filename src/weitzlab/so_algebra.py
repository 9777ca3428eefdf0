"""The Lie algebra so(n) and compact simple Lie algebra models.

Conventions fixed here and relied on everywhere else:

* inner product on so(n): ``<A, B> = -tr(A B) / 2``, which makes the matrices
  ``x_ij = E_ij - E_ji`` (i < j) an orthonormal basis;
* basis order: lexicographic on the index pairs (i, j), i < j;
* an algebra is stored by coefficient rows over that basis: so(n) by its
  pairs, a subalgebra by orthonormal rows; only :func:`matrices` forms
  n x n matrices, for the matrix models and the closure check;
* compact simple algebras carry a basis ``y_a`` orthonormal for ``-B`` where
  B is the Killing form, so that ``sum_a ad(y_a)^2 = -Id``.

Root data is kept in exact rational arithmetic (coefficients over the simple
roots, rational Gram matrix normalised so long roots have squared length 2).
``Fraction`` is imported in the functions that build it, so a process that
never builds root data loads neither ``fractions`` nor ``decimal``.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from . import numerics
from .options import parse_type_rank

__all__ = [
    "SoBasis",
    "Subalgebra",
    "RootData",
    "SimpleAlgebraData",
    "basis",
    "bracket",
    "expand",
    "matrices",
    "pair_list",
    "pair_number",
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


def bracket(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix commutator ``a b - b a``."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"bracket needs equal square matrices, got {a.shape} and {b.shape}")
    return a @ b - b @ a


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
    """Coefficients of a skew matrix over the orthonormal basis of ``so``:
    ``<x_ij, m> = (m[i, j] - m[j, i]) / 2`` of the real part, written
    so that a zero coefficient carries the sign that the trace gives."""
    m = np.real(np.asarray(m))
    i, j = np.triu_indices(so.n, 1)
    return -(m[j, i] - m[i, j]) / 2.0


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
        """Largest norm of a bracket's component outside span(h)."""
        worst = 0.0
        for x, y in itertools.combinations_with_replacement(matrices(self.ambient, self.coeff), 2):
            v = expand(self.ambient, bracket(x, y))
            inside = self.coeff.T @ (self.coeff @ v)
            worst = max(worst, float(np.linalg.norm(v - inside)))
        return worst


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
# Root data in exact rational arithmetic
# ---------------------------------------------------------------------------


# Gram matrices of the simple roots, normalised so long roots have squared
# length 2.
def _gram(family: str, rank: int) -> list[list[Fraction]]:
    from fractions import Fraction

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
    else:  # pragma: no cover
        raise ValueError(family)
    return g


_DUAL_COXETER = {
    "A": lambda r: r + 1,
    "B": lambda r: 2 * r - 1,
    "C": lambda r: r + 1,
    "D": lambda r: 2 * r - 2,
    "G": lambda r: 4,
}


class RootData(NamedTuple):
    """Rational root data: roots as coefficient vectors over the simple roots."""

    family: str
    rank: int
    gram: tuple[tuple[Fraction, ...], ...]
    positive_roots: tuple[tuple[Fraction, ...], ...]
    dual_coxeter: int

    @property
    def simple_roots(self) -> tuple[tuple[Fraction, ...], ...]:
        from fractions import Fraction

        eye = []
        for i in range(self.rank):
            row = [Fraction(0)] * self.rank
            row[i] = Fraction(1)
            eye.append(tuple(row))
        return tuple(eye)

    def inner_norm(self, u, v) -> Fraction:
        """Inner product in the long-root-length^2 = 2 normalisation."""
        from fractions import Fraction

        total = Fraction(0)
        for i in range(self.rank):
            for j in range(self.rank):
                total += Fraction(u[i]) * self.gram[i][j] * Fraction(v[j])
        return total

    def inner_killing(self, u, v) -> Fraction:
        """Inner product induced by the Killing form, ``inner_norm / (2 h^v)``."""
        return self.inner_norm(u, v) / (2 * self.dual_coxeter)


def _generate_positive_roots(family: str, rank: int) -> RootData:
    from fractions import Fraction

    gram_rows = _gram(family, rank)
    gram = tuple(tuple(row) for row in gram_rows)
    data = RootData(family=family, rank=rank, gram=gram, positive_roots=(), dual_coxeter=_DUAL_COXETER[family](rank))

    def cartan_pairing(beta, i) -> Fraction:
        alpha = [Fraction(0)] * rank
        alpha[i] = Fraction(1)
        return 2 * data.inner_norm(beta, alpha) / data.inner_norm(alpha, alpha)

    roots = {tuple(s) for s in data.simple_roots}
    frontier = list(roots)
    while frontier:
        new = []
        for beta in frontier:
            for i in range(rank):
                # beta + alpha_i is a root iff q - p > 0, where q counts how far
                # the alpha_i-string through beta extends backwards.
                q = 0
                back = list(beta)
                while True:
                    back[i] -= 1
                    if tuple(back) not in roots:
                        break
                    q += 1
                p = cartan_pairing(beta, i)
                if q - p > 0:
                    fwd = list(beta)
                    fwd[i] += 1
                    new.append(tuple(fwd))
        added = [r for r in new if r not in roots]
        roots.update(added)
        frontier = added
    ordered = sorted(roots, key=lambda r: (sum(r), r))
    return RootData(
        family=family,
        rank=rank,
        gram=gram,
        positive_roots=tuple(tuple(Fraction(c) for c in r) for r in ordered),
        dual_coxeter=_DUAL_COXETER[family](rank),
    )


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
    """A compact simple Lie algebra in a -B-orthonormal basis.

    ``model`` holds the basis matrices y_a of the defining matrix model,
    ``ad`` their adjoint matrices (real, skew, dim x dim), and ``roots`` the
    rational root data.  In this basis ``sum_a ad(y_a)^2 = -Id``.
    """

    label: str
    dim: int
    rank: int
    model: tuple[np.ndarray, ...]
    ad: tuple[np.ndarray, ...]
    roots: RootData


def _orthonormalize_killing(raw: list[np.ndarray]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Return (-B)-orthonormal basis matrices and their ad matrices."""
    d = len(raw)
    flat = np.array([m.ravel() for m in raw]).T  # (size^2, d)
    pinv = np.linalg.pinv(flat)

    def expand_raw(x):
        coeff = pinv @ x.ravel()
        resid = np.linalg.norm(flat @ coeff - x.ravel())
        if resid > 1e-9 * max(1.0, np.linalg.norm(x)):
            raise RuntimeError("bracket left the algebra span; model is not closed")
        return coeff

    ad_raw = np.zeros((d, d, d), dtype=complex)
    for p in range(d):
        for q in range(d):
            ad_raw[p][:, q] = expand_raw(bracket(raw[p], raw[q]))
    ad_raw = np.real(ad_raw)
    killing = np.einsum("pij,qji->pq", ad_raw, ad_raw)
    # -B = L L^T; y = raw . L^{-T} is -B-orthonormal
    lmat = np.linalg.cholesky(-killing)
    minv = np.linalg.inv(lmat).T  # columns: coefficients of y_c over raw
    y = [sum(minv[p, c] * raw[p] for p in range(d)) for c in range(d)]
    ad_y = []
    basis_change = np.linalg.inv(minv)
    for c in range(d):
        a = sum(minv[p, c] * ad_raw[p] for p in range(d))
        ad_y.append(basis_change @ a @ minv)
    return y, ad_y


_MODEL_BUILDERS = {
    "A": lambda r: _su_basis(r + 1),
    "B": lambda r: list(matrices(basis(2 * r + 1)).astype(complex)),
    "C": lambda r: _sp_basis(r),
    "D": lambda r: list(matrices(basis(2 * r)).astype(complex)),
    "G": lambda r: list(_g2_basis().astype(complex)),
}

_DIMENSIONS = {
    "A": lambda r: (r + 1) ** 2 - 1,
    "B": lambda r: r * (2 * r + 1),
    "C": lambda r: r * (2 * r + 1),
    "D": lambda r: r * (2 * r - 1),
    "G": lambda r: 14,
}


def simple_algebra(type_rank: str) -> SimpleAlgebraData:
    """Compact simple Lie algebra data for a label like ``A2``, ``C3`` or ``G2``.

    The returned basis is orthonormal with respect to -B (B the Killing form);
    root data is rational and Killing-normalised via ``roots.inner_killing``.
    """
    family, rank = parse_type_rank(type_rank)
    raw = _MODEL_BUILDERS[family](rank)
    dim = _DIMENSIONS[family](rank)
    if len(raw) != dim:
        raise RuntimeError(f"{type_rank}: model has {len(raw)} elements, expected {dim}")
    y, ad_y = _orthonormalize_killing(raw)
    roots = _generate_positive_roots(family, rank)
    expected_pos = (dim - rank) // 2
    if len(roots.positive_roots) != expected_pos:
        raise RuntimeError(
            f"{type_rank}: generated {len(roots.positive_roots)} positive roots, expected {expected_pos}"
        )
    return SimpleAlgebraData(
        label=f"{family}{rank}" if family != "G" else "G2",
        dim=dim,
        rank=rank,
        model=tuple(y),
        ad=tuple(np.real(a) for a in ad_y),
        roots=roots,
    )

