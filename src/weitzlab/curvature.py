"""Algebraic curvature operators: symmetric bilinear forms on so(n).

Normalisation, fixed once and calibrated against two anchors at the same
time (the round sphere gives the identity matrix, and the curvature term on
1-forms gives the Ricci tensor):

* ``R_ab = R_{i_a j_a i_b j_b} / 2`` over the lexicographic pair basis;
* with this scale the "sphere" operator ``R = Id`` has sectional curvature 2,
  Ricci ``2(n-1) Id`` and scalar curvature ``2 n (n-1)``;
* ``Ricci_ik = sum_j T_ijkj`` on the tensor form, positive on the sphere.
"""

from __future__ import annotations

import functools
import itertools
from math import comb
from typing import NamedTuple

import numpy as np

from . import numerics
from .options import algebra_dim
from .so_algebra import SimpleAlgebraData, basis as so_basis, expand, pair_number

__all__ = [
    "CurvatureOperator",
    "FourDimBlocks",
    "bi_invariant_group",
    "bianchi_project",
    "curvature_from_json",
    "curvature_operator",
    "four_dim_blocks",
    "random_curvature",
    "random_symmetric",
    "require_group",
    "ricci",
    "scalar",
    "sphere",
]


class CurvatureOperator(NamedTuple):
    """Symmetric N x N matrix over the so(n) pair basis, N = n(n-1)/2, or a
    stack of them with shape (T, N, N), which :func:`bianchi_project`,
    :func:`ricci` and :func:`weitzenbock.k_matrix` take whole."""

    n: int
    matrix: np.ndarray
    bianchi_flag: bool

    def unstack(self) -> list[CurvatureOperator]:
        """The operators of a stack, each a view of its slice; a single
        operator unstacks to itself."""
        if self.matrix.ndim == 2:
            return [self]
        return [CurvatureOperator(n=self.n, matrix=m, bianchi_flag=self.bianchi_flag) for m in self.matrix]


def curvature_operator(n: int, matrix, bianchi: bool | None = None, sym_tol: float = 1e-12) -> CurvatureOperator:
    """Validated constructor; symmetrises exactly after checking the residual,
    in one new array that holds ``m - m.T`` and then ``(m + m.T) / 2``."""
    m = np.asarray(matrix, dtype=float)
    npairs = n * (n - 1) // 2
    if m.shape != (npairs, npairs):
        raise ValueError(f"curvature matrix for n={n} must be {npairs} x {npairs}, got {m.shape}")
    scale = max(1.0, float(np.linalg.norm(m)))
    sym = np.subtract(m, m.T)
    if np.linalg.norm(sym) > sym_tol * scale:
        raise ValueError("curvature operator is not symmetric within tolerance")
    np.add(m, m.T, out=sym)
    sym /= 2.0
    if bianchi is None:
        bianchi = bianchi_residual_matrix(n, sym) <= 1e-10
    return CurvatureOperator(n=n, matrix=sym, bianchi_flag=bool(bianchi))


# ---------------------------------------------------------------------------
# Bianchi projection in pair coordinates
# ---------------------------------------------------------------------------


@functools.cache
def _pair_index(n: int):
    """Index arrays ``(i_a, j_a, i_b, j_b)`` broadcasting over the pair grid;
    ``np.triu_indices`` order is the lexicographic :func:`pair_list` order.
    Built once per n; the arrays are read-only."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i[:, None], j[:, None], i[None, :], j[None, :]


@functools.cache
def _pairings(n: int) -> np.ndarray:
    """Flat positions in an N x N matrix of the three pairings (ij, kl),
    (ik, jl), (il, jk) of every 4-subset i < j < k < l, shape (2, 3,
    C(n, 4)): at [0] the entries themselves, at [1] their transposes.
    Built once per n; read-only."""
    quads = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n), 4)), dtype=np.intp)
    i, j, k, l = quads.reshape(-1, 4).T
    rows = pair_number(n, np.array([i, i, i]), np.array([j, k, l]))
    cols = pair_number(n, np.array([k, j, j]), np.array([l, l, k]))
    npairs = n * (n - 1) // 2
    flat = np.stack([rows * npairs + cols, cols * npairs + rows])
    flat.flags.writeable = False
    return flat


#: Sign of each pairing in the Lambda^4 part.
_PAIRING_SIGNS = (1.0, -1.0, 1.0)


def _lambda4(matrix: np.ndarray, n: int) -> np.ndarray:
    """The Lambda^4 part of symmetric pair-basis matrices, one coefficient
    per 4-subset over the last axis: ``b = (R_ij,kl - R_ik,jl + R_il,jk) / 3``,
    the entry ``Alt(T)_ijkl / 2`` of the tensor form's antisymmetrisation.
    On the pairing entries of its 4-subset that part is ``+b, -b, +b``, and
    zero everywhere else."""
    r = _flat(matrix)[..., _pairings(n)[0]]
    return (r[..., 0, :] - r[..., 1, :] + r[..., 2, :]) / 3.0


def _flat(matrix: np.ndarray) -> np.ndarray:
    """Pair-basis matrices with their last two axes as one, a view when
    they are contiguous."""
    return matrix.reshape(matrix.shape[:-2] + (matrix.shape[-2] * matrix.shape[-1],))


def bianchi_residual_matrix(n: int, matrix: np.ndarray) -> float:
    """``||T_ijkl + T_jkil + T_kijl|| / max(1, ||T||)`` of the tensor form T
    of a symmetric pair-basis matrix R.  The cyclic sum is 3 Alt(T), 24
    index orders times 6 b in size on each 4-subset, and ``||T|| = 4 ||R||``,
    so this is ``12 sqrt(6) ||b|| / max(1, 4 ||R||)``."""
    m = np.asarray(matrix, dtype=float)
    return 12.0 * np.sqrt(6.0) * float(np.linalg.norm(_lambda4(m, n))) / max(1.0, 4.0 * float(np.linalg.norm(m)))


def bianchi_project(op: CurvatureOperator) -> CurvatureOperator:
    """Orthogonal projection onto the algebraic-curvature subspace.

    On Sym^2(Lambda^2) the first-Bianchi defect is exactly the Lambda^4
    component, ``T -> T - Alt(T)`` on the tensor form.  That component
    lives on the 4-subsets, so it is taken off the N x N matrix in closed
    form (:func:`_lambda4`), with no n^4 tensor.  A stack is projected
    whole; every step is elementwise over the stack, so each operator
    comes out bit-equal to its projection alone.
    """
    m = np.array(op.matrix, dtype=float, order="C")
    _remove_lambda4(m, op.n)
    return CurvatureOperator(n=op.n, matrix=m, bianchi_flag=True)


def _remove_lambda4(m: np.ndarray, n: int) -> None:
    """Subtract, in place, the Lambda^4 part of :func:`_lambda4` from
    C-contiguous symmetric pair-basis matrices: ``+b, -b, +b`` off the
    three pairing entries of each 4-subset and off their transposes."""
    b = _lambda4(m, n)
    flat, positions = _flat(m), _pairings(n)
    for pairing, sign in enumerate(_PAIRING_SIGNS):
        part = sign * b
        flat[..., positions[0, pairing]] -= part
        flat[..., positions[1, pairing]] -= part


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def sphere(n: int) -> CurvatureOperator:
    """The identity operator (the round sphere; sectional curvature 2 in this
    normalisation)."""
    if n < 2:
        raise ValueError("sphere needs n >= 2")
    npairs = n * (n - 1) // 2
    return CurvatureOperator(n=n, matrix=np.eye(npairs), bianchi_flag=True)


@functools.cache
def _upper(npairs: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each entry of an N x N symmetric matrix, row-major, sits in
    its upper triangle, diagonal included, read row by row, and the scale
    of each upper-triangle entry that gives the diagonal variance 1 and the
    rest variance 1/2.  Built once per N; the arrays are read-only."""
    rows, cols = np.triu_indices(npairs)
    source = np.empty(npairs * npairs, dtype=np.intp)
    source[rows * npairs + cols] = source[cols * npairs + rows] = np.arange(len(rows))
    scale = np.where(rows == cols, 1.0, np.sqrt(0.5))
    source.flags.writeable = scale.flags.writeable = False
    return source, scale


def random_symmetric(n: int, seed) -> CurvatureOperator:
    """Seeded Gaussian symmetric operator, *not* Bianchi-projected: the
    ensemble of ``(G + G^T) / 2`` for a standard normal G, with diagonal
    entries of variance 1 and the others of variance 1/2.  Its upper
    triangle, row by row, takes the standard normals of the seed's
    counter-hash stream (:func:`numerics.standard_normal`), with no random
    state.  A seed is a non-negative integer of any size.  A sequence of
    seeds gives the stack of their operators, each bit-equal to its seed's
    operator alone; one seed is the stack of one."""
    npairs = n * (n - 1) // 2
    single = np.ndim(seed) == 0
    seeds = [seed] if single else list(seed)
    source, scale = _upper(npairs)
    flat = np.empty((len(seeds), npairs * npairs))
    # a group of seeds holds about 40 bytes of temporaries per entry drawn
    group = max(1, numerics.CHUNK_BYTES // (40 * len(scale) + 1))
    for lo in range(0, len(seeds), group):
        values = numerics.standard_normal(seeds[lo : lo + group], len(scale))
        values *= scale
        # mode "clip" takes the unbuffered path; every position is in range
        np.take(values, source, axis=1, out=flat[lo : lo + group], mode="clip")
    m = flat.reshape(len(seeds), npairs, npairs)
    return CurvatureOperator(n=n, matrix=m[0] if single else m, bianchi_flag=False)


def random_curvature(n: int, seed) -> CurvatureOperator:
    """:func:`random_symmetric` projected onto the Bianchi subspace; a
    sequence of seeds gives the stack of their operators."""
    op = random_symmetric(n, seed)
    _remove_lambda4(op.matrix, n)  # the draw is fresh: project it in place
    return op._replace(bianchi_flag=True)


def require_group(label: str) -> None:
    """Refuse, before its algebra is built, the operator of a compact simple
    group that cannot fit with its Bianchi check.  R is N^2 float64 over the
    pair basis of so(d), N = d(d-1)/2, d the dimension of the algebra, held
    once through the check (twice while it is symmetrised, which is less);
    beside it the check builds :func:`_pairings` (48 bytes per 4-subset) and
    gathers from it, at a peak of 190 bytes per 4-subset.  The peak RSS of
    ``k --rep vector`` on A8, A9 and A10 (430, 956 and 2014 MB from
    ``os.wait4``) is these 8 N^2 + 190 C(d, 4) bytes plus 50 MB of
    interpreter and numpy, within 5 MB."""
    d = algebra_dim(label)
    pairs, quads = d * (d - 1) // 2, comb(d, 4)
    numerics.require_bytes(
        8 * pairs * pairs + 190 * quads,
        f"the curvature operator of group:{label} on so({d}) and its Bianchi check "
        f"({pairs}^2 x 8 bytes beside {quads} 4-subsets x 190 bytes)",
    )


def bi_invariant_group(g: SimpleAlgebraData) -> CurvatureOperator:
    """Curvature operator of a compact simple group with the metric -B:
    ``R = (1/8) sum_c ad(y_c) (x) ad(y_c)`` over the so(dim g) pair basis."""
    coeff = expand(so_basis(g.dim), g.ad)  # (d, N)
    r = coeff.T @ coeff
    r /= 8.0
    op = curvature_operator(g.dim, r, bianchi=True)
    del r  # only the symmetrised copy is alive through the Bianchi check
    if bianchi_residual_matrix(g.dim, op.matrix) > 1e-10:
        raise RuntimeError(f"bi-invariant curvature of {g.label} failed the Bianchi check")
    return op


# ---------------------------------------------------------------------------
# Ricci, scalar, four-dimensional blocks
# ---------------------------------------------------------------------------


@functools.cache
def _ricci_gather(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair number ``P[i, j]`` of {i, j} (0 on the diagonal) and the weight
    ``W[i, k, j] = 2 s_ij s_kj``, with ``s_ij`` the sign of j - i, so that
    ``T_ijkj = W[i, k, j] R[P[i, j], P[k, j]]``.  Built once per n; the
    arrays are read-only."""
    number = np.zeros((n, n), dtype=np.intp)
    i, j = np.triu_indices(n, 1)
    number[i, j] = number[j, i] = np.arange(len(i))
    sign = np.sign(np.subtract.outer(np.arange(n), np.arange(n))).astype(float).T
    weight = 2.0 * sign[:, None, :] * sign[None, :, :]
    number.flags.writeable = weight.flags.writeable = False
    return number, weight


def ricci(op: CurvatureOperator) -> np.ndarray:
    """Ricci tensor ``Ric_ik = sum_j T_ijkj`` of an operator or a stack, by
    n gathers of n x n entries on the pair-basis matrix: no n^4 tensor is
    formed.  The terms add in the order of j, so each Ricci tensor of a
    stack is bit-equal to its operator's alone."""
    number, weight = _ricci_gather(op.n)
    m = np.asarray(op.matrix, dtype=float)
    out = np.zeros(m.shape[:-2] + (op.n, op.n))
    for j in range(op.n):
        out += weight[:, :, j] * m[..., number[:, None, j], number[None, :, j]]
    return out


def scalar(op: CurvatureOperator) -> float:
    """Scalar curvature, ``tr Ric = 4 tr R``: each pair a = (i, j) meets
    its diagonal entry twice in the trace, at weight 2 each."""
    return float(4.0 * np.trace(op.matrix))


class FourDimBlocks(NamedTuple):
    """Block decomposition of a 4-dimensional curvature operator over the
    self-dual / anti-self-dual splitting of the 2-forms."""

    wplus: np.ndarray
    wminus: np.ndarray
    mixed: np.ndarray
    scalar_part: float
    basis_plus: np.ndarray
    basis_minus: np.ndarray

    def reassemble(self) -> np.ndarray:
        u = np.hstack([self.basis_plus, self.basis_minus])
        top = np.hstack([self.wplus, self.mixed])
        bottom = np.hstack([self.mixed.T, self.wminus])
        return u @ np.vstack([top, bottom]) @ u.T


def _hodge_star_coefficients() -> np.ndarray:
    """Hodge star on Lambda^2(R^4) over the lexicographic pair basis."""
    star = np.zeros((6, 6))
    signs = {((0, 1), (2, 3)): 1.0, ((0, 2), (1, 3)): -1.0, ((0, 3), (1, 2)): 1.0}
    for (p, q), s in signs.items():
        star[pair_number(4, *q), pair_number(4, *p)] = s
        star[pair_number(4, *p), pair_number(4, *q)] = s
    return star


@functools.cache
def _self_dual_bases() -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal bases of the +-1 eigenspaces of the star,
    labelled so that the + side acts trivially on negative-chirality spinors.
    Built once per process; the arrays are read-only."""
    from .spin import rep_half_spin

    star = _hodge_star_coefficients()
    plus, minus = [], []
    for p, q in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        a, b = pair_number(4, *p), pair_number(4, *q)
        s = star[b, a]
        v = np.zeros(6)
        v[a] = 1.0 / np.sqrt(2.0)
        v[b] = s / np.sqrt(2.0)
        plus.append(v)
        w = np.zeros(6)
        w[a] = 1.0 / np.sqrt(2.0)
        w[b] = -s / np.sqrt(2.0)
        minus.append(w)
    bp = np.array(plus).T
    bm = np.array(minus).T
    # align the labels with the chirality convention of the spin module: the
    # self-dual side must kill the negative-chirality spinors
    t = rep_half_spin(so_basis(4), -1).table

    def acts_on_minus(cols):
        m = np.zeros((3, 2, 2), dtype=complex)  # sum_a cols[a, k] rho_a on the half, for each k
        np.add.at(m, (slice(None), t.row, t.col), cols[t.gen].T * t.val)
        return np.linalg.norm(m, axis=(1, 2)).sum()

    if acts_on_minus(bp) > acts_on_minus(bm):
        bp, bm = bm, bp
    bp.flags.writeable = bm.flags.writeable = False
    return bp, bm


def four_dim_blocks(op: CurvatureOperator) -> FourDimBlocks:
    """Conjugate a (Bianchi) 4-dimensional curvature operator into the
    self-dual / anti-self-dual basis and return the three 3x3 blocks.

    The mixed block is a fixed linear image of the trace-free Ricci tensor,
    so it vanishes exactly when the operator is Einstein.
    """
    if op.n != 4:
        raise ValueError("four_dim_blocks needs n = 4")
    if not op.bianchi_flag:
        raise ValueError("four_dim_blocks needs a Bianchi curvature operator")
    bp, bm = _self_dual_bases()
    return FourDimBlocks(
        wplus=bp.T @ op.matrix @ bp,
        wminus=bm.T @ op.matrix @ bm,
        mixed=bp.T @ op.matrix @ bm,
        scalar_part=scalar(op),
        basis_plus=bp,
        basis_minus=bm,
    )


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

CURVATURE_SCHEMA_BASIS = "lex-upper"
CURVATURE_SCHEMA_NORMALIZATION = "half-tensor"
#: Largest magnitude of an entry of R that the JSON schema accepts.
CURVATURE_ENTRY_MAX = 1e100


def curvature_from_json(payload) -> CurvatureOperator:
    """Load a curvature operator from the JSON schema, enforcing symmetry and
    recording the Bianchi check in the flag."""
    if isinstance(payload, (str, bytes)):
        import json

        payload = json.loads(payload)
    if not isinstance(payload, dict):
        raise ValueError("curvature JSON must be an object")
    for key in ("n", "basis", "normalization", "R"):
        if key not in payload:
            raise ValueError(f"curvature JSON is missing the {key!r} field")
    if payload["basis"] != CURVATURE_SCHEMA_BASIS:
        raise ValueError(f"unsupported basis {payload['basis']!r}")
    if payload["normalization"] != CURVATURE_SCHEMA_NORMALIZATION:
        raise ValueError(f"unsupported normalization {payload['normalization']!r}")
    n = payload["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValueError(f"'n' must be a JSON integer >= 2, got {n!r}")
    try:
        m = np.array(payload["R"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"'R' is not a matrix of numbers: {exc}") from exc
    # NaN fails the comparison; beyond the bound K's entries could overflow
    if not np.all(np.abs(m) <= CURVATURE_ENTRY_MAX):
        raise ValueError(f"'R' entries must be finite and at most {CURVATURE_ENTRY_MAX:g} in magnitude")
    return curvature_operator(n, m, bianchi=None, sym_tol=1e-9)


def einstein_project(op: CurvatureOperator) -> CurvatureOperator:
    """Project a curvature operator onto the Einstein (Ricci = scalar/n) part
    of the Bianchi subspace.

    After the Bianchi projection this removes the trace-free Ricci component
    ``Ric0 (.) g / (n - 2)``, with the Kulkarni-Nomizu product
    ``(h (.) g)_ijkl = h_ik g_jl + h_jl g_ik - h_il g_jk - h_jk g_il``
    (Besse, Einstein Manifolds, 1.G); that component is orthogonal to the
    Weyl and scalar parts, so the result is the orthogonal projection.
    """
    n = op.n
    proj = bianchi_project(op)
    ric = ricci(proj)
    ric0 = ric - np.trace(ric) / n * np.eye(n)
    # (ric0 (.) g) on the pair grid, halved by the pair-basis normalisation
    i, j, k, l = _pair_index(n)
    kn = ric0[i, k] * (j == l) + ric0[j, l] * (i == k) - ric0[i, l] * (j == k) - ric0[j, k] * (i == l)
    # at n = 2 the trace-free Ricci tensor of a Bianchi operator is exactly 0
    return CurvatureOperator(n=n, matrix=proj.matrix - kn / (2.0 * max(n - 2, 1)), bianchi_flag=True)
