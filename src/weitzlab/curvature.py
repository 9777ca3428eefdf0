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
from typing import NamedTuple

import numpy as np

from .so_algebra import SimpleAlgebraData, basis as so_basis, expand, pair_list

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
    "ricci",
    "scalar",
    "sphere",
    "to_tensor",
]


class CurvatureOperator(NamedTuple):
    """Symmetric N x N matrix over the so(n) pair basis, N = n(n-1)/2, or a
    stack of them with shape (T, N, N), which :func:`to_tensor`,
    :func:`bianchi_project` and :func:`weitzenbock.k_matrix` take whole."""

    n: int
    matrix: np.ndarray
    bianchi_flag: bool

    @property
    def pairs(self):
        return pair_list(self.n)

    def unstack(self) -> list[CurvatureOperator]:
        """The operators of a stack, each a view of its slice; a single
        operator unstacks to itself."""
        if self.matrix.ndim == 2:
            return [self]
        return [CurvatureOperator(n=self.n, matrix=m, bianchi_flag=self.bianchi_flag) for m in self.matrix]


def curvature_operator(n: int, matrix, bianchi: bool | None = None, sym_tol: float = 1e-12) -> CurvatureOperator:
    """Validated constructor; symmetrises exactly after checking the residual."""
    m = np.asarray(matrix, dtype=float)
    npairs = n * (n - 1) // 2
    if m.shape != (npairs, npairs):
        raise ValueError(f"curvature matrix for n={n} must be {npairs} x {npairs}, got {m.shape}")
    scale = max(1.0, float(np.linalg.norm(m)))
    if np.linalg.norm(m - m.T) > sym_tol * scale:
        raise ValueError("curvature operator is not symmetric within tolerance")
    m = (m + m.T) / 2.0
    if bianchi is None:
        bianchi = bianchi_residual_matrix(n, m) <= 1e-10
    return CurvatureOperator(n=n, matrix=m, bianchi_flag=bool(bianchi))


# ---------------------------------------------------------------------------
# Tensor form and Bianchi projection
# ---------------------------------------------------------------------------


@functools.cache
def _pair_index(n: int):
    """Index arrays ``(i_a, j_a, i_b, j_b)`` broadcasting over the pair grid;
    ``np.triu_indices`` order is the lexicographic :func:`pair_list` order.
    Built once per n; the arrays are read-only."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i[:, None], j[:, None], i[None, :], j[None, :]


def to_tensor(op: CurvatureOperator) -> np.ndarray:
    """Rank-4 form: ``T[i,j,k,l]`` with the pair (anti)symmetries, ``T = 2 R``
    on sorted pairs; a stack of operators gives a stack of tensors."""
    n = op.n
    v = 2.0 * op.matrix
    t = np.zeros(v.shape[:-2] + (n, n, n, n))
    i, j, k, l = _pair_index(n)
    t[..., i, j, k, l] = v
    t[..., j, i, k, l] = -v
    t[..., i, j, l, k] = -v
    t[..., j, i, l, k] = v
    return t


def _pair_matrix(t: np.ndarray) -> np.ndarray:
    """Symmetric pair-basis matrix ``R_ab = T[i_a, j_a, i_b, j_b] / 2``, over
    the last four axes."""
    r = t[(Ellipsis, *_pair_index(t.shape[-1]))] / 2.0
    return (r + r.swapaxes(-1, -2)) / 2.0


def _cyclic_sum(t: np.ndarray) -> np.ndarray:
    """First-Bianchi cyclic sum ``T_ijkl + T_jkil + T_kijl``."""
    return t + np.einsum("jkil->ijkl", t) + np.einsum("kijl->ijkl", t)


def bianchi_residual_matrix(n: int, matrix: np.ndarray) -> float:
    t = to_tensor(CurvatureOperator(n=n, matrix=np.asarray(matrix, dtype=float), bianchi_flag=False))
    scale = max(1.0, float(np.linalg.norm(t)))
    return float(np.linalg.norm(_cyclic_sum(t))) / scale


#: The 24 permutations of four slots, each with its sign.
_SIGNED_PERMUTATIONS = tuple(
    (perm, (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2)))
    for perm in itertools.permutations(range(4))
)


def _alt(t: np.ndarray) -> np.ndarray:
    """Full antisymmetrisation of a 4-tensor (an orthogonal projector), over
    the last four axes."""
    batch = tuple(range(t.ndim - 4))
    out = np.zeros_like(t)
    for perm, sign in _SIGNED_PERMUTATIONS:
        out += sign * np.transpose(t, batch + tuple(len(batch) + p for p in perm))
    return out / 24.0


def bianchi_project(op: CurvatureOperator) -> CurvatureOperator:
    """Orthogonal projection onto the algebraic-curvature subspace.

    On Sym^2(Lambda^2) the first-Bianchi defect is exactly the Lambda^4
    component, so the projection is ``T -> T - Alt(T)`` on the tensor form.
    A stack is projected whole; every step is elementwise over the stack, so
    each operator comes out bit-equal to its projection alone.
    """
    t = to_tensor(op)
    return CurvatureOperator(n=op.n, matrix=_pair_matrix(t - _alt(t)), bianchi_flag=True)


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


def random_symmetric(n: int, seed) -> CurvatureOperator:
    """Seeded Gaussian symmetric operator, *not* Bianchi-projected.  A
    sequence of seeds gives the stack of their operators, each drawn from
    ``default_rng`` of its own seed; one seed is the stack of one."""
    npairs = n * (n - 1) // 2
    single = np.ndim(seed) == 0
    draws = [np.random.default_rng(s).standard_normal((npairs, npairs)) for s in ([seed] if single else seed)]
    g = np.array(draws).reshape(-1, npairs, npairs)
    m = (g + g.swapaxes(1, 2)) / 2.0
    return CurvatureOperator(n=n, matrix=m[0] if single else m, bianchi_flag=False)


def random_curvature(n: int, seed) -> CurvatureOperator:
    """Seeded Gaussian symmetric operator projected onto the Bianchi
    subspace; a sequence of seeds gives the stack of their operators."""
    return bianchi_project(random_symmetric(n, seed))


def bi_invariant_group(g: SimpleAlgebraData) -> CurvatureOperator:
    """Curvature operator of a compact simple group with the metric -B:
    ``R = (1/8) sum_c ad(y_c) (x) ad(y_c)`` over the so(dim g) pair basis."""
    d = g.dim
    so = so_basis(d)
    coeff = np.array([expand(so, np.real(a)) for a in g.ad])  # (d, N)
    r = coeff.T @ coeff / 8.0
    op = curvature_operator(d, r, bianchi=None)
    if not op.bianchi_flag:
        raise RuntimeError(f"bi-invariant curvature of {g.label} failed the Bianchi check")
    return op


# ---------------------------------------------------------------------------
# Ricci, scalar, four-dimensional blocks
# ---------------------------------------------------------------------------


def ricci(op: CurvatureOperator) -> np.ndarray:
    """Ricci tensor by index contraction of the tensor form."""
    return np.einsum("ijkj->ik", to_tensor(op))


def scalar(op: CurvatureOperator) -> float:
    return float(np.trace(ricci(op)))


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
    pairs = pair_list(4)
    for (p, q), s in signs.items():
        star[pairs.index(q), pairs.index(p)] = s
        star[pairs.index(p), pairs.index(q)] = s
    return star


@functools.cache
def _self_dual_bases() -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal bases of the +-1 eigenspaces of the star,
    labelled so that the + side acts trivially on negative-chirality spinors.
    Built once per process; the arrays are read-only."""
    from .spin import half_spin_rows, rep_spin

    star = _hodge_star_coefficients()
    pairs = pair_list(4)
    plus, minus = [], []
    for p, q in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        s = star[pairs.index(q), pairs.index(p)]
        v = np.zeros(6)
        v[pairs.index(p)] = 1.0 / np.sqrt(2.0)
        v[pairs.index(q)] = s / np.sqrt(2.0)
        plus.append(v)
        w = np.zeros(6)
        w[pairs.index(p)] = 1.0 / np.sqrt(2.0)
        w[pairs.index(q)] = -s / np.sqrt(2.0)
        minus.append(w)
    bp = np.array(plus).T
    bm = np.array(minus).T
    # align the labels with the chirality convention of the spin module: the
    # self-dual side must kill the negative-chirality spinors
    sp = rep_spin(so_basis(4))
    _, neg = half_spin_rows(4)
    stacked = np.array(sp.mats)

    def acts_on_minus(cols):
        total = 0.0
        for k in range(3):
            m = np.tensordot(cols[:, k], stacked, axes=(0, 0))
            total += float(np.linalg.norm(m[:, neg]))
        return total

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
    g = np.eye(n)
    kn = (
        np.einsum("ik,jl->ijkl", ric0, g)
        + np.einsum("jl,ik->ijkl", ric0, g)
        - np.einsum("il,jk->ijkl", ric0, g)
        - np.einsum("jk,il->ijkl", ric0, g)
    )
    # at n = 2 the trace-free Ricci tensor of a Bianchi operator is exactly 0
    t = to_tensor(proj) - kn / max(n - 2, 1)
    return CurvatureOperator(n=n, matrix=_pair_matrix(t), bianchi_flag=True)
