"""Curvature endomorphisms of representations and the identities they satisfy.

The central object is ``K = sum_ab R_ab rho(x_a) rho(x_b)`` for a curvature
operator R and a representation rho; it is self-adjoint because R is
symmetric and the generators are skew-adjoint.  On top of it:

* a verifier for the projection identity ``P K P = -(k/4) P W P`` on
  permutation-fixed subspaces E of spinor tensor powers, with both sides
  formed only on E, from an orthonormal basis of E acted on one or two
  tensor slots at a time: K from its one-slot and two-slot parts, with a
  closed-form norm, and the twisted term ``W`` from a Gram of generator
  actions, so that neither the tensor power's table nor any d^k x d^k
  matrix is formed;
* a positivity analyzer for families of representations, with a finite
  diagnostic search standing in for the (infinite-dimensional) converse.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from . import numerics
from . import spin as spinmod
from .curvature import CurvatureOperator
from .report import CheckReport, digest
from .representations import (
    Rep,
    commutant_dimension,
    rep_adjoint,
    rep_exterior,
    rep_sym0,
    rep_tensor,
    rep_vector,
)
from .so_algebra import SoBasis

__all__ = [
    "CompatibilityError",
    "CurvatureEndomorphism",
    "LemmaPreconditionError",
    "PositivityEntry",
    "PositivityReport",
    "definiteness",
    "k_matrix",
    "k_term",
    "lemma_check",
    "neg_k_spectrum",
    "positivity_report",
    "require_k",
    "require_k_term",
    "standard_family",
    "vanishing_conclusion",
]


class CurvatureEndomorphism(NamedTuple):
    rep_label: str
    matrix: np.ndarray
    spectrum: np.ndarray
    self_adjoint_residual: float


class CompatibilityError(ValueError):
    """A curvature operator and a representation over different so(n), or
    with different numbers of basis directions."""


def _check_compatible(r: CurvatureOperator, rep: Rep) -> None:
    npairs = r.matrix.shape[-1]
    if rep.count != npairs:
        raise CompatibilityError(
            f"curvature operator has {npairs} basis directions but the "
            f"representation has {rep.count} generators"
        )
    base = rep.basis
    n = base.ambient.n if hasattr(base, "ambient") else base.n
    if n != r.n:
        raise CompatibilityError(f"curvature lives on so({r.n}) but the representation on so({n})")


def require_k(count: int, d: int, dtype) -> None:
    """Refuse a (count, d, d) stack of K of ``dtype`` that cannot fit
    (:func:`numerics.require_bytes`): the size rule of K, applied by
    :func:`k_matrix` before it allocates, and by a caller that knows d
    before it builds the representation."""
    itemsize = np.dtype(dtype).itemsize
    numerics.require_bytes(count * d * d * itemsize, f"K ({count} x {d} x {d} x {itemsize} bytes)")


def require_k_term(d: int, dtype, held: int) -> None:
    """Refuse a :func:`k_term` on d dimensions whose peak cannot fit beside
    ``held`` bytes of its representation: K and two arrays of its size, a
    conjugate and a difference, then the Hermitian part and the solver's
    copy of it (peak RSS: 3.01 K's in fresh processes at d = 2048 and 4096)."""
    itemsize = np.dtype(dtype).itemsize
    what = f"the spectrum of K (3 x {d} x {d} x {itemsize} bytes beside {held} bytes of its representation)"
    numerics.require_bytes(3 * d * d * itemsize + held, what)


def _k_zeros(count: int, d: int, dtype) -> np.ndarray:
    """A zero (count, d, d) stack for K, refused first when it cannot fit."""
    require_k(count, d, dtype)
    return np.zeros((count, d, d), dtype=dtype)


def k_matrix(r: CurvatureOperator, rep: Rep) -> np.ndarray:
    """The matrix ``sum_ab R_ab rho(x_a) rho(x_b)`` without the spectral data;
    for a stack of T operators, the (T, d, d) stack of their matrices.

    On a spin or half-spin rep (one that carries ``clifford``), K is the sum
    of Clifford blades of :func:`_blade_k_matrix`.  Otherwise it is a join
    of the generator table with itself on the inner index j: every entry
    ``rho_a[i, j]`` pairs with every entry ``rho_b[j, k]``, and the pair
    adds ``R_ab rho_a[i, j] rho_b[j, k]`` to ``K[i, k]``.  The left entries
    are sorted by row i, and the pairs are formed in chunks that end where
    that row changes, so each row of K is summed by one ``np.bincount``, in
    pair order, whatever the chunk sizes.  A chunk holds as many rows as
    :data:`numerics.CHUNK_BYTES` allows at the join's bytes per pair and per
    row of K (one row at least).  Each chunk is formed once for the whole
    stack and weighted by a group of operators at a time, as many as the
    rest of the budget holds, whose sums go to one ``np.bincount``.  The
    chunks do not depend on the stack, so each K is bit-equal to the join
    of its operator alone.  K is float64 when the table is real and complex
    otherwise."""
    _check_compatible(r, rep)
    if rep.clifford is not None:
        return _blade_k_matrix(r, rep.clifford)
    d = rep.dim
    # entries sorted by row: the partners of a left entry rho_a[i, j] are the
    # run of row j, and left entries of one row fill one row of K
    by_row = np.argsort(rep.table.row, kind="stable")
    gen, row, col, val = (a[by_row] for a in rep.table)
    val = val.real.copy() if not np.any(val.imag) else val
    start = np.searchsorted(row, np.arange(d + 1))
    partners = start[col + 1] - start[col]
    ends = np.cumsum(partners)
    shift = start[col] - (ends - partners)  # the p-th pair overall takes right entry p + shift
    weights, gen_l, row_l = r.matrix.reshape(-1, rep.count ** 2), gen * rep.count, row * d
    k = _k_zeros(len(weights), d, val.dtype).reshape(len(weights), d * d)
    # bytes per pair: its index arrays and left value, and for each operator
    # its gathered weight, product and bin; bytes per row of K: one bincount
    per_pair, per_op = 32 + val.itemsize, 24 + 2 * val.itemsize
    budget = numerics.CHUNK_BYTES
    held = np.concatenate((np.flatnonzero(start[1:] > start[:-1]), [d]))  # rows with left entries, and d
    bounds = start[held]  # where the left entries of each begin, and the end
    done = np.concatenate(([0], ends))[bounds]  # pairs before each
    cost = done * (per_pair + per_op) + held * (8 * d)
    i = 0
    while i < len(bounds) - 1:
        j = max(i + 1, int(np.searchsorted(cost, cost[i] + budget, side="right")) - 1)
        lo, hi = bounds[i], bounds[j]
        left = np.repeat(np.arange(lo, hi), partners[lo:hi])
        right = shift[left] + np.arange(done[i], done[j])
        # the chunk's left entries fill rows row[lo] .. row[hi - 1] of K, all of each
        first, span = row_l[lo], row_l[hi - 1] + d - row_l[lo]
        flat = row_l[left] - first + col[right]
        group = max(1, (budget - len(left) * per_pair) // (len(left) * per_op + 8 * span))
        for t in range(0, len(weights), group):
            # the gather indexes the first axis alone and the second product is
            # taken in place: a slice beside the index array, or operands of
            # two shapes, would each cost another per-pair temporary
            rows = weights[t : t + group]
            rows = rows[0] if len(rows) == 1 else rows.T
            w = rows[gen_l[left] + gen[right]].T * val[left]
            w *= val[right]
            # operator t + s sums into bins s span + flat
            bins = (np.arange(len(w))[:, None] * span + flat).ravel() if w.ndim == 2 else flat
            part = k[t : t + group, first : first + span]
            if w.dtype.kind == "c":
                part.real = np.bincount(bins, w.real.ravel(), part.size).reshape(part.shape)
                part.imag = np.bincount(bins, w.imag.ravel(), part.size).reshape(part.shape)
            else:
                part[...] = np.bincount(bins, w.ravel(), part.size).reshape(part.shape)
        i = j
    return k.reshape(r.matrix.shape[:-2] + (d, d))


def _blade_k_matrix(r: CurvatureOperator, blades: spinmod.SpinorBlades) -> np.ndarray:
    """K on spinors as ``sum_B c_B Gamma_B`` (:class:`SpinorBlades`):
    the coefficients from ``np.bincount`` over the N^2 pairs, then each
    blade's one entry per row scattered into K, a chunk of rows at a time,
    as many as :data:`numerics.CHUNK_BYTES` allows at this path's bytes per
    (row, blade) entry and per row of K (one row at least), weighted by a
    group of operators at a time as in the join.  Real and imaginary blades
    sum into the two halves of one ``np.bincount``.  A bin of K belongs to
    one row, so it sums its blades in blade order whatever the chunks and
    groups, and each K is bit-equal to that of its operator alone.  K is
    complex."""
    coeff = blades.coefficients(r.matrix)
    d, count = blades.dim, blades.count
    k = _k_zeros(len(coeff), d, complex)
    # bytes per entry: its column, value and bin offset; per entry and
    # operator: its weight and bin; per row and operator: two rows of bins
    per_entry, per_op_row = 32, 16 * count + 16 * d
    budget = numerics.CHUNK_BYTES
    step = max(1, budget // (count * per_entry + per_op_row))
    for lo in range(0, d, step):
        hi = min(d, lo + step)
        span = (hi - lo) * d
        col, val = blades.entries(lo, hi)
        # a real blade sums into bins [0, span), an imaginary one into [span, 2 span)
        flat = col + np.where(blades.imaginary, span, 0)
        flat += np.arange(hi - lo)[:, None] * d
        group = max(1, (budget - (hi - lo) * count * per_entry) // ((hi - lo) * per_op_row))
        for t in range(0, len(coeff), group):
            c = coeff[t : t + group]
            # operator t + s sums into bins 2 s span + flat
            bins = (np.arange(len(c))[:, None, None] * (2 * span) + flat).ravel()
            sums = np.bincount(bins, (c[:, None] * val).ravel(), 2 * len(c) * span).reshape(len(c), 2, hi - lo, d)
            k.real[t : t + group, lo:hi] = sums[:, 0]
            k.imag[t : t + group, lo:hi] = sums[:, 1]
    return k.reshape(r.matrix.shape[:-2] + (d, d))


def k_term(r: CurvatureOperator, rep: Rep) -> CurvatureEndomorphism:
    """Curvature endomorphism of a representation, with spectrum, refused first if it cannot fit."""
    dtype = complex if rep.clifford is not None or np.any(rep.table.val.imag) else float
    require_k_term(rep.dim, dtype, sum(a.nbytes for a in rep.table))
    k = k_matrix(r, rep)
    numerics.as_matrix(k, k.dtype)  # refuses non-finite entries
    # the spectrum is that of the Hermitian part H; how far K is from it,
    # ||K - K*|| = 2 ||K - H||, is left to the caller's verdict
    h = (k + k.conj().T) / 2.0
    residual = 2.0 * float(np.linalg.norm(k - h)) / max(1.0, float(np.linalg.norm(k)))
    w = np.linalg.eigvalsh(numerics.real_if_exact(h))
    return CurvatureEndomorphism(
        rep_label=rep.label, matrix=k, spectrum=w, self_adjoint_residual=residual
    )


# ---------------------------------------------------------------------------
# Projection lemma verifier
# ---------------------------------------------------------------------------


class LemmaPreconditionError(ValueError):
    """A stated hypothesis of the projection identity fails for these inputs."""


def _transitive(perms: list[tuple[int, ...]], k: int) -> bool:
    reach = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for s in frontier:
            for p in perms:
                for t in (p[s], p.index(s)):
                    if t not in reach:
                        reach.add(t)
                        nxt.append(t)
        frontier = nxt
    return len(reach) == k


def _on_slots(a: np.ndarray, slots: np.ndarray, which: tuple[int, ...]) -> np.ndarray:
    """A (T, d^s, d^s) stack of operators on the tensor slots ``which`` (s of
    them, in the order listed) applied to Q reshaped to ``slots`` =
    ``(d,)*k + (m,)``: the slots moved to the front, one matmul, and moved
    back.  Returns a (T,) + ``slots.shape`` view; each operator's block is
    bit-equal to that of the operator alone."""
    s = len(which)
    front = np.moveaxis(slots, which, range(s))
    out = (a @ front.reshape(a.shape[-1], -1)).reshape((len(a),) + front.shape)
    return np.moveaxis(out, range(1, s + 1), [w + 1 for w in which])


def _generator_action(g: np.ndarray, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``Y1_a = (rho_a (x) 1) Q`` and ``Y_a = P_a Q``, ``P_a`` the sum of
    rho_a over the k slots, as two (N, d^k, m) stacks, from the dense
    generators ``g`` of rho acting on one slot at a time."""
    y1 = _on_slots(g, slots, (0,))
    y = y1.copy()
    for i in range(1, slots.ndim - 1):
        y += _on_slots(g, slots, (i,))
    return y1.reshape(len(g), -1, slots.shape[-1]), y.reshape(len(g), -1, slots.shape[-1])


def _twisted_gram(y1: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (N, N, m, m) Gram ``Y1_a^H Y_b`` of :func:`_generator_action`.
    The twisted term is ``W = -4 sum_ab R_ab (rho_a (x) 1) P_b``, so for
    skew-adjoint generators ``Q^H W Q = 4 sum_ab R_ab Y1_a^H Y_b``; for
    k = 1, Y1 = Y."""
    return y1.conj().swapaxes(1, 2)[:, None] @ y[None]


def _restricted_k(r: CurvatureOperator, rho: Rep, g: np.ndarray, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``Q^H K Q`` and ``||K||`` for K on the k-th tensor power of ``rho``
    (dense generators ``g``), one of each per operator of the stack, without K.

    ``K = sum_ab R_ab P_a P_b`` splits into one-slot terms ``K1^(i)``, K1 the
    K of ``rho`` (:func:`k_matrix`), and two-slot terms ``M^(ij)``, i != j,
    with ``M = sum_ab R_ab rho_a (x) rho_b`` on d^2 dimensions; each acts on
    Q by :func:`_on_slots`.  The generators are traceless, so every term of
    ``tr(K^H K)`` that leaves one generator alone in a slot vanishes:
    ``||K||^2 = k d^(k-1) ||K1||^2 + k(k-1) d^(k-2) ((tr K1)^2 + tr(RtRt) +
    tr(tRtR^T))`` with ``t_ab = tr(rho_a rho_b)``.  The largest arrays are the
    (T, d^2, d^2) M and (T, d^k, m) K Q."""
    k, d = slots.ndim - 1, rho.dim
    mat = r.matrix.reshape(-1, rho.count, rho.count)
    k1 = k_matrix(r, rho).reshape(-1, d, d)
    flat = g.reshape(len(g), -1)
    # M[t, (i, k), (j, l)] = sum_ab R_ab rho_a[i, j] rho_b[k, l]
    pair = (flat.T @ (mat @ flat)).reshape((-1,) + (d,) * 4).transpose(0, 1, 3, 2, 4).reshape(-1, d * d, d * d)
    kq = np.zeros((len(mat),) + slots.shape, dtype=complex)
    for i in range(k):
        kq += _on_slots(k1, slots, (i,))
    for ij in itertools.permutations(range(k), 2):
        kq += _on_slots(pair, slots, ij)
    restricted = slots.reshape(-1, slots.shape[-1]).conj().T @ kq.reshape(len(mat), -1, slots.shape[-1])
    t = np.einsum("aij,bji->ab", g, g).real
    rt, trt = mat @ t, t @ mat @ t

    def total(x):
        return x.reshape(len(mat), -1).sum(axis=1)

    one_slot = total(np.abs(k1) ** 2)
    two_slot = total(mat * t) ** 2 + total(rt * rt.swapaxes(1, 2)) + total(trt * mat)
    knorm = np.sqrt(k * d ** (k - 1) * one_slot + k * (k - 1) * d ** (k - 2.0) * two_slot)
    return restricted, knorm


def lemma_check(
    ops: Sequence[CurvatureOperator],
    k: int,
    e_columns: np.ndarray,
    gamma_generators: list[tuple[int, ...]],
    tol: float = 1e-9,
) -> list[CheckReport]:
    """Verify ``P K P = -(k/4) P W P`` on a permutation-fixed subspace E of the
    k-th tensor power of the spinor space, once for each curvature operator.

    E is given by orthonormal columns Q, P = Q Q^H, and both sides are
    compared as ``Q^H K Q`` and ``Q^H W Q``, since ``||P X P|| = ||Q^H X Q||``.
    Preconditions (violations raise :class:`LemmaPreconditionError`): the
    columns must be orthonormal and span a subspace invariant under the spin
    action and pointwise fixed by every listed permutation of the tensor
    slots, and the permutations must generate a transitive group on the k
    slots.  They do not depend on R, so they are checked once per call, on
    Q alone.  Nothing of dimension d^k x d^k is formed, nor the tensor
    power's table: every operator acts on Q reshaped to ``(d,)*k + (m,)``,
    one or two slots at a time, with the generators scattered from the
    table into one (N, d, d) array, d <= 4 at the suites' n = 3 and 4.  ``Q^H K Q`` and ``||K||`` come from the
    one-slot and two-slot parts of K (:func:`_restricted_k`); W is formed
    only on E, from the Gram of :func:`_twisted_gram`, so the two sides are
    computed by independent paths.  The operators must be a non-empty
    sequence on one so(n); an entry may be a stack, whose trials are
    computed together, and the reports follow the operators in order.
    """
    from .so_algebra import basis as so_basis

    ops = list(ops)
    if not ops:
        raise ValueError("lemma_check needs at least one curvature operator")
    if any(r.n != ops[0].n for r in ops):
        raise ValueError(f"curvature operators live on different so(n): n in {sorted({r.n for r in ops})}")
    n = ops[0].n
    rho = spinmod.rep_spin(so_basis(n))
    d = rho.dim
    q = np.asarray(e_columns, dtype=complex)
    if q.ndim != 2 or q.shape[0] != d ** k:
        raise ValueError(f"E columns must form a matrix with {d ** k} rows for n={n}, k={k}")
    m = q.shape[1]
    if not np.linalg.norm(q.conj().T @ q - np.eye(m)) <= 1e-9:  # NaN fails too
        raise LemmaPreconditionError("E columns are not orthonormal")
    scale = max(1.0, float(np.linalg.norm(q)))
    slots = q.reshape((d,) * k + (m,))
    g = np.zeros((rho.count, d, d), dtype=complex)
    g[rho.table.gen, rho.table.row, rho.table.col] = rho.table.val
    y1, y = _generator_action(g, slots)
    # ||P_a||^2 = k d^(k-1) ||rho_a||^2: the cross terms are traces of rho_a
    gen_norm = float(np.sqrt(k * d ** (k - 1)) * np.linalg.norm(g, axis=(1, 2)).max())
    off = q @ (q.conj().T @ y)
    off -= y
    if np.linalg.norm(off, axis=(1, 2)).max() > 1e-9 * max(1.0, gen_norm):
        raise LemmaPreconditionError("E is not invariant under the spin action")
    if not gamma_generators:
        raise LemmaPreconditionError("no permutation generators given")
    for perm in gamma_generators:
        if len(perm) != k:
            raise LemmaPreconditionError(f"permutation {perm} does not act on {k} letters")
        if sorted(perm) != list(range(k)):
            raise LemmaPreconditionError(f"{perm} is not a permutation of 0..{k - 1}")
        # the slots of Q moved by perm: a vector is fixed by a permutation
        # exactly when it is fixed by its inverse, so either convention serves
        if np.linalg.norm(slots.transpose(*perm, k) - slots) > 1e-9 * scale:
            raise LemmaPreconditionError(f"permutation {perm} does not fix the subspace pointwise")
    if not _transitive([tuple(p) for p in gamma_generators], k):
        raise LemmaPreconditionError("the permutation group is not transitive on the factors")

    gram = _twisted_gram(y1, y)
    del y1, y, off  # the trials need only the Gram
    out = []
    for batch in ops:
        restricted, knorm = _restricted_k(batch, rho, g, slots)
        for r, rk, kn in zip(batch.unstack(), restricted, knorm):
            out.append(_lemma_report(r, rk, float(kn), gram, k, gamma_generators, tol))
    return out


def _lemma_report(
    r: CurvatureOperator,
    restricted: np.ndarray,
    knorm: float,
    gram: np.ndarray,
    k: int,
    gamma_generators: list[tuple[int, ...]],
    tol: float,
) -> CheckReport:
    """The report of one operator, given ``Q^H K Q`` and ``||K||`` of
    :func:`_restricted_k` and the Gram of :func:`_twisted_gram`."""
    w_restricted = 4.0 * np.tensordot(r.matrix, gram, axes=2)
    residual = float(np.linalg.norm(restricted + (k / 4.0) * w_restricted))
    tolerance = tol * (1.0 + knorm)
    spectrum, _ = numerics.eig_hermitian(restricted, hermitian_tol=1e-8)
    return CheckReport(
        check=f"projection-lemma-k{k}",
        inputs={
            "curvature": digest(r.matrix),
            "n": r.n,
            "k": k,
            "generators": [list(g) for g in gamma_generators],
            "subspace_dim": int(restricted.shape[0]),
        },
        residual=residual,
        tolerance=tolerance,
        passed=residual <= tolerance,
        spectrum=[float(x) for x in spectrum],
        details={"t": -4.0 / k, "k_norm": knorm},
    )


# ---------------------------------------------------------------------------
# Positivity analysis
# ---------------------------------------------------------------------------


class PositivityEntry(NamedTuple):
    label: str
    dim: int
    irreducible: bool
    min_eig_neg_k: float
    verdict: str


class PositivityReport:
    def __init__(
        self, curvature_digest: str, r_spectrum: list, entries: list[PositivityEntry], overall: str, diagnostic: dict
    ):
        self.curvature_digest, self.r_spectrum, self.entries = curvature_digest, r_spectrum, entries
        self.overall, self.diagnostic = overall, diagnostic

    def to_dict(self) -> dict:
        return {
            "curvature": self.curvature_digest,
            "r_spectrum": [float(x) for x in self.r_spectrum],
            "entries": [
                {
                    "label": e.label,
                    "dim": e.dim,
                    "irreducible": e.irreducible,
                    "min_eig_neg_k": float(e.min_eig_neg_k),
                    "verdict": e.verdict,
                }
                for e in self.entries
            ],
            "overall": self.overall,
            "diagnostic": self.diagnostic,
        }


def standard_family(basis: SoBasis) -> list[Rep]:
    """Default representation family: vector, exterior powers 2 <= p < n/2,
    trace-free Sym^2, spin (half-spins for even n), adjoint for n >= 3
    (so(2) is abelian, so its adjoint is trivial)."""
    n = basis.n
    fam = [rep_vector(basis)]
    fam.extend(rep_exterior(basis, p) for p in range(2, (n + 1) // 2))
    fam.append(rep_sym0(basis))
    if n % 2 == 0:
        fam.append(spinmod.rep_half_spin(basis, +1))
        fam.append(spinmod.rep_half_spin(basis, -1))
    else:
        fam.append(spinmod.rep_spin(basis))
    # ad is the derivation action on 2-forms: for n >= 5 it shares the table
    # of the family's exterior(2), so each result on it is computed once
    if n >= 3:
        fam.append(fam[1].relabeled("adjoint") if n >= 5 else rep_adjoint(basis))
    return fam


def neg_k_spectrum(r: CurvatureOperator, rep: Rep) -> np.ndarray:
    """Eigenvalues of -K on ``rep``, from the Hermitian part of K; for a
    stack of operators, one row of eigenvalues per operator."""
    k = k_matrix(r, rep)
    return -np.linalg.eigvalsh(numerics.real_if_exact((k + k.conj().swapaxes(-1, -2)) / 2.0))


def _classify_neg_k(r: CurvatureOperator, rep: Rep, tol: float) -> tuple[float, str]:
    """Smallest eigenvalue of -K on ``rep`` and its positivity verdict:
    positive, semi-definite, negative (definite or semi-definite) or
    indefinite (a NaN spectrum included)."""
    neg_w = neg_k_spectrum(r, rep)
    return float(np.min(neg_w)), _VERDICTS[definiteness(neg_w, tol)]


#: The positivity verdict of each sign class of -K.
_VERDICTS = {
    "positive-definite": "positive",
    "positive-semidefinite": "semi-definite",
    "zero": "semi-definite",
    "indefinite": "indefinite",
    "negative-semidefinite": "negative",
    "negative-definite": "negative",
}

#: The verdicts of an entry where -K has an eigenvalue below -tol, each one
#: a counterexample of the converse search.
_NEGATIVE_DIRECTION = ("negative", "indefinite")

#: The largest dimension of a pairwise tensor product that the converse
#: search of :func:`positivity_report` tries.
SEARCH_DIM_CAP = 4096


def _negative_direction(r: CurvatureOperator, rep: Rep, tol: float) -> bool:
    """Whether -K on ``rep`` has an eigenvalue below -tol, the verdicts
    :data:`_NEGATIVE_DIRECTION` of :func:`_classify_neg_k`, from one
    Cholesky factorisation and no eigenvalues: ``tol Id - H`` is not
    positive definite, H the Hermitian part of K.  A NaN in H fails it, as
    a NaN spectrum is "indefinite".  ``tol Id - H`` is formed in place, so
    that no more than three d x d arrays are held at once."""
    k = k_matrix(r, rep)
    h = k.conj().T
    h += k
    h /= -2.0
    del k
    h = numerics.real_if_exact(h)
    h.flat[:: len(h) + 1] += tol
    return not numerics.positive_definite(h)


def _entry_for(r: CurvatureOperator, rep: Rep, tol: float) -> PositivityEntry:
    min_eig, verdict = _classify_neg_k(r, rep, tol)
    return PositivityEntry(
        label=rep.label,
        dim=rep.dim,
        irreducible=commutant_dimension(rep) == 1,
        min_eig_neg_k=min_eig,
        verdict=verdict,
    )


def positivity_report(
    r: CurvatureOperator,
    reps: list[Rep] | None = None,
    tol: float = 1e-9,
) -> PositivityReport:
    """Positivity of -K across a family of representations.

    Forward direction: a positive-definite curvature operator must make -K
    positive on every representation without trivial summands.  When the
    operator has a negative direction, a finite counterexample search runs
    over the family and pairwise tensor products up to :data:`SEARCH_DIM_CAP`
    total dimension; that search is reported as DIAGNOSTIC only, because the
    genuine converse quantifies over all representations.  The search only
    asks whether -K has a negative direction on each product, by one
    Cholesky factorisation (:func:`_negative_direction`); the spectrum and
    irreducibility are computed for the family entries alone.
    """
    from .so_algebra import basis as so_basis

    if reps is None:
        reps = standard_family(so_basis(r.n))
    if not reps:
        raise ValueError("positivity_report needs a non-empty representation family")
    r_eigs = np.linalg.eigvalsh(r.matrix)
    # family members and products that share their tables share every result
    by_table: dict = {}
    for rep in reps:
        if id(rep.table) not in by_table:
            by_table[id(rep.table)] = _entry_for(r, rep, tol)
    entries = [by_table[id(rep.table)]._replace(label=rep.label) for rep in reps]
    diagnostic: dict = {}
    if np.min(r_eigs) > tol:
        bad = [e.label for e in entries if e.verdict != "positive"]
        overall = (
            "positive curvature operator: -K positive on the whole family"
            if not bad
            else f"FORWARD-VIOLATION: non-positive entries {bad}"
        )
    elif np.min(r_eigs) >= -tol:
        overall = "semi-definite curvature operator: vanishing predicts parallel sections only"
    else:
        counterexamples = [e.label for e in entries if e.verdict in _NEGATIVE_DIRECTION]
        searched = [e.label for e in entries]
        negative: dict = {}
        for ra, rb in itertools.combinations_with_replacement(reps, 2):
            if ra.dim * rb.dim > SEARCH_DIM_CAP:
                continue
            t = rep_tensor(ra, rb)
            searched.append(t.label)
            key = (id(ra.table), id(rb.table))
            if key not in negative:
                negative[key] = _negative_direction(r, t, tol)
            if negative[key]:
                counterexamples.append(t.label)
        diagnostic = {
            "searched": searched,
            "counterexamples": sorted(set(counterexamples)),
            "note": "finite search; the converse direction quantifies over all representations",
        }
        overall = (
            "curvature operator not positive: counterexample representations found (DIAGNOSTIC)"
            if counterexamples
            else "curvature operator not positive: no counterexample within the finite family (DIAGNOSTIC)"
        )
    return PositivityReport(
        curvature_digest=digest(r.matrix),
        r_spectrum=[float(x) for x in r_eigs],
        entries=entries,
        overall=overall,
        diagnostic=diagnostic,
    )


def definiteness(w: np.ndarray, tol: float) -> str:
    """Sign class of a real spectrum: each extreme eigenvalue counts as
    positive above ``tol``, negative below ``-tol`` and zero in between.  An
    empty spectrum is ``"zero"``; a NaN extreme fails every comparison, so a
    NaN spectrum is ``"indefinite"``."""
    w = np.asarray(w)
    low, high = (float(np.min(w)), float(np.max(w))) if w.size else (0.0, 0.0)
    low_sign = 1 if low > tol else 0 if low >= -tol else -1
    high_sign = -1 if high < -tol else 0 if high <= tol else 1
    return {
        (1, 1): "positive-definite",
        (0, 1): "positive-semidefinite",
        (0, 0): "zero",
        (-1, 1): "indefinite",
        (-1, 0): "negative-semidefinite",
        (-1, -1): "negative-definite",
    }[low_sign, high_sign]


def vanishing_conclusion(label: str) -> str:
    """Pointwise vanishing conclusion from the :func:`definiteness` of the
    curvature term ``t K``: strictly positive kills the null space,
    semi-definite leaves only parallel sections, a negative direction gives
    no conclusion."""
    conclusion = {"positive-definite": "vanishes", "zero": "parallel-only", "positive-semidefinite": "parallel-only"}
    return conclusion.get(label, "no-conclusion")

