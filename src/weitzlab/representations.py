"""Representations of so(n) and its subalgebras as explicit generator tables.

A :class:`Rep` stores one endomorphism per orthonormal basis element of the
algebra (so(n) or a subalgebra), acting on a complex vector space with an
orthonormal basis, so every constructed action is skew-adjoint.  Tensor,
exterior and symmetric powers act by derivations.

The endomorphisms are stored as one table of their nonzero entries
(:class:`GenTable`), the only form of a representation: restriction, the
Casimir and the commutant read it, and no (N, dim, dim) stack is formed.
Representations are stored extensionally; no symbolic machinery.
"""

from __future__ import annotations

import functools
import itertools
from math import comb
from typing import NamedTuple

import numpy as np

from . import numerics
from .so_algebra import SoBasis, Subalgebra, expand

__all__ = [
    "GenTable",
    "IsotypicPiece",
    "Rep",
    "casimir",
    "commutant_dimension",
    "conjugated_table",
    "intertwiners",
    "isotypic_decompose",
    "rep_adjoint",
    "rep_exterior",
    "rep_restrict",
    "rep_standard",
    "rep_sym",
    "rep_sym0",
    "rep_tensor",
    "rep_trivial",
    "rep_vector",
]


class GenTable(NamedTuple):
    """Nonzero generator entries, ``rho(x_gen)[row, col] = val``: one entry
    per position, exact zeros left out, sorted by (gen, row, col)."""

    gen: np.ndarray
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray


def gen_table(gen, row, col, val, dim: int) -> GenTable:
    """Canonical :class:`GenTable` from entries in any order: the entries of
    one position are summed in the order given, and sums that are exactly
    zero are dropped."""
    gen, row, col = (np.asarray(a, dtype=np.intp) for a in (gen, row, col))
    val = np.asarray(val, dtype=complex)
    key, where = np.unique((gen * dim + row) * dim + col, return_inverse=True)
    total = np.empty(len(key), dtype=complex)
    total.real = np.bincount(where, val.real, len(key))
    total.imag = np.bincount(where, val.imag, len(key))
    keep = total != 0
    key = key[keep]
    return GenTable(key // (dim * dim), key // dim % dim, key % dim, total[keep])


class Rep:
    """Matrix representation: one complex ``dim x dim`` matrix per generator,
    stored as the table of their nonzero entries.

    ``clifford`` marks the spin and half-spin representations of so(n): it
    holds the Clifford blade of each generator (:class:`spin.SpinorBlades`),
    from which K is assembled without the table join.  Only those two
    constructors set it; a rep built any other way carries None."""

    def __init__(self, basis: SoBasis | Subalgebra, dim: int, table: GenTable, label: str, clifford=None):
        self.basis, self.dim, self.table, self.label = basis, dim, table, label
        self.clifford = clifford

    def relabeled(self, label: str) -> Rep:
        """The same representation, sharing its table and its Clifford mark,
        under another label."""
        return Rep(self.basis, self.dim, self.table, label, self.clifford)

    @property
    def count(self) -> int:
        """Number of generators, one per basis element."""
        return len(self.basis.elements)


def _partners(rows: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (item, nonzero) pair of items on ``rows`` with the nonzeros of
    their row, the nonzeros of row i being ``start[i]:start[i + 1]``:
    the item indices and the nonzero indices, item-major."""
    count = start[rows + 1] - start[rows]
    item = np.repeat(np.arange(len(rows)), count)
    run = np.arange(len(item)) - np.repeat(np.cumsum(count) - count, count)
    return item, start[rows][item] + run


def conjugated_table(t: GenTable, cols: np.ndarray) -> GenTable:
    """Table of ``cols^H m cols`` for every generator m of ``t``, by a join
    of the table with the nonzeros of ``cols``: an entry ``m[i, j] = v``
    meets every nonzero ``cols[i, k]`` and ``cols[j, l]`` and adds
    ``conj(cols[i, k]) v cols[j, l]`` at (k, l), the product taken in the
    order of the dense ``(cols^H m) cols``."""
    ci, ck = np.nonzero(cols)  # row-major, so sorted by row
    start = np.searchsorted(ci, np.arange(len(cols) + 1))
    entry, left = _partners(t.row, start)
    pair, right = _partners(t.col[entry], start)
    entry, left = entry[pair], left[pair]
    val = cols[ci[left], ck[left]].conj() * t.val[entry] * cols[ci[right], ck[right]]
    return gen_table(t.gen[entry], ck[left], ck[right], val, cols.shape[1])


def _same_basis(r1: Rep, r2: Rep) -> bool:
    if r1.basis is r2.basis:
        return True
    b1, b2 = r1.basis.elements, r2.basis.elements
    return len(b1) == len(b2) and all(np.array_equal(x, y) for x, y in zip(b1, b2))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def rep_trivial(basis: SoBasis | Subalgebra) -> Rep:
    return Rep(basis=basis, dim=1, table=gen_table([], [], [], [], 1), label="trivial")


def rep_vector(basis: SoBasis) -> Rep:
    elements = np.array(basis.elements)
    gen, row, col = np.nonzero(elements)
    return Rep(basis, basis.n, gen_table(gen, row, col, elements[gen, row, col], basis.n), "vector")


def rep_adjoint(basis: SoBasis) -> Rep:
    """ad of so(n) on itself in the orthonormal basis.  The basis element
    x_ij is e_i ^ e_j, and ad is the derivation action on 2-forms, so this
    is ``rep_exterior(basis, 2)`` under its own label."""
    return rep_exterior(basis, 2).relabeled("adjoint")


def _lex_rank(c: np.ndarray, m: int) -> np.ndarray:
    """Position of each strictly increasing row of ``c`` (entries below m)
    in ``itertools.combinations(range(m), p)``.  The combinations after c
    agree with it up to some slot k and exceed it there, so they number
    sum_k C(m-1-c_k, p-k); only values up to the dimension are ever formed."""
    p = c.shape[1]
    after = np.zeros(len(c), dtype=np.intp)
    for k in range(p):
        after += np.array([comb(m - 1 - v, p - k) for v in range(k, m - p + k + 1)])[c[:, k] - k]
    return comb(m, p) - 1 - after


def _derivation_table(n: int, p: int, alternating: bool) -> tuple[np.ndarray, ...]:
    """Index table of the derivation action of an n x n matrix x on Lambda^p
    (``alternating``) or Sym^p, in the orthonormal monomial basis in
    lexicographic order.  One entry per basis monomial ``col``, slot holding
    index ``i`` and replacement ``j`` (Lambda^p skips a j already in the
    monomial), in that order: x adds ``weight * x[j, i]`` at ``(row, col)``.
    The weight is the sign of the sort that puts j in place on Lambda^p and
    sqrt(norm[row] / norm[col]) on Sym^p, the norm of a monomial being the
    product of the factorials of its multiplicities."""
    powers = itertools.combinations if alternating else itertools.combinations_with_replacement
    monos = np.array(list(powers(range(n), p)), dtype=np.intp)
    col, slot, j = (a.ravel() for a in np.indices((len(monos), p, n)))
    i = monos[col, slot]
    if alternating:
        keep = (j == i) | ~(monos[col] == j[:, None]).any(axis=1)
        col, slot, j, i = col[keep], slot[keep], j[keep], i[keep]
    src = monos[col]
    replaced = src.copy()
    replaced[np.arange(len(col)), slot] = j
    target = np.sort(replaced, axis=1)
    if alternating:
        row = _lex_rank(target, n)
        # j passes the monomial's indices strictly between i and j
        lo, hi = np.minimum(i, j)[:, None], np.maximum(i, j)[:, None]
        weight = 1.0 - 2.0 * (((src > lo) & (src < hi)).sum(axis=1) % 2)
    else:
        row = _lex_rank(target + np.arange(p), n + p - 1)
        factorial = np.cumprod([1.0, *range(1, p + 1)])
        norms = factorial[(monos[:, :, None] == np.arange(n)).sum(axis=1)].prod(axis=1)
        weight = np.sqrt(norms[row] / norms[col])
    return col, i, j, row, weight


def _power_table(basis: SoBasis, p: int, alternating: bool, dim: int) -> GenTable:
    """Generator table on Lambda^p or Sym^p: each :func:`_derivation_table`
    term taken with the generator whose x[j, i] is nonzero."""
    col, i, j, row, weight = _derivation_table(basis.n, p, alternating)
    x = rep_vector(basis).table
    # entry of the vector table at each position; the pair basis
    # x_ab = E_ab - E_ba has at most one generator nonzero there
    entry = np.full((basis.n, basis.n), -1)
    entry[x.row, x.col] = np.arange(len(x.val))
    term = np.flatnonzero(entry[j, i] >= 0)
    e = entry[j[term], i[term]]
    return gen_table(x.gen[e], row[term], col[term], weight[term] * x.val[e], dim)


def rep_exterior(basis: SoBasis, p: int) -> Rep:
    if not 0 <= p <= basis.n:
        raise ValueError(f"exterior power p={p} out of range for n={basis.n}")
    dim = comb(basis.n, p)
    return Rep(basis=basis, dim=dim, table=_power_table(basis, p, True, dim), label=f"exterior({p})")


def rep_sym(basis: SoBasis, p: int) -> Rep:
    if p < 1:
        raise ValueError("symmetric power needs p >= 1")
    dim = comb(basis.n + p - 1, p)
    return Rep(basis=basis, dim=dim, table=_power_table(basis, p, False, dim), label=f"sym({p})")


def rep_sym0(basis: SoBasis) -> Rep:
    """Trace-free part of Sym^2 (dimension n(n+1)/2 - 1)."""
    s2 = rep_sym(basis, 2)
    n = basis.n
    monos = list(itertools.combinations_with_replacement(range(n), 2))
    metric = np.zeros((s2.dim, 1), dtype=complex)
    for k, (i, j) in enumerate(monos):
        if i == j:
            metric[k, 0] = 1.0
    metric /= np.linalg.norm(metric)
    cols = numerics.nullspace(metric.conj().T)  # orthonormal complement of the metric vector
    return Rep(basis=basis, dim=s2.dim - 1, table=conjugated_table(s2.table, cols), label="sym0(2)")


def rep_standard(basis: SoBasis, kind: str, p: int | None = None) -> Rep:
    """Dispatcher: ``trivial | vector | adjoint | exterior (p) | sym (p) | sym0``."""
    if kind == "trivial":
        return rep_trivial(basis)
    if kind == "vector":
        return rep_vector(basis)
    if kind == "adjoint":
        return rep_adjoint(basis)
    if kind == "exterior":
        if p is None:
            raise ValueError("exterior needs a degree p")
        return rep_exterior(basis, p)
    if kind == "sym":
        if p is None:
            raise ValueError("sym needs a degree p")
        return rep_sym(basis, p)
    if kind == "sym0":
        return rep_sym0(basis)
    raise ValueError(f"unknown representation kind {kind!r}")


def rep_tensor(r1: Rep, r2: Rep) -> Rep:
    """Tensor product: generators act as ``rho(x) (x) 1 + 1 (x) sigma(x)``,
    whose table holds each entry of rho once per basis vector of sigma's
    space and each entry of sigma once per basis vector of rho's."""
    if not _same_basis(r1, r2):
        raise ValueError("tensor factors live over different bases")
    (t1, d1), (t2, d2) = (r1.table, r1.dim), (r2.table, r2.dim)
    k, i = np.arange(d2), np.arange(d1)[:, None]
    gen = np.concatenate([np.repeat(t1.gen, d2), np.tile(t2.gen, d1)])
    row = np.concatenate([(t1.row[:, None] * d2 + k).ravel(), (i * d2 + t2.row).ravel()])
    col = np.concatenate([(t1.col[:, None] * d2 + k).ravel(), (i * d2 + t2.col).ravel()])
    val = np.concatenate([np.repeat(t1.val, d2), np.tile(t2.val, d1)])
    table = gen_table(gen, row, col, val, d1 * d2)
    return Rep(basis=r1.basis, dim=d1 * d2, table=table, label=f"{r1.label}(x){r2.label}")


def rep_restrict(r: Rep, h: Subalgebra) -> Rep:
    """Restrict a representation of so(n) to a subalgebra: with c_j the
    expansion of the j-th orthonormal element of h over the so(n) basis,
    ``sum_a c_ja rho_a`` from the entries of every rho_a with ``c_ja != 0``."""
    if not isinstance(r.basis, SoBasis):
        raise ValueError("can only restrict a representation of the full so(n)")
    if h.ambient.n != r.basis.n:
        raise ValueError(f"subalgebra ambient so({h.ambient.n}) does not match rep over so({r.basis.n})")
    coeff = np.array([expand(r.basis, g) for g in h.elements]).reshape(-1, r.count)
    j, a = np.nonzero(coeff)  # row-major: sorted by j, then a
    t = r.table
    pair, entry = _partners(a, np.searchsorted(t.gen, np.arange(r.count + 1)))
    val = coeff[j[pair], a[pair]] * t.val[entry]
    return Rep(h, r.dim, gen_table(j[pair], t.row[entry], t.col[entry], val, r.dim), f"{r.label}|{h.label}")


# ---------------------------------------------------------------------------
# Invariants: commutants, Casimir, isotypic pieces
# ---------------------------------------------------------------------------


def casimir(r: Rep) -> np.ndarray:
    """Quadratic Casimir ``sum_a rho(x_a)^2`` over the orthonormal basis, as
    the a = b self-join of the table: each entry ``rho_a[i, j]`` meets the
    run of row j of the same generator, and one ``np.bincount`` sums the
    products, taken part by part (no fused multiply-add), in order of a, j."""
    t, d = r.table, r.dim
    start = np.searchsorted(t.gen * d + t.row, np.arange(r.count * d + 1))
    entry, right = _partners(t.gen * d + t.col, start)
    x, y = t.val[entry], t.val[right]
    bins = t.row[entry] * d + t.col[right]
    out = np.empty(d * d, dtype=complex)
    out.real = np.bincount(bins, x.real * y.real - x.imag * y.imag, d * d)
    out.imag = np.bincount(bins, x.real * y.imag + x.imag * y.real, d * d)
    return out.reshape(d, d)


#: Relative cutoff of :func:`intertwiners`: an eigenvalue of G at or below
#: this multiple of ``tr(sum_a sigma~^H sigma~) / d2 + tr(sum_a rho~ rho~^H)
#: / d1`` (minus the mean Casimir eigenvalues) counts as zero.  G's own
#: largest is rounding dust when its positions hold only the kernel.  On
#: the constructed reps the kernel's are <= 1e-15 of that scale, the rest
#: >= 1/40 of the full normal matrix's largest, of the same order.
KERNEL_TOL = 1e-9

#: Eigenvalues of iρ1(X) and iρ2(X) within this multiple of max(1, largest
#: |eigenvalue|) pair up.  Equal weights differ by rounding (<= 1e-14
#: relative); pairing distinct ones only adds unknowns.
WEIGHT_TOL = 1e-8

#: Entries of an intertwiner at or below this multiple of its largest are
#: rounding dust of the change of basis (<= 1e-15 relative) and set to zero.
DUST_TOL = 1e-13

#: 2^64 / φ rounded to odd: the step of the Weyl sequence of :func:`_golden`.
_GOLDEN = 0x9E3779B97F4A7C15


def _golden(count: int, seed: int = 0) -> np.ndarray:
    """``count`` fixed coefficients in [-1, 1), no two equal: 2 frac(k/φ) - 1
    for the integers k from ``seed * count + 1`` on, in 64-bit fixed point,
    so that every seed below 2^64 / count selects its own run."""
    k = np.arange(count, dtype=np.uint64) + np.uint64((seed * count + 1) % 2**64)
    return (k * np.uint64(_GOLDEN) >> np.uint64(11)) * 2.0**-52 - 1.0


def _torus_eigh(r: Rep, coeff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the Hermitian iρ(X), X = sum_a coeff[a] x_a."""
    m = np.zeros((r.dim, r.dim), dtype=complex)
    np.add.at(m, (r.table.row, r.table.col), 1j * coeff[r.table.gen] * r.table.val)
    return numerics.eig_hermitian(m)


def _generator(r: Rep, a: int) -> np.ndarray:
    """The dense ``rho(x_a)`` from its run of the table."""
    lo, hi = np.searchsorted(r.table.gen, (a, a + 1))
    m = np.zeros((r.dim, r.dim), dtype=complex)
    m[r.table.row[lo:hi], r.table.col[lo:hi]] = r.table.val[lo:hi]
    return m


def intertwiners(r1: Rep, r2: Rep) -> list[np.ndarray]:
    """Orthonormal basis (Frobenius) of ``{T : sigma(x_a) T = T rho(x_a)}``,
    maps from the space of ``r1`` (rho) to that of ``r2`` (sigma).

    Such a T commutes with ρ(X) for every X, so it maps each eigenspace of
    iρ(X) into the eigenspace of iσ(X) with the same eigenvalue.  For the
    fixed X of :func:`_golden` (no random state) and eigenbases U1, U2,
    ``A = U2^H T U1`` lives on the S positions whose eigenvalues pair up:
    sum of m_mu^2 for a commutant with weight multiplicities m_mu when X is
    regular, more when it is not.  A solves ``sigma~_a A = A rho~_a``,
    ``rho~_a = U1^H rho_a U1``, whose normal matrix on those positions is

        G[(ij),(kl)] = δ_jl (sum_a sigma~^H sigma~)[i,k]
                     + δ_ik (sum_a rho~ rho~^H)[l,j] - C[(ij),(kl)] - conj C[(kl),(ij)],
        C[(ij),(kl)] = sum_a conj(sigma~_a[k,i]) rho~_a[l,j],

    C summed one generator at a time, each rho_a and sigma_a formed dense
    from its run of the table.  Its kernel (one eigh, KERNEL_TOL)
    maps back by the unitary ``T = U2 A U1^H``.  When both tables are real
    the commutant is closed under conjugation, and the real and imaginary
    parts of the T are orthonormalised into as many real intertwiners.

    Each step is refused before it allocates if it cannot fit
    (:func:`numerics.require_bytes`): the eigendecompositions at 96 bytes
    per entry of d1^2 + d2^2 (5.8 x 16 measured), then the eigenbases, sums
    and one generator's products at 128 per entry of d1^2 + d2^2 (90 to 123
    traced) and G at 128 per entry of S^2 (a peak 0.7 of that share where
    it dominates)."""
    if not _same_basis(r1, r2):
        raise ValueError("intertwiners need representations over the same basis")
    return _intertwiners_at(r1, r2, _golden(r1.count))


def _intertwiners_at(r1: Rep, r2: Rep, coeff: np.ndarray) -> list[np.ndarray]:
    """:func:`intertwiners` from the eigenspaces of iρ(X), X = sum_a
    coeff[a] x_a."""
    d1, d2 = r1.dim, r2.dim
    numerics.require_bytes(96 * (d1 * d1 + d2 * d2), f"the torus eigendecompositions of {r1.label} and {r2.label}")
    w1, u1 = _torus_eigh(r1, coeff)
    w2, u2 = (w1, u1) if r2 is r1 else _torus_eigh(r2, coeff)
    tol = WEIGHT_TOL * np.max(np.abs(np.concatenate([w1, w2])), initial=1.0)
    i, j = np.nonzero(np.abs(w2[:, None] - w1) <= tol)
    size = len(i)
    numerics.require_bytes(
        128 * (d1 * d1 + d2 * d2 + size * size),
        f"the commutant solve of {r1.label} and {r2.label} ({size} unknowns)",
    )
    if size == 0:
        return []
    ii, jj = np.ix_(i, i), np.ix_(j, j)
    sum_ss, sum_rr = np.zeros((d2, d2), dtype=complex), np.zeros((d1, d1), dtype=complex)
    cross = np.zeros((size, size), dtype=complex)  # C transposed
    u1h, u2h = u1.conj().T, u2.conj().T
    for a in range(r1.count):
        rho = u1h @ _generator(r1, a) @ u1
        sigma = rho if r2 is r1 else u2h @ _generator(r2, a) @ u2
        sum_ss += sigma.conj().T @ sigma
        sum_rr += rho @ rho.conj().T
        cross += sigma[ii].conj() * rho[jj]
    g = (j[:, None] == j) * sum_ss[ii] + (i[:, None] == i) * sum_rr.T[jj]
    g -= cross.T + cross.conj()
    scale = np.trace(sum_ss).real / d2 + np.trace(sum_rr).real / d1
    w, v = numerics.eig_hermitian(g)
    kernel = v[:, w <= KERNEL_TOL * scale]
    if kernel.shape[1] == 0:
        return []
    a = np.zeros((kernel.shape[1], d2, d1), dtype=complex)
    a[:, i, j] = kernel.T
    t = u2 @ a @ u1h
    if not (np.any(r1.table.val.imag) or np.any(r2.table.val.imag)):
        parts = t.reshape(len(t), -1)
        parts = np.concatenate([parts.real, parts.imag])
        w, v = numerics.eig_hermitian(parts @ parts.T)  # eigenvalues 1 and 0, half each
        t = (v[:, w > 0.5].T @ parts).reshape(-1, d2, d1)
    t[np.abs(t) <= DUST_TOL * np.abs(t).max(axis=(1, 2), keepdims=True)] = 0.0
    return list(t)


def commutant_dimension(r: Rep, field: str = "C") -> int:
    """Dimension of the commutant over C, or over R for a rep by real
    matrices, whose real commutant has the complex one's dimension."""
    if field not in ("C", "R"):
        raise ValueError("field must be 'C' or 'R'")
    if field == "R" and np.any(r.table.val.imag):
        raise ValueError(f"the real commutant needs real matrices; {r.label} has complex entries")
    return len(intertwiners(r, r))


class IsotypicPiece(NamedTuple):
    """One isotypic block: orthogonal projector, its dimension, the dimension
    of the multiplicity space, and the Casimir eigenvalue on the block."""

    projector: np.ndarray
    dim: int
    multiplicity: int
    casimir_eigenvalue: float


def isotypic_decompose(r: Rep, seed: int = 0, cluster_tol: float = 1e-6) -> list[IsotypicPiece]:
    """Split a representation into isotypic pieces.

    By Schur's lemma the commutant is the sum of one matrix algebra M_m(C)
    per isotypic piece V (x) C^m.  The Hermitian part of a generic complex
    combination of the commutant's orthonormal basis T_k, whose coefficients
    ``seed`` selects from the closed-form sequence of :func:`_golden` (no
    random state), acts on each piece as 1 (x) A with A generic, so
    its eigenvalue clusters are irreducible subrepresentations E_p.  With
    Q_p the columns of cluster p, ``L[p, q] = sum_k ||Q_p^H T_k Q_q||^2``
    is dim Hom(E_q, E_p): 1 between equivalent clusters, 0 otherwise.  A
    piece joins the clusters linked to its first one, and its multiplicity
    is sqrt(sum of L over them), the square root of its commutant block's
    dimension.  The coefficients are complex: a real combination of a real
    rep's commutant has no antisymmetric Hermitian part, and the pieces a
    complex structure separates would merge.  Pieces are ordered by
    ascending Casimir eigenvalue, then by dimension, then by their projector
    entries, so the order does not depend on the basis :func:`intertwiners`
    happens to return.
    """
    comm = np.array(intertwiners(r, r))
    parts = _golden(2 * len(comm), seed)
    coeff = parts[: len(comm)] + 1j * parts[len(comm):]
    generic = np.tensordot(coeff, comm, axes=1)
    w, v = numerics.eig_hermitian((generic + generic.conj().T) / 2)
    scale = max(1.0, float(np.max(np.abs(w))))
    # eigenvalues ascend, so each cluster is a run of them
    opens = np.diff(w, prepend=-np.inf) > cluster_tol * scale
    cluster = np.cumsum(opens) - 1
    starts = np.flatnonzero(opens)
    # |Q^H T_k Q|^2 summed over k, then over each pair of clusters
    mass = np.sum(np.abs(v.conj().T @ comm @ v) ** 2, axis=0)
    links = np.add.reduceat(np.add.reduceat(mass, starts, axis=0), starts, axis=1)
    first = (links > 0.5).argmax(axis=1)
    cas = casimir(r)
    pieces = []
    for lead in sorted(set(first.tolist())):
        member = first == lead
        cols = v[:, member[cluster]]
        proj = numerics.projector(cols)
        lam = float(np.real(np.trace(cols.conj().T @ cas @ cols)) / cols.shape[1])
        mult = int(round(np.sqrt(links[np.ix_(member, member)].sum())))
        pieces.append(
            IsotypicPiece(projector=proj, dim=cols.shape[1], multiplicity=mult, casimir_eigenvalue=lam)
        )
    pieces.sort(key=functools.cmp_to_key(_piece_order))
    return pieces


def _piece_order(a: IsotypicPiece, b: IsotypicPiece) -> int:
    """Ascending Casimir eigenvalue, then dimension; pieces tied on both
    compare at the first projector entry where they differ, real part first."""
    ka = (round(a.casimir_eigenvalue, 9), a.dim)
    kb = (round(b.casimir_eigenvalue, 9), b.dim)
    if ka != kb:
        return -1 if ka < kb else 1
    diff = np.flatnonzero(np.abs(a.projector - b.projector) > 1e-9)
    if diff.size == 0:
        return 0
    x, y = a.projector.flat[diff[0]], b.projector.flat[diff[0]]
    if abs(x.real - y.real) > 1e-9:
        return -1 if x.real < y.real else 1
    return -1 if x.imag < y.imag else 1
