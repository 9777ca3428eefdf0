"""Representations of so(n) and its subalgebras as explicit generator tables.

A :class:`Rep` stores one endomorphism per orthonormal basis element of the
algebra (so(n) or a subalgebra), acting on a complex vector space with an
orthonormal basis, so every constructed action is skew-adjoint.  Tensor,
exterior and symmetric powers act by derivations.

The endomorphisms are stored as one table of their nonzero entries
(:class:`GenTable`); the dense matrices are views built on demand.
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
    stored as the table of their nonzero entries.  ``mats`` and
    :meth:`stacked` are dense read-only views, built on first use and kept.

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

    @classmethod
    def from_mats(cls, basis: SoBasis | Subalgebra, dim: int, mats, label: str) -> Rep:
        """Rep from dense generators, read one at a time, so an iterable of
        matrices computed on the fly never exists as a whole stack."""
        parts = []
        for a, m in enumerate(mats):
            m = np.asarray(m, dtype=complex)
            row, col = np.nonzero(m)
            parts.append((np.full(len(row), a), row, col, m[row, col]))
        gen, row, col, val = (np.concatenate(p) for p in zip(*parts)) if parts else ([], [], [], [])
        return cls(basis=basis, dim=dim, table=gen_table(gen, row, col, val, dim), label=label)

    @property
    def count(self) -> int:
        """Number of generators, one per basis element."""
        return len(self.basis.elements)

    @functools.cached_property
    def _dense(self) -> np.ndarray:
        out = np.zeros((self.count, self.dim, self.dim), dtype=complex)
        out[self.table.gen, self.table.row, self.table.col] = self.table.val
        out.flags.writeable = False
        return out

    @functools.cached_property
    def mats(self) -> tuple[np.ndarray, ...]:
        return tuple(self._dense)

    def stacked(self) -> np.ndarray:
        return self._dense


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
    return Rep.from_mats(basis, basis.n, basis.elements, "vector")


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
    """Restrict a representation of so(n) to a subalgebra (by expanding the
    orthonormalised generators of h over the so(n) basis)."""
    if not isinstance(r.basis, SoBasis):
        raise ValueError("can only restrict a representation of the full so(n)")
    if h.ambient.n != r.basis.n:
        raise ValueError(f"subalgebra ambient so({h.ambient.n}) does not match rep over so({r.basis.n})")
    stacked = r.stacked()
    mats = (np.tensordot(expand(r.basis, g), stacked, axes=(0, 0)) for g in h.elements)
    return Rep.from_mats(h, r.dim, mats, f"{r.label}|{h.label}")


# ---------------------------------------------------------------------------
# Invariants: commutants, Casimir, isotypic pieces
# ---------------------------------------------------------------------------


def casimir(r: Rep) -> np.ndarray:
    """Quadratic Casimir ``sum_a rho(x_a)^2`` over the orthonormal basis."""
    m = r.stacked()
    return np.einsum("aij,ajk->ik", m, m)


#: Relative cutoff of :func:`intertwiners`: an eigenvalue of G at or below
#: this multiple of the largest counts as zero.  On the constructed reps the
#: kernel's are rounding dust (<= 1e-15 relative) and the rest >= 1/40 of it.
KERNEL_TOL = 1e-9


def intertwiners(r1: Rep, r2: Rep) -> list[np.ndarray]:
    """Orthonormal basis (Frobenius) of ``{T : sigma(x_a) T = T rho(x_a)}``,
    maps from the space of ``r1`` (rho) to that of ``r2`` (sigma): the kernel
    of ``G = sum_a B_a^H B_a``, ``B_a = sigma_a (x) 1 - 1 (x) rho_a^T`` acting
    on the row-major ``vec T``, from one Hermitian eigendecomposition.  For
    skew-adjoint generators G is minus the Casimir of Hom(rho, sigma).  When
    both tables are real, G is built from the real stacks, solved by the real
    symmetric solver, and the intertwiners are real.

    G has ``(d1 d2)^2`` entries, and a solve that cannot fit is refused
    before G is formed (:func:`numerics.require_bytes`): with G's Kronecker
    temporaries and the eigensolver's copy, workspace and eigenvectors, the
    peak measured 7.0 to 7.7 entries of G's dtype per entry of G, and 8 are
    reserved."""
    if not _same_basis(r1, r2):
        raise ValueError("intertwiners need representations over the same basis")
    d1, d2 = r1.dim, r2.dim
    real = not (np.any(r1.table.val.imag) or np.any(r2.table.val.imag))
    numerics.require_bytes(
        8 * (8 if real else 16) * (d1 * d2) ** 2,
        f"the commutant solve of {r1.label} and {r2.label} (G has {(d1 * d2) ** 2} entries)",
    )
    rho, sigma = (r.stacked().real if real else r.stacked() for r in (r1, r2))
    cross = numerics.kron_sum(sigma.conj().transpose(0, 2, 1), rho.transpose(0, 2, 1))
    g = np.kron(np.einsum("aji,ajk->ik", sigma.conj(), sigma), np.eye(d1)) - cross
    g += np.kron(np.eye(d2), np.einsum("aij,akj->ik", rho.conj(), rho)) - cross.conj().T
    w, v = numerics.eig_hermitian(g)
    kernel = v[:, w <= KERNEL_TOL * w[-1]]
    return [kernel[:, k].reshape(d2, d1) for k in range(kernel.shape[1])]


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
    per isotypic piece V (x) C^m.  The Hermitian part of a pseudorandom
    (seeded, recorded by callers) complex combination of the commutant's
    orthonormal basis T_k acts on each piece as 1 (x) A with A generic, so
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
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(len(comm)) + 1j * rng.standard_normal(len(comm))
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
