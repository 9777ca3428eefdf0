"""Clifford algebra generators, the spin representation and the symbol map
identifying spin (x) spin with the exterior algebra in even dimensions.

Generator conventions: ``e_i e_j + e_j e_i = -2 delta_ij``, each ``e_i``
unitary and skew-adjoint.  The construction is a fixed recursive scheme
(n -> n+2 by tensoring with 2x2 blocks), so every run produces the same
generators.  Each generator, and each product of generators, is a Pauli
string ``(x, z, phase)``: row r holds ``phase (-1)^|r & z|`` at column
``r ^ x`` (:func:`_row_entries`).  Strings multiply in closed form
(:func:`_product`), and every sign is a parity folded from the bits of an
int64 (:func:`_parity_signs`), so no spinor-sized array is formed until the
rows of one are asked for.  A basis element ``x_ij`` of so(n) acts on
spinors as ``-e_i e_j / 2``, whose blade is the bit set ``2^i + 2^j``.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import numerics
from .options import check_spinor_n
from .representations import Rep, gen_table
from .so_algebra import SoBasis

__all__ = [
    "SpinorBlades",
    "clifford_symbol",
    "half_spin_rows",
    "rep_half_spin",
    "rep_spin",
    "spinor_blades",
]

def _parity_signs(v) -> np.ndarray:
    """``(-1)^|v|`` (float32) of int64 bit sets ``v``, elementwise: the
    parity of the 64 bits, folded into bit 0 by xor-shifts, with no
    table.  Only the low 32 bits of the first fold are read on."""
    v = np.array(v, dtype=np.int64)  # a copy, folded in place
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> shift
    return (1 - 2 * (v & 1)).astype(np.float32)


def _row_entries(rows, x, z, phase):
    """The row formula of Pauli strings, broadcast over rows and strings:
    the column ``rows ^ x`` and the entry."""
    return rows ^ x, phase * _parity_signs(rows & z)


def _product(strings):
    """The product, left to right, of Pauli strings ``(x, z, phase)``,
    elementwise over arrays: row r of a meets row ``r ^ x_a`` of b, whose
    sign against row 0 is ``(-1)^|x_a & z_b|``."""

    def times(a, b):
        (xa, za, pa), (xb, zb, pb) = a, b
        return xa ^ xb, za ^ zb, pa * pb * _parity_signs(xa & zb)

    return functools.reduce(times, strings)


def _clifford_strings(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clifford generators on ``dim = 2^m`` dimensions, m = floor(n/2), as
    Pauli strings: ``x``, ``z`` and ``phase``, each of length n.

    Even ranks are built recursively from the seed pair [[0, 1], [-1, 0]]
    and [[0, i], [i, 0]]: each step tensors the old generators with
    diag(1, -1) and appends the seed pair on a fresh factor.  So generators
    2k and 2k+1 flip bit q = m - 1 - k, take the sign of every bit below q,
    and the first also that of bit q; their phases are 1 and i.  Odd ranks
    append the (suitably scaled) volume element of the even-rank algebra
    below."""
    if n < 2:
        raise ValueError("Clifford generators need n >= 2")
    check_spinor_n(n)  # blade masks are int64 bit sets
    m = n // 2
    x = np.repeat(1 << np.arange(m - 1, -1, -1), 2)
    z = x - 1 + x * np.tile([1, 0], m)
    phase = np.tile([1.0 + 0.0j, 1.0j], m)
    if n % 2 == 1:  # the volume element of the even rank below, scaled
        vx, vz, vp = _product(zip(x, z, phase))
        x, z, phase = np.append(x, vx), np.append(z, vz), np.append(phase, (1.0j if m % 2 == 0 else 1.0) * vp)
    return x, z, phase


class SpinorBlades:
    """The Clifford structure of a spin or half-spin representation, from
    which ``K = sum_ab R_ab rho_a rho_b`` is assembled blade by blade.

    With ``rho_a = -e_i e_j / 2`` for ``x_a = x_ij``, every product
    ``rho_a rho_b`` is +-1 times one matrix per blade ``e_B``, B the XOR of
    the generators' masks ``2^i + 2^j``, so ``K = sum_B c_B Gamma_B`` with
    ``c_B = sum_(a,b)->B s_ab R_ab``: at most 1 + C(n,2) + C(n,4) terms
    against N^2 products.  ``Gamma_B`` is ``rho_a rho_b`` for the first pair
    (a, b) of its blade, row-major, and ``s_ab`` the exact sign that turns
    it into ``rho_a rho_b``.

    The generators ``x``, ``z``, ``phase`` are Pauli strings on the full
    spinor space (of dimension ``size``), and so is each ``Gamma_B``
    (:func:`_product`), whose entries on any rows follow from the row
    formula (:meth:`entries`), with no (N, d) array kept.  ``rows`` are the
    rows of the full space a half-spin keeps, ascending, and None for spin,
    whose rows are formed a chunk at a time where they are read.  An even
    blade preserves chirality, so K on a half is that half's rows and
    columns of K on spin.  Each ``Gamma_B`` has phases all real or all
    imaginary, so a blade adds to the real or to the imaginary part of K
    alone."""

    def __init__(self, masks, x, z, phase, size: int, rows: np.ndarray | None = None):
        self.masks, self.x, self.z, self.phase, self.size = masks, x, z, phase, size
        # the blade of each pair, row-major, and the sign of its product
        # against the blade's first; blade 0 is empty, its mask 0 sorts first
        _, first, self.key = np.unique((masks[:, None] ^ masks).ravel(), return_index=True, return_inverse=True)
        bx, bz, lead = (a.ravel() for a in _product([(x[:, None], z[:, None], phase[:, None]), (x, z, phase)]))
        blade = lead[first]
        self.sign = np.where(lead == blade[self.key], 1.0, -1.0)
        # each blade's x_B and z_B (int32), whether its phases are imaginary,
        # and the real or imaginary part of its row-0 phase (float32, exact: +-1/4)
        self.bx, self.bz, self.imaginary = bx[first].astype(np.int32), bz[first].astype(np.int32), blade.imag != 0
        self.value = np.where(self.imaginary, blade.imag, blade.real).astype(np.float32)
        self.count = len(first)
        self._pos = None  # position among rows of each row of the full space
        if rows is not None:
            self._pos = np.full(size, -1, dtype=np.int32)
            self._pos[rows] = np.arange(len(rows))
        self.rows = None if rows is None else rows.astype(np.int32)
        self.dim = size if rows is None else len(rows)

    def coefficients(self, matrix: np.ndarray) -> np.ndarray:
        """``c_B`` for each operator of an (N, N) or (T, N, N) stack, as a
        (T, blades) array: one ``np.bincount`` over the pairs of a group of
        operators at a time, as many as :data:`numerics.CHUNK_BYTES` holds at
        24 bytes per pair (one operator at least), each operator's sums in
        pair order."""
        key, sign = self.key, self.sign
        w = matrix.reshape(-1, len(key))
        out = np.empty((len(w), self.count))
        group = max(1, numerics.CHUNK_BYTES // (24 * len(key)))
        for t in range(0, len(w), group):
            part = w[t : t + group]
            bins = (np.arange(len(part))[:, None] * self.count + key).ravel()
            out[t : t + group] = np.bincount(bins, (part * sign).ravel(), len(part) * self.count).reshape(len(part), -1)
        return out

    def scalar_split(self, coeff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each row of (T, blades) coefficients of ``K = sum_B c_B
        Gamma_B`` on the full spinor space, the scalar sigma and the norm
        rho of the rest per spinor dimension: ``K = sigma Id + K_0`` with
        ``||K_0||^2 = d rho^2``, so ``||K - lambda Id||^2 = d ((sigma -
        lambda)^2 + rho^2)``.  The blades are distinct Pauli strings, hence
        trace-orthogonal, each with entries of modulus 1/4, and that of the
        empty blade is ``-Id / 4``.  On a half-spin the volume blade is
        scalar too, so a half is refused."""
        if self.dim != self.size:
            raise ValueError("the blades split K into its scalar and traceless parts on the full spin module only")
        v = coeff * self.value
        return v[:, 0], np.linalg.norm(v[:, 1:], axis=1)

    def entries(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows lo..hi of every ``Gamma_B`` as two (hi - lo, blades) arrays:
        the one column each row holds, a position among ``rows`` (int32),
        and the real or imaginary part of its phase (float32, exact), by
        :data:`imaginary`."""
        return self._on_rows(self.bx, self.bz, self.value, lo, hi)

    def _on_rows(self, x, z, phase, lo: int = 0, hi: int | None = None):
        """Rows lo..hi of the Pauli strings ``x``, ``z``, ``phase`` (arrays
        along the last axis) by :func:`_row_entries`, with each column a
        position among ``rows``."""
        if self.rows is None:  # the full space: rows lo..hi themselves
            rows = np.arange(lo, self.size if hi is None else hi, dtype=np.int32)
        else:
            rows = self.rows[lo:hi]
        col, val = _row_entries(rows[:, None], x, z, phase)
        return (col if self._pos is None else self._pos[col]), val


def spinor_blades(basis: SoBasis, rows: np.ndarray | None = None) -> SpinorBlades:
    """The :class:`SpinorBlades` of the spin representation of so(n) on the
    given rows (all by default), from the Clifford strings alone:
    ``rho_a = -e_i e_j / 2`` for each pair ``(i, j)`` of the basis."""
    x, z, phase = _clifford_strings(basis.n)
    i, j = np.array(basis.pairs).reshape(-1, 2).T
    dim = 2 ** (basis.n // 2)
    gx, gz, gp = _product([(x[i], z[i], phase[i]), (x[j], z[j], phase[j])])
    return SpinorBlades((1 << i) | (1 << j), gx, gz, -gp / 2.0, dim, rows)


def _rep_on_rows(blades: SpinorBlades, basis: SoBasis, label: str) -> Rep:
    """The rep of the spin generators on the rows of ``blades``, one table
    entry per generator and row; a table that cannot fit is refused first
    (:func:`numerics.require_bytes`), at about 120 bytes an entry, its peak."""
    count, dim = len(blades.x), blades.dim
    what = f"the {label} representation of so({basis.n}) ({count} generators on {dim} dimensions)"
    numerics.require_bytes(120 * count * dim, what)
    # strings along the first axis and rows along the second: generator-major
    col, val = blades._on_rows(*(a[:, None, None] for a in (blades.x, blades.z, blades.phase)))
    gen, row = np.repeat(np.arange(count), dim), np.tile(np.arange(dim), count)
    table = gen_table(gen, row, col.ravel(), val.ravel(), dim)
    return Rep(basis=basis, dim=dim, table=table, label=label, clifford=blades)


def rep_spin(basis: SoBasis) -> Rep:
    """Spin representation: ``x_ij`` maps to ``-e_i e_j / 2``.  The rep
    carries its :class:`SpinorBlades`."""
    return _rep_on_rows(spinor_blades(basis), basis, "spin")


def half_spin_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the +1 and of the -1 chirality eigenspace, each ascending.

    The volume element ``e_1 ... e_n`` is a Pauli string with x = 0, a
    diagonal with phases +-1 (n = 0 mod 4) or +-i (n = 2 mod 4); the
    chirality, that times i in the second case, is a real +-1 diagonal, so
    each eigenspace is spanned by the unit vectors of its rows."""
    if n % 2 != 0:
        raise ValueError("chirality element is defined for even n")
    _, z, phase = _product(zip(*_clifford_strings(n)))
    _, diag = _row_entries(np.arange(2 ** (n // 2)), 0, z, phase if n % 4 == 0 else 1.0j * phase)
    return np.flatnonzero(diag.real > 0), np.flatnonzero(diag.real < 0)


def rep_half_spin(basis: SoBasis, sign: int) -> Rep:
    """Half-spin representation on the +-1 chirality eigenspace (even n):
    the spin generators on the rows of :func:`half_spin_rows`, renumbered
    by position.  Even elements keep chirality, so each row's column lies
    in the half too."""
    if basis.n % 2 != 0:
        raise ValueError("half-spin representations need even n")
    rows = half_spin_rows(basis.n)[0 if sign > 0 else 1]
    return _rep_on_rows(spinor_blades(basis, rows), basis, f"spin{'+' if sign > 0 else '-'}")


def _invertible_pairing(n: int) -> tuple[int, int, complex]:
    """A unitary invariant pairing on the full spinor space, as a Pauli
    string: the product B of the symmetric generators, in order.  A string
    is symmetric exactly when ``|x & z|`` is even, and skew otherwise; every
    generator is an involution (``e_i^2 = -1``).  Each anticommutes with
    the other factors of B, so ``e_i^T B = eps B e_i`` with one sign eps for
    all i; then ``rho(x)^T B + B rho(x) = 0``.  The phases are units, so
    the product is exact."""
    x, z, phase = _clifford_strings(n)
    symmetric = _parity_signs(x & z) > 0
    return _product(zip(x[symmetric], z[symmetric], phase[symmetric]))


def clifford_symbol(n: int) -> np.ndarray:
    """Unitary intertwiner from the full exterior algebra to spin (x) spin.

    Columns are indexed by the monomials ``e_{i1} ^ ... ^ e_{ip}`` in
    degree-major order, lexicographic within a degree (the basis of the
    exterior powers ``rep_exterior(basis, p)``, p = 0 ... n, in turn); the
    column of a monomial is ``vec(e_{i1} ... e_{ip} B^H) / sqrt(dim V)`` with
    B the unitary invariant pairing of :func:`_invertible_pairing`, which
    turns endomorphisms of the spinor space V into elements of V (x) V.
    Each product is a Pauli string, formed exactly from the generators', so
    a column has one entry per row of the product.  In odd dimensions the
    spinor square is only half the exterior algebra, so this map does not
    exist and a ValueError is raised.
    """
    if n % 2 != 0:
        raise ValueError("clifford_symbol needs even n: in odd dimensions spin (x) spin is only half the exterior algebra")
    dim = 2 ** (n // 2)
    gens = list(zip(*_clifford_strings(n)))
    x, z, phase = _invertible_pairing(n)
    pairing_h = (x, z, np.conj(phase) * _parity_signs(x & z))  # row r of B^H is row r ^ x of B, conjugated
    rows = np.arange(dim)
    combos = itertools.chain.from_iterable(itertools.combinations(range(n), p) for p in range(n + 1))
    out = np.zeros((dim * dim, 2**n), dtype=complex)
    for c, combo in enumerate(combos):
        col, val = _row_entries(rows, *_product([gens[i] for i in combo] + [pairing_h]))
        out[rows * dim + col, c] = val / np.sqrt(dim)
    return out
