"""Clifford algebra generators, the spin representation and the symbol map
identifying spin (x) spin with the exterior algebra in even dimensions.

Generator conventions: ``e_i e_j + e_j e_i = -2 delta_ij``, each ``e_i``
unitary and skew-adjoint.  The construction is a fixed recursive scheme
(n -> n+2 by tensoring with 2x2 blocks), so every run produces the same
generators.  Each generator is a monomial matrix, one nonzero per row, and
is kept in that form (:func:`_clifford_monomials`), never as a dense matrix.
A basis element ``x_ij`` of so(n) acts on spinors as ``-e_i e_j / 2``.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import numerics
from .representations import GenTable, Rep, gen_table
from .so_algebra import SoBasis

__all__ = [
    "SpinorBlades",
    "clifford_symbol",
    "half_spin_rows",
    "rep_half_spin",
    "rep_spin",
]


def _kron_monomial(a, b):
    """Kronecker product of monomial matrices given as (perm, phase) pairs:
    row r of a matrix holds its one nonzero, phase[r], in column perm[r]."""
    (pa, fa), (pb, fb) = a, b
    return (pa[:, None] * len(pb) + pb).ravel(), (fa[:, None] * fb).ravel()


def _monomial_product(factors):
    """The product, left to right, of monomial matrices given as (perm,
    phase) pairs: ``(a b)[r, pb[pa[r]]] = fa[r] fb[pa[r]]``."""
    factors = iter(factors)
    perm, phase = next(factors)
    for pb, fb in factors:
        perm, phase = pb[perm], phase * fb[perm]
    return perm, phase


def _clifford_monomials(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Clifford generators on ``dim = 2^floor(n/2)`` dimensions as monomial
    matrices: ``(perm, phase)`` of shape (n, dim), ``e_i[r, perm[i, r]] =
    phase[i, r]``.

    Even ranks are built recursively: the two seed 2x2 generators, then each
    step tensors the old generators with diag(1, -1) and appends two new ones
    acting on the fresh factor.  Odd ranks append the (suitably scaled) volume
    element of the even-rank algebra below."""
    if n < 2:
        raise ValueError("Clifford generators need n >= 2")
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
    if n % 2 == 1:  # the volume element of the even rank below, scaled
        perm, phase = _monomial_product(gammas)
        gammas.append((perm, (1.0j if m % 2 == 0 else 1.0) * phase))
    perm, phase = (np.array(a) for a in zip(*gammas))
    return perm, phase


class SpinorBlades:
    """The Clifford structure of a spin or half-spin representation, from
    which ``K = sum_ab R_ab rho_a rho_b`` is assembled blade by blade.

    With ``rho_a = -e_i e_j / 2`` for ``x_a = x_ij``, every product
    ``rho_a rho_b`` is +-1 times one matrix per blade ``e_B``, B the XOR of
    the generators' masks ``2^i + 2^j``, so ``K = sum_B c_B Gamma_B`` with
    ``c_B = sum_(a,b)->B s_ab R_ab``: at most 1 + C(n,2) + C(n,4) terms
    against N^2 products.  ``Gamma_B`` is ``rho_a rho_b`` for the first pair
    (a, b) of its blade, row-major, and ``s_ab`` the exact sign that turns
    it into ``rho_a rho_b``, read off row 0.

    Every spin generator on the full spinor space (of dimension ``size``)
    is a signed XOR permutation, a Pauli string: row r of rho_a holds
    ``phase[a] (-1)^|r & z[a]|`` at column ``r ^ x[a]``.  So each
    ``Gamma_B`` is one too, with ``x_B = x_a ^ x_b``, ``z_B = z_a ^ z_b``
    and its row-0 phase, and the entries of any rows follow in closed form
    (:meth:`entries`), with no (N, d) array kept.  ``rows`` are the rows of
    the full space a half-spin keeps, ascending (all rows for spin).  An
    even blade preserves chirality, so K on a half is that half's rows and
    columns of K on spin.  Each ``Gamma_B`` has phases all real or all
    imaginary, so a blade adds to the real or to the imaginary part of K
    alone.  Nothing here depends on R, and no entries are kept between
    calls: those of a chunk of rows cost one XOR, one AND and one lookup
    of a sign."""

    def __init__(
        self, masks: np.ndarray, x: np.ndarray, z: np.ndarray, phase: np.ndarray, size: int, rows: np.ndarray | None = None
    ):
        self.masks, self.x, self.z, self.phase, self.size = masks, x, z, phase, size
        self._pos = None  # position among rows of each row of the full space
        if rows is None:
            rows = np.arange(size)
        else:
            self._pos = np.full(size, -1, dtype=np.int32)
            self._pos[rows] = np.arange(len(rows))
        self.rows, self.dim = rows, len(rows)

    def restricted(self, rows: np.ndarray) -> SpinorBlades:
        """The same generators on the given rows of the full space."""
        return SpinorBlades(self.masks, self.x, self.z, self.phase, self.size, rows)

    @functools.cached_property
    def _pairs(self):
        """Blade index of each pair, row-major; the sign of each pair; and
        for each blade ``x_B`` and ``z_B`` (int32), the real or imaginary
        part of its row-0 phase (float32, exact: +-1/4) and which of the two
        it is."""
        count, x, z = len(self.masks), self.x, self.z
        _, first, key = np.unique((self.masks[:, None] ^ self.masks).ravel(), return_index=True, return_inverse=True)
        a, b = np.divmod(np.arange(count * count), count)
        # row 0 of rho_a rho_b: rho_a takes it to row x_a, where rho_b's phase has the sign (-1)^|x_a & z_b|
        lead = self.phase[a] * np.where(self._signs[x[a] & z[b]] < 0, -self.phase[b], self.phase[b])
        rep = lead[first][key]
        if not np.all((lead == rep) | (lead == -rep)):
            raise RuntimeError("spin generator products are not +-1 times their blade")
        a, b = np.divmod(first, count)
        imag = lead[first].imag != 0
        value = np.where(imag, lead[first].imag, lead[first].real).astype(np.float32)
        return key, np.where(lead == rep, 1.0, -1.0), (x[a] ^ x[b]).astype(np.int32), (z[a] ^ z[b]).astype(np.int32), value, imag

    @functools.cached_property
    def _signs(self) -> np.ndarray:
        """``(-1)^|v|``, the parity of the set bits of v, for every v below
        ``size`` (float32): the table for v < 2^(k+1) is that for v < 2^k
        followed by its negative."""
        signs = np.ones(1, dtype=np.float32)
        while len(signs) < self.size:
            signs = np.concatenate((signs, -signs))
        return signs

    @property
    def count(self) -> int:
        """Number of blades."""
        return len(self._pairs[4])

    @property
    def imaginary(self) -> np.ndarray:
        """For each blade, whether its phases are imaginary."""
        return self._pairs[5]

    def coefficients(self, matrix: np.ndarray) -> np.ndarray:
        """``c_B`` for each operator of an (N, N) or (T, N, N) stack, as a
        (T, blades) array: one ``np.bincount`` over the pairs of a group of
        operators at a time, as many as :data:`numerics.CHUNK_BYTES` holds at
        24 bytes per pair (one operator at least), each operator's sums in
        pair order."""
        key, sign = self._pairs[:2]
        w = matrix.reshape(-1, len(key))
        out = np.empty((len(w), self.count))
        group = max(1, numerics.CHUNK_BYTES // (24 * len(key)))
        for t in range(0, len(w), group):
            part = w[t : t + group]
            bins = (np.arange(len(part))[:, None] * self.count + key).ravel()
            out[t : t + group] = np.bincount(bins, (part * sign).ravel(), len(part) * self.count).reshape(len(part), -1)
        return out

    def entries(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows lo..hi of every ``Gamma_B`` as two (hi - lo, blades) arrays:
        the one column each row holds, a position among ``rows`` (int32),
        and the real or imaginary part of its phase (float32, exact), by
        :data:`imaginary`.  Row r of ``Gamma_B`` holds its phase at column
        ``r ^ x_B``, with sign ``(-1)^|r & z_B|`` against row 0."""
        _, _, x, z, value, _ = self._pairs
        rows = self.rows[lo:hi, None].astype(np.int32)
        col = rows ^ x
        if self._pos is not None:
            col = self._pos[col]
        return col, value * self._signs[rows & z]


def rep_spin(basis: SoBasis) -> Rep:
    """Spin representation: ``x_ij`` maps to ``-e_i e_j / 2``, monomial like
    the Clifford generators: row r holds its one entry in column
    ``perm_j[perm_i[r]]``.  The rep carries its :class:`SpinorBlades`: each
    generator's column shift is the column of row 0, and bit k of its sign
    mask is set where row 2^k has the opposite phase to row 0.

    Its size is known before any of it is built, and a rep that cannot fit
    is refused first (:func:`numerics.require_bytes`): the (n, d) monomials
    take about 48 bytes an entry while they are formed, and the (N, d)
    table about 120 bytes an entry at its peak."""
    count, dim = len(basis.pairs), 2 ** (basis.n // 2)
    numerics.require_bytes(
        48 * basis.n * dim + 120 * count * dim,
        f"the spin representation of so({basis.n}) ({count} generators on {dim} dimensions)",
    )
    perm, phase = _clifford_monomials(basis.n)
    i, j = np.array(basis.pairs).reshape(-1, 2).T
    col = np.take_along_axis(perm[j], perm[i], axis=1)
    val = -(phase[i] * np.take_along_axis(phase[j], perm[i], axis=1)) / 2.0
    gen, row = np.repeat(np.arange(count), dim), np.tile(np.arange(dim), count)
    bits = 1 << np.arange(basis.n // 2)
    z = (val[:, bits] != val[:, :1]) @ bits
    blades = SpinorBlades((1 << i) | (1 << j), col[:, 0].copy(), z, val[:, 0].copy(), dim)
    table = gen_table(gen, row, col.ravel(), val.ravel(), dim)
    return Rep(basis=basis, dim=dim, table=table, label="spin", clifford=blades)


def half_spin_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the +1 and of the -1 chirality eigenspace, each ascending.

    The volume element ``e_1 ... e_n`` is a product of monomial matrices
    that is diagonal, with phases +-1 (n = 0 mod 4) or +-i (n = 2 mod 4);
    the chirality, that times i in the second case, is a real +-1 diagonal,
    so each eigenspace is spanned by the unit vectors of its rows."""
    if n % 2 != 0:
        raise ValueError("chirality element is defined for even n")
    _, phase = _monomial_product(zip(*_clifford_monomials(n)))
    diag = (phase if n % 4 == 0 else 1.0j * phase).real
    return np.flatnonzero(diag > 0), np.flatnonzero(diag < 0)


def rep_half_spin(basis: SoBasis, sign: int) -> Rep:
    """Half-spin representation on the +-1 chirality eigenspace (even n):
    the spin table's entries on the rows of :func:`half_spin_rows`,
    renumbered by position.  Even elements keep chirality, so those
    entries' columns lie in the half too, and the rows ascend, so the table
    stays sorted.  The rep carries the spin's :class:`SpinorBlades`
    restricted to the rows."""
    if basis.n % 2 != 0:
        raise ValueError("half-spin representations need even n")
    full = rep_spin(basis)
    rows = half_spin_rows(basis.n)[0 if sign > 0 else 1]
    pos = np.full(full.dim, -1)
    pos[rows] = np.arange(len(rows))
    t = full.table
    keep = pos[t.row] >= 0
    table = GenTable(t.gen[keep], pos[t.row[keep]], pos[t.col[keep]], t.val[keep])
    label = f"spin{'+' if sign > 0 else '-'}"
    return Rep(basis=basis, dim=len(rows), table=table, label=label, clifford=full.clifford.restricted(rows))


def _invertible_pairing(n: int) -> tuple[np.ndarray, np.ndarray]:
    """A unitary invariant pairing on the full spinor space, as a monomial
    ``(perm, phase)``: the product B of the symmetric generators, in order.
    Every generator is an involution (``e_i^2 = -1``), so it is symmetric
    exactly when its phases at rows r and ``perm[r]`` agree, and skew
    otherwise.  Each anticommutes with the other factors of B, so
    ``e_i^T B = eps B e_i`` with one sign eps for all i; then
    ``rho(x)^T B + B rho(x) = 0``.  The phases are units, so the product is
    exact."""
    return _monomial_product((p, f) for p, f in zip(*_clifford_monomials(n)) if np.array_equal(f[p], f))


def clifford_symbol(n: int) -> np.ndarray:
    """Unitary intertwiner from the full exterior algebra to spin (x) spin.

    Columns are indexed by the monomials ``e_{i1} ^ ... ^ e_{ip}`` in
    degree-major order, lexicographic within a degree (the basis of the
    exterior powers ``rep_exterior(basis, p)``, p = 0 ... n, in turn); the
    column of a monomial is ``vec(e_{i1} ... e_{ip} B^H) / sqrt(dim V)`` with
    B the unitary invariant pairing of :func:`_invertible_pairing`, which
    turns endomorphisms of the spinor space V into elements of V (x) V.
    Each product is monomial with unit phases, formed exactly from the
    generators' monomial form, so a column has one entry per row of the
    product.  In odd dimensions the spinor square is only half the exterior
    algebra, so this map does not exist and a ValueError is raised.
    """
    if n % 2 != 0:
        raise ValueError(
            "clifford_symbol needs even n: in odd dimensions spin (x) spin "
            "is only half the exterior algebra"
        )
    gens = list(zip(*_clifford_monomials(n)))
    perm, phase = _invertible_pairing(n)
    dim = len(perm)
    inverse = np.argsort(perm)  # B^H holds conj(B[r, perm[r]]) at (perm[r], r)
    pairing_h = (inverse, phase[inverse].conj())
    rows = np.arange(dim) * dim
    combos = itertools.chain.from_iterable(itertools.combinations(range(n), p) for p in range(n + 1))
    out = np.zeros((dim * dim, 2**n), dtype=complex)
    for c, combo in enumerate(combos):
        col, val = _monomial_product([gens[i] for i in combo] + [pairing_h])
        out[rows + col, c] = val / np.sqrt(dim)
    return out
