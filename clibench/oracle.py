"""Reference values computed apart from weitzlab, used to check its outputs.

Nothing here imports the package under test.  Weights are kept as tuples of
doubled integers (2*mu), so half-integral spin weights stay exact.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np

# ---------------------------------------------------------------------------
# Weights of so(n) representations and branching by Brauer-Racah
# ---------------------------------------------------------------------------


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vector_weights(n: int) -> list[tuple[int, ...]]:
    """Weights of the vector representation: +-e_i, plus 0 when n is odd."""
    k = n // 2
    out = []
    for i in range(k):
        for s in (2, -2):
            w = [0] * k
            w[i] = s
            out.append(tuple(w))
    if n % 2:
        out.append((0,) * k)
    return out


def _sums(combos) -> list[tuple[int, ...]]:
    return [tuple(map(sum, zip(*c))) for c in combos]


def rep_weights(n: int, selector: str) -> list[tuple[int, ...]]:
    """Weight multiset of a CLI representation selector of so(n)."""
    vec = vector_weights(n)
    if selector.startswith("tensor:"):
        left, right = selector[len("tensor:"):].split(",")
        return [_add(a, b) for a in rep_weights(n, left) for b in rep_weights(n, right)]
    if selector == "vector":
        return vec
    if selector == "adjoint":
        return rep_weights(n, "exterior:2")
    if selector.startswith("exterior:"):
        return _sums(itertools.combinations(vec, int(selector.split(":")[1])))
    if selector.startswith("sym:"):
        return _sums(itertools.combinations_with_replacement(vec, int(selector.split(":")[1])))
    if selector == "sym0":
        ws = _sums(itertools.combinations_with_replacement(vec, 2))
        ws.remove((0,) * (n // 2))  # the metric, a trivial summand
        return ws
    if selector == "spin":
        return [tuple(s) for s in itertools.product((1, -1), repeat=n // 2)]
    raise ValueError(f"no weights for selector {selector!r}")


class RootSystem:
    """Compact root data of so(2k+1) (B), so(2k) (D) and u(k) (A, as gl(k))."""

    def __init__(self, kind: str, rank: int):
        self.kind, self.rank = kind, rank
        k = rank
        unit = [tuple(2 * int(i == j) for j in range(k)) for i in range(k)]
        pos = []
        for i, j in itertools.combinations(range(k), 2):
            pos.append(tuple(a - b for a, b in zip(unit[i], unit[j])))
            if kind in "BD":
                pos.append(_add(unit[i], unit[j]))
        if kind == "B":
            pos.extend(unit)
        self.positive_roots = pos
        if kind == "B":
            self.delta = tuple(2 * (k - i) - 1 for i in range(k))
        else:
            self.delta = tuple(2 * (k - 1 - i) for i in range(k))
        self.weyl = list(self._weyl_group())

    def _weyl_group(self):
        """Pairs (signed permutation, determinant)."""
        k = self.rank
        for perm in itertools.permutations(range(k)):
            inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
            sign_sets = [(1,) * k] if self.kind == "A" else itertools.product((1, -1), repeat=k)
            for signs in sign_sets:
                flips = signs.count(-1)
                if self.kind == "D" and flips % 2:
                    continue
                yield (perm, signs), (-1) ** (inversions + flips)

    @staticmethod
    def _act(w, v):
        perm, signs = w
        out = [0] * len(v)
        for i, p in enumerate(perm):
            out[p] = signs[p] * v[i]
        return tuple(out)

    def dominant(self, lam) -> bool:
        if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
            return False
        if self.kind == "B":
            return lam[-1] >= 0
        if self.kind == "D":
            return len(lam) < 2 or lam[-2] >= abs(lam[-1])
        return True

    def irreducible_dim(self, lam) -> int:
        """Weyl dimension formula."""
        num, den = Fraction(1), Fraction(1)
        shifted = _add(lam, self.delta)
        for alpha in self.positive_roots:
            num *= sum(a * b for a, b in zip(shifted, alpha))
            den *= sum(a * b for a, b in zip(self.delta, alpha))
        value = num / den
        if value.denominator != 1:
            raise ArithmeticError(f"non-integral Weyl dimension for {lam}")
        return int(value)

    def casimir(self, lam) -> Fraction:
        """<lam, lam + 2 delta> in the standard inner product."""
        return Fraction(sum(a * (a + 2 * d) for a, d in zip(lam, self.delta)), 4)

    def branching(self, weights) -> dict:
        """Multiplicity of each irreducible, by Brauer-Racah:
        n_lam = sum_w det(w) mult(lam + delta - w delta)."""
        mult = Counter(weights)
        out = {}
        for lam in mult:
            if not self.dominant(lam):
                continue
            shifted = _add(lam, self.delta)
            n_lam = 0
            for w, det in self.weyl:
                wd = self._act(w, self.delta)
                n_lam += det * mult.get(tuple(s - x for s, x in zip(shifted, wd)), 0)
            if n_lam:
                out[lam] = n_lam
        return out


def _so_system(m: int) -> RootSystem:
    return RootSystem("B" if m % 2 else "D", m // 2)


def expected_pieces(n: int, selector: str, sub: str) -> list[tuple]:
    """Isotypic pieces ``(dim, multiplicity, casimir or None)`` of the CLI
    representation ``selector`` of so(n) restricted to ``sub``, sorted.

    Casimir eigenvalues ``-<lam, lam + 2 delta>`` are given for so-full only.
    """
    ws = rep_weights(n, selector)
    if sub == "so-full":
        system, restrict = _so_system(n), None
    elif sub.startswith("so:"):
        m = int(sub[3:])
        system = _so_system(m)
        # so(m) sits on the first m coordinates, so its maximal torus is the
        # first m // 2 rotation planes of the torus of so(n)
        restrict = m // 2
    elif sub.startswith("u:"):
        system, restrict = RootSystem("A", int(sub[2:])), None
    else:
        raise ValueError(f"no branching rule for {sub!r}")
    if restrict is not None:
        ws = [w[:restrict] for w in ws]
    found = system.branching(ws)
    pieces = []
    for lam, mult in found.items():
        cas = -float(system.casimir(lam)) if sub == "so-full" else None
        pieces.append((mult * system.irreducible_dim(lam), mult, cas))
    if sum(p[0] for p in pieces) != len(ws):
        raise ArithmeticError(f"branching of {selector} to {sub} does not add up")
    return sorted(pieces, key=lambda p: (p[2] or 0.0, p[0], p[1]))


# ---------------------------------------------------------------------------
# Closed-form spectra of K
# ---------------------------------------------------------------------------


def sphere_spectrum(n: int, selector: str) -> list[float]:
    """Spectrum of K for the round sphere R = Id: the Casimir of each
    irreducible constituent, in closed form."""
    if selector.startswith("exterior:"):
        p = int(selector.split(":")[1])
        return [-float(p * (n - p))] * comb(n, p)
    if selector == "adjoint":
        return [-2.0 * (n - 2)] * comb(n, 2)
    if selector == "sym0":
        return [-2.0 * n] * (n * (n + 1) // 2 - 1)
    if selector == "sym:3":
        return [-3.0 * (n + 1)] * (comb(n + 2, 3) - n) + [-(n - 1.0)] * n
    if selector == "spin":
        return [-n * (n - 1) / 8.0] * 2 ** (n // 2)
    if selector in ("spin:+", "spin:-"):
        return [-n * (n - 1) / 8.0] * 2 ** (n // 2 - 1)
    raise ValueError(f"no closed form for {selector!r}")


#: Dimensions of the compact simple algebras used as ``group:`` sources.
GROUP_DIMS = {"A2": 8, "B2": 10, "G2": 14}


def group_spectrum(label: str, selector: str) -> list[float]:
    """Bi-invariant metric: the spinor term -4K is (s/4) Id = (dim g/16) Id on
    spin, and -2K = Ricci = Id/4 on vector."""
    d = GROUP_DIMS[label]
    if selector == "spin":
        return [d / 16.0] * 2 ** (d // 2)
    if selector == "vector":
        return [0.25] * d
    raise ValueError(f"no closed form for group {label} on {selector!r}")


# ---------------------------------------------------------------------------
# Curvature operators built here and written as curvature files
# ---------------------------------------------------------------------------


def _pairs(n: int):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def kulkarni_nomizu_tensor(n: int, rng: np.random.Generator, terms: int = 3) -> np.ndarray:
    """Sum of Kulkarni-Nomizu squares ``T = sum_k (h_ik h_jl - h_il h_jk)`` of
    seeded symmetric matrices; every such tensor satisfies first Bianchi."""
    t = np.zeros((n, n, n, n))
    for _ in range(terms):
        g = rng.standard_normal((n, n))
        h = (g + g.T) / 2.0
        t += np.einsum("ik,jl->ijkl", h, h) - np.einsum("il,jk->ijkl", h, h)
    return t


def tensor_to_matrix(t: np.ndarray) -> np.ndarray:
    """``R_ab = T_{i_a j_a i_b j_b} / 2`` over the lexicographic pair basis."""
    idx = np.array(_pairs(t.shape[0]))
    return t[idx[:, 0][:, None], idx[:, 1][:, None], idx[:, 0][None, :], idx[:, 1][None, :]] / 2.0


def ricci(t: np.ndarray) -> np.ndarray:
    return np.einsum("ijkj->ik", t)


def curvature_json(n: int, matrix: np.ndarray) -> dict:
    return {
        "n": n,
        "basis": "lex-upper",
        "normalization": "half-tensor",
        "R": [[float(x) for x in row] for row in matrix],
    }


def indefinite_operator(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric 3 x 3 operator with one negative and two positive eigenvalues
    (at n = 3 every symmetric operator satisfies Bianchi); returns the matrix
    and its ascending spectrum."""
    mags = rng.uniform(0.5, 2.0, size=3)
    spectrum = np.sort(np.array([-mags[0], mags[1], mags[2]]))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return q @ np.diag(spectrum) @ q.T, spectrum
