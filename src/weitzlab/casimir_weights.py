"""Weight-space side of the Casimir: Weyl vectors, the highest-weight Casimir
formula and the Freudenthal-de Vries strange formula.

Two coordinate systems appear.

* Simple algebras: coordinates over the simple roots, with the
  Killing-normalised inner product ``RootData.inner_killing`` (the
  long-root-squared-2 form divided by twice the dual Coxeter number).
* so(n): the standard weight coordinates x_1 .. x_m (m = floor(n/2)) dual to
  the plane rotations x_{12}, x_{34}, ...  With the -tr(AB)/2 normalisation of
  the algebra these coordinates carry the plain Euclidean inner product, and
  the matrix Casimir of an irreducible of highest weight w is exactly
  ``-<w, w + 2 delta>`` (conversion to the Killing-dual form is the recorded
  factor ``1 / (2(n-2))``).

Each function imports ``Fraction`` itself, as in :mod:`so_algebra`.
"""

from __future__ import annotations

from .report import CheckReport
from .so_algebra import RootData

__all__ = [
    "so_casimir_scalar",
    "so_weight_killing_factor",
    "so_weyl_vector",
    "spin_highest_weight",
    "strange_formula_check",
    "weyl_vector",
]


def weyl_vector(roots: RootData) -> tuple[Fraction, ...]:
    """Half the sum of the positive roots, over the simple-root basis."""
    from fractions import Fraction

    return tuple(Fraction(sum(column), 2) for column in zip(*roots.positive_roots))


def strange_formula_check(roots: RootData) -> CheckReport:
    """Compare dim G with ``24 |delta|^2`` in the Killing normalisation,
    from the root data alone: dim G is read from the family and rank.

    The comparison is exact rational arithmetic; floats only appear in the
    emitted report.
    """
    from fractions import Fraction

    delta = weyl_vector(roots)
    norm2 = roots.inner_killing(delta, delta)
    lhs = Fraction(roots.dim)
    rhs = 24 * norm2
    residual = abs(lhs - rhs)
    tolerance = Fraction(roots.dim) * Fraction(1, 10 ** 9)
    return CheckReport(
        check="strange-formula",
        inputs={"algebra": roots.label, "dim": roots.dim},
        residual=float(residual),
        tolerance=float(tolerance),
        passed=residual <= tolerance,
        details={
            "delta_norm_squared": str(norm2),
            "delta_norm_squared_float": float(norm2),
            "dim_over_24": str(Fraction(roots.dim, 24)),
        },
    )


# ---------------------------------------------------------------------------
# so(n) weight coordinates
# ---------------------------------------------------------------------------


def so_weyl_vector(n: int) -> tuple[Fraction, ...]:
    """Half the sum of the positive roots of so(n) (e_i +- e_j for i < j,
    and e_i at odd n) in the x_i coordinates: ``delta_i = n/2 - 1 - i``
    for i < floor(n/2), 0-based."""
    from fractions import Fraction

    if n < 3:
        raise ValueError("so(n) root data needs n >= 3")
    return tuple(Fraction(n, 2) - 1 - i for i in range(n // 2))


def spin_highest_weight(n: int) -> tuple[Fraction, ...]:
    """Highest weight of the spin representation: ``(x_1 + ... + x_m) / 2``."""
    from fractions import Fraction

    if n < 3:
        raise ValueError("spin highest weight needs n >= 3")
    return tuple(Fraction(1, 2) for _ in range(n // 2))


def so_casimir_scalar(n: int, w) -> Fraction:
    """``<w, w + 2 delta>`` for so(n) in the x coordinates (Euclidean form).

    This is the normalisation calibrated to -tr(AB)/2 on the algebra, so the
    matrix Casimir of the corresponding representation is exactly minus this
    value, with no extra factor.
    """
    from fractions import Fraction

    m = n // 2
    delta = so_weyl_vector(n)
    return sum(Fraction(w[i]) * (Fraction(w[i]) + 2 * delta[i]) for i in range(m))


def so_weight_killing_factor(n: int) -> Fraction:
    """Factor converting the Euclidean x-coordinate form to the Killing-dual
    form on so(n) weights (B = (n-2) tr on so(n))."""
    from fractions import Fraction

    if n < 3:
        raise ValueError("Killing factor needs n >= 3")
    return Fraction(1, 2 * (n - 2))
