"""weitzlab: a numerical laboratory for curvature operators on so(n),
orthogonal and spin representations, and the curvature endomorphisms of the
associated Laplacians.

Typical use::

    from weitzlab import so_algebra, representations, spin, curvature, weitzenbock

    b = so_algebra.basis(4)
    R = curvature.random_curvature(4, seed=7)
    K = weitzenbock.k_term(R, spin.rep_spin(b))

Importing the package loads :mod:`weitzlab.options` alone, which needs no
numpy, so ``python -m weitzlab`` answers ``--version``, ``--help`` and
usage errors before numpy loads; each module above loads when imported.
"""

from .options import ARTIFACT_VERSION

__version__ = ARTIFACT_VERSION

__all__ = [
    "ARTIFACT_VERSION",
    "casimir_weights",
    "cli",
    "curvature",
    "numerics",
    "options",
    "report",
    "representations",
    "so_algebra",
    "spin",
    "suites",
    "weitzenbock",
]
