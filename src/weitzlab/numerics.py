"""Dense matrix kernel: Hermitian eigenvalues and eigendecomposition,
nullspaces, orthonormal column bases and orthogonal projectors.

Matrices are double-precision complex, except in the Hermitian
eigensolvers: there real input stays float64, and a Hermitian part whose
imaginary part is exactly zero (:func:`real_if_exact`) goes to the real
symmetric solver, whose eigenvectors are real.  All functions are pure and
never mutate their arguments, so concurrent use is safe.

Two rules bound memory: chunked assemblies keep their temporaries within
:data:`CHUNK_BYTES`, and :func:`require_bytes` refuses a large allocation
that cannot fit before it is made.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "as_matrix",
    "eig_hermitian",
    "eigvals_hermitian",
    "fix_phases",
    "frobenius",
    "nullspace",
    "orthonormal_columns",
    "projector",
    "real_if_exact",
    "require_bytes",
]

#: Bytes of temporaries that one chunk of a chunked assembly (the join or
#: the blade sum of K, the blade coefficients) holds at once, besides the
#: result it writes into.
CHUNK_BYTES = 1 << 20

#: Relative singular-value cutoff used by :func:`nullspace` when no tolerance
#: is supplied.  The nullspaces downstream have singular-value gaps many
#: orders of magnitude wider than this at the sizes we handle.
DEFAULT_NULLSPACE_TOL = 1e-9


def as_matrix(a, dtype=np.complex128) -> np.ndarray:
    """Coerce ``a`` to a 2-d array of ``dtype`` (complex128 by default),
    rejecting non-finite entries."""
    m = np.asarray(a, dtype=dtype)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of dimension {m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def require_bytes(nbytes: int, what: str) -> None:
    """Refuse, before it is made, an allocation of ``nbytes`` for ``what``
    that cannot fit: raise MemoryError when it exceeds the process's
    address-space soft limit (``RLIMIT_AS``), or physical memory when no
    limit is set.  The message names the bytes and the limit."""
    import resource

    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    name = "the address-space limit"
    if limit == resource.RLIM_INFINITY:
        limit, name = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"), "physical memory"
    if nbytes > limit:
        raise MemoryError(f"{what} needs {nbytes} bytes, more than {name} of {limit} bytes")


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def real_if_exact(a: np.ndarray) -> np.ndarray:
    """``a.real`` when ``a`` is complex with an imaginary part that is
    exactly zero, else ``a``: the rule that sends a Hermitian matrix to the
    real symmetric solver."""
    return a.real if np.iscomplexobj(a) and not np.any(a.imag) else a


def fix_phases(v: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Rotate each column so its first non-negligible entry is positive real
    (a sign flip on real input, which stays float64); a column with no such
    entry is left as it is.

    This pins the phase/sign freedom of eigenvectors and nullspace bases so
    that repeated runs on identical input produce byte-identical output.
    """
    v = np.array(v, dtype=np.result_type(v, np.float64), copy=True)
    big = np.abs(v) > tol
    has = big.any(axis=0)
    pivot = v[big.argmax(axis=0), np.arange(v.shape[1])]
    np.multiply(v, np.abs(pivot) / np.where(has, pivot, 1), out=v, where=has)
    return v


def eig_hermitian(a, hermitian_tol: float = 1e-12):
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    a : array_like
        Square matrix with ``||a - a*|| <= hermitian_tol * ||a||``.
    hermitian_tol : float
        Relative tolerance for the Hermiticity precondition.

    Returns
    -------
    (w, v) : eigenvalues ascending (real 1-d array) and orthonormal
        eigenvectors as the columns of ``v``, with phases fixed by the
        first-nonzero-positive convention.  A Hermitian part whose imaginary
        part is exactly zero takes the real symmetric solver, and ``v`` is
        then real.
    """
    w, v = np.linalg.eigh(_hermitian_part(a, hermitian_tol))
    return w, fix_phases(v)


def eigvals_hermitian(a, hermitian_tol: float = 1e-12) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, under the precondition
    of :func:`eig_hermitian`, without the eigenvectors, from the same solver."""
    return np.linalg.eigvalsh(_hermitian_part(a, hermitian_tol))


def _hermitian_part(a, hermitian_tol: float) -> np.ndarray:
    """``(a + a*) / 2``, after checking ``||a - a*|| <= hermitian_tol * ||a||``;
    float64 for real input and for a part whose imaginary part is zero."""
    a = np.asarray(a)
    m = as_matrix(a, np.result_type(a, np.float64))
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"eig_hermitian needs a square matrix, got {m.shape}")
    scale = frobenius(m)
    if scale > 0 and frobenius(m - m.conj().T) > hermitian_tol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return real_if_exact((m + m.conj().T) / 2.0)


def nullspace(a, tol: float = DEFAULT_NULLSPACE_TOL, atol: float = 0.0) -> np.ndarray:
    """Orthonormal basis of ``{v : a v = 0}`` as matrix columns.

    A singular value s counts as zero when ``s <= max(tol * s_max, atol)``.
    The absolute floor matters for matrices that are zero up to rounding dust,
    where a purely relative cutoff would report full rank.  The returned array
    has shape ``(cols, k)``; ``k`` may be zero.
    """
    if tol <= 0:
        raise ValueError("nullspace tolerance must be positive")
    m = as_matrix(a)
    # only a wide matrix needs the full V; U is never read, so a tall or
    # square system takes the thin SVD and never builds its (rows x rows) U
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    smax = s[0] if s.size else 0.0
    cutoff = max(tol * smax, atol)
    rank = int(np.sum(s > cutoff)) if smax > cutoff else 0
    basis = vh[rank:].conj().T
    return fix_phases(basis)


def orthonormal_columns(a, tol: float = DEFAULT_NULLSPACE_TOL, atol: float = 0.0) -> np.ndarray:
    """Orthonormal basis for the column span of ``a`` (rank-revealing SVD)."""
    m = as_matrix(a)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    smax = s[0] if s.size else 0.0
    cutoff = max(tol * smax, atol)
    rank = int(np.sum(s > cutoff)) if smax > cutoff else 0
    return fix_phases(u[:, :rank])


def projector(columns: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the span of the (orthonormal) columns."""
    q = as_matrix(columns)
    return q @ q.conj().T
