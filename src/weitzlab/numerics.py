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

Random draws and content digests share one stateless counter hash,
:func:`splitmix64`, so no command loads ``numpy.random`` or ``hashlib``.
"""

from __future__ import annotations

import operator
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
    "seed_key",
    "splitmix64",
    "standard_normal",
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


#: splitmix64's state increment (2^64 over the golden ratio) and the two
#: multipliers of its finaliser (Steele, Lea and Flood, OOPSLA 2014).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1


def splitmix64(key: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Output ``index`` of the splitmix64 stream whose state starts at
    ``key``: the finaliser of ``key + (index + 1) gamma``, in wrapping
    uint64 arithmetic, broadcast over arrays of ``key`` and ``index``.
    Stateless: any output comes without the ones before it.  Both must be
    arrays of at least one dimension, because numpy warns on the overflow
    of uint64 scalars, not of arrays."""
    z = (index + np.uint64(1)) * _GAMMA + key
    t = z >> np.uint64(30)
    for mult, shift in ((_MIX1, 27), (_MIX2, 31)):
        z ^= t
        z *= mult
        np.right_shift(z, np.uint64(shift), out=t)
    z ^= t
    return z


def seed_key(seed) -> np.ndarray:
    """The stream key, shape (1,), of a non-negative integer seed of any
    size: its 64-bit limbs, lowest first, each folded in by one splitmix64
    step indexed by its position, so that seeds of more than 64 bits stay
    distinct from their neighbours."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    key = np.zeros(1, dtype=np.uint64)
    for limb in range(max(1, -(-seed.bit_length() // 64))):
        key = splitmix64(key ^ np.uint64(seed >> 64 * limb & _MASK64), np.full(1, limb, dtype=np.uint64))
    return key


def _unit_interval(bits: np.ndarray) -> np.ndarray:
    """The top 52 bits of fresh uint64 hashes as doubles in [1, 2), in place:
    they become the mantissa under the exponent of 1.0."""
    bits >>= np.uint64(12)
    bits |= np.uint64(0x3FF0000000000000)
    return bits.view(np.float64)


#: Pairs of normals that one step of :func:`standard_normal` draws for all
#: its seeds at once: its temporaries stay in cache.
NORMAL_STEP_PAIRS = 8192


def standard_normal(seeds, count: int) -> np.ndarray:
    """The first ``count`` standard normals of each seed, shape
    ``(len(seeds), count)``, by Box-Muller: pair m takes its radius
    ``sqrt(-2 log u)`` from splitmix64 output 2m of the seed's stream and
    its angle from output 2m + 1, the cosines of the pairs first, then
    their sines.  The angle's top 52 bits give psi in [0, pi/2), where cos
    and sin are fast, and its two low bits the signs of the cosine and the
    sine, which take psi to its quadrant.  Each row is elementwise in its
    own seed, so a seed gives the same normals alone or among others."""
    keys = np.array([seed_key(s)[0] for s in seeds], dtype=np.uint64)[:, None]
    # whole SIMD lanes per row and per step: each entry sits at the same
    # lane, seed alone or not
    half = -(-count // 16) * 8
    out = np.empty((len(keys), 2 * half))
    step = max(8, NORMAL_STEP_PAIRS // max(1, len(keys)) // 8 * 8)
    pairs = 2 * np.arange(half, dtype=np.uint64)
    for lo in range(0, half, step):
        pair = pairs[lo : lo + step]
        radius = np.sqrt(-2.0 * np.log(2.0 - _unit_interval(splitmix64(keys, pair)))).view(np.uint64)
        bits = splitmix64(keys, pair + np.uint64(1))
        # bits 0 and 1 as the sign bits of the radius
        cos_radius = (radius | bits << np.uint64(63)).view(np.float64)
        sin_radius = (radius | (bits >> np.uint64(1)) << np.uint64(63)).view(np.float64)
        psi = _unit_interval(bits) - 1.0
        psi *= np.pi / 2.0
        hi = lo + len(pair)
        np.multiply(np.cos(psi), cos_radius, out=out[:, lo:hi])
        np.multiply(np.sin(psi), sin_radius, out=out[:, half + lo : half + hi])
    return out[:, :count]


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
