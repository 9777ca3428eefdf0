"""Structured check reports and canonical JSON serialisation.

Canonical form: keys sorted, floats printed with 17 significant digits (so
doubles round-trip exactly), no whitespace surprises.  Identical inputs give
byte-identical output.
"""

from __future__ import annotations

import numpy as np

from . import numerics

__all__ = ["ARTIFACT_VERSION", "CheckReport", "canonical_json", "digest"]

ARTIFACT_VERSION = "0.1.0"


def _render(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if v != v or v in (float("inf"), float("-inf")):
            raise ValueError("cannot serialise non-finite float")
        return format(v, ".17g")
    if isinstance(value, complex):
        return _render({"re": value.real, "im": value.imag})
    if isinstance(value, str):
        out = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "fc" and value.ndim:
            if not np.isfinite(value).all():
                raise ValueError("cannot serialise non-finite float")
            return _render_floats(value)
        return _render(value.tolist())
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        body = ",".join(f"{_render(str(k))}:{_render(v)}" for k, v in items)
        return "{" + body + "}"
    # before the tuple branch: a record that is a named tuple renders as its dict
    if hasattr(value, "to_dict"):
        return _render(value.to_dict())
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_render(v) for v in value) + "]"
    raise TypeError(f"cannot serialise value of type {type(value)!r}")


def _render_floats(a: np.ndarray) -> str:
    """A finite real or complex array as :func:`_render` renders its
    ``tolist()``, one printf-style call per row instead of one recursive
    call per entry; ``%.17g`` writes the bytes of ``format(v, ".17g")``."""
    if a.ndim > 1:
        return "[" + ",".join(_render_floats(row) for row in a) + "]"
    if a.dtype.kind == "c":
        # the keys of a complex entry sort as "im", "re"
        parts = np.stack([a.imag, a.real], axis=-1).ravel().tolist()
        return ("[" + ",".join(['{"im":%.17g,"re":%.17g}'] * len(a)) + "]") % tuple(parts)
    return ("[" + ",".join(["%.17g"] * len(a)) + "]") % tuple(a.tolist())


def canonical_json(value) -> str:
    """Deterministic JSON text with 17-significant-digit floats."""
    return _render(value)


def digest(value) -> str:
    """Short content digest, 16 hex digits, of a canonically serialisable
    value.  A numeric array is hashed from its dtype, shape and
    little-endian bytes, with no text rendered; a float array must be
    finite.  Any other value is hashed from the bytes of its canonical
    JSON.  The hash is :func:`numerics.splitmix64`, so no OpenSSL loads."""
    key = np.zeros(1, dtype=np.uint64)
    if isinstance(value, np.ndarray) and value.dtype.kind in "biufc":
        if value.dtype.kind in "fc" and not np.isfinite(value).all():
            raise ValueError("cannot digest non-finite float")
        data = np.ascontiguousarray(value, dtype=value.dtype.newbyteorder("<"))
        key = _hash_bytes(canonical_json([data.dtype.str, list(data.shape)]).encode(), key)
        raw = data.reshape(-1).view(np.uint8)
    else:
        raw = canonical_json(value).encode()
    return f"{int(_hash_bytes(raw, key)[0]):016x}"


def _hash_bytes(data, key: np.ndarray) -> np.ndarray:
    """A uint64, shape (1,), of a byte string under ``key``: word i, of the
    zero-padded little-endian 64-bit words, goes in as
    ``splitmix64(w_i ^ splitmix64(key, i), i)``; the words' wrapping sum is
    finished with the byte count.  Words go a chunk at a time, so the
    temporaries stay within :data:`numerics.CHUNK_BYTES`."""
    data = np.frombuffer(data, dtype=np.uint8) if isinstance(data, bytes) else data
    nbytes = data.size
    if nbytes % 8:
        data = np.concatenate([data, np.zeros(8 - nbytes % 8, dtype=np.uint8)])
    words = data.view("<u8")
    total = np.zeros(1, dtype=np.uint64)
    step = numerics.CHUNK_BYTES // 32
    for lo in range(0, words.size, step):
        index = np.arange(lo, min(lo + step, words.size), dtype=np.uint64)
        mixed = numerics.splitmix64(words[lo : lo + step] ^ numerics.splitmix64(key, index), index)
        total += mixed.sum(dtype=np.uint64, keepdims=True)
    return numerics.splitmix64(total, np.full(1, nbytes, dtype=np.uint64))


class CheckReport:
    """Result of one verification: name, input digests/seeds, residual vs
    tolerance, verdict, and optionally a spectrum and free-form details."""

    def __init__(
        self,
        check: str,
        inputs: dict,
        residual: float,
        tolerance: float,
        passed: bool,
        spectrum: list | None = None,
        details: dict | None = None,
        diagnostic: bool = False,
    ):
        self.check, self.inputs, self.residual, self.tolerance = check, inputs, residual, tolerance
        self.passed, self.spectrum, self.diagnostic = passed, spectrum, diagnostic
        self.details = {} if details is None else details

    def to_dict(self) -> dict:
        out = {
            "check": self.check,
            "inputs": self.inputs,
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
        }
        if self.spectrum is not None:
            out["spectrum"] = [float(x) for x in self.spectrum]
        if self.details:
            out["details"] = self.details
        if self.diagnostic:
            out["diagnostic"] = True
        return out
