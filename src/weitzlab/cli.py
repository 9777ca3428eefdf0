"""Command-line interface.

Three commands:

* ``k``         assemble the curvature endomorphism for a representation and a
                curvature source, report its spectrum and vanishing verdict;
* ``check``     run a named verification suite;
* ``decompose`` isotypic decomposition of a representation restricted to a
                subalgebra.

Exit codes: 0 all checks passed, 1 a check failed or no check gated the run,
2 usage or schema error (or out of memory), 3 dimension mismatch.  Output is
canonical JSON (17-significant-digit floats, sorted keys) so identical
configurations give byte-identical bytes; CSV and pretty text are derived
views.

The command line is parsed by :mod:`weitzlab.options`, which needs no
numpy and refuses every usage error that the arguments and the environment
decide; this module builds from the tuples it parsed and reports what only
construction finds: file contents, schema errors, dimension mismatches
(exit 3) and requests that cannot fit in memory.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from . import curvature as curv
from . import numerics, options
from . import representations as reps
from . import spin as spinmod
from . import suites
from . import weitzenbock as wb
from .options import ARTIFACT_VERSION, EXIT_USAGE, UsageError
from .report import CheckReport, canonical_json, digest
from .so_algebra import Subalgebra, basis as so_basis, expand, pair_number, simple_algebra, u_subalgebra

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DIMENSION = 3


class DimensionError(Exception):
    pass


# ---------------------------------------------------------------------------
# Construction from the parsed selectors (weitzlab.options)
# ---------------------------------------------------------------------------


def build_rep(spec: tuple, basis) -> reps.Rep:
    """The representation of a parsed ``--rep`` selector
    (:func:`options.parse_rep`); the factors of a tensor are built left to
    right before their product."""
    selector, kind, arg = spec
    if kind == "tensor":
        return reps.rep_tensor(*(build_rep(factor, basis) for factor in arg))
    try:
        if kind == "spin":
            return spinmod.rep_spin(basis)
        if kind in ("spin:+", "spin:-"):
            return spinmod.rep_half_spin(basis, +1 if kind == "spin:+" else -1)
        return reps.rep_standard(basis, kind, arg)
    except ValueError as exc:
        raise UsageError(f"cannot build representation {selector!r}: {exc}") from exc


def parse_rep(selector: str, basis) -> reps.Rep:
    """The representation a ``--rep`` selector names."""
    return build_rep(options.parse_rep(selector), basis)


def build_curvature(spec: tuple, n: int | None) -> tuple[curv.CurvatureOperator, dict]:
    """The operator of a parsed ``--curvature`` source
    (:func:`options.parse_curvature`) plus an input-echo dict."""
    kind, arg = spec
    if kind == "sphere":
        return curv.sphere(n), {"source": "sphere", "n": n}
    if kind == "group":
        curv.require_group(arg)
        g = simple_algebra(arg)
        op = curv.bi_invariant_group(g)
        if n is not None and n != op.n:
            raise DimensionError(f"group:{arg} lives on so({op.n}) but --n {n} was given")
        return op, {"source": f"group:{g.label}", "n": op.n}
    if kind == "file":
        import json

        try:
            with open(arg, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read curvature file {arg!r}: {exc}") from exc
        try:
            op = curv.curvature_from_json(payload)
        except ValueError as exc:
            raise UsageError(f"curvature schema violation in {arg!r}: {exc}") from exc
        if n is not None and n != op.n:
            raise DimensionError(f"file curvature has n={op.n} but --n {n} was given")
        return op, {"source": f"file:{arg}", "n": op.n, "bianchi": op.bianchi_flag}
    return curv.random_curvature(n, arg), {"source": "random", "seed": arg, "n": n}


def build_subalgebra(spec: tuple, n: int) -> Subalgebra:
    """The subalgebra of so(n) of a parsed ``--sub`` spec
    (:func:`options.parse_subalgebra`), as orthonormal rows: so(m) (all n
    for so-full) by the unit rows of its pairs, u(m) in closed form, and a
    file's matrices by an orthonormal basis of their coefficients' span."""
    kind, arg = spec
    amb = so_basis(n)
    if kind == "u":
        if 2 * arg != n:
            raise DimensionError(f"u({arg}) needs ambient so({2 * arg}), got so({n})")
        return u_subalgebra(arg)
    if kind in ("so", "so-full"):
        m = n if kind == "so-full" else arg
        if not 2 <= m <= n:
            raise DimensionError(f"so({m}) does not embed in so({n})")
        i, j = np.triu_indices(m, 1)
        coeff = np.zeros((len(i), amb.dim))
        coeff[np.arange(len(i)), pair_number(n, i, j)] = 1.0
        return Subalgebra(ambient=amb, coeff=coeff, label=f"so({m})")
    import json

    path = arg
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, list) or not payload:
            raise ValueError("expected a non-empty list of matrices")
        mats = [np.array(m, dtype=float) for m in payload]
    except (OSError, TypeError, ValueError) as exc:
        raise UsageError(f"cannot read subalgebra file {path!r}: {exc}") from exc
    for m in mats:
        if m.shape != (n, n):
            raise DimensionError(f"subalgebra element has shape {m.shape}, expected ({n}, {n})")
        if not np.all(np.isfinite(m)):
            raise UsageError(f"subalgebra file {path!r} has non-finite entries")
        a = m / max(1.0, float(np.max(np.abs(m))))  # the same test, safe from overflow
        if np.linalg.norm(a + a.T) > 1e-9 * max(1.0, float(np.linalg.norm(a))):
            raise UsageError(f"subalgebra element in {path!r} is not skew-symmetric")
    span = numerics.orthonormal_columns(expand(amb, np.array(mats)).T)
    if not span.shape[1]:
        raise UsageError(f"matrices in {path!r} are all zero and span no subalgebra")
    sub = Subalgebra(ambient=amb, coeff=np.ascontiguousarray(np.real(span).T), label=f"file:{path}")
    if sub.closure_residual() > 1e-9:
        raise UsageError(f"matrices in {path!r} do not span a subalgebra (bracket closure fails)")
    return sub


def parse_subalgebra(spec: str, n: int) -> Subalgebra:
    """The subalgebra of so(n) a ``--sub`` spec names."""
    return build_subalgebra(options.parse_subalgebra(spec), n)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _k_rep(spec: tuple, basis) -> reps.Rep:
    """The representation of ``k``, refused first if its K cannot fit with
    its spectrum beside a table of 40 bytes an entry: a tensor product from
    its built factors, on d1 d2 dimensions with at most nnz1 d2 + d1 nnz2
    table entries, before their table is joined; a spinor rep (complex, on
    2^(n/2) dimensions, halved for a half-spin) from n alone, K first."""
    _, kind, arg = spec
    if kind == "tensor":
        factors = [build_rep(factor, basis) for factor in arg]
        (t1, d1), (t2, d2) = ((r.table, r.dim) for r in factors)
        dtype = complex if np.any(t1.val.imag) or np.any(t2.val.imag) else float
        wb.require_k_term(d1 * d2, dtype, 40 * (len(t1.val) * d2 + d1 * len(t2.val)))
        return reps.rep_tensor(*factors)
    if kind == "spin" or (kind in ("spin:+", "spin:-") and basis.n % 2 == 0):
        d = 2 ** (basis.n // 2 - (kind != "spin"))
        wb.require_k(1, d, complex)
        wb.require_k_term(d, complex, 40 * len(basis.pairs) * d)
    return build_rep(spec, basis)


def cmd_k(args) -> tuple[dict, int]:
    op, echo = build_curvature(args.spec["curvature"], args.n)
    rep = _k_rep(args.spec["rep"], so_basis(op.n))
    try:
        ken = wb.k_term(op, rep)
    except wb.CompatibilityError as exc:
        raise DimensionError(str(exc)) from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # the spectrum of tK is t times that of K; adding 0.0 turns -0.0 into 0.0
    w = np.sort(args.spec["t"] * ken.spectrum) + 0.0
    vanishing_tol = 1e-9 if args.tolerance is None else args.tolerance
    report = CheckReport(
        check="k-term",
        inputs={**echo, "rep": args.rep, "t": args.preset if args.preset else args.t},
        residual=ken.self_adjoint_residual,
        tolerance=1e-10,
        passed=ken.self_adjoint_residual <= 1e-10,
        spectrum=[float(x) for x in w],
        details={
            "definiteness": wb.definiteness(w, 1e-12),
            "vanishing_verdict": wb.vanishing_conclusion(wb.definiteness(w, vanishing_tol)),
            "k_spectrum": [float(x) for x in ken.spectrum],
        },
    )
    payload = _payload(args, [report])
    return payload, EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_check(args) -> tuple[dict, int]:
    operator = None
    n = args.n
    if args.spec["curvature"] is not None:
        operator, echo = build_curvature(args.spec["curvature"], args.n)
        n = echo["n"]
    reports = suites.run_suite(
        args.suite,
        n=n,
        trials=args.trials,
        seed=args.seed if args.seed is not None else 1,
        algebras=args.spec["algebras"],
        tolerance=args.tolerance,
        operator=operator,
    )
    return _payload(args, reports), EXIT_OK if suites.run_passed(reports) else EXIT_CHECK_FAILED


def projector_digest(p: np.ndarray) -> str:
    """Digest of a projector rounded to 12 places.  Adding 0.0 turns -0.0
    into +0.0, so the digest depends only on the rounded values."""
    return digest(np.round(p, 12) + 0.0)


def cmd_decompose(args) -> tuple[dict, int]:
    basis = so_basis(args.n)
    rep = build_rep(args.spec["rep"], basis)
    sub = build_subalgebra(args.spec["sub"], args.n)
    if sub.label == f"so({args.n})":
        restricted = rep
    else:
        restricted = reps.rep_restrict(rep, sub)
    seed = args.seed if args.seed is not None else 0
    pieces = reps.isotypic_decompose(restricted, seed=seed)
    total = sum(p.dim for p in pieces)
    completeness = float(np.linalg.norm(sum(p.projector for p in pieces) - np.eye(rep.dim)))
    report = CheckReport(
        check="isotypic-decomposition",
        inputs={"n": args.n, "rep": args.rep, "sub": args.sub, "seed": seed},
        residual=completeness,
        tolerance=1e-10,
        passed=completeness <= 1e-10 and total == rep.dim,
        details={
            "pieces": [
                {
                    "dim": p.dim,
                    "multiplicity": p.multiplicity,
                    "casimir_eigenvalue": float(p.casimir_eigenvalue),
                    "projector_digest": projector_digest(p.projector),
                }
                for p in pieces
            ],
            "total_dim": total,
        },
    )
    payload = _payload(args, [report])
    return payload, EXIT_OK if report.passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Output assembly
# ---------------------------------------------------------------------------


def _payload(args, reports: list[CheckReport]) -> dict:
    # output routing (--out, --format) is not part of the run's identity,
    # and the parsed selectors repeat the options as given
    skip = ("spec", "out", "format")
    config = {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}
    summary = {
        "total": len(reports),
        "passed": sum(1 for r in reports if r.passed),
        "failed": sum(1 for r in reports if not r.passed and not r.diagnostic),
        "diagnostic": sum(1 for r in reports if r.diagnostic),
    }
    return {
        "artifact_version": ARTIFACT_VERSION,
        "config": config,
        "reports": [r.to_dict() for r in reports],
        "summary": summary,
    }


def _emit(payload: dict, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = canonical_json(payload)
    elif fmt == "csv":
        lines = ["check,residual,tolerance,pass"]
        for r in payload["reports"]:
            lines.append(
                f"{r['check']},{format(r['residual'], '.17g')},{format(r['tolerance'], '.17g')},{str(r['pass']).lower()}"
            )
        text = "\n".join(lines)
    elif fmt == "pretty":
        lines = [f"weitzlab {payload['artifact_version']}"]
        for r in payload["reports"]:
            mark = "PASS" if r["pass"] else ("DIAG" if r.get("diagnostic") else "FAIL")
            lines.append(f"[{mark}] {r['check']}: residual {r['residual']:.3e} (tol {r['tolerance']:.3e})")
        s = payload["summary"]
        lines.append(f"{s['passed']}/{s['total']} passed, {s['failed']} failed, {s['diagnostic']} diagnostic")
        text = "\n".join(lines)
    else:
        raise UsageError(f"unknown format {fmt!r}")
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write --out {out_path!r}: {exc.strerror or exc}") from exc
    else:
        try:
            sys.stdout.write(text + "\n")
            sys.stdout.flush()
        except OSError as exc:
            # the interpreter flushes stdout again at exit; pointed at the
            # null device, that flush neither fails nor prints a traceback
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise UsageError(f"cannot write to stdout: {exc.strerror or exc}") from exc


def run(args) -> int:
    """Run a request of :func:`options.parse`: emit its payload and return
    the exit code."""
    try:
        command = {"k": cmd_k, "check": cmd_check, "decompose": cmd_decompose}[args.command]
        payload, code = command(args)
        _emit(payload, args.format, args.out)
        return code
    except UsageError as exc:
        return options.refuse(exc)
    except DimensionError as exc:
        sys.stderr.write(f"dimension mismatch: {exc}\n")
        return EXIT_DIMENSION
    except MemoryError as exc:
        # numpy's message names the shape and size that could not be allocated
        sys.stderr.write(f"error: out of memory: {str(exc) or 'allocation failed'}\n")
        return EXIT_USAGE
    except wb.LemmaPreconditionError as exc:
        # last: under lazy loading, naming the class may first compile weitzenbock
        sys.stderr.write(f"precondition failed: {exc}\n")
        return EXIT_USAGE


def main(argv=None) -> int:
    """Parse ``argv`` (``sys.argv[1:]`` by default) and run it."""
    try:
        args = options.parse(argv)
    except UsageError as exc:
        return options.refuse(exc)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
