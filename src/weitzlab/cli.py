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
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import curvature as curv
from . import representations as reps
from . import spin as spinmod
from . import suites
from . import weitzenbock as wb
from .report import ARTIFACT_VERSION, CheckReport, canonical_json, digest
from .so_algebra import basis as so_basis, parse_type_rank, simple_algebra, u_subalgebra

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DIMENSION = 3


class UsageError(Exception):
    pass


class DimensionError(Exception):
    pass


def _tolerance(given: float | None) -> float | None:
    """``--tolerance``, else ``WEITZLAB_TOL``, else None; a tolerance must
    be a finite number >= 0."""
    raw = os.environ.get("WEITZLAB_TOL")
    if given is None and raw is not None:
        try:
            given = float(raw)
        except ValueError as exc:
            raise UsageError(f"WEITZLAB_TOL is not a float: {raw!r}") from exc
    if given is not None and not (np.isfinite(given) and given >= 0):
        raise UsageError(f"tolerance must be finite and non-negative, got {given!r}")
    return given


def _ci_mode() -> bool:
    return os.environ.get("WEITZLAB_CI", "") not in ("", "0")


# ---------------------------------------------------------------------------
# Selector parsing
# ---------------------------------------------------------------------------


def parse_rep(selector: str, basis) -> reps.Rep:
    """``vector | trivial | adjoint | exterior:p | sym:p | sym0 | spin |
    spin:+ | spin:- | tensor:a,b``.  Tensor factors are selectors again,
    split at the first comma, so a product of three nests to the right,
    ``tensor:a,tensor:b,c`` (the Kronecker order is associative)."""
    sel = selector.strip()
    if sel.startswith("tensor:"):
        left, comma, right = sel[len("tensor:"):].partition(",")
        if not comma:
            raise UsageError(f"tensor selector needs two factors: {selector!r}")
        return reps.rep_tensor(parse_rep(left, basis), parse_rep(right, basis))
    try:
        if sel in ("trivial", "vector", "adjoint", "sym0"):
            return reps.rep_standard(basis, sel)
        if sel == "spin":
            return spinmod.rep_spin(basis)
        if sel in ("spin:+", "spin:-"):
            return spinmod.rep_half_spin(basis, +1 if sel.endswith("+") else -1)
        for kind in ("exterior", "sym"):
            if sel.startswith(kind + ":"):
                try:
                    p = int(sel[len(kind) + 1:])
                except ValueError as exc:
                    raise UsageError(f"bad degree in selector {selector!r}") from exc
                return reps.rep_standard(basis, kind, p)
    except UsageError:
        raise
    except ValueError as exc:
        raise UsageError(f"cannot build representation {selector!r}: {exc}") from exc
    raise UsageError(f"unknown representation selector {selector!r}")


def parse_curvature(source: str, n: int | None) -> tuple[curv.CurvatureOperator, dict]:
    """``sphere | group:<label> | file:<path> | random:<seed>``; returns the
    operator plus an input-echo dict.  Random sources always carry their seed
    in the selector, so results are reproducible by construction."""
    src = source.strip()
    if src == "sphere":
        if n is None:
            raise UsageError("sphere curvature needs --n")
        return curv.sphere(n), {"source": "sphere", "n": n}
    if src.startswith("group:"):
        label = src[len("group:"):]
        try:
            g = simple_algebra(label)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        op = curv.bi_invariant_group(g)
        if n is not None and n != op.n:
            raise DimensionError(f"group:{label} lives on so({op.n}) but --n {n} was given")
        return op, {"source": f"group:{g.label}", "n": op.n}
    if src.startswith("file:"):
        path = src[len("file:"):]
        import json

        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read curvature file {path!r}: {exc}") from exc
        try:
            op = curv.curvature_from_json(payload)
        except ValueError as exc:
            raise UsageError(f"curvature schema violation in {path!r}: {exc}") from exc
        if n is not None and n != op.n:
            raise DimensionError(f"file curvature has n={op.n} but --n {n} was given")
        return op, {"source": f"file:{path}", "n": op.n, "bianchi": op.bianchi_flag}
    if src.startswith("random:"):
        try:
            seed = int(src[len("random:"):])
        except ValueError as exc:
            raise UsageError(f"bad seed in {source!r}") from exc
        if seed < 0:
            raise UsageError(f"seed in {source!r} must be non-negative")
        if n is None:
            raise UsageError("random curvature needs --n")
        return curv.random_curvature(n, seed), {"source": "random", "seed": seed, "n": n}
    if src == "random":
        raise UsageError("random curvature source needs an explicit seed: random:<seed>")
    raise UsageError(f"unknown curvature source {source!r}")


def _subalgebra_size(spec: str) -> int:
    try:
        return int(spec.split(":", 1)[1])
    except ValueError as exc:
        raise UsageError(f"bad size in subalgebra spec {spec!r}") from exc


def parse_subalgebra(spec: str, n: int):
    """``so-full | u:m | so:m | file:<path>`` (file: list of n x n matrices)."""
    amb = so_basis(n)
    if spec == "so-full":
        from .so_algebra import Subalgebra

        return Subalgebra(ambient=amb, elements=amb.elements, label=f"so({n})")
    if spec.startswith("u:"):
        m = _subalgebra_size(spec)
        if 2 * m != n:
            raise DimensionError(f"u({m}) needs ambient so({2 * m}), got so({n})")
        return u_subalgebra(m)
    if spec.startswith("so:"):
        m = _subalgebra_size(spec)
        if not 2 <= m <= n:
            raise DimensionError(f"so({m}) does not embed in so({n})")
        from .so_algebra import Subalgebra

        sub = so_basis(m)
        elements = []
        for x in sub.elements:
            big = np.zeros((n, n))
            big[:m, :m] = x
            elements.append(big)
        return Subalgebra(ambient=amb, elements=tuple(elements), label=f"so({m})")
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        import json

        from .so_algebra import Subalgebra, expand

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
        from . import numerics

        coeff = np.array([expand(amb, m) for m in mats])
        span = numerics.orthonormal_columns(coeff.T)
        elements = []
        for k in range(span.shape[1]):
            elements.append(sum(float(np.real(span[a, k])) * amb.elements[a] for a in range(amb.dim)))
        sub = Subalgebra(ambient=amb, elements=tuple(elements), label=f"file:{path}")
        if sub.closure_residual() > 1e-9:
            raise UsageError(f"matrices in {path!r} do not span a subalgebra (bracket closure fails)")
        return sub
    raise UsageError(f"unknown subalgebra spec {spec!r}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_k(args) -> tuple[dict, int]:
    op, echo = parse_curvature(args.curvature, args.n)
    half = args.rep.strip() in ("spin:+", "spin:-")
    basis = so_basis(op.n)
    if args.rep.strip() == "spin" or (half and op.n % 2 == 0):
        # K of a spinor rep is complex on 2^(n/2) dimensions, halved for a
        # half-spin: refused here, before the rep is built, if it cannot fit,
        # alone or with its spectrum beside a table of 40 bytes an entry
        d = 2 ** (op.n // 2 - half)
        wb.require_k(1, d, complex)
        wb.require_k_term(d, complex, 40 * len(basis.pairs) * d)
    rep = parse_rep(args.rep, basis)
    try:
        t = wb.laplacian_t(args.preset if args.preset else args.t)
        ken = wb.k_term(op, rep)
    except wb.CompatibilityError as exc:
        raise DimensionError(str(exc)) from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # the spectrum of tK is t times that of K; adding 0.0 turns -0.0 into 0.0
    w = np.sort(t * ken.spectrum) + 0.0
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
    if args.suite not in suites.SUITE_NAMES:
        raise UsageError(f"unknown suite {args.suite!r}; choose from {suites.SUITE_NAMES}")
    if _ci_mode() and args.seed is None:
        raise UsageError("CI mode requires an explicit --seed for suites")
    operator = None
    n = args.n
    if args.curvature:
        operator, echo = parse_curvature(args.curvature, args.n)
        n = echo.get("n", args.n)
    algebras = args.algebra.split(",") if args.algebra else None
    for label in algebras or ():
        try:
            parse_type_rank(label)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    reports = suites.run_suite(
        args.suite,
        n=n,
        trials=args.trials,
        seed=args.seed if args.seed is not None else 1,
        algebras=algebras,
        tolerance=args.tolerance,
        operator=operator,
    )
    return _payload(args, reports), EXIT_OK if suites.run_passed(reports) else EXIT_CHECK_FAILED


def projector_digest(p: np.ndarray) -> str:
    """Digest of a projector rounded to 12 places.  Adding 0.0 turns -0.0
    into +0.0, so the digest depends only on the rounded values."""
    return digest(np.round(p, 12) + 0.0)


def cmd_decompose(args) -> tuple[dict, int]:
    if args.n is None:
        raise UsageError("decompose needs --n")
    basis = so_basis(args.n)
    rep = parse_rep(args.rep, basis)
    sub = parse_subalgebra(args.sub, args.n)
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
    # output routing (--out, --format) is not part of the run's identity
    skip = ("func", "out", "format")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weitzlab",
        description="Construct curvature endomorphisms of orthogonal representations and verify their identities.",
    )
    parser.add_argument("--version", action="version", version=ARTIFACT_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_help="seed for random inputs"):
        p.add_argument("--n", type=int, default=None, help="dimension n of so(n)")
        p.add_argument("--seed", type=int, default=None, help=seed_help)
        p.add_argument("--tolerance", type=float, default=None, help="tolerance override (default: WEITZLAB_TOL)")
        p.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")

    pk = sub.add_parser("k", help="assemble the curvature endomorphism t*K")
    common(pk)
    pk.add_argument("--rep", required=True, help="vector|exterior:p|sym:p|sym0|spin|spin:+|spin:-|adjoint|trivial|tensor:a,b")
    pk.add_argument("--curvature", required=True, help="sphere|group:<label>|file:<path>|random:<seed>")
    pk.add_argument("--t", type=float, default=1.0, help="multiple of K (default 1)")
    pk.add_argument("--preset", default=None, choices=sorted(wb.LAPLACIAN_PRESETS), help="named value of t")

    pc = sub.add_parser("check", help="run a verification suite")
    common(pc)
    pc.add_argument("suite", help="|".join(suites.SUITE_NAMES))
    pc.add_argument("--trials", type=int, default=20)
    pc.add_argument("--algebra", default=None, help="comma-separated algebra labels (strange/group-model)")
    pc.add_argument("--curvature", default=None, help="curvature source for positivity")

    pd = sub.add_parser("decompose", help="isotypic decomposition under a subalgebra")
    common(pd, "selects the generic combination of the commutant basis whose eigenspaces split the pieces (default 0)")
    pd.add_argument("--rep", required=True)
    pd.add_argument("--sub", required=True, help="so-full|u:m|so:m|file:<path>")

    pk.set_defaults(func=cmd_k)
    pc.set_defaults(func=cmd_check)
    pd.set_defaults(func=cmd_decompose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.n is not None and args.n < 2:
            raise UsageError(f"--n must be at least 2, got {args.n}")
        if args.seed is not None and args.seed < 0:
            raise UsageError(f"--seed must be non-negative, got {args.seed}")
        args.tolerance = _tolerance(args.tolerance)
        payload, code = args.func(args)
        _emit(payload, args.format, args.out)
        return code
    except (UsageError, suites.SuiteConfigError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except DimensionError as exc:
        sys.stderr.write(f"dimension mismatch: {exc}\n")
        return EXIT_DIMENSION
    except wb.LemmaPreconditionError as exc:
        sys.stderr.write(f"precondition failed: {exc}\n")
        return EXIT_USAGE
    except MemoryError as exc:
        # numpy's message names the shape and size that could not be allocated
        sys.stderr.write(f"error: out of memory: {str(exc) or 'allocation failed'}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
