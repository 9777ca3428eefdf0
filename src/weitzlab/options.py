"""Command-line options: everything about a ``weitzlab`` command that can be
decided from its arguments and the environment alone, with no numpy.

:func:`parse` reads the arguments once: the argparse parser, the grammars
of ``--rep``, ``--curvature`` and ``--sub`` (parsed into plain tuples),
the suite names, the trial and report-budget rules, the algebra labels,
the Laplacian presets, ``--n >= 2``, ``--seed >= 0``, the tolerance
(``--tolerance`` or ``WEITZLAB_TOL``) and ``WEITZLAB_CI``.  ``python -m
weitzlab`` loads this module alone, so ``--version``, ``--help`` and every
usage error it finds exit (0 or 2) before numpy or any other module of the
package loads.  A valid request goes on to :mod:`weitzlab.cli`, which
builds from the parsed tuples.  What needs numbers or files stays there:
constructing representations, curvature operators and subalgebras, file
contents, and dimension mismatches (exit 3).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

__all__ = [
    "ALGEBRA_SUITES",
    "ARTIFACT_VERSION",
    "FIXED_N",
    "LAPLACIAN_PRESETS",
    "MAX_N",
    "SUITE_NAMES",
    "SuiteConfigError",
    "UsageError",
    "algebra_dim",
    "check_spinor_n",
    "check_suite",
    "laplacian_t",
    "parse",
    "parse_curvature",
    "parse_rep",
    "parse_subalgebra",
    "parse_type_rank",
    "refuse",
]

ARTIFACT_VERSION = "0.1.0"

EXIT_USAGE = 2


class UsageError(Exception):
    """A request refused with exit 2: one ``error:`` line, no output."""


class SuiteConfigError(UsageError, ValueError):
    """A suite request that names no suite, whose verdict would rest on zero
    trials (a vacuous pass), whose trials would not fit the report budget,
    or that passes an n, algebras or an operator the suite would ignore."""


def refuse(exc: Exception) -> int:
    """Write the one ``error:`` line of a usage error; the exit code."""
    sys.stderr.write(f"error: {exc}\n")
    return EXIT_USAGE


# ---------------------------------------------------------------------------
# Suites and their rules
# ---------------------------------------------------------------------------

SUITE_NAMES = (
    "lichnerowicz",
    "bochner",
    "sphere-casimir",
    "lemma:k2",
    "lemma:k4",
    "strange",
    "group-model",
    "blocks4",
    "positivity",
)

#: The so(n) of each suite that runs on one n only.
FIXED_N = {"lemma:k2": 3, "lemma:k4": 4, "blocks4": 4}

#: The suites that run over simple algebras, each on the so(n) its own
#: adjoint representation lives on: the only ones that read ``algebras``,
#: and the only ones that read no ``n``.
ALGEBRA_SUITES = ("strange", "group-model")

#: The suites whose verdict rests on seeded trials; positivity only when it
#: is given no operator.
_TRIAL_SUITES = ("lichnerowicz", "bochner", "lemma:k2", "lemma:k4", "blocks4", "positivity")

#: Bytes one trial's report is taken to cost.  Measured as Python objects,
#: a lichnerowicz report holds about 2.5 KiB and a lemma:k4 report, the
#: largest, 4 KiB; their canonical JSON adds 0.2 and 0.7 KiB.
REPORT_BYTES = 4 << 10

#: Bytes of reports one suite run may hold: a larger trial count is refused
#: before any operator is drawn.
REPORT_BUDGET_BYTES = 256 << 20


#: The largest n whose spinors are built: blade masks are int64 bit sets of
#: the generators (bit 63 is the sign).
MAX_N = 63


def check_spinor_n(n: int) -> None:
    """Refuse spinors of so(n) for n above :data:`MAX_N`."""
    if n > MAX_N:
        raise UsageError(f"spinors of so({n}) are out of range: blade masks are 64-bit sets of at most {MAX_N} generators")


def check_suite(name: str, n: int | None, trials: int, algebras: list[str] | None, has_operator: bool) -> None:
    """Refuse a suite request that the suite could not honour: too few
    trials or more than the report budget holds, an ``n`` that a suite of
    :data:`FIXED_N` does not run on, an operator for any suite but
    positivity, any ``n`` for the suites of :data:`ALGEBRA_SUITES`,
    ``algebras`` for every other suite, and spinors beyond :data:`MAX_N`
    (lichnerowicz on its n, group-model on each algebra's dimension).
    ``suites.run_suite`` applies the same rules."""
    trial_driven = name in _TRIAL_SUITES and not (name == "positivity" and has_operator)
    if trial_driven and trials < 1:
        raise SuiteConfigError(f"suite {name!r} needs trials >= 1, got {trials}")
    if trial_driven and trials * REPORT_BYTES > REPORT_BUDGET_BYTES:
        raise SuiteConfigError(
            f"suite {name!r} cannot run {trials} trials: their reports would take about "
            f"{-(-trials * REPORT_BYTES >> 20)} MiB at {REPORT_BYTES} bytes each, over the "
            f"{REPORT_BUDGET_BYTES >> 20} MiB report budget (at most {REPORT_BUDGET_BYTES // REPORT_BYTES} trials)"
        )
    if n is not None and FIXED_N.get(name, n) != n:
        raise SuiteConfigError(f"suite {name!r} runs on so({FIXED_N[name]}) only, not so({n})")
    if has_operator and name != "positivity":
        raise SuiteConfigError(f"suite {name!r} takes no curvature operator; only positivity does")
    if n is not None and name in ALGEBRA_SUITES:
        raise SuiteConfigError(f"suite {name!r} runs each algebra on its own so(n) and takes no n")
    if algebras is not None and name in SUITE_NAMES and name not in ALGEBRA_SUITES:
        raise SuiteConfigError(f"suite {name!r} takes no algebras; only {' and '.join(ALGEBRA_SUITES)} do")
    if name == "lichnerowicz" and n is not None:
        check_spinor_n(n)
    if name == "group-model":
        for label in algebras or ():
            check_spinor_n(algebra_dim(label))


def parse_type_rank(label: str) -> tuple[str, int]:
    """The family letter and rank of a compact simple algebra label such as
    ``A2``, ``c_3`` or ``G2``."""
    label = label.strip().upper().replace("_", "")
    if not label:
        raise ValueError("empty algebra label")
    if label == "G2":
        return "G", 2
    family, rank_s = label[0], label[1:]
    if family not in ("A", "B", "C", "D", "G") or not rank_s.isdigit():
        raise ValueError(f"unsupported algebra label {label!r}")
    rank = int(rank_s)
    minimum = {"A": 1, "B": 2, "C": 2, "D": 3}.get(family)
    if minimum is None or rank < minimum:
        raise ValueError(f"unsupported rank for {family}: {rank}")
    return family, rank


#: The dimension of the compact simple algebra of each family, by its rank.
_DIMENSIONS = {
    "A": lambda r: (r + 1) ** 2 - 1,
    "B": lambda r: r * (2 * r + 1),
    "C": lambda r: r * (2 * r + 1),
    "D": lambda r: r * (2 * r - 1),
    "G": lambda r: 14,
}


def algebra_dim(label: str) -> int:
    """The dimension of the compact simple algebra of a label."""
    family, rank = parse_type_rank(label)
    return _DIMENSIONS[family](rank)


# ---------------------------------------------------------------------------
# The multiple t of K
# ---------------------------------------------------------------------------

#: Values of t for the classical operators: the spinor Laplacian carries -4K,
#: the Hodge and Lichnerowicz Laplacians -2K, Killing fields +2K, and the
#: Laplacian on curvature tensors -1K.
LAPLACIAN_PRESETS = {
    "spinor_dirac": -4.0,
    "hodge": -2.0,
    "lichnerowicz": -2.0,
    "killing": 2.0,
    "curvature_tensor": -1.0,
}


def laplacian_t(t) -> float:
    """The multiple t of K for a number or a preset name."""
    if isinstance(t, str):
        if t not in LAPLACIAN_PRESETS:
            raise ValueError(f"unknown Laplacian preset {t!r}; choose from {sorted(LAPLACIAN_PRESETS)}")
        t = LAPLACIAN_PRESETS[t]
    if not math.isfinite(t):
        raise ValueError(f"the multiple t of K must be finite, got {t}")
    return float(t)


# ---------------------------------------------------------------------------
# Selector grammars
# ---------------------------------------------------------------------------

#: Selectors of the representations that take no degree.
_PLAIN_REPS = ("trivial", "vector", "adjoint", "sym0", "spin", "spin:+", "spin:-")


def parse_rep(selector: str) -> tuple:
    """``vector | trivial | adjoint | exterior:p | sym:p | sym0 | spin |
    spin:+ | spin:- | tensor:a,b`` as ``(selector, kind, arg)``: arg is the
    degree p of ``exterior`` and ``sym``, the two factor tuples of
    ``tensor`` and None otherwise.  Tensor factors are selectors again,
    split at the first comma, so a product of three nests to the right,
    ``tensor:a,tensor:b,c`` (the Kronecker order is associative)."""
    sel = selector.strip()
    if sel.startswith("tensor:"):
        left, comma, right = sel[len("tensor:"):].partition(",")
        if not comma:
            raise UsageError(f"tensor selector needs two factors: {selector!r}")
        return selector, "tensor", (parse_rep(left), parse_rep(right))
    if sel in _PLAIN_REPS:
        return selector, sel, None
    for kind in ("exterior", "sym"):
        if sel.startswith(kind + ":"):
            try:
                return selector, kind, int(sel[len(kind) + 1:])
            except ValueError as exc:
                raise UsageError(f"bad degree in selector {selector!r}") from exc
    raise UsageError(f"unknown representation selector {selector!r}")


def parse_curvature(source: str, n: int | None) -> tuple:
    """``sphere | group:<label> | file:<path> | random:<seed>`` as ``(kind,
    arg)``: None, the label, the path or the seed.  Random sources always
    carry their seed in the selector, so results are reproducible by
    construction."""
    src = source.strip()
    if src == "sphere":
        if n is None:
            raise UsageError("sphere curvature needs --n")
        return "sphere", None
    if src.startswith("group:"):
        label = src[len("group:"):]
        try:
            parse_type_rank(label)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        return "group", label
    if src.startswith("file:"):
        return "file", src[len("file:"):]
    if src.startswith("random:"):
        try:
            seed = int(src[len("random:"):])
        except ValueError as exc:
            raise UsageError(f"bad seed in {source!r}") from exc
        if seed < 0:
            raise UsageError(f"seed in {source!r} must be non-negative")
        if n is None:
            raise UsageError("random curvature needs --n")
        return "random", seed
    if src == "random":
        raise UsageError("random curvature source needs an explicit seed: random:<seed>")
    raise UsageError(f"unknown curvature source {source!r}")


def parse_subalgebra(spec: str) -> tuple:
    """``so-full | u:m | so:m | file:<path>`` as ``(kind, arg)``: None, the
    size m or the path (a JSON list of n x n matrices)."""
    if spec == "so-full":
        return "so-full", None
    for kind in ("u", "so"):
        if spec.startswith(kind + ":"):
            try:
                return kind, int(spec.split(":", 1)[1])
            except ValueError as exc:
                raise UsageError(f"bad size in subalgebra spec {spec!r}") from exc
    if spec.startswith("file:"):
        return "file", spec[len("file:"):]
    raise UsageError(f"unknown subalgebra spec {spec!r}")


# ---------------------------------------------------------------------------
# The parser and the request
# ---------------------------------------------------------------------------


def _tolerance(given: float | None) -> float | None:
    """``--tolerance``, else ``WEITZLAB_TOL``, else None; a tolerance must
    be a finite number >= 0."""
    raw = os.environ.get("WEITZLAB_TOL")
    if given is None and raw is not None:
        try:
            given = float(raw)
        except ValueError as exc:
            raise UsageError(f"WEITZLAB_TOL is not a float: {raw!r}") from exc
    if given is not None and not (math.isfinite(given) and given >= 0):
        raise UsageError(f"tolerance must be finite and non-negative, got {given!r}")
    return given


def _ci_mode() -> bool:
    return os.environ.get("WEITZLAB_CI", "") not in ("", "0")


def _parser() -> argparse.ArgumentParser:
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
    pk.add_argument("--preset", default=None, choices=sorted(LAPLACIAN_PRESETS), help="named value of t")

    pc = sub.add_parser("check", help="run a verification suite")
    common(pc)
    pc.add_argument("suite", help="|".join(SUITE_NAMES))
    pc.add_argument("--trials", type=int, default=20)
    pc.add_argument("--algebra", default=None, help="comma-separated algebra labels (strange/group-model)")
    pc.add_argument("--curvature", default=None, help="curvature source for positivity")

    pd = sub.add_parser("decompose", help="isotypic decomposition under a subalgebra")
    common(pd, "selects the generic torus element (default 0)")
    pd.add_argument("--rep", required=True)
    pd.add_argument("--sub", required=True, help="so-full|u:m|so:m|file:<path>")
    return parser


def _check_request(args) -> dict:
    """The parsed selectors of a check: its algebra labels and curvature
    source, with the suite's rules applied where argv decides them."""
    if args.suite not in SUITE_NAMES:
        raise UsageError(f"unknown suite {args.suite!r}; choose from {SUITE_NAMES}")
    if _ci_mode() and args.seed is None:
        raise UsageError("CI mode requires an explicit --seed for suites")
    curvature = None if args.curvature is None else parse_curvature(args.curvature, args.n)
    algebras = args.algebra.split(",") if args.algebra else None
    for label in algebras or ():
        try:
            parse_type_rank(label)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    # a group: or file: operator brings its own n, which only a suite of
    # FIXED_N reads before the operator rule refuses it; that one is left
    # to run_suite, once the operator is built
    if not (curvature is not None and curvature[0] in ("group", "file") and args.suite in FIXED_N):
        check_suite(args.suite, args.n, args.trials, algebras, curvature is not None)
    return {"curvature": curvature, "algebras": algebras}


def parse(argv=None) -> argparse.Namespace:
    """The options of one command line (``sys.argv[1:]`` by default), or
    UsageError.  argparse itself exits on ``--version``, ``--help`` and
    malformed options.  The parsed selectors go to ``spec``: ``rep``,
    ``curvature``, ``sub``, ``algebras`` and ``t``, as each command has
    them; the other attributes are the options as given, with the
    effective tolerance."""
    args = _parser().parse_args(argv)
    if args.n is not None and args.n < 2:
        raise UsageError(f"--n must be at least 2, got {args.n}")
    if args.seed is not None and args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    args.tolerance = _tolerance(args.tolerance)
    if args.command == "k":
        spec = {"curvature": parse_curvature(args.curvature, args.n), "rep": parse_rep(args.rep)}
        try:
            spec["t"] = laplacian_t(args.preset if args.preset else args.t)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    elif args.command == "check":
        spec = _check_request(args)
    else:
        if args.n is None:
            raise UsageError("decompose needs --n")
        spec = {"rep": parse_rep(args.rep), "sub": parse_subalgebra(args.sub)}
    args.spec = spec
    return args
