"""Named verification suites: each returns a list of CheckReports.

These back the command-line ``check`` command and the acceptance tests.
Every report records the seeds and digests of its inputs, so identical
configurations reproduce identical output.
"""

from __future__ import annotations

import numpy as np

from . import casimir_weights as cw
from . import curvature as curv
from . import representations as reps
from . import spin as spinmod
from . import weitzenbock as wb
from .report import CheckReport, digest
from .so_algebra import basis as so_basis, expand, simple_algebra

__all__ = [
    "SUITE_NAMES",
    "SuiteConfigError",
    "run_passed",
    "run_suite",
]


class SuiteConfigError(ValueError):
    """A suite request that names no suite, whose verdict would rest on zero
    trials (a vacuous pass), whose trials would not fit the report budget,
    or that passes an n, algebras or an operator the suite would ignore."""


#: Bytes of stacked curvature operators and K's that one batch of trials may
#: hold, so that memory does not grow with the number of trials.
TRIAL_BATCH_BYTES = 1 << 20

#: Bytes one trial's report is taken to cost.  Measured as Python objects,
#: a lichnerowicz report holds about 2.5 KiB and a lemma:k4 report, the
#: largest, 4 KiB; their canonical JSON adds 0.2 and 0.7 KiB.
REPORT_BYTES = 4 << 10

#: Bytes of reports one suite run may hold.  :func:`run_suite` refuses a
#: larger trial count before it draws any operator.
REPORT_BUDGET_BYTES = 256 << 20


def _seed_batches(first: int, trials: int, n: int, held: int):
    """Seeds ``first, first + 1, ...`` of ``trials`` trials, in consecutive
    ranges whose curvature operators (about four N x N float arrays per
    trial, N = n(n-1)/2, while they are drawn and projected) and ``held``
    further bytes per trial, the K's or blade coefficients a suite forms
    from them, fit :data:`TRIAL_BATCH_BYTES`."""
    npairs = n * (n - 1) // 2
    size = max(1, TRIAL_BATCH_BYTES // (32 * npairs**2 + held))
    for lo in range(0, trials, size):
        yield range(first + lo, first + min(trials, lo + size))


def _off_scalar(blades: spinmod.SpinorBlades, coeff: np.ndarray, lam) -> np.ndarray:
    """``||K - lam Id||`` for each K on the full spinor space given by its
    blade coefficients (:meth:`spinmod.SpinorBlades.scalar_split`), with no
    matrix formed; lam is a number or one per K."""
    sigma, rho = blades.scalar_split(coeff)
    return np.sqrt(blades.dim) * np.hypot(sigma - lam, rho)


def _lichnerowicz_residuals(blades: spinmod.SpinorBlades, ops: curv.CurvatureOperator):
    """``||-4 K - (s/4) Id|| / (1 + ||K||)`` and the scalar curvature s of
    each operator of a stack, from the blade coefficients of K."""
    coeff = blades.coefficients(ops.matrix)
    scal = [curv.scalar(op) for op in ops.unstack()]
    resid = 4.0 * _off_scalar(blades, coeff, -np.array(scal) / 16.0) / (1.0 + _off_scalar(blades, coeff, 0.0))
    return [float(r) for r in resid], scal


def lichnerowicz_suite(n: int, trials: int, seed: int, tol: float = 1e-9) -> list[CheckReport]:
    """-4 K on spinors equals scalar/4 for Bianchi operators; a control batch
    of unprojected symmetric operators must violate the identity.  K is
    read from its blade coefficients alone: no spin rep and no d x d
    matrix is formed."""
    blades = spinmod.spinor_blades(so_basis(n))
    out = []
    for seeds in _seed_batches(seed, trials, n, 8 * blades.count):
        ops = curv.random_curvature(n, seeds)
        for s, op, resid, scal in zip(seeds, ops.unstack(), *_lichnerowicz_residuals(blades, ops)):
            out.append(
                CheckReport(
                    check="lichnerowicz",
                    inputs={"n": n, "seed": s, "curvature": digest(op.matrix)},
                    residual=resid,
                    tolerance=tol,
                    passed=resid <= tol,
                    details={"scalar_curvature": scal},
                )
            )
    # negative control: without the first Bianchi identity the identity breaks
    control_n = max(n, 4)  # at n=3 every symmetric operator is Bianchi
    if control_n != n:
        blades = spinmod.spinor_blades(so_basis(control_n))
    hits = 0
    control_trials = 100
    for seeds in _seed_batches(seed + 10_000, control_trials, control_n, 8 * blades.count):
        resid, _ = _lichnerowicz_residuals(blades, curv.random_symmetric(control_n, seeds))
        hits += sum(r > 1e-3 for r in resid)
    out.append(
        CheckReport(
            check="lichnerowicz-negative-control",
            inputs={"n": control_n, "seed": seed + 10_000, "trials": control_trials},
            residual=float(control_trials - hits),
            tolerance=float(control_trials - int(0.95 * control_trials)),
            passed=hits >= int(0.95 * control_trials),
            details={"violations_above_1e-3": hits},
        )
    )
    return out


def bochner_suite(n: int, trials: int, seed: int, tol: float = 1e-10) -> list[CheckReport]:
    """-2 K on the vector representation equals the Ricci endomorphism."""
    v = reps.rep_vector(so_basis(n))
    out = []
    for seeds in _seed_batches(seed, trials, n, 32 * v.dim**2):  # two d x d complex arrays
        ops = curv.random_curvature(n, seeds)
        for s, op, k, ric in zip(seeds, ops.unstack(), wb.k_matrix(ops, v), curv.ricci(ops)):
            resid = float(np.linalg.norm(-2.0 * k - ric))
            out.append(
                CheckReport(
                    check="bochner",
                    inputs={"n": n, "seed": s, "curvature": digest(op.matrix)},
                    residual=resid,
                    tolerance=tol,
                    passed=resid <= tol,
                )
            )
    return out


def sphere_casimir_suite(n: int, tol: float = 1e-12, hw_tol: float = 1e-9) -> list[CheckReport]:
    """K of the identity curvature operator is the Casimir, entrywise, for the
    standard family; Casimir scalars match the highest-weight formula."""
    b = so_basis(n)
    sph = curv.sphere(n)
    out = []
    for r in wb.standard_family(b):
        k = wb.k_matrix(sph, r)
        resid = float(np.linalg.norm(k - reps.casimir(r)))
        out.append(
            CheckReport(
                check="sphere-casimir",
                inputs={"n": n, "rep": r.label},
                residual=resid,
                tolerance=tol,
                passed=resid <= tol,
            )
        )
    if n >= 3:
        from fractions import Fraction

        m = n // 2
        e1 = tuple(Fraction(int(i == 0)) for i in range(m))
        hw2 = e1 if n == 3 else tuple(Fraction(int(i <= 1)) for i in range(m))
        cases = [
            ("vector", reps.rep_vector(b), e1),
            ("exterior(2)", reps.rep_exterior(b, 2), hw2),
            ("spin", spinmod.rep_spin(b), cw.spin_highest_weight(n)),
        ]
        for label, r, w in cases:
            cas = reps.casimir(r)
            matrix_value = float(np.real(np.trace(cas))) / r.dim
            formula = -float(cw.so_casimir_scalar(n, w))
            resid = abs(matrix_value - formula)
            out.append(
                CheckReport(
                    check="casimir-highest-weight",
                    inputs={"n": n, "rep": label, "weight": [str(x) for x in w]},
                    residual=resid,
                    tolerance=hw_tol,
                    passed=resid <= hw_tol,
                    details={
                        "matrix_casimir": matrix_value,
                        "weight_formula": formula,
                        "normalization_factor": 1.0,
                        "killing_conversion": str(cw.so_weight_killing_factor(n)),
                    },
                )
            )
    return out


def _lemma_k2_config():
    # Sym^2 of C^2 inside C^2 (x) C^2: e00, (e01 + e10) / sqrt 2, e11
    half = np.sqrt(0.5)
    return 3, 2, np.array([[1, 0, 0], [0, half, 0], [0, half, 0], [0, 0, 1]], dtype=complex), [(1, 0)]


def _lemma_k4_config():
    """Sym^2 of the Lambda^2 columns q of the n=4 symbol: the 21 vectors
    ``q_a (x) q_b + q_b (x) q_a``, a <= b, row-major.  The q are orthonormal,
    so these are orthogonal with squared norm 4 when a = b and 2 otherwise,
    and dividing by 2 or sqrt 2 makes them orthonormal."""
    q2 = spinmod.clifford_symbol(4)[:, 5:11]  # degrees 0 and 1 come first
    a, b = np.triu_indices(6)
    cols = (q2[:, None, a] * q2[None, :, b] + q2[:, None, b] * q2[None, :, a]).reshape(-1, len(a))
    return 4, 4, cols / np.where(a == b, 2.0, np.sqrt(2.0)), [(1, 0, 3, 2), (2, 3, 0, 1)]


def lemma_suite(kind: str, trials: int, seed: int, tol: float | None = None) -> list[CheckReport]:
    """Projection lemma on permutation-fixed subspaces of spinor tensor powers:
    k2 runs on Sym^2 of the n=3 spinors, k4 on the curvature-tensor space
    (symmetric square of the 2-forms) inside the 4th power of n=4 spinors."""
    if kind == "k2":
        n, k, cols, gens = _lemma_k2_config()
        tol = 1e-9 if tol is None else tol
    elif kind == "k4":
        n, k, cols, gens = _lemma_k4_config()
        tol = 1e-8 if tol is None else tol
    else:
        raise ValueError(f"unknown lemma configuration {kind!r}")
    d = 2 ** (n // 2)  # spinor dimension
    # a trial's largest arrays are K Q and one term of it, (d^k, m) complex
    # each, larger than its d^2 x d^2 two-slot operator
    stacks = [curv.random_curvature(n, seeds) for seeds in _seed_batches(seed, trials, n, 32 * d**k * cols.shape[1])]
    out = wb.lemma_check(stacks, k, cols, gens, tol=tol)
    for rep, s in zip(out, range(seed, seed + trials)):
        rep.inputs["seed"] = s
    return out


def strange_suite(labels: list[str]) -> list[CheckReport]:
    return [cw.strange_formula_check(simple_algebra(label)) for label in labels]


def group_model_suite(labels: list[str], tol: float = 1e-10) -> list[CheckReport]:
    """Bi-invariant metrics on compact groups: Ricci is a quarter of the
    metric, scalar curvature is dim/4, the spinor curvature term is dim/16,
    and the ad-representation data is internally consistent."""
    out = []
    for label in labels:
        g = simple_algebra(label)
        op = curv.bi_invariant_group(g)
        ric = curv.ricci(op)
        resid = float(np.linalg.norm(ric - np.eye(g.dim) / 4.0))
        out.append(
            CheckReport(
                check="group-ricci-quarter",
                inputs={"algebra": g.label},
                residual=resid,
                tolerance=tol,
                passed=resid <= tol,
                details={"scalar": curv.scalar(op), "dim_over_4": g.dim / 4.0},
            )
        )
        s_resid = abs(curv.scalar(op) - g.dim / 4.0)
        out.append(
            CheckReport(
                check="group-scalar-dim-over-4",
                inputs={"algebra": g.label},
                residual=s_resid,
                tolerance=tol,
                passed=s_resid <= tol,
            )
        )
        cas_resid = float(np.linalg.norm(sum(a @ a for a in g.ad) + np.eye(g.dim)))
        out.append(
            CheckReport(
                check="group-ad-casimir",
                inputs={"algebra": g.label},
                residual=cas_resid,
                tolerance=1e-10,
                passed=cas_resid <= 1e-10,
            )
        )
        # spinor curvature term -(1/2) sum rho(ad y_c)^2 = (dim/16) Id,
        # equivalently -4K = s/4 for the group curvature operator.  With C
        # the coefficients of the ad(y_c), the term is -K(R') for
        # R' = C^T C / 2, built here apart from bi_invariant_group.  Both
        # are read from the blade coefficients of K, with no matrix formed.
        so = so_basis(g.dim)
        blades = spinmod.spinor_blades(so)
        c = np.array([expand(so, np.real(a)) for a in g.ad])
        direct = curv.curvature_operator(g.dim, c.T @ c / 2.0)
        coeff = blades.coefficients(np.stack([op.matrix, direct.matrix]))
        off = _off_scalar(blades, coeff, -g.dim / np.array([64.0, 16.0]))  # ||-4K - dim/16|| = 4 ||K + dim/64||
        term_resid, direct_resid = float(4.0 * off[0]), float(off[1])
        out.append(
            CheckReport(
                check="group-spin-curvature-term",
                inputs={"algebra": g.label},
                residual=direct_resid,
                tolerance=1e-9,
                passed=direct_resid <= 1e-9,
                details={"via_k_term": term_resid},
            )
        )
    return out


def blocks4_suite(trials: int, seed: int, tol: float = 1e-9) -> list[CheckReport]:
    """Four-dimensional block structure: the mixed block vanishes exactly for
    Einstein operators, and on non-Einstein samples its size is a fixed
    multiple of the trace-free Ricci norm."""
    out = []
    ratios = []
    for seeds in _seed_batches(seed, trials, 4, 0):  # no K is assembled
        for s, op in zip(seeds, curv.random_curvature(4, seeds).unstack()):
            blocks = curv.four_dim_blocks(op)
            ric = curv.ricci(op)
            ric0 = ric - np.trace(ric) / 4.0 * np.eye(4)
            mixed_small = float(np.linalg.norm(blocks.mixed)) <= tol
            ric0_small = float(np.linalg.norm(ric0)) <= tol
            agree = mixed_small == ric0_small
            if not ric0_small:
                ratios.append(float(np.linalg.norm(blocks.mixed)) / float(np.linalg.norm(ric0)))
            reassembly = float(np.linalg.norm(blocks.reassemble() - op.matrix))
            out.append(
                CheckReport(
                    check="blocks4-mixed-iff-ric0",
                    inputs={"seed": s, "curvature": digest(op.matrix)},
                    residual=reassembly,
                    tolerance=1e-12,
                    passed=agree and reassembly <= 1e-12,
                    details={
                        "mixed_norm": float(np.linalg.norm(blocks.mixed)),
                        "ric0_norm": float(np.linalg.norm(ric0)),
                    },
                )
            )
    # Einstein-projected samples must kill the mixed block
    for seeds in _seed_batches(seed + 50_000, min(trials, 20), 4, 0):
        for s, op in zip(seeds, curv.random_curvature(4, seeds).unstack()):
            resid = float(np.linalg.norm(curv.four_dim_blocks(curv.einstein_project(op)).mixed))
            out.append(
                CheckReport(
                    check="blocks4-einstein-mixed-vanishes",
                    inputs={"seed": s},
                    residual=resid,
                    tolerance=tol,
                    passed=resid <= tol,
                )
            )
    if ratios:
        spread = (max(ratios) - min(ratios)) / max(ratios)
        out.append(
            CheckReport(
                check="blocks4-ratio-constant",
                inputs={"seed": seed, "samples": len(ratios)},
                residual=float(spread),
                tolerance=1e-6,
                passed=spread <= 1e-6,
                details={"ratio": float(np.mean(ratios))},
            )
        )
    return out


def positive_definite_curvature(n: int, seed) -> curv.CurvatureOperator:
    """Seeded positive-definite Bianchi operator: identity plus a controlled
    Bianchi perturbation; a sequence of seeds gives the stack of them."""
    bump = curv.random_curvature(n, seed)
    npairs = n * (n - 1) // 2
    norms = [float(np.linalg.norm(op.matrix)) for op in bump.unstack()]
    scale = np.maximum(norms, 1e-12).reshape(bump.matrix.shape[:-2] + (1, 1))
    mat = np.eye(npairs) + 0.3 * bump.matrix / scale
    return curv.CurvatureOperator(n=n, matrix=mat, bianchi_flag=True)


def positivity_suite(
    n: int,
    trials: int,
    seed: int,
    tol: float = 1e-9,
    operator: curv.CurvatureOperator | None = None,
) -> list[CheckReport]:
    """Forward positivity: positive curvature operators force -K positive on
    every non-trivial entry of the standard family.  With an explicit operator
    the full report (including the diagnostic converse search) is embedded."""
    b = so_basis(n)
    family = wb.standard_family(b)
    out = []
    if operator is not None:
        rep = wb.positivity_report(operator, reps=family, tol=tol)
        passed = "FORWARD-VIOLATION" not in rep.overall
        out.append(
            CheckReport(
                check="positivity-report",
                inputs={"n": n, "curvature": rep.curvature_digest},
                residual=0.0 if passed else 1.0,
                tolerance=0.5,
                passed=passed,
                details=rep.to_dict(),
                diagnostic="DIAGNOSTIC" in rep.overall,
            )
        )
        return out
    worst = np.inf
    distinct = {id(r.table): r for r in family}.values()  # the adjoint shares exterior(2)'s table
    for seeds in _seed_batches(seed, trials, n, 32 * max(r.dim for r in family) ** 2):
        ops = positive_definite_curvature(n, seeds)
        for r in distinct:
            worst = min(worst, float(np.min(wb.neg_k_spectrum(ops, r))))
    out.append(
        CheckReport(
            check="positivity-forward",
            inputs={"n": n, "seed": seed, "trials": trials, "family": [r.label for r in family]},
            residual=max(0.0, -worst + tol),
            tolerance=tol,
            passed=worst > 0.0,
            details={"worst_min_eig_neg_k": worst},
        )
    )
    return out


def run_passed(reports: list[CheckReport]) -> bool:
    """Whether a suite run passes: it has gating reports and all of them
    pass.  Zero gating reports verify nothing, so such a run fails, except
    for the positivity report of an operator with a negative direction.
    That report is diagnostic, because its converse search is finite, but
    it is the whole answer the run was asked for, so it settles the run."""
    gating = [r for r in reports if not r.diagnostic] or [r for r in reports if r.check == "positivity-report"]
    return bool(gating) and all(r.passed for r in gating)


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

_DEFAULT_ALGEBRAS = ["A1", "A2", "B2", "C3", "D4", "G2"]

#: The so(n) of each suite that runs on one n only.
FIXED_N = {"lemma:k2": 3, "lemma:k4": 4, "blocks4": 4}

#: The suites that run over simple algebras, each on the so(n) its own
#: adjoint representation lives on: the only ones that read ``algebras``,
#: and the only ones that read no ``n``.
ALGEBRA_SUITES = ("strange", "group-model")


def run_suite(
    name: str,
    n: int | None = None,
    trials: int = 20,
    seed: int = 1,
    algebras: list[str] | None = None,
    tolerance: float | None = None,
    operator: curv.CurvatureOperator | None = None,
) -> list[CheckReport]:
    """Dispatch a named suite with shared configuration.  ``n`` defaults to
    4.  What a suite would ignore is refused instead: an ``n`` that a suite
    of :data:`FIXED_N` does not run on, any ``n`` for the suites of
    :data:`ALGEBRA_SUITES` and ``algebras`` for every other suite, and an
    operator for any suite but positivity."""
    trial_driven = name in ("lichnerowicz", "bochner", "lemma:k2", "lemma:k4", "blocks4") or (
        name == "positivity" and operator is None
    )
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
    if operator is not None and name != "positivity":
        raise SuiteConfigError(f"suite {name!r} takes no curvature operator; only positivity does")
    if n is not None and name in ALGEBRA_SUITES:
        raise SuiteConfigError(f"suite {name!r} runs each algebra on its own so(n) and takes no n")
    if algebras is not None and name in SUITE_NAMES and name not in ALGEBRA_SUITES:
        raise SuiteConfigError(f"suite {name!r} takes no algebras; only {' and '.join(ALGEBRA_SUITES)} do")
    n = 4 if n is None else n
    algebras = algebras or _DEFAULT_ALGEBRAS
    # an unset tolerance leaves each suite its own default; 0 is a tolerance
    tol = {} if tolerance is None else {"tol": tolerance}
    if name == "lichnerowicz":
        return lichnerowicz_suite(n, trials, seed, **tol)
    if name == "bochner":
        return bochner_suite(n, trials, seed, **tol)
    if name == "sphere-casimir":
        return sphere_casimir_suite(n, **tol)
    if name == "lemma:k2":
        return lemma_suite("k2", trials, seed, **tol)
    if name == "lemma:k4":
        return lemma_suite("k4", trials, seed, **tol)
    if name == "strange":
        return strange_suite(algebras)
    if name == "group-model":
        return group_model_suite(algebras)
    if name == "blocks4":
        return blocks4_suite(trials, seed, **tol)
    if name == "positivity":
        return positivity_suite(n, trials, seed, operator=operator, **tol)
    raise SuiteConfigError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
