"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Every test prints a single ``[ACCEPTANCE] criterion N (<name>): PASS`` line on
success; a failure raises before the line is printed, so the printed log is a
faithful pass/fail record.  Run with ``pytest -s tests/test_acceptance.py`` to
see the lines during a green run.
"""

import json
import subprocess
import sys
import time

import numpy as np

import oracles
from weitzlab import curvature as curv
from weitzlab import representations as reps
from weitzlab import so_algebra as so
from weitzlab import spin
from weitzlab import suites
from weitzlab import weitzenbock as wb
from weitzlab.casimir_weights import so_casimir_scalar, spin_highest_weight
from weitzlab.suites import positive_definite_curvature


def _report(criterion: str, name: str) -> None:
    print(f"[ACCEPTANCE] criterion {criterion} ({name}): PASS")


def test_criterion_1_lichnerowicz():
    start = time.time()
    for n in range(3, 9):
        sp = spin.rep_spin(so.basis(n))
        for trial in range(20):
            op = curv.random_curvature(n, 100 * n + trial)
            k = wb.k_matrix(op, sp)
            s = curv.scalar(op)
            resid = np.linalg.norm(-4.0 * k - (s / 4.0) * np.eye(sp.dim))
            assert resid <= 1e-9 * (1.0 + np.linalg.norm(k)), f"n={n} trial={trial}"
    # negative control at n=4 (at n=3 every symmetric operator is Bianchi)
    sp4 = spin.rep_spin(so.basis(4))
    violations = 0
    for trial in range(100):
        op = curv.random_symmetric(4, 7_000 + trial)
        k = wb.k_matrix(op, sp4)
        s = curv.scalar(op)
        resid = np.linalg.norm(-4.0 * k - (s / 4.0) * np.eye(4)) / (1.0 + np.linalg.norm(k))
        if resid > 1e-3:
            violations += 1
    assert violations >= 95, f"only {violations}/100 non-Bianchi violations"
    elapsed = time.time() - start
    assert elapsed <= 30.0, f"criterion 1 took {elapsed:.1f}s"
    _report("1", "lichnerowicz")


def test_criterion_2_bochner():
    start = time.time()
    for n in range(3, 9):
        v = reps.rep_vector(so.basis(n))
        for trial in range(20):
            op = curv.random_curvature(n, 100 * n + trial)
            resid = np.linalg.norm(-2.0 * wb.k_matrix(op, v) - curv.ricci(op))
            assert resid <= 1e-10, f"n={n} trial={trial}: {resid}"
    elapsed = time.time() - start
    assert elapsed <= 5.0, f"criterion 2 took {elapsed:.1f}s"
    _report("2", "bochner")


def test_criterion_3_sphere_casimir():
    for n in range(2, 7):
        b = so.basis(n)
        sph = curv.sphere(n)
        for r in wb.standard_family(b):
            resid = np.linalg.norm(wb.k_matrix(sph, r) - reps.casimir(r))
            assert resid <= 1e-12, f"n={n} rep={r.label}: {resid}"
    from fractions import Fraction

    for n in (3, 4, 5, 6):
        b = so.basis(n)
        m = n // 2
        e1 = tuple(Fraction(int(i == 0)) for i in range(m))
        hw2 = e1 if n == 3 else tuple(Fraction(int(i <= 1)) for i in range(m))
        for r, w in (
            (reps.rep_vector(b), e1),
            (reps.rep_exterior(b, 2), hw2),
            (spin.rep_spin(b), spin_highest_weight(n)),
        ):
            cas = reps.casimir(r)
            scalar = float(np.real(np.trace(cas))) / r.dim
            assert abs(scalar + float(so_casimir_scalar(n, w))) <= 1e-9, f"n={n} {r.label}"
    _report("3", "sphere-casimir")


def test_criterion_4_strange_formula():
    start = time.time()
    for label in ("A1", "A2", "B2", "C3", "D4", "G2"):
        g = so.simple_algebra(label)
        from weitzlab.casimir_weights import strange_formula_check

        rep = strange_formula_check(g)
        assert rep.passed and rep.residual == 0.0, label
    elapsed = time.time() - start
    assert elapsed <= 1.0, f"criterion 4 took {elapsed:.2f}s"
    _report("4", "strange-formula")


def test_criterion_5_bi_invariant_model():
    for label in ("A1", "A2"):
        g = so.simple_algebra(label)
        op = curv.bi_invariant_group(g)
        assert np.linalg.norm(curv.ricci(op) - np.eye(g.dim) / 4.0) <= 1e-10, label
        assert abs(curv.scalar(op) - g.dim / 4.0) <= 1e-10, label
    # the spinor curvature term of the A1 metric: -(1/2) sum rho(ad y_c)^2
    g = so.simple_algebra("A1")
    sob = so.basis(g.dim)
    sp = spin.rep_spin(sob)
    stacked = oracles.dense(sp)
    total = np.zeros((sp.dim, sp.dim), dtype=complex)
    for a in g.ad:
        coeff = so.expand(sob, np.real(a))
        rho_ad = np.tensordot(coeff, stacked, axes=(0, 0))
        total += rho_ad @ rho_ad
    term = -0.5 * total
    assert np.linalg.norm(term - (g.dim / 16.0) * np.eye(sp.dim)) <= 1e-9
    _report("5", "bi-invariant-model")


def test_criterion_6_projection_lemma():
    start = time.time()
    reports = suites.lemma_suite("k2", trials=20, seed=1, tol=1e-8)
    assert all(r.passed for r in reports)
    reports = suites.lemma_suite("k4", trials=20, seed=1, tol=1e-8)
    assert all(r.passed for r in reports)
    assert all(r.inputs["subspace_dim"] == 21 for r in reports)
    elapsed = time.time() - start
    assert elapsed <= 120.0, f"criterion 6 took {elapsed:.1f}s"
    _report("6", "projection-lemma")


def test_criterion_7_positivity_forward():
    for n in (3, 4, 5, 6):
        family = wb.standard_family(so.basis(n))
        for trial in range(100):
            op = positive_definite_curvature(n, 900 * n + trial)
            for r in family:
                k = wb.k_matrix(op, r)
                w = np.linalg.eigvalsh((k + k.conj().T) / 2.0)
                assert np.min(-w) > 0.0, f"n={n} trial={trial} rep={r.label}"
    # the converse search is diagnostic only: an indefinite operator must not
    # flip the exit semantics of the suite
    op = curv.curvature_operator(3, np.diag([1.0, 1.0, -1.0]))
    report = wb.positivity_report(op, search_dim_cap=64)
    assert "DIAGNOSTIC" in report.overall
    _report("7", "positivity-forward")


def test_criterion_8_four_dim_blocks():
    ratios = []
    for trial in range(100):
        op = curv.random_curvature(4, 40_000 + trial)
        blocks = curv.four_dim_blocks(op)
        ric0 = curv.ricci(op) - curv.scalar(op) / 4.0 * np.eye(4)
        mixed_small = np.linalg.norm(blocks.mixed) <= 1e-9
        ric0_small = np.linalg.norm(ric0) <= 1e-9
        assert mixed_small == ric0_small, f"trial={trial}"
        if not ric0_small:
            ratios.append(np.linalg.norm(blocks.mixed) / np.linalg.norm(ric0))
    # Einstein side of the iff
    for trial in range(20):
        op = curv.einstein_project(curv.random_curvature(4, 41_000 + trial))
        blocks = curv.four_dim_blocks(op)
        assert np.linalg.norm(blocks.mixed) <= 1e-9
    assert len(ratios) >= 90  # generic samples are non-Einstein
    spread = (max(ratios) - min(ratios)) / max(ratios)
    assert spread <= 1e-6, f"ratio spread {spread}"
    _report("8", "four-dim-blocks")


def test_criterion_9_structural_integrity():
    # homomorphism residuals across the family and the derived reps
    for n in range(2, 9):
        b = so.basis(n)
        for r in wb.standard_family(b):
            m = oracles.dense(r)
            assert oracles.homomorphism_residual(r) <= 1e-10, f"n={n} {r.label}"
            assert np.linalg.norm(m + m.conj().swapaxes(1, 2)) <= 1e-12, f"n={n} {r.label}"
    extra = [reps.rep_exterior(so.basis(4), p) for p in range(5)] + [
        reps.rep_sym(so.basis(5), 2),
        reps.rep_tensor(reps.rep_vector(so.basis(3)), spin.rep_spin(so.basis(3))),
    ]
    for r in extra:
        assert oracles.homomorphism_residual(r) <= 1e-10, r.label
    # Clifford relations e_i e_j + e_j e_i + 2 delta_ij = 0
    for n in range(2, 9):
        g = oracles.dense_pauli(*spin._clifford_strings(n), 2 ** (n // 2))
        assert np.array_equal(g, oracles.gamma_dense(n)), f"n={n}"
        acomm = g[:, None] @ g[None] + g[None] @ g[:, None]
        acomm[np.arange(n), np.arange(n)] += 2.0 * np.eye(g.shape[1])
        assert np.linalg.norm(acomm) <= 1e-12, f"n={n}"
    # isotypic projectors: idempotent, self-adjoint, orthogonal, complete
    cases = [
        reps.isotypic_decompose(reps.rep_exterior(so.basis(4), 2)),
        reps.isotypic_decompose(
            reps.rep_restrict(reps.rep_exterior(so.basis(4), 2), so.u_subalgebra(2))
        ),
        reps.isotypic_decompose(
            reps.rep_tensor(reps.rep_vector(so.basis(3)), reps.rep_vector(so.basis(3)))
        ),
    ]
    for pieces in cases:
        dim = pieces[0].projector.shape[0]
        total = sum(p.projector for p in pieces)
        assert np.linalg.norm(total - np.eye(dim)) <= 1e-10
        for p in pieces:
            assert np.linalg.norm(p.projector @ p.projector - p.projector) <= 1e-10
            assert np.linalg.norm(p.projector - p.projector.conj().T) <= 1e-10
            for q in pieces:
                if p is not q:
                    assert np.linalg.norm(p.projector @ q.projector) <= 1e-10
    # CLI determinism: byte-identical JSON for an identical run configuration
    args = [
        sys.executable,
        "-m",
        "weitzlab.cli",
        "check",
        "blocks4",
        "--trials",
        "5",
        "--seed",
        "2",
    ]
    first = subprocess.run(args, capture_output=True, check=True).stdout
    second = subprocess.run(args, capture_output=True, check=True).stdout
    assert first == second and first.strip()
    payload = json.loads(first)
    assert payload["summary"]["failed"] == 0
    _report("9", "structural-integrity")
