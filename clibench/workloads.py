"""The three workloads: lists of weitzlab command lines with output checks.

Every workload is built from the benchmark seed alone.  Sizes never depend
on the seed; only the seeds and curvature values handed to the program do.
Each check receives the parsed JSON payload and raises :class:`WrongOutput`
when it does not hold.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle


class WrongOutput(Exception):
    pass


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[dict], None] | None
    expect_exit: int = 0


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise WrongOutput(what)


def _close(got, want, what: str, rel: float = 1e-9) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    _require(got.shape == want.shape, f"{what}: shape {got.shape}, expected {want.shape}")
    tol = rel * max(1.0, float(np.max(np.abs(want))) if want.size else 1.0)
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    _require(err <= tol, f"{what}: off by {err:.3e} (tolerance {tol:.1e})")


def _single_report(payload: dict, check: str) -> dict:
    reports = payload["reports"]
    _require(len(reports) == 1 and reports[0]["check"] == check, f"expected one {check} report")
    _require(reports[0]["pass"] is True, f"{check} report did not pass")
    return reports[0]


# ---------------------------------------------------------------------------
# spinor-suites
# ---------------------------------------------------------------------------


def _suite_counts(suite: str, trials: int) -> dict[str, int]:
    """Reports each suite must emit for the given trial count."""
    if suite == "lichnerowicz":
        return {"lichnerowicz": trials, "lichnerowicz-negative-control": 1}
    if suite == "bochner":
        return {"bochner": trials}
    if suite == "blocks4":
        return {
            "blocks4-mixed-iff-ric0": trials,
            "blocks4-einstein-mixed-vanishes": min(trials, 20),
            "blocks4-ratio-constant": 1,
        }
    return {f"projection-lemma-{suite.split(':')[1]}": trials}


#: Dimension of the permutation-fixed subspace of each lemma: Sym^2 of the
#: n = 3 spinors, and Sym^2(Lambda^2 R^4) inside the 4th power of n = 4 spinors.
_LEMMA_SUBSPACE = {"lemma:k2": 3, "lemma:k4": 21}


def _suite_check(suite: str, trials: int, seed: int, n: int | None):
    def check(payload: dict) -> None:
        summary = payload["summary"]
        _require(summary["failed"] == 0 and summary["diagnostic"] == 0, f"summary {summary}")
        reports = payload["reports"]
        counts: dict[str, int] = {}
        for r in reports:
            counts[r["check"]] = counts.get(r["check"], 0) + 1
            _require(r["pass"] is True, f"{r['check']} failed")
        _require(counts == _suite_counts(suite, trials), f"report counts {counts}")
        trial_reports = [r for r in reports if "seed" in r["inputs"]][:trials]
        _require(
            [r["inputs"]["seed"] for r in trial_reports] == [seed + t for t in range(trials)],
            "trial seeds do not follow --seed",
        )
        if n is not None:
            _require(all(r["inputs"]["n"] == n for r in trial_reports), "reports ran at another n")
        if suite in _LEMMA_SUBSPACE:
            dims = {r["inputs"]["subspace_dim"] for r in reports}
            _require(dims == {_LEMMA_SUBSPACE[suite]}, f"subspace_dim {dims}")

    return check


def spinor_suites(rng: np.random.Generator, workdir: str) -> list[Op]:
    # six short invocations and three long ones, so op_p50_s lands among
    # the short ones and a round stays near 6 s
    plan = [
        ("lichnerowicz", 4, 20),
        ("lichnerowicz", 5, 20),
        ("lichnerowicz", 7, 20),
        ("bochner", 4, 20),
        ("bochner", 5, 20),
        ("bochner", 7, 20),
        ("blocks4", None, 20),
        ("lemma:k2", None, 20),
        ("lemma:k4", None, 10),
    ]
    ops = []
    for suite, n, trials in plan:
        seed = int(rng.integers(1, 1_000_000))
        argv = ["check", suite, "--trials", str(trials), "--seed", str(seed)]
        if n is not None:
            argv += ["--n", str(n)]
        ops.append(Op(tuple(argv), _suite_check(suite, trials, seed, n)))
    return ops


# ---------------------------------------------------------------------------
# isotypic
# ---------------------------------------------------------------------------


def _decompose_check(n: int, rep: str, sub: str):
    want = oracle.expected_pieces(n, rep, sub)

    def check(payload: dict) -> None:
        report = _single_report(payload, "isotypic-decomposition")
        details = report["details"]
        _require(details["total_dim"] == sum(p[0] for p in want), f"total_dim {details['total_dim']}")
        pieces = details["pieces"]
        got = sorted((p["dim"], p["multiplicity"]) for p in pieces)
        _require(got == sorted((d, m) for d, m, _ in want), f"pieces {got}, branching rule {want}")
        if sub == "so-full":
            got_cas = sorted((p["casimir_eigenvalue"], p["dim"]) for p in pieces)
            want_cas = sorted((c, d) for d, _, c in want)
            _require([d for _, d in got_cas] == [d for _, d in want_cas], "Casimir order")
            _close([c for c, _ in got_cas], [c for c, _ in want_cas], "Casimir eigenvalues")

    return check


def _positivity_check(spectrum: np.ndarray):
    # At n = 3: -K on vector (and on the adjoint, its Hodge dual) has the
    # eigenvalues r_a + r_b over pairs of eigenvalues of R, and -K on spin is
    # s/16 = tr(R)/4.  The family is vector, sym0, spin, adjoint, and the
    # diagnostic search covers it plus its 10 pairwise tensor products.
    vector_min = spectrum[0] + spectrum[1]
    want = {"vector": (3, vector_min), "sym0(2)": (5, None), "spin": (2, spectrum.sum() / 4), "adjoint": (3, vector_min)}

    def check(payload: dict) -> None:
        report = payload["reports"][0]
        _require(len(payload["reports"]) == 1 and report["check"] == "positivity-report", "one positivity report")
        _require(report["pass"] is True and payload["summary"]["failed"] == 0, "positivity report failed")
        details = report["details"]
        _close(details["r_spectrum"], spectrum, "R spectrum")
        entries = {e["label"]: e for e in details["entries"]}
        _require(sorted(entries) == sorted(want), f"family {sorted(entries)}")
        for label, (dim, low) in want.items():
            e = entries[label]
            _require(e["dim"] == dim and e["irreducible"] is True, f"{label} entry {e}")
            if low is not None:
                _close([e["min_eig_neg_k"]], [low], f"min eigenvalue of -K on {label}")
        _require("DIAGNOSTIC" in details["overall"], "indefinite R must run the diagnostic search")
        _require(len(details["diagnostic"]["searched"]) == 14, "diagnostic search size")

    return check


def isotypic(rng: np.random.Generator, workdir: str) -> list[Op]:
    plan = [
        (6, "exterior:2", "u:3"),
        (5, "adjoint", "so:4"),
        (5, "sym0", "so:3"),
        (4, "tensor:vector,vector", "so-full"),
    ]
    ops = []
    for n, rep, sub in plan:
        seed = int(rng.integers(0, 1_000_000))
        argv = ("decompose", "--n", str(n), "--rep", rep, "--sub", sub, "--seed", str(seed))
        ops.append(Op(argv, _decompose_check(n, rep, sub)))
    matrix, spectrum = oracle.indefinite_operator(rng)
    path = _write_curvature(workdir, "positivity-n3.json", 3, matrix)
    ops.append(Op(("check", "positivity", "--n", "3", "--curvature", f"file:{path}"), _positivity_check(spectrum)))
    return ops


# ---------------------------------------------------------------------------
# k-spectra
# ---------------------------------------------------------------------------


def _k_check(want: list[float]):
    def check(payload: dict) -> None:
        _close(_single_report(payload, "k-term")["spectrum"], sorted(want), "spectrum of tK")

    return check


def _write_curvature(workdir: str, name: str, n: int, matrix: np.ndarray) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(oracle.curvature_json(n, matrix), fh)
    return path


#: Command lines that fail today although each is a usage error (exit 2):
#: the first three end in a ValueError traceback (exit 1), the last exits 0
#: with zero reports.
KNOWN_FAULTS = (
    ("check", "strange", "--algebra", "E8"),
    ("decompose", "--n", "6", "--rep", "vector", "--sub", "u:x"),
    ("k", "--n", "1", "--rep", "vector", "--curvature", "sphere"),
    ("check", "lemma:k4", "--trials", "0"),
)


def k_spectra(rng: np.random.Generator, workdir: str) -> list[Op]:
    ops = []
    sphere = [
        (10, "exterior:5"),
        (10, "adjoint"),
        (10, "sym:3"),
        (14, "sym0"),
        (14, "spin"),
        (14, "spin:+"),
    ]
    for n, rep in sphere:
        want = oracle.sphere_spectrum(n, rep)
        ops.append(Op(("k", "--n", str(n), "--rep", rep, "--curvature", "sphere"), _k_check(want)))
    # one preset per curvature file and per group keeps a round short
    for n, rep in ((6, "spin"), (10, "vector"), (12, "spin")):
        t = oracle.kulkarni_nomizu_tensor(n, rng)
        ric = oracle.ricci(t)
        path = _write_curvature(workdir, f"kn-n{n}.json", n, oracle.tensor_to_matrix(t))
        source = ("--curvature", f"file:{path}")
        if rep == "spin":
            want = [float(np.trace(ric)) / 4.0] * 2 ** (n // 2)
            ops.append(Op(("k", "--n", str(n), "--rep", "spin", *source, "--preset", "spinor_dirac"), _k_check(want)))
        else:
            want = list(np.linalg.eigvalsh(ric))
            ops.append(Op(("k", "--n", str(n), "--rep", "vector", *source, "--preset", "hodge"), _k_check(want)))
    for label, rep, preset in (("A2", "vector", "hodge"), ("B2", "spin", "spinor_dirac"), ("G2", "spin", "spinor_dirac")):
        ops.append(Op(("k", "--rep", rep, "--curvature", f"group:{label}", "--preset", preset),
                      _k_check(oracle.group_spectrum(label, rep))))
    ops.extend(Op(argv, None, expect_exit=2) for argv in KNOWN_FAULTS)
    return ops


WORKLOADS = {
    "spinor-suites": spinor_suites,
    "isotypic": isotypic,
    "k-spectra": k_spectra,
}
