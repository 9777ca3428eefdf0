"""End-to-end benchmark of the weitzlab command line.

Usage (from the root of a checkout)::

    python3 clibench/run.py --workload spinor-suites --seed 1 --seconds 46 --trace 0

Each operation is one ``weitzlab`` invocation in a fresh process, started
one at a time, so every call pays its own cold start as a user's does.  A
run repeats whole rounds of its workload's operations, at least three, for
about ``--seconds``, checks every output against values computed in
``oracle.py``, and prints one JSON object as the last line of standard
output.  A run of ``reference.py``, a fixed computation that does not import
weitzlab, comes before and after every invocation, and every time is
reported relative to the two around it, so that changes in the speed of a
shared host cancel out.
With ``--trace 1`` the rounds alternate between plain invocations and
invocations through ``traced_cli.py``, and the per-layer metrics are
printed instead.  See README.md in this directory for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import tracing
from workloads import WORKLOADS, WrongOutput

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Working directory for generated inputs, child output and spans, relative
#: to the checkout root, which is the working directory of every child.
WORK = ".clibench_work"

#: BLAS and OpenMP threads in every child: one, so a run neither competes
#: with itself nor depends on how busy the second core of the host is.
THREADS = 1
#: Address-space cap of each child; the largest operation peaks near 1.6 GiB.
ADDRESS_SPACE_CAP = 3 * 2**30
#: CPU-time cap of each child, so a runaway operation ends within a run.
CPU_CAP_S = 150
#: Fewest rounds per run; with ``--trace 1``, fewest plain and traced rounds each.
ROUNDS_MIN = 3
TRACED_ROUNDS_MIN = 2
#: Cold starts of ``python -m weitzlab --version`` at the start of each round.
COLD_STARTS = 1
REFERENCE = os.path.join(HERE, "reference.py")
#: Seconds that ``reference.py`` takes on a quiet 2-vCPU Xeon host.  Every
#: reported time is measured seconds x REFERENCE_S / the mean seconds of the
#: reference runs just before and just after it, that is seconds at the
#: speed of that quiet host.
REFERENCE_S = 0.19

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "slowest_op_s": "s",
    "peak_rss_mb": "MB",
}

_SELF_AND_CALLS = {f"{m}.{kind}": unit for m in tracing.MODULES for kind, unit in (("self_s", "s"), ("calls", "count"))}
PER_LAYER = {
    **_SELF_AND_CALLS,
    "cli.import_s": "s",
    **{f"curvature.{f}.s": "s" for f in ("random_curvature", "bianchi_project", "curvature_from_json", "bi_invariant_group")},
    "numerics.nullspace.s": "s",
    "numerics.nullspace.calls": "count",
    "numerics.nullspace.input_mb": "MB",
    "numerics.nullspace.max_rows": "count",
    "numerics.eig_hermitian.s": "s",
    "numerics.orthonormal_columns.s": "s",
    **{
        f"representations.{f}.s": "s"
        for f in ("intertwiners", "isotypic_decompose", "rep_exterior", "rep_adjoint", "rep_sym", "rep_restrict")
    },
    "weitzenbock.k_matrix.s": "s",
    "weitzenbock.k_matrix.calls": "count",
    **{
        f"weitzenbock.{f}.s": "s"
        for f in ("k_term", "lemma_check", "tensor_power_rep", "permutation_matrix", "twisted_term_k", "positivity_report")
    },
    "spin.rep_spin.s": "s",
    "spin.clifford_symbol.s": "s",
    "report.canonical_json.s": "s",
    "trace.overhead_s": "s",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("WEITZLAB_")}
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def _cap_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_CAP_S, CPU_CAP_S))


def spawn(cmd: list[str], env: dict) -> tuple[float, float, int, str, str]:
    """Run one child to completion; returns wall seconds, peak RSS in MiB
    (from its rusage), exit code, stdout and stderr."""
    out_path, err_path = os.path.join(WORK, "stdout"), os.path.join(WORK, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err, preexec_fn=_cap_child
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return elapsed, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr


def run_round(ops, env: dict, traced: bool) -> dict:
    """One pass over the workload: cold starts, then the operations in
    order, with a run of ``reference.py`` before the first and after every
    one.  Returns raw and scaled times, reference times, peak RSS, outcomes
    and, when traced, the summed per-layer reductions."""
    probes = [reference(env)]
    setup, times, rss, failures, wrong = [], [], [], 0, 0
    layers: dict = {}
    imports = []
    for _ in range(COLD_STARTS):
        setup.append(cold_start(env))
        probes.append(reference(env))
    for i, op in enumerate(ops):
        if traced:
            spans = os.path.join(WORK, "trace", f"op{i:02d}.jsonl")
            summary = os.path.join(WORK, "trace", f"op{i:02d}.summary.json")
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans, summary, *op.argv]
            if os.path.exists(summary):
                os.remove(summary)
        else:
            cmd = [sys.executable, "-m", "weitzlab", *op.argv]
        elapsed, peak, code, stdout, stderr = spawn(cmd, env)
        probes.append(reference(env))
        times.append(elapsed)
        rss.append(peak)
        problem = None
        if code != op.expect_exit:
            tail = stderr.strip().splitlines()[-1:] or [""]
            problem = f"exit {code}, expected {op.expect_exit}: {tail[0][:160]}"
        elif op.check is not None:
            try:
                op.check(json.loads(stdout))
            except (WrongOutput, ValueError, KeyError, IndexError, TypeError) as exc:
                problem = f"wrong output: {type(exc).__name__}: {exc}"
                wrong += 1
        if problem:
            failures += 1
            log(f"  FAILED weitzlab {' '.join(op.argv)}: {problem}")
        if traced and os.path.exists(summary):  # absent when the child was killed
            with open(summary, encoding="utf-8") as fh:
                reduced = json.load(fh)
            imports.append(reduced.pop("cli.import_s"))
            for key, value in reduced.items():
                if key.endswith(".max_rows"):
                    layers[key] = max(layers.get(key, 0), value)
                else:
                    layers[key] = layers.get(key, 0) + value
    if imports:
        layers["cli.import_s"] = statistics.median(imports)
    # a child's time at reference speed: scaled by the mean of the two
    # reference runs around it
    speed = [REFERENCE_S * 2 / (a + b) for a, b in zip(probes, probes[1:])]
    return {
        "times": times,
        "setup": setup,
        "probes": probes,
        "scaled_setup": [t * f for t, f in zip(setup, speed)],
        "scaled": [t * f for t, f in zip(times, speed[COLD_STARTS:])],
        "rss": rss,
        "failed": failures,
        "wrong": wrong,
        "layers": layers,
    }


def cold_start(env: dict) -> float:
    """Seconds of one ``python -m weitzlab --version``: import numpy and the
    package, parse arguments, exit."""
    elapsed, _, code, stdout, stderr = spawn([sys.executable, "-m", "weitzlab", "--version"], env)
    if code != 0 or not stdout.strip():
        raise RuntimeError(f"weitzlab --version failed (exit {code}): {stderr.strip()[-300:]}")
    return elapsed


def reference(env: dict) -> float:
    """Seconds of one run of ``reference.py``."""
    elapsed, _, code, _, stderr = spawn([sys.executable, REFERENCE], env)
    if code != 0:
        raise RuntimeError(f"reference.py failed (exit {code}): {stderr.strip()[-300:]}")
    return elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "weitzlab", "cli.py")):
        log(f"error: no weitzlab sources under {SRC}; run from the root of a checkout")
        return 2
    os.chdir(ROOT)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(os.path.join(WORK, "trace"))
    env = _child_env()

    # inputs are generated, and written, before anything is timed
    ops = WORKLOADS[args.workload](np.random.default_rng(args.seed), WORK)
    log(
        f"clibench {args.workload}: seed {args.seed}, {len(ops)} operations per round, "
        f"{THREADS} BLAS/OpenMP thread(s) of {os.cpu_count()} cpus, "
        f"address-space cap {ADDRESS_SPACE_CAP / 2**30:.1f} GiB, numpy {np.__version__}"
    )
    plain, traced = [], []
    start = time.perf_counter()
    longest = 0.0  # a round, or a plain and a traced round together
    rounds_min = TRACED_ROUNDS_MIN if args.trace else ROUNDS_MIN
    # whole rounds only, so every run fails the same share of its operations;
    # another round starts while the longest so far still fits in --seconds
    while len(plain) < rounds_min or time.perf_counter() - start + longest <= args.seconds:
        began = time.perf_counter()
        try:
            plain.append(run_round(ops, env, False))
            if args.trace:
                traced.append(run_round(ops, env, True))
        except RuntimeError as exc:
            log(f"error: {exc}")
            return 1
        longest = max(longest, time.perf_counter() - began)

    rounds = plain + traced
    attempted = len(ops) * len(rounds)
    failed = sum(r["failed"] for r in rounds)
    per_op = [[r["scaled"][i] for r in plain] for i in range(len(ops))]
    medians = [statistics.median(ts) for ts in per_op]
    for op, t, peak in zip(ops, medians, (max(r["rss"][i] for r in plain) for i in range(len(ops)))):
        log(f"  {t:8.3f} s {peak:8.1f} MiB  weitzlab {' '.join(op.argv)}")
    log(
        "rounds of "
        + ", ".join(f"{sum(r['times']):.3f} s (reference {statistics.median(r['probes']):.3f} s)" for r in plain)
        + f"; {len(rounds)} rounds in {time.perf_counter() - start:.1f} s, {failed} of {attempted} operations failed"
    )

    if args.trace:
        values = {
            name: statistics.median(r["layers"].get(name, 0) for r in traced)
            for name in PER_LAYER
            if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = sum(statistics.median(r["scaled"][i] for r in traced) for i in range(len(ops))) - sum(medians)
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(t for r in plain for t in r["scaled_setup"]),
            "wall_s": sum(medians),
            "op_p50_s": statistics.median(t for ts in per_op for t in ts),
            "slowest_op_s": max(medians),
            "peak_rss_mb": max(p for r in plain for p in r["rss"]),
        }
        units = END_TO_END
    with open(os.path.join(WORK, "rounds.json"), "w", encoding="utf-8") as fh:
        json.dump([{k: r[k] for k in ("times", "setup", "probes")} for r in rounds], fh)
    result = {
        "correct": not any(r["wrong"] for r in rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
