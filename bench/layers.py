"""Layer bench: the cold start, algebra construction, curvature sources, commutant dimensions,
isotypic splits, the projection lemma suites, the other trial-driven suites,
the sphere-Casimir suite, representation construction, the positivity
report and the assembly of K.

Times eleven layers of weitzlab, each measurement in a fresh interpreter so
that it pays every cold cost a CLI process pays:

* ``python -m weitzlab --version``, ``python -m weitzlab check lemma:k4
  --trials 0`` (a usage error, exit 2), ``python -m weitzlab k --n 4 --rep
  vector --curvature sphere`` (a valid request, interpreter exit included)
  ``python -m weitzlab check bochner --n 60 --trials 2`` (vectors of
  so(60), 1770 generators), ``python -m weitzlab check strange --seed 1``
  (root data of six algebras), ``python -m weitzlab decompose --n 6 --rep
  exterior:2 --sub u:3 --seed 1`` and ``python -m weitzlab check blocks4
  --trials 20 --seed 1`` (each of which loads only part of the package),
  ``python -m weitzlab check positivity --n 3 --curvature random:1 --seed
  1`` (which executes every module but ``casimir_weights``) and ``python
  -c "import weitzlab.cli"`` with
  ``PYTHONDONTWRITEBYTECODE=1``, timed from spawn to exit, so that each
  compiles the package from source as a benchmark child does (the CLI
  process, import included), and the three ``decompose`` lines at the edge
  of what the normal-matrix commutant solve handled, ``--n 12 --rep
  exterior:4 --sub u:6`` and ``--n 6`` and ``--n 7 --rep
  tensor:exterior:2,exterior:2 --sub so-full``, the same way;
* ``so_algebra.basis(n)`` for n = 40 and 60, ``so_algebra.u_subalgebra(6)``
  and ``so_algebra.simple_algebra`` for D4 and A8 (model, Killing pass and
  root data), each with its tracemalloc peak ``temp_mb`` (algebra
  construction);
* ``random_curvature(n, seed)`` for n = 4 ... 16, 24, 32 and 40 (curvature
  sources);
* ``representations.commutant_dimension(r)``, the commutant's dimension
  (from highest-weight multiplicities, or from the normal-matrix solve in
  older trees), for sym0 at n = 6, the adjoint at n = 7, spin at n = 8,
  exterior(3) at n = 7, 8 and 10, and vector (x) spin restricted to u(3) at
  n = 6 (the dense kernel);
* a whole ``isotypic_decompose`` for the four ``decompose`` invocations of
  the isotypic workload, plus the ``sym0`` / ``so:3`` case at n = 6 and
  exterior(4) restricted to u(6) at n = 12;
* ``suites.lemma_suite("k4", 10, seed)``, ``lemma_suite("k4", 100, seed)``
  and ``lemma_suite("k2", 20, seed)`` (a suite: the checks on the subspace
  basis, and K and W restricted to the subspace);
* ``suites.lichnerowicz_suite`` at n = 4, 5, 7 and 16, ``bochner_suite`` at
  n = 7 and ``blocks4_suite``, each with 20 trials (the other trial-driven
  suites: seeded draws, Bianchi projection, blade coefficients of K on
  spinors or K on vectors, the 4-d blocks and the report digests);
* ``suites.sphere_casimir_suite`` at n = 10, 11 and 12 (K of the sphere
  against the Casimir on the standard family, and the highest-weight
  Casimir scalars);
* ``rep_adjoint`` at n = 10 and 12, ``rep_exterior`` at (n, p) = (10, 5)
  and (12, 6), ``rep_sym`` at (10, 3), ``rep_sym0`` at n = 14 and
  ``spin.rep_half_spin`` (the + half) at n = 14 and 20 (representation
  construction);
* ``weitzenbock.positivity_report`` on ``random_curvature(n, 2)`` for
  n = 3 ... 7; the operator is indefinite, so the diagnostic search over the
  pairwise tensor products of the standard family runs up to
  ``weitzenbock.SEARCH_DIM_CAP`` (the positivity suite with an explicit
  operator);
* ``weitzenbock.k_matrix`` on ``random_curvature(n, 1)`` for exterior(5) at
  n = 10, exterior(6) at n = 12, sym(3) at n = 10, spin and the + half-spin
  at n = 14 and exterior(3) (x) exterior(3) at n = 7 (the largest positivity
  product at n = 7), and on the bi-invariant curvature of G2 and of C3 for
  spin (n = 14 and 21), with the time to build each representation beside
  it (assembly of K).

Each child runs with one BLAS/OpenMP thread and a 3 GiB address-space cap,
and reports its own peak RSS (a cold start's comes from its rusage).  A
commutant dimension or an isotypic split whose calls average under
``LOOP_BELOW_S`` is called again in the same child, each time on a freshly
built representation (untimed), until the timed calls add up to
``LOOP_TARGET_S``; the child reports the mean time per call and the number
of calls (``loops``), so that a case of a few milliseconds is resolved.  The
record holds the median of five repeats (21 for a cold start but the
``decompose`` edge lines; one in the baseline tree for the n = 7 line, which
took minutes before highest weights), the sizes
(n, rep dimension d, generator count N, tensor power k, commutant dimension,
number of isotypic pieces, family dimensions, products searched, the largest
product dimension and the nonzero generator entries) and the git revision of
the tree measured.  A ``random_curvature`` size that fails or exceeds the child time
limit ends that ladder; any other failed case is recorded with its error and
the next case runs.

    python bench/layers.py --out BENCH_<pr>.json
    python bench/layers.py --baseline-src OTHER/src --out BENCH_<pr>.json

``--out`` is required, so that no run overwrites an earlier record.

With ``--baseline-src`` the same measurements also run against another
source tree (for example a checkout of the parent commit) and are stored
under ``"baseline"``.  The two trees take turns repeat by repeat within each
case, the first turn alternating, so that a drift of the host's speed during
the run lands on both alike.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREADS = "1"
CAP_BYTES = 3 << 30
REPEATS = 5
CHILD_TIMEOUT_S = 300
CURVATURE_NS = (*range(4, 17), 24, 32, 40)
#: (n, rep, subalgebra) of each commutant dimension timed.
INTERTWINER_CASES = (
    (6, "sym0", "so-full"),
    (7, "adjoint", "so-full"),
    (8, "spin", "so-full"),
    (7, "exterior:3", "so-full"),
    (8, "exterior:3", "so-full"),
    (10, "exterior:3", "so-full"),
    (6, "tensor:vector,spin", "u:3"),
)
#: Calls that average less than LOOP_BELOW_S seconds are repeated in
#: process, each on a fresh representation, until they take LOOP_TARGET_S.
LOOP_BELOW_S = 0.03
LOOP_TARGET_S = 0.2
#: (n, rep, subalgebra) of each isotypic decomposition timed.
DECOMPOSE_CASES = (
    (6, "exterior:2", "u:3"),
    (5, "adjoint", "so:4"),
    (5, "sym0", "so:3"),
    (4, "tensor:vector,vector", "so-full"),
    (6, "sym0", "so:3"),
    (12, "exterior:4", "u:6"),
)
#: (kind, trials) of each lemma suite timed; every suite starts at LEMMA_SEED.
#: k4 at two trial counts, so that the per-trial cost shows apart from setup.
LEMMA_CASES = (("k4", 10), ("k4", 100), ("k2", 20))
LEMMA_SEED = 1
#: (suite, n or None) of each trial-driven suite timed, with TRIAL_COUNT trials from TRIAL_SEED.
TRIAL_CASES = (
    ("lichnerowicz", 4),
    ("lichnerowicz", 5),
    ("lichnerowicz", 7),
    ("lichnerowicz", 16),
    ("bochner", 7),
    ("blocks4", None),
)
TRIAL_COUNT = 20
TRIAL_SEED = 1
#: n of each sphere-Casimir suite timed.
SPHERE_CASIMIR_NS = (10, 11, 12)
#: (constructor, n, degree p or None) of each representation timed.
REP_CASES = (
    ("rep_adjoint", 10, None),
    ("rep_adjoint", 12, None),
    ("rep_exterior", 10, 5),
    ("rep_exterior", 12, 6),
    ("rep_sym", 10, 3),
    ("rep_sym0", 14, None),
    ("rep_half_spin", 14, 1),
    ("rep_half_spin", 20, 1),
)
#: n of each positivity report; the curvature operator is random_curvature(n, POSITIVITY_SEED).
POSITIVITY_NS = range(3, 8)
POSITIVITY_SEED = 2
#: (n, rep) of each K assembly timed.
K_CASES = (
    (10, "exterior:5"),
    (12, "exterior:6"),
    (10, "sym:3"),
    (14, "spin"),
    (14, "spin:+"),
    (7, "tensor:exterior:3,exterior:3"),
)
K_SEED = 1
#: (algebra, rep) of each K assembly timed on a group's bi-invariant curvature.
K_GROUP_CASES = (("G2", "spin"), ("C3", "spin"))
#: (name, interpreter arguments, exit code) of each cold start timed: the
#: whole CLI process on --version, on a usage error, on a small valid
#: request (which runs with the import-time heap frozen), on a suite over
#: so(60), on the root data of six algebras and on two commands that
#: execute only part of the package, and the package import alone, all
#: compiled from source.
COLD_CASES = (
    ("weitzlab --version", ["-m", "weitzlab", "--version"], 0),
    ("weitzlab check lemma:k4 --trials 0", ["-m", "weitzlab", "check", "lemma:k4", "--trials", "0"], 2),
    (
        "weitzlab k --n 4 --rep vector --curvature sphere",
        ["-m", "weitzlab", "k", "--n", "4", "--rep", "vector", "--curvature", "sphere"],
        0,
    ),
    (
        "weitzlab check bochner --n 60 --trials 2",
        ["-m", "weitzlab", "check", "bochner", "--n", "60", "--trials", "2"],
        0,
    ),
    ("weitzlab check strange --seed 1", ["-m", "weitzlab", "check", "strange", "--seed", "1"], 0),
    (
        "weitzlab decompose --n 6 --rep exterior:2 --sub u:3 --seed 1",
        ["-m", "weitzlab", "decompose", "--n", "6", "--rep", "exterior:2", "--sub", "u:3", "--seed", "1"],
        0,
    ),
    (
        "weitzlab check blocks4 --trials 20 --seed 1",
        ["-m", "weitzlab", "check", "blocks4", "--trials", "20", "--seed", "1"],
        0,
    ),
    (
        "weitzlab check positivity --n 3 --curvature random:1 --seed 1",
        ["-m", "weitzlab", "check", "positivity", "--n", "3", "--curvature", "random:1", "--seed", "1"],
        0,
    ),
    ("import weitzlab.cli", ["-c", "import weitzlab.cli"], 0),
)
COLD_REPEATS = 21
#: (name, interpreter arguments, repeats in the baseline tree) of each
#: ``decompose`` at the edge of what the normal-matrix commutant solve
#: handled, timed as a cold start with REPEATS repeats: exterior(4) under
#: u(6) at n = 12, and Λ² ⊗ Λ² over the whole so(6) and so(7).  The n = 7
#: line took 138-167 s and 2 GB with that solve, so one repeat of it is
#: enough in a baseline tree that still has it.
EDGE_CASES = (
    (
        "weitzlab decompose --n 12 --rep exterior:4 --sub u:6",
        ["-m", "weitzlab", "decompose", "--n", "12", "--rep", "exterior:4", "--sub", "u:6"],
        REPEATS,
    ),
    (
        "weitzlab decompose --n 6 --rep tensor:exterior:2,exterior:2 --sub so-full",
        ["-m", "weitzlab", "decompose", "--n", "6", "--rep", "tensor:exterior:2,exterior:2", "--sub", "so-full"],
        REPEATS,
    ),
    (
        "weitzlab decompose --n 7 --rep tensor:exterior:2,exterior:2 --sub so-full",
        ["-m", "weitzlab", "decompose", "--n", "7", "--rep", "tensor:exterior:2,exterior:2", "--sub", "so-full"],
        1,
    ),
)
#: (function of so_algebra, argument) of each algebra construction timed.
ALGEBRA_CASES = (("basis", 40), ("basis", 60), ("u_subalgebra", 6), ("simple_algebra", "D4"), ("simple_algebra", "A8"))


# ---------------------------------------------------------------------------
# child side: one measurement, printed as JSON on stdout
# ---------------------------------------------------------------------------


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _child_algebra(function: str, n: int | str) -> dict:
    import tracemalloc

    from weitzlab import so_algebra

    build = getattr(so_algebra, function)
    tracemalloc.start()
    t0 = time.perf_counter()
    algebra = build(n)
    seconds = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {"seconds": seconds, "dim": algebra.dim, "temp_mb": peak / 2**20, "peak_rss_mb": _peak_rss_mb()}


def _child_curvature(n: int) -> dict:
    from weitzlab import curvature

    t0 = time.perf_counter()
    curvature.random_curvature(n, 1)
    return {"seconds": time.perf_counter() - t0, "peak_rss_mb": _peak_rss_mb()}


def _looped(build, call) -> tuple[float, int, object, object]:
    """``call(build())`` timed without its build: once, and while the calls
    average under LOOP_BELOW_S, again on a fresh ``build()`` each time until
    the timed calls add up to LOOP_TARGET_S.  The mean seconds per call, the
    number of calls, and the last input and result."""
    total, loops = 0.0, 0
    while loops == 0 or (total < LOOP_TARGET_S and total / loops < LOOP_BELOW_S):
        arg = build()
        t0 = time.perf_counter()
        result = call(arg)
        total += time.perf_counter() - t0
        loops += 1
    return total / loops, loops, arg, result


def _restricted(n: int, rep: str, sub: str):
    """The representation ``rep`` of so(n), restricted to ``sub`` unless that
    is so-full, built afresh."""
    from weitzlab import cli, representations
    from weitzlab.so_algebra import basis

    r = cli.parse_rep(rep, basis(n))
    return r if sub == "so-full" else representations.rep_restrict(r, cli.parse_subalgebra(sub, n))


def _child_intertwiners(n: int, rep: str, sub: str) -> dict:
    from weitzlab import representations

    seconds, loops, r, dim = _looped(lambda: _restricted(n, rep, sub), representations.commutant_dimension)
    return {"seconds": seconds, "loops": loops, "d": r.dim, "N": r.count, "commutant_dim": dim, "peak_rss_mb": _peak_rss_mb()}


def _child_decompose(n: int, rep: str, sub: str) -> dict:
    from weitzlab import representations

    seconds, loops, restricted, pieces = _looped(
        lambda: _restricted(n, rep, sub), lambda r: representations.isotypic_decompose(r, seed=0)
    )
    return {
        "seconds": seconds,
        "loops": loops,
        "d": restricted.dim,
        "N": restricted.count,
        "pieces": len(pieces),
        "peak_rss_mb": _peak_rss_mb(),
    }


def _child_lemma(kind: str, trials: int) -> dict:
    from weitzlab import suites

    t0 = time.perf_counter()
    reports = suites.lemma_suite(kind, trials, LEMMA_SEED)
    seconds = time.perf_counter() - t0
    n = reports[0].inputs["n"]
    d = 2 ** (n // 2)  # spinor dimension
    return {
        "seconds": seconds, "n": n, "d": d, "N": n * (n - 1) // 2, "power_dim": d ** int(kind[1:]),
        "peak_rss_mb": _peak_rss_mb(),
    }


def _child_trials(suite: str, n: int | None) -> dict:
    from weitzlab import suites

    run = getattr(suites, f"{suite}_suite")
    t0 = time.perf_counter()
    reports = run(TRIAL_COUNT, TRIAL_SEED) if n is None else run(n, TRIAL_COUNT, TRIAL_SEED)
    seconds = time.perf_counter() - t0
    return {"seconds": seconds, "reports": len(reports), "peak_rss_mb": _peak_rss_mb()}


def _child_sphere_casimir(n: int) -> dict:
    from weitzlab import suites, weitzenbock
    from weitzlab.so_algebra import basis

    t0 = time.perf_counter()
    reports = suites.sphere_casimir_suite(n)
    seconds = time.perf_counter() - t0
    dims = [r.dim for r in weitzenbock.standard_family(basis(n))]
    return {"seconds": seconds, "reports": len(reports), "family_dims": dims, "peak_rss_mb": _peak_rss_mb()}


def _child_rep(constructor: str, n: int, p: int | None) -> dict:
    from weitzlab import representations, spin
    from weitzlab.so_algebra import basis

    b = basis(n)
    build = getattr(spin if constructor == "rep_half_spin" else representations, constructor)
    t0 = time.perf_counter()
    r = build(b) if p is None else build(b, p)
    return {"seconds": time.perf_counter() - t0, "d": r.dim, "peak_rss_mb": _peak_rss_mb()}


def _search_dim_cap(weitzenbock) -> int:
    """The cap on a searched tensor product of the tree measured: its
    module constant, or the default of the keyword that older trees took."""
    import inspect

    if hasattr(weitzenbock, "SEARCH_DIM_CAP"):
        return weitzenbock.SEARCH_DIM_CAP
    return inspect.signature(weitzenbock.positivity_report).parameters["search_dim_cap"].default


def _child_positivity(n: int) -> dict:
    from weitzlab import curvature, weitzenbock
    from weitzlab.so_algebra import basis

    op = curvature.random_curvature(n, POSITIVITY_SEED)
    t0 = time.perf_counter()
    report = weitzenbock.positivity_report(op)
    seconds = time.perf_counter() - t0
    if not report.diagnostic:
        raise SystemExit(f"random_curvature({n}, {POSITIVITY_SEED}) is not indefinite: no search ran")
    dims = [r.dim for r in weitzenbock.standard_family(basis(n))]
    cap = _search_dim_cap(weitzenbock)
    products = [a * b for a, b in itertools.combinations_with_replacement(dims, 2) if a * b <= cap]
    return {
        "seconds": seconds,
        "search_dim_cap": cap,
        "family_dims": dims,
        "products_searched": len(report.diagnostic["searched"]) - len(dims),
        "max_product_dim": max(products),
        "peak_rss_mb": _peak_rss_mb(),
    }


def _child_k(n: int | str, rep: str) -> dict:
    """K of ``random_curvature(n, K_SEED)``, or of the bi-invariant curvature
    of the algebra when ``n`` is a label such as ``G2``."""
    from weitzlab import cli, curvature, weitzenbock
    from weitzlab.so_algebra import basis, simple_algebra

    if isinstance(n, str):
        op = curvature.bi_invariant_group(simple_algebra(n))
        n = op.n
    else:
        op = curvature.random_curvature(n, K_SEED)
    t0 = time.perf_counter()
    r = cli.parse_rep(rep, basis(n))
    build = time.perf_counter() - t0
    t0 = time.perf_counter()
    weitzenbock.k_matrix(op, r)
    seconds = time.perf_counter() - t0
    return {"seconds": seconds, "build_seconds": build, "d": r.dim, "nnz": len(r.table.val), "peak_rss_mb": _peak_rss_mb()}


def _child(argv: list[str]) -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CAP_BYTES, CAP_BYTES))
    kind, *rest = argv
    if kind == "curvature":
        result = _child_curvature(int(rest[0]))
    elif kind == "algebra":
        result = _child_algebra(rest[0], int(rest[1]) if rest[1].isdigit() else rest[1])
    elif kind == "lemma":
        result = _child_lemma(rest[0], int(rest[1]))
    elif kind == "trials":
        result = _child_trials(rest[0], int(rest[1]) if len(rest) > 1 else None)
    elif kind == "sphere-casimir":
        result = _child_sphere_casimir(int(rest[0]))
    elif kind == "rep":
        result = _child_rep(rest[0], int(rest[1]), int(rest[2]) if len(rest) > 2 else None)
    elif kind == "positivity":
        result = _child_positivity(int(rest[0]))
    elif kind == "intertwiners":
        result = _child_intertwiners(int(rest[0]), rest[1], rest[2])
    elif kind == "k":
        result = _child_k(int(rest[0]) if rest[0].isdigit() else rest[0], rest[1])
    else:
        result = _child_decompose(int(rest[0]), rest[1], rest[2])
    sys.stdout.write(json.dumps(result) + "\n")


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


def _child_env(src: str) -> dict:
    return dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=THREADS, OMP_NUM_THREADS=THREADS)


def _run_child(src: str, args: list[str]) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", *args],
            env=_child_env(src), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"]
        return {"error": lines[-1][:200]}
    return json.loads(proc.stdout)


def _cap_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CAP_BYTES, CAP_BYTES))


def _run_cold(src: str, args: list[str], expect: int = 0) -> dict:
    """One fresh ``python ARGS`` that compiles the package from source, timed
    from outside from spawn to exit, with its peak RSS from its rusage; an
    exit code other than ``expect`` is an error."""
    env = dict(_child_env(src), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, preexec_fn=_cap_child
    )
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != expect:
        return {"error": f"exit {code}"}
    return {"seconds": seconds, "peak_rss_mb": usage.ru_maxrss / 1024.0}


def _repeat(srcs: list[str], args: list[str], run=_run_child, repeats: int | list[int] = REPEATS) -> list:
    """``repeats`` runs of one case in each tree (or ``repeats[t]`` in tree
    t), the trees taking turns run by run (and the first turn alternating),
    so that a drift of the host between runs lands on every tree alike.
    Per tree, the list of runs or the first failed run's error."""
    counts = repeats if isinstance(repeats, list) else [repeats] * len(srcs)
    runs: list = [[] for _ in srcs]
    for i in range(max(counts)):
        order = range(len(srcs)) if i % 2 == 0 else reversed(range(len(srcs)))
        for t in order:
            if i < counts[t] and isinstance(runs[t], list):
                result = run(srcs[t], args)
                runs[t] = result if "error" in result else runs[t] + [result]
    return runs


def _median(runs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in runs)


def _revision(src: str) -> str:
    proc = subprocess.run(["git", "-C", src, "describe", "--always", "--dirty", "--abbrev=40"], capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def measure(srcs: list[str]) -> list[dict]:
    """One record per source tree, each case measured in all trees in turn."""
    records = [{"revision": _revision(src)} for src in srcs]

    def case(section, args, entry, label, sizes=(), medians=("seconds", "peak_rss_mb"), trees=None, **how):
        """Measures one case in ``trees`` (default all) and appends its entry
        to each tree's ``section``; returns the trees where it failed."""
        trees = range(len(srcs)) if trees is None else trees
        failed = []
        counts = how.get("repeats")
        for t, runs in zip(trees, _repeat([srcs[t] for t in trees], args, **how)):
            if isinstance(counts, list):
                entry = {**entry, "repeats": counts[t]}
            if isinstance(runs, dict):
                failed.append(t)
                records[t].setdefault(section, []).append({**entry, **runs})
                print(f"  [{t}] {label}: {runs['error']}", file=sys.stderr)
                continue
            values = {**{k: runs[0][k] for k in sizes}, **{k: _median(runs, k) for k in medians}}
            records[t].setdefault(section, []).append({**entry, **values})
            print(f"  [{t}] {label}: {values['seconds']:.4f} s", file=sys.stderr)
        return failed

    for name, args, code in COLD_CASES:
        run = functools.partial(_run_cold, expect=code)
        case("cold_start", args, {"command": name, "exit": code, "repeats": COLD_REPEATS}, name, run=run, repeats=COLD_REPEATS)
    for name, args, baseline in EDGE_CASES:
        repeats = [REPEATS, baseline][: len(srcs)]
        case("cold_start", args, {"command": name, "exit": 0}, name, run=_run_cold, repeats=repeats)
    for function, n in ALGEBRA_CASES:
        entry = {"function": function, **({"label": n} if isinstance(n, str) else {"n": n if function == "basis" else 2 * n})}
        medians = ("seconds", "temp_mb", "peak_rss_mb")
        case("algebra", ["algebra", function, str(n)], entry, f"{function}({n})", sizes=("dim",), medians=medians)
    ladder = list(range(len(srcs)))  # the trees whose curvature ladder goes on
    for n in CURVATURE_NS:
        if not ladder:
            break
        failed = case("random_curvature", ["curvature", str(n)], {"n": n, "N": n * (n - 1) // 2}, f"random_curvature n={n}", trees=ladder)
        ladder = [t for t in ladder if t not in failed]
    looped = ("seconds", "loops", "peak_rss_mb")
    for n, rep, sub in INTERTWINER_CASES:
        entry = {"n": n, "rep": rep, "sub": sub}
        args = ["intertwiners", str(n), rep, sub]
        case("intertwiners", args, entry, f"intertwiners {n} {rep} {sub}", sizes=("d", "N", "commutant_dim"), medians=looped)
    for n, rep, sub in DECOMPOSE_CASES:
        entry = {"n": n, "rep": rep, "sub": sub}
        args = ["decompose", str(n), rep, sub]
        case("isotypic_decompose", args, entry, f"isotypic_decompose {n} {rep} {sub}", sizes=("d", "N", "pieces"), medians=looped)
    for kind, trials in LEMMA_CASES:
        entry = {"suite": f"lemma:{kind}", "trials": trials, "seed": LEMMA_SEED, "k": int(kind[1:])}
        case("lemma_suite", ["lemma", kind, str(trials)], entry, f"lemma_suite {kind} x{trials}", sizes=("n", "d", "N", "power_dim"))
    for suite, n in TRIAL_CASES:
        size = 4 if n is None else n
        d = {"lichnerowicz": 2 ** (size // 2), "bochner": size}.get(suite, 6)  # spinors, vectors, Lambda^2
        entry = {"suite": suite, "n": size, "d": d, "N": size * (size - 1) // 2, "trials": TRIAL_COUNT, "seed": TRIAL_SEED}
        args = ["trials", suite] + ([] if n is None else [str(n)])
        case("trial_suites", args, entry, f"{suite}_suite n={size} x{TRIAL_COUNT}", sizes=("reports",))
    for n in SPHERE_CASIMIR_NS:
        entry = {"n": n, "N": n * (n - 1) // 2}
        case("sphere_casimir_suite", ["sphere-casimir", str(n)], entry, f"sphere_casimir_suite n={n}", sizes=("reports", "family_dims"))
    for constructor, n, p in REP_CASES:
        entry = {"constructor": constructor, "n": n, "p": p, "N": n * (n - 1) // 2}
        args = ["rep", constructor, str(n)] + ([] if p is None else [str(p)])
        case("representations", args, entry, f"{constructor} n={n} p={p}", sizes=("d",))
    for n in POSITIVITY_NS:
        entry = {"n": n, "N": n * (n - 1) // 2, "seed": POSITIVITY_SEED}
        sizes = ("family_dims", "products_searched", "max_product_dim", "search_dim_cap")
        case("positivity_report", ["positivity", str(n)], entry, f"positivity_report n={n}", sizes=sizes)
    for n, rep in K_CASES:
        entry = {"n": n, "rep": rep, "N": n * (n - 1) // 2, "seed": K_SEED}
        medians = ("seconds", "build_seconds", "peak_rss_mb")
        case("k_matrix", ["k", str(n), rep], entry, f"k_matrix {n} {rep}", sizes=("d", "nnz"), medians=medians)
    for label, rep in K_GROUP_CASES:
        entry = {"curvature": f"group:{label}", "rep": rep}
        case("k_matrix", ["k", label, rep], entry, f"k_matrix group:{label} {rep}", sizes=("d", "nnz"), medians=medians)
    return records


def main() -> None:
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        _child(sys.argv[2:])
        return
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="the JSON record to write")
    parser.add_argument("--baseline-src", default=None, help="another source tree to measure the same way")
    args = parser.parse_args()
    import numpy

    record = {
        "env": {
            "OPENBLAS_NUM_THREADS": THREADS,
            "address_space_cap_bytes": CAP_BYTES,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
        },
        "stat": (
            f"median over {REPEATS} repeats ({COLD_REPEATS} for cold_start), each in a fresh process; "
            "with a baseline, the two trees take turns repeat by repeat"
        ),
    }
    srcs = [os.path.join(REPO, "src")]
    if args.baseline_src:
        srcs.append(os.path.abspath(args.baseline_src))
    print("[0] current" + (", [1] baseline" if args.baseline_src else ""), file=sys.stderr)
    results = measure(srcs)
    record["current"] = results[0]
    if args.baseline_src:
        record["baseline"] = results[1]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
