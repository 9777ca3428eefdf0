"""The golden outputs that ``bench/golden/record.py`` writes against the
package: ``decompose.json`` for ``decompose``, ``groups.json`` for the
compact simple algebras (``check strange``, ``check group-model`` and ``k``
on ``group:`` curvature), ``curvature.json`` for the other curvature
sources.  Every record is replayed through
``cli.main`` in process, and a slice of them through ``python -m weitzlab``
in a fresh process as well, where the package loads lazily.

Exit codes, report structure, every string (the projector digests among
them) and the integers ``dim``, ``multiplicity`` and ``total_dim`` must
match exactly; every other number may move by RELATIVE_TOL of max(1, |x|),
the largest rounding move any change to ``decompose`` has made.  Canonical
JSON writes an integral float as an integer, so numbers are told apart by
their key, not by their type."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from weitzlab import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "bench" / "golden" / "decompose.json").read_text())
GROUPS = json.loads((ROOT / "bench" / "golden" / "groups.json").read_text())
CURVATURE = json.loads((ROOT / "bench" / "golden" / "curvature.json").read_text())
RELATIVE_TOL = 2.1e-14
EXACT_NUMBERS = ("dim", "multiplicity", "total_dim")


def differences(want, got, path="", key=""):
    """Where ``got`` departs from ``want`` by the rules above, as
    ``path: reason`` lines."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or want.keys() != got.keys():
            return [f"{path}: keys {sorted(want)} != {sorted(got) if isinstance(got, dict) else got!r}"]
        return [d for k in want for d in differences(want[k], got[k], f"{path}.{k}", k)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(want) != len(got):
            return [f"{path}: {len(want)} items != {got!r:.80}"]
        return [d for i, (w, g) in enumerate(zip(want, got)) for d in differences(w, g, f"{path}[{i}]", key)]
    number = (int, float)
    if isinstance(want, number) and not isinstance(want, bool) and key not in EXACT_NUMBERS:
        if not isinstance(got, number) or isinstance(got, bool):
            return [f"{path}: {want!r} != {got!r}"]
        if abs(got - want) > RELATIVE_TOL * max(1.0, abs(want)):
            return [f"{path}: {got!r} is not {want!r} within {RELATIVE_TOL} of max(1, |x|)"]
        return []
    if type(want) is not type(got) or want != got:
        return [f"{path}: {want!r} != {got!r}"]
    return []


def _run(argv, capsys, monkeypatch):
    """Exit code and stdout of ``cli.main(argv)`` as the recorder runs it."""
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("WEITZLAB_TOL", raising=False)
    monkeypatch.setenv("WEITZLAB_CI", "1")
    code = cli.main(argv)
    return code, capsys.readouterr().out


def _matches(record, capsys, monkeypatch):
    _compare(record, *_run(record["argv"], capsys, monkeypatch))


def _compare(record, code, out):
    assert code == record["exit"]
    if not record["stdout"]:
        assert out == ""
        return
    assert differences(json.loads(record["stdout"]), json.loads(out)) == []


@pytest.mark.parametrize("record", GOLDEN, ids=[" ".join(r["argv"][1:7]) for r in GOLDEN])
def test_decompose_matches_the_golden_output(record, capsys, monkeypatch):
    _matches(record, capsys, monkeypatch)


def _load_branching():
    """``clibench/oracle.py``, which imports nothing of the package: the
    Weyl dimension formula and Brauer-Racah branching."""
    spec = importlib.util.spec_from_file_location("branching_oracle", ROOT / "clibench" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _option(argv, name):
    return argv[argv.index(name) + 1]


#: The exit-0 ``decompose`` records on so-full, so:m and u:m, but for the
#: half-spins, which the oracle has no weights for.
BRANCHED = [
    r
    for r in GOLDEN
    if r["exit"] == 0 and not _option(r["argv"], "--sub").startswith("file:") and "spin:" not in _option(r["argv"], "--rep")
]


@pytest.mark.parametrize("record", BRANCHED, ids=[" ".join(r["argv"][1:7]) for r in BRANCHED])
def test_decompose_agrees_with_brauer_racah(record, capsys, monkeypatch):
    # the dimensions and multiplicities of the highest-weight split, and on
    # so-full its Casimir eigenvalues -<λ, λ + 2δ>, from the branching rule
    argv = record["argv"]
    want = _load_branching().expected_pieces(int(_option(argv, "--n")), _option(argv, "--rep"), _option(argv, "--sub"))
    code, out = _run(argv, capsys, monkeypatch)
    assert code == 0
    pieces = json.loads(out)["reports"][0]["details"]["pieces"]
    assert sorted((p["dim"], p["multiplicity"]) for p in pieces) == sorted((d, m) for d, m, _ in want)
    if _option(argv, "--sub") == "so-full":
        got = sorted((p["casimir_eigenvalue"], p["dim"]) for p in pieces)
        expected = sorted((c, d) for d, _, c in want)
        assert [d for _, d in got] == [d for _, d in expected]
        assert all(abs(g - c) <= 1e-12 * max(1.0, abs(c)) for (g, _), (c, _) in zip(got, expected))


def test_brauer_racah_covers_every_kind_of_subalgebra():
    assert len(BRANCHED) == 29
    assert {_option(r["argv"], "--sub").partition(":")[0] for r in BRANCHED} == {"so", "so-full", "u"}


@pytest.mark.parametrize("record", GROUPS, ids=[" ".join(r["argv"]) for r in GROUPS])
def test_groups_match_the_golden_output(record, capsys, monkeypatch):
    _matches(record, capsys, monkeypatch)


@pytest.mark.parametrize("record", CURVATURE, ids=[" ".join(r["argv"]) for r in CURVATURE])
def test_curvature_sources_match_the_golden_output(record, capsys, monkeypatch):
    _matches(record, capsys, monkeypatch)


#: The records that also run through ``python -m weitzlab``: every line of
#: ``curvature.json`` (``k`` and ``check`` on each curvature source kind but
#: ``group:``, exit codes 0, 2 and 3), ``decompose`` on u(m), so(m), the
#: abelian so(2), the whole so(7) at d = 441 and a file subalgebra, with its
#: exit-3 and exit-2 refusals, ``check strange`` and ``k`` on ``group:``
#: curvature.
PROCESS_REPLAY = CURVATURE + [
    r
    for r in GOLDEN + GROUPS
    if " ".join(r["argv"])
    in (
        "decompose --n 6 --rep exterior:2 --sub u:3 --seed 0",
        "decompose --n 5 --rep adjoint --sub so:4 --seed 511821",
        "decompose --n 5 --rep exterior:2 --sub file:bench/golden/rotated_so3_n5.json --seed 0",
        "decompose --n 6 --rep vector --sub u:2 --seed 0",
        "decompose --n 4 --rep vector --sub file:bench/golden/not_closed_n4.json --seed 0",
        "decompose --n 7 --rep tensor:exterior:2,exterior:2 --sub so-full --seed 0",
        "decompose --n 4 --rep vector --sub so:2 --seed 0",
        "check strange --seed 1",
        "k --rep spin --curvature group:G2 --preset spinor_dirac",
    )
]


@pytest.mark.parametrize("record", PROCESS_REPLAY, ids=[" ".join(r["argv"]) for r in PROCESS_REPLAY])
def test_process_entry_matches_the_golden_output(record):
    env = {k: v for k, v in os.environ.items() if k != "WEITZLAB_TOL"}
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", WEITZLAB_CI="1")
    proc = subprocess.run(
        [sys.executable, "-m", "weitzlab", *record["argv"]], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    _compare(record, proc.returncode, proc.stdout)


def test_process_replay_covers_every_command_and_source():
    assert len(PROCESS_REPLAY) == len(CURVATURE) + 9
    lines = [r["argv"] for r in PROCESS_REPLAY]
    assert {argv[0] for argv in lines} == {"k", "check", "decompose"}
    sources = {argv[argv.index("--curvature") + 1].partition(":")[0] for argv in lines if "--curvature" in argv}
    assert sources == {"sphere", "random", "file", "group"}
    assert {r["exit"] for r in PROCESS_REPLAY} == {0, 2, 3}


class TestComparer:
    WANT = {
        "reports": [{"residual": 1e-15, "details": {"pieces": [{"dim": 3, "multiplicity": 1, "casimir_eigenvalue": -4, "projector_digest": "ab"}], "total_dim": 3}}],
        "summary": {"passed": 1},
    }

    def _moved(self, path, value):
        got = json.loads(json.dumps(self.WANT))
        *head, last = path
        node = got
        for k in head:
            node = node[k]
        node[last] = value
        return differences(self.WANT, got)

    def test_equal_passes(self):
        assert differences(self.WANT, json.loads(json.dumps(self.WANT))) == []

    def test_floats_within_the_tolerance_pass(self):
        piece = ("reports", 0, "details", "pieces", 0)
        assert self._moved((*piece, "casimir_eigenvalue"), -4.000000000000001) == []
        assert self._moved(("reports", 0, "residual"), 1e-15 + 1e-14) == []

    @pytest.mark.parametrize(
        "path, value",
        (
            (("reports", 0, "details", "pieces", 0, "casimir_eigenvalue"), -4.0000000000001),
            (("reports", 0, "details", "pieces", 0, "dim"), 2),
            (("reports", 0, "details", "pieces", 0, "multiplicity"), 2),
            (("reports", 0, "details", "pieces", 0, "projector_digest"), "ac"),
            (("reports", 0, "details", "total_dim"), 4),
            (("reports", 0, "details", "pieces"), []),
            (("summary", "extra"), 1),
            (("summary", "passed"), True),
        ),
    )
    def test_departures_are_found(self, path, value):
        assert self._moved(path, value) != []
