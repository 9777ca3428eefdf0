"""Record golden outputs: the exit code and the canonical stdout of each
command line in :data:`RECORDS`, one fresh ``python -m weitzlab`` per line,
run from the root of the checkout with one BLAS thread, ``WEITZLAB_CI=1``
and no ``WEITZLAB_TOL``.

    python bench/golden/record.py [decompose.json] [groups.json] [curvature.json]

writes the named record files under ``bench/golden/`` (all of them when none
is named), which ``tests/test_golden.py`` compares the package against.
Every ``decompose`` and ``check`` line carries an explicit seed.
``rotated_so3_n5.json`` is so(3) on the first three axes of R^5, turned by a
fixed rotation, so that every element has a dense row over the pair basis;
``not_closed_n4.json`` holds x_01 and x_12 of so(4), whose bracket x_02
leaves their span.  ``einstein_n4.json`` is a curvature operator of so(4)
that satisfies the first Bianchi identity, with entries between
complementary pairs, and is Einstein with Ricci tensor 8 g.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: The u(m) lines, clibench's isotypic plan at its seed 1, a file: subalgebra,
#: the refusals (exit 3 for a u(m) that does not fit, exit 2 for a file
#: whose matrices do not close), complex tables and multiplicities above 1
#: under so(m) and u(m), the lines at the edge of the normal-matrix commutant
#: solve (Λ² ⊗ Λ² over so(6) and so(7), Λ⁴ under u(6)), the abelian so(2) and
#: spin ⊗ spin under u(3).
DECOMPOSE = [
    "decompose --n 4 --rep vector --sub u:2 --seed 0",
    "decompose --n 4 --rep exterior:2 --sub u:2 --seed 0",
    "decompose --n 4 --rep spin --sub u:2 --seed 0",
    "decompose --n 4 --rep spin:+ --sub u:2 --seed 0",
    "decompose --n 4 --rep sym0 --sub u:2 --seed 0",
    "decompose --n 6 --rep vector --sub u:3 --seed 0",
    "decompose --n 6 --rep exterior:2 --sub u:3 --seed 0",
    "decompose --n 6 --rep exterior:3 --sub u:3 --seed 0",
    "decompose --n 6 --rep adjoint --sub u:3 --seed 0",
    "decompose --n 6 --rep tensor:vector,spin --sub u:3 --seed 0",
    "decompose --n 8 --rep vector --sub u:4 --seed 0",
    "decompose --n 8 --rep exterior:2 --sub u:4 --seed 0",
    "decompose --n 8 --rep exterior:3 --sub u:4 --seed 0",
    "decompose --n 10 --rep vector --sub u:5 --seed 0",
    "decompose --n 10 --rep exterior:2 --sub u:5 --seed 0",
    "decompose --n 12 --rep vector --sub u:6 --seed 0",
    "decompose --n 6 --rep exterior:2 --sub u:3 --seed 473188",
    "decompose --n 5 --rep adjoint --sub so:4 --seed 511821",
    "decompose --n 5 --rep sym0 --sub so:3 --seed 755167",
    "decompose --n 4 --rep tensor:vector,vector --sub so-full --seed 950463",
    "decompose --n 5 --rep exterior:2 --sub file:bench/golden/rotated_so3_n5.json --seed 0",
    "decompose --n 6 --rep vector --sub u:2 --seed 0",
    "decompose --n 4 --rep vector --sub file:bench/golden/not_closed_n4.json --seed 0",
    "decompose --n 7 --rep spin --sub so:5 --seed 0",
    "decompose --n 6 --rep tensor:vector,spin:+ --sub so:4 --seed 0",
    "decompose --n 7 --rep exterior:3 --sub so:5 --seed 0",
    "decompose --n 6 --rep sym:3 --sub u:3 --seed 0",
    "decompose --n 5 --rep tensor:spin,spin --sub so-full --seed 0",
    "decompose --n 8 --rep spin --sub u:4 --seed 0",
    "decompose --n 6 --rep tensor:exterior:2,exterior:2 --sub so-full --seed 0",
    "decompose --n 7 --rep tensor:exterior:2,exterior:2 --sub so-full --seed 0",
    "decompose --n 12 --rep exterior:4 --sub u:6 --seed 0",
    "decompose --n 4 --rep vector --sub so:2 --seed 0",
    "decompose --n 6 --rep tensor:spin,spin --sub u:3 --seed 0",
]

#: The compact simple algebras: the strange formula from root data, the
#: bi-invariant group models, and ``k`` on ``group:`` curvature as
#: clibench's k-spectra workload runs it.
GROUPS = [
    "check strange --seed 1",
    "check strange --algebra A4,B3,C4,D5 --seed 1",
    "check group-model --seed 1",
    "k --rep vector --curvature group:A2 --preset hodge",
    "k --rep spin --curvature group:B2 --preset spinor_dirac",
    "k --rep spin --curvature group:G2 --preset spinor_dirac",
    "k --rep adjoint --curvature group:C3",
]

#: ``k`` on the sphere, ``random:`` and ``file:`` sources, ``check`` on a
#: ``file:`` operator and on the sphere, and the refusals of a file on the
#: wrong so(n) (exit 3) and of a file that cannot be read (exit 2).  No line
#: reports the digest of a ``random:`` draw: the draws are bit-stable only
#: on one machine and numpy build, and the comparer matches strings exactly.
CURVATURE = [
    "k --n 4 --rep vector --curvature sphere",
    "k --n 5 --rep exterior:2 --curvature random:7",
    "k --n 5 --rep sym0 --curvature sphere --preset hodge",
    "k --rep spin --curvature file:bench/golden/einstein_n4.json --preset spinor_dirac",
    "k --rep adjoint --curvature file:bench/golden/einstein_n4.json",
    "k --n 5 --rep vector --curvature file:bench/golden/einstein_n4.json",
    "k --n 4 --rep vector --curvature file:bench/golden/missing.json",
    "check positivity --curvature file:bench/golden/einstein_n4.json --seed 1",
    "check sphere-casimir --n 5 --seed 1",
]

RECORDS = {"decompose.json": DECOMPOSE, "groups.json": GROUPS, "curvature.json": CURVATURE}


def record(lines: list[str], env: dict[str, str]) -> list[dict]:
    records = []
    for line in lines:
        argv = line.split()
        proc = subprocess.run([sys.executable, "-m", "weitzlab", *argv], env=env, cwd=ROOT, capture_output=True, text=True)
        records.append({"argv": argv, "exit": proc.returncode, "stdout": proc.stdout})
        print(f"exit {proc.returncode}  {line}", file=sys.stderr)
    return records


def main() -> None:
    env = {k: v for k, v in os.environ.items() if k != "WEITZLAB_TOL"}
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", WEITZLAB_CI="1")
    for name in sys.argv[1:] or RECORDS:
        records = record(RECORDS[name], env)
        with open(os.path.join(HERE, name), "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
