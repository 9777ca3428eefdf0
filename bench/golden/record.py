"""Record the golden outputs of ``decompose``: the exit code and the
canonical stdout of each command line in :data:`LINES`, one fresh
``python -m weitzlab`` per line, run from the root of the checkout with one
BLAS thread, ``WEITZLAB_CI=1`` and no ``WEITZLAB_TOL``.

    python bench/golden/record.py

writes ``bench/golden/decompose.json``, which ``tests/test_golden.py``
compares the package against.  Every line carries an explicit seed.
``rotated_so3_n5.json`` is so(3) on the first three axes of R^5, turned by a
fixed rotation, so that every element has a dense row over the pair basis;
``not_closed_n4.json`` holds x_01 and x_12 of so(4), whose bracket x_02
leaves their span.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "decompose.json")

#: The u(m) lines, clibench's isotypic plan at its seed 1, a file: subalgebra
#: and the refusals (exit 3 for a u(m) that does not fit, exit 2 for a file
#: whose matrices do not close).
LINES = [
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
]


def main() -> None:
    env = {k: v for k, v in os.environ.items() if k != "WEITZLAB_TOL"}
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", WEITZLAB_CI="1")
    records = []
    for line in LINES:
        argv = line.split()
        proc = subprocess.run([sys.executable, "-m", "weitzlab", *argv], env=env, cwd=ROOT, capture_output=True, text=True)
        records.append({"argv": argv, "exit": proc.returncode, "stdout": proc.stdout})
        print(f"exit {proc.returncode}  {line}", file=sys.stderr)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
