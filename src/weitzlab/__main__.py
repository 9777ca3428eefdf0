"""``python -m weitzlab`` and the ``weitzlab`` script: the options are
parsed before anything else loads, so ``--version``, ``--help`` and usage
errors exit with no numpy; only a valid request goes on to
:mod:`weitzlab.cli`.

Before the request runs, the objects that numpy and the package left at
import are frozen (:func:`gc.freeze`): the collector no longer walks them,
neither during the run nor in the full collections of interpreter exit.
They live for the whole process anyway and reference counting still frees
them; everything the run allocates is collected as before.  Only this
process entry freezes: :func:`cli.main` and :func:`cli.run` are called in
one process many times (tests, the traced benchmark), where a freeze would
keep each call's garbage for good, and a library importer keeps its
collector as it is.
"""

import gc
import sys

from . import options


def main() -> int:
    """Parse ``sys.argv[1:]``, refuse a usage error with numpy unloaded, and
    run a valid request with the import-time heap frozen; the exit code."""
    try:
        args = options.parse()
    except options.UsageError as exc:
        return options.refuse(exc)
    from . import cli  # loaded for a valid request only

    gc.freeze()
    return cli.run(args)


if __name__ == "__main__":
    sys.exit(main())
