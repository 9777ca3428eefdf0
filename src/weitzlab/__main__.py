"""``python -m weitzlab`` and the ``weitzlab`` script: the options are
parsed before anything else loads, so ``--version``, ``--help`` and usage
errors exit with no numpy; only a valid request goes on to
:mod:`weitzlab.cli`.

A valid request then loads the package lazily: a meta-path finder hands
out every submodule with its loader wrapped in
:class:`importlib.util.LazyLoader`, so that ``from . import x as y`` only
creates the module, and its source is compiled and executed at the first
access to one of its attributes.  A command compiles only the modules it
runs: ``decompose`` never compiles ``curvature``, ``spin``,
``weitzenbock``, ``suites`` or ``casimir_weights``.  The same functions run
on the same inputs, so the output does not change.

Before the request runs, the objects that numpy left at import are frozen
(:func:`gc.freeze`): the collector no longer walks them, neither during the
run nor in the full collections of interpreter exit.  They live for the
whole process anyway and reference counting still frees them; everything
the run allocates, the package's modules included, is collected as before.

Only this process entry loads lazily and freezes.  :func:`cli.main` and
:func:`cli.run` are called in one process many times (tests, the traced
benchmark), where a freeze would keep each call's garbage for good; and
``import weitzlab.cli`` in a library, a test or the tracer stays eager, so
that every module and every public function is there to be inspected or
wrapped.
"""

import gc
import importlib.machinery
import importlib.util
import sys

from . import options


class _LazySubmodules:
    """Finds the submodules of this package as the path finder does, with
    each loader wrapped in :class:`importlib.util.LazyLoader`; no other
    module is affected."""

    def find_spec(self, name, path=None, target=None):
        if not name.startswith(__package__ + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is not None:
            spec.loader = importlib.util.LazyLoader(spec.loader)
        return spec


def main() -> int:
    """Parse ``sys.argv[1:]``, refuse a usage error with numpy unloaded, and
    run a valid request, the package loaded lazily and numpy's import-time
    heap frozen; the exit code."""
    try:
        args = options.parse()
    except options.UsageError as exc:
        return options.refuse(exc)
    sys.meta_path.insert(0, _LazySubmodules())
    import numpy  # noqa: F401 -- loaded for a valid request only, then frozen

    gc.freeze()
    from . import cli

    return cli.run(args)


if __name__ == "__main__":
    sys.exit(main())
