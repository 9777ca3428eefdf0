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

The collector is off while numpy imports; then the objects numpy left are
frozen (:func:`gc.freeze`), so no collection walks them during the run,
and the collector is switched back on before the request runs.  They live
for the whole process anyway and reference counting still frees them;
only their cycles are kept.  Everything the run allocates, the package's
modules included, is collected as before.

Once the exit code of a valid request or of a usage refusal is known,
:func:`main` ends the process: it runs the atexit handlers, flushes stdout
and stderr and calls :func:`os._exit`, so the interpreter does not tear
down numpy and the package only for the OS to free their memory.  If a
flush fails, :func:`main` returns the code and the interpreter exits as
usual.  argparse's own exits (``--version``, ``--help``, malformed
options) raise :class:`SystemExit` as usual.  So :func:`main` must not be
called in a process that has more to do.

Only this process entry loads lazily, freezes and ends the process.
:func:`cli.main` and :func:`cli.run` are called in one process many times
(tests, the traced benchmark), where a freeze would keep each call's
garbage for good; and ``import weitzlab.cli`` in a library, a test or the
tracer stays eager, so that every module and every public function is
there to be inspected or wrapped.
"""

import atexit
import gc
import importlib.machinery
import importlib.util
import os
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


def _end(code: int) -> int:
    """End the process with ``code`` after the atexit handlers and a flush
    of stdout and stderr, as interpreter exit would; if a flush fails,
    return ``code`` for the interpreter's own exit."""
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        return code
    os._exit(code)


def main() -> int:
    """Parse ``sys.argv[1:]``, refuse a usage error with numpy unloaded, and
    run a valid request, the package loaded lazily and numpy's import-time
    heap frozen; end the process with the exit code."""
    try:
        args = options.parse()
    except options.UsageError as exc:
        return _end(options.refuse(exc))
    sys.meta_path.insert(0, _LazySubmodules())
    gc.disable()
    import numpy  # noqa: F401 -- loaded for a valid request only, then frozen

    gc.freeze()
    gc.enable()
    from . import cli

    return _end(cli.run(args))


if __name__ == "__main__":
    sys.exit(main())
