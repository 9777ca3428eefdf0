"""``python -m weitzlab``: the options are parsed before anything else
loads, so ``--version``, ``--help`` and usage errors exit with no numpy;
only a valid request goes on to :mod:`weitzlab.cli`."""

import sys

from . import options

try:
    args = options.parse()
except options.UsageError as exc:
    sys.exit(options.refuse(exc))

from . import cli  # noqa: E402  (loaded for a valid request only)

sys.exit(cli.run(args))
