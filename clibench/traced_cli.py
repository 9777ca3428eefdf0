"""Run one weitzlab command line with its public functions traced.

Usage: ``python traced_cli.py SPANS.jsonl SUMMARY.json ARG...``

Behaves like ``python -m weitzlab ARG...`` (same output and exit code) and,
when the command ends, writes its spans as JSON lines to SPANS.jsonl and
their reduction, plus the package import time, to SUMMARY.json.
"""

import json
import sys
import time

import tracing


def main() -> None:
    spans_path, summary_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = time.perf_counter()
    from weitzlab import cli

    import_s = time.perf_counter() - start
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        sys.exit(cli.main(argv))
    finally:
        # names are dotted identifiers, so lines are formatted directly rather
        # than through json.dumps: k on the adjoint at n = 14 makes ~8e5 spans
        with open(spans_path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, _, *shape in tracer.spans:
                extra = f',"shape":{json.dumps(shape[0])}' if shape else ""
                fh.write(f'{{"name":"{name}","start":{t0!r},"end":{t1!r},"parent":{parent}{extra}}}\n')
        summary = tracing.reduce(tracer.spans)
        summary["cli.import_s"] = import_s
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    main()
