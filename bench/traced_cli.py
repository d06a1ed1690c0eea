"""One traced ``vla-roofline`` invocation, for the traced ``cli-cold`` run.

    python traced_cli.py SPANS_PATH ARGV...

Installs the layer tracer, runs ``vla_roofline.cli.main(ARGV)`` exactly as
``python -m vla_roofline ARGV...`` would, writes the recorded spans to
SPANS_PATH as JSON and exits with the invocation's exit code.  ``src/`` must
be on ``PYTHONPATH``.
"""

import json
import sys

import tracer as tracing


def main() -> None:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    cli = sys.modules[f"{tracing.PACKAGE}.cli"]
    try:
        code = cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
