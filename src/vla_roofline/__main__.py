"""The process entry of ``python -m vla_roofline`` and of the ``vla-roofline``
console script.  In-process callers use ``cli.main``, never ``run``."""

import os
import sys

from .cli import main


def run() -> int:
    """Run this process's command line, then end the process.

    The exit code is ``main``'s return value, or that of argparse's
    ``SystemExit`` (help, a usage error).  Once stdout and stderr are
    flushed, ``os._exit`` ends the process without interpreter teardown:
    ``--out`` closes its file before ``main`` returns, and nothing else
    holds output.  A missing stream or a failed flush (a reader that closed
    the pipe) returns the code instead, so the interpreter's own shutdown
    reports it and sets the exit status, as without ``run``.  Any other
    exception propagates: a traceback and exit status 1.
    """
    try:
        code = main()
    except SystemExit as exc:
        if exc.code is not None and not isinstance(exc.code, int):
            raise
        code = exc.code or 0
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    # A stream that is None, a reader that closed the pipe, a closed file.
    except (AttributeError, OSError, ValueError):
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
