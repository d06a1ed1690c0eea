"""The process entry of ``python -m vla_roofline`` and of the ``vla-roofline``
console script.  In-process callers use ``cli.main``, never ``run``."""

import gc
import sys

from .cli import main


def run() -> int:
    """Run this process's command line and return its exit code.

    However the command ends (a return, argparse's ``SystemExit``, a
    traceback), ``gc.freeze()`` then moves every tracked object to the
    permanent generation, which the full collections of interpreter
    shutdown do not walk.  Output is unaffected: shutdown flushes stdout
    and stderr, and ``--out`` closes its file before ``main`` returns.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
