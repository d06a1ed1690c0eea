"""In-process load generator for the ``reproduce`` and ``sweep-decoding``
workloads.

Reads a JSON job ``{"mode", "requests", "seconds"}`` as the first line of
stdin, runs each request as ``vla_roofline.cli.main(argv)`` with stdout and
stderr captured, and writes a JSON result as the last line of stdout.
Modes: ``once`` runs every request one time, ``loop`` runs the closed loop,
``trace`` runs untraced and then traced passes.  In ``loop`` mode the worker
writes ``pass BUSY_S`` after every pass and waits for a line on stdin before
it goes on, so that the caller can run set-up probes while it is idle.
``src/`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from time import perf_counter

import loop
import tracer as tracing


def make_call(cli, requests):
    def call(index: int) -> list:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), \
                contextlib.redirect_stderr(captured):
            start = perf_counter()
            try:
                code = cli.main(list(requests[index]))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = "raised"
                traceback.print_exc(file=sys.__stderr__)
            wall_ms = (perf_counter() - start) * 1e3
        return [index, wall_ms, code,
                loop.digest(captured.getvalue().encode()), 0]
    return call


def main() -> None:
    job = json.loads(sys.stdin.readline())
    requests, mode = job["requests"], job["mode"]
    from vla_roofline import cli

    call = make_call(cli, requests)
    if mode == "once":
        result = {"records": [call(index) for index in range(len(requests))]}
    elif mode == "loop":
        def between(busy_s):
            print("pass", busy_s, flush=True)
            sys.stdin.readline()

        result = loop.closed_loop(call, len(requests), job["seconds"],
                                  loop.mixed_code_ms, between)
    else:
        tracer = tracing.Tracer()

        def start_tracing():
            tracing.install(tracer)

            def traced_call(index):
                tracer.request = index
                return call(index)

            def take_spans():
                spans = tracer.spans
                tracer.reset()
                return spans

            return traced_call, take_spans

        result = loop.traced_run(call, len(requests), job["seconds"],
                                 start_tracing)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
