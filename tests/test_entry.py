"""The process entry ``vla_roofline.__main__.run`` and the console script.

``run`` ends its process with ``os._exit`` once the command's output is
flushed, so it is only ever called in a fresh process here: inside pytest
it would end the session.  ``cli.main``, the library path, returns.
"""

import copy
import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from vla_roofline import cli, presets

ROOT = Path(__file__).resolve().parents[1]

# Runs the command line through ``run`` as ``python -m vla_roofline`` does.
# An exit hook, which interpreter shutdown would run, writes a file named by
# EXIT_REPORT, so stdout, stderr and the exit code stay the process's own.
RUN_PROBE = (
    "import atexit, os, sys\n"
    "from vla_roofline.__main__ import run\n"
    "def report():\n"
    "    with open(os.environ['EXIT_REPORT'], 'w') as fh:\n"
    "        fh.write('shutdown')\n"
    "atexit.register(report)\n"
    "sys.exit(run())\n"
)
# The same command line through ``cli.main``.
MAIN_PROBE = "import sys\nfrom vla_roofline import cli\nsys.exit(cli.main())\n"
# A ``main`` that raises: the exception propagates to a normal shutdown.
RAISING_PROBE = RUN_PROBE.replace(
    "from vla_roofline.__main__ import run\n",
    "import vla_roofline.__main__ as entry\n"
    "def main():\n"
    "    raise RuntimeError('boom')\n"
    "entry.main = main\n"
    "run = entry.run\n")


def _python(code, *args, env=None):
    merged = dict(os.environ)
    merged.pop("VLA_ROOFLINE_PRESETS", None)
    merged.update(env or {})
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=merged)


@pytest.mark.parametrize("args, code, stream, text", [
    (("analyze", "--format", "json"), 0, "stdout", '"model": "pi0"'),
    (("analyze", "--out", ""), 1, "stderr",
     "error: --out needs a file path, not an empty string\n"),
    (("reproduce", "T3"), 2, "stdout", "overall: FAIL"),
    (("--help",), 0, "stdout", "usage: vla-roofline"),
    (("bogus",), 1, "stderr", "vla-roofline: error: argument command"),
], ids=["result", "error-line", "tolerance-failure", "help", "usage-error"])
def test_run_skips_shutdown_on_every_exit_path(tmp_path, args, code, stream,
                                              text):
    report = tmp_path / "shutdown"
    env = {"EXIT_REPORT": str(report)}
    if args[0] == "reproduce":
        # A halved B100 bandwidth breaks the latency table.
        hardware = copy.deepcopy(presets.HARDWARE)
        hardware["b100"]["HBM_BW_GBs"] /= 2
        (tmp_path / "hardware.yaml").write_text(yaml.safe_dump(hardware),
                                                encoding="utf-8")
        env["VLA_ROOFLINE_PRESETS"] = str(tmp_path)
    entry = _python(RUN_PROBE, *args, env=env)
    library = _python(MAIN_PROBE, *args, env=env)
    assert not report.exists()
    assert (entry.returncode, entry.stdout, entry.stderr) == (
        library.returncode, library.stdout, library.stderr)
    assert entry.returncode == code
    assert text in getattr(entry, stream)


def test_a_traceback_still_takes_the_normal_shutdown(tmp_path):
    report = tmp_path / "shutdown"
    result = _python(RAISING_PROBE, "analyze",
                     env={"EXIT_REPORT": str(report)})
    assert report.read_text() == "shutdown"
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr.splitlines()[-1] == "RuntimeError: boom"


def test_a_missing_stdout_takes_the_normal_shutdown(tmp_path):
    """Without stdout (``sys.stdout`` is None, as when the process starts
    with it closed), ``--out`` still writes its file, and ``run`` leaves
    the exit to the interpreter's shutdown."""
    report, out = tmp_path / "shutdown", tmp_path / "out.json"
    result = _python(RUN_PROBE.replace("sys.exit(run())",
                                       "sys.stdout = None\nsys.exit(run())"),
                     "analyze", "--format", "json", "--out", str(out),
                     env={"EXIT_REPORT": str(report)})
    library = _python(MAIN_PROBE, "analyze", "--format", "json")
    assert report.read_text() == "shutdown"
    assert (result.returncode, result.stderr) == (0, "")
    assert out.read_text(encoding="utf-8") == library.stdout


def _close_stdout():
    os.close(1)


@pytest.mark.parametrize("args", [("analyze",),
                                  ("reproduce", "all", "--format", "json")],
                         ids=["analyze", "reproduce"])
@pytest.mark.parametrize("target", ["closed", "full"])
def test_output_that_cannot_reach_stdout_ends_with_one_error_line(
        tmp_path, target, args):
    """With stdout closed (``sys.stdout`` is None) or on a full device, a
    command ends through ``run`` as through ``cli.main``: exit 1, one
    ``error:`` line and no traceback, also from the flush at exit."""
    if target == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    reason = ("stdout is closed" if target == "closed"
              else "stdout: No space left on device")
    env = dict(os.environ, EXIT_REPORT=str(tmp_path / "shutdown"))
    env.pop("VLA_ROOFLINE_PRESETS", None)
    for probe in (RUN_PROBE, MAIN_PROBE):
        with open(os.devnull if target == "closed" else "/dev/full",
                  "w") as sink:
            result = subprocess.run(
                [sys.executable, "-c", probe, *args], stdout=sink,
                stderr=subprocess.PIPE, text=True, env=env,
                preexec_fn=_close_stdout if target == "closed" else None)
        assert (result.returncode, result.stderr) == (1, f"error: {reason}\n")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [("analyze", "--format", "json"), ("--help",)],
                         ids=["analyze", "help"])
def test_a_closed_pipe_reads_as_through_the_library(tmp_path, args,
                                                    unbuffered):
    """With stdout on a pipe whose reader is gone, a command ends through
    ``run`` as through ``cli.main``: ``analyze`` catches the broken pipe
    and exits 1 quietly.  Buffered help fails the flush, so ``run`` leaves
    it to the interpreter's shutdown: status 120 and one "Exception
    ignored" line.  Unbuffered, argparse drops the failed write."""
    results = []
    for probe in (RUN_PROBE, MAIN_PROBE):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, EXIT_REPORT=str(tmp_path / "shutdown"),
                   PYTHONUNBUFFERED=unbuffered)
        env.pop("VLA_ROOFLINE_PRESETS", None)
        try:
            result = subprocess.run([sys.executable, "-c", probe, *args],
                                    stdout=write_end, stderr=subprocess.PIPE,
                                    text=True, env=env)
        finally:
            os.close(write_end)
        results.append((result.returncode, result.stderr))
    assert results[0] == results[1]
    if args[0] == "analyze":
        assert results[0] == (1, "")
    elif not unbuffered:
        code, stderr = results[0]
        assert code == 120
        assert stderr.endswith("BrokenPipeError: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("args", [
    ["analyze", "--format", "json"],
    ["sweep", "--chunk", "5,50", "--format", "csv"],
    ["reproduce", "T3"],
    ["list-presets"],
])
def test_library_path_never_freezes(args, capsys):
    frozen = gc.get_freeze_count()
    assert cli.main(args) == 0
    assert capsys.readouterr().out
    assert gc.get_freeze_count() == frozen


def test_declared_console_script_runs_like_python_m():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert set(scripts) == {"vla-roofline"}
    target = scripts["vla-roofline"]
    args = ("list-presets", "--format", "json")
    script = _python(
        "import importlib, sys\n"
        "module, _, attr = sys.argv.pop(1).partition(':')\n"
        "sys.exit(getattr(importlib.import_module(module), attr)())\n",
        target, *args)
    module_run = subprocess.run(
        [sys.executable, "-m", "vla_roofline", *args],
        capture_output=True, text=True)
    assert script.returncode == module_run.returncode == 0
    assert script.stdout == module_run.stdout
