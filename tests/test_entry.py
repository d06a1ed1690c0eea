"""The process entry ``vla_roofline.__main__.run`` and the console script.

``run`` freezes the collector once its command ends, so it is only ever
called in a fresh process here: inside pytest it would freeze the whole
session's heap.  ``cli.main``, the library path, must never freeze.
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

# Runs the command line through ``run`` as ``python -m vla_roofline`` does;
# an exit hook writes the freeze count to the file named by FREEZE_REPORT,
# so stdout, stderr and the exit code stay the process's own.
RUN_PROBE = (
    "import atexit, gc, os, sys\n"
    "from vla_roofline.__main__ import run\n"
    "def report():\n"
    "    with open(os.environ['FREEZE_REPORT'], 'w') as fh:\n"
    "        fh.write(str(gc.get_freeze_count()))\n"
    "atexit.register(report)\n"
    "sys.exit(run())\n"
)
# The same command line through ``cli.main``.
MAIN_PROBE = "import sys\nfrom vla_roofline import cli\nsys.exit(cli.main())\n"
# A ``main`` that raises: the freeze must follow a traceback too.
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
def test_run_freezes_on_every_exit_path(tmp_path, args, code, stream, text):
    env = {"FREEZE_REPORT": str(tmp_path / "frozen")}
    if args[0] == "reproduce":
        # A halved B100 bandwidth breaks the latency table.
        hardware = copy.deepcopy(presets.HARDWARE)
        hardware["b100"]["HBM_BW_GBs"] /= 2
        (tmp_path / "hardware.yaml").write_text(yaml.safe_dump(hardware),
                                                encoding="utf-8")
        env["VLA_ROOFLINE_PRESETS"] = str(tmp_path)
    entry = _python(RUN_PROBE, *args, env=env)
    library = _python(MAIN_PROBE, *args, env=env)
    assert int((tmp_path / "frozen").read_text()) > 0
    assert (entry.returncode, entry.stdout, entry.stderr) == (
        library.returncode, library.stdout, library.stderr)
    assert entry.returncode == code
    assert text in getattr(entry, stream)


def test_run_freezes_after_a_traceback(tmp_path):
    report = tmp_path / "frozen"
    result = _python(RAISING_PROBE, "analyze",
                     env={"FREEZE_REPORT": str(report)})
    assert int(report.read_text()) > 0
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr.splitlines()[-1] == "RuntimeError: boom"


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
