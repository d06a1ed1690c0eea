"""The CLI's help and usage-error text, byte for byte, when argparse
loads, and which optional modules each command loads in a fresh process.

argparse writes help and usage errors from the flag table in ``cli``; the
texts are those of Python 3.11 on an 80-column terminal, so an edit of the
table that changes one byte of help or of an error fails here.  A
well-formed command line is read without argparse, so a process that runs
only those never imports it, even when its flags do not fit its placement:
that is one ``error:`` line, as for every flag combination that no scenario
takes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import vla_roofline
from vla_roofline import cli

# Exit code, stdout and stderr, by the argv joined with spaces.
TEXTS = {
    "--help": (0, """\
usage: vla-roofline [-h] {analyze,sweep,reproduce,list-presets} ...

Roofline-based latency/throughput model for vision-language-action inference.

positional arguments:
  {analyze,sweep,reproduce,list-presets}
    analyze             evaluate one model/placement combination
    sweep               evaluate a cartesian grid of design choices
    reproduce           compare modeled tables against bundled references
    list-presets        show addressable presets

options:
  -h, --help            show this help message and exit
""",
        ""),
    "analyze --help": (0, """\
usage: vla-roofline analyze [-h] [--model MODEL] [--hw HW]
                            [--placement {on-device,edge-server,cloud-server,collaborative}]
                            [--net NET] [--cloud-net CLOUD_NET]
                            [--device-hw DEVICE_HW] [--chunk CHUNK]
                            [--steps STEPS] [--dof DOF]
                            [--decoding {diffusion,diffusion_large,autoregressive,autoregressive_parallel}]
                            [--context-steps CONTEXT_STEPS] [--s2-cap S2_CAP]
                            [--async] [--format {table,csv,json}] [--out PATH]

options:
  -h, --help            show this help message and exit
  --model MODEL         model preset name
  --hw HW               serving accelerator preset
  --placement {on-device,edge-server,cloud-server,collaborative}
  --net NET             access network preset (server placements)
  --cloud-net CLOUD_NET
                        second hop for cloud-server
  --device-hw DEVICE_HW
                        robot-side accelerator (collaborative)
  --chunk CHUNK         action chunk size
  --steps STEPS         denoising steps
  --dof DOF             action degrees of freedom
  --decoding {diffusion,diffusion_large,autoregressive,autoregressive_parallel}
                        decoding strategy override
  --context-steps CONTEXT_STEPS
                        timesteps of cached camera history
  --s2-cap S2_CAP       dual-system mode: System-2 rate cap in Hz
  --async               pipelined serving rate instead of synchronous
  --format {table,csv,json}
                        output format (default: table)
  --out PATH            write output to PATH instead of stdout
""",
        ""),
    "sweep --help": (0, """\
usage: vla-roofline sweep [-h] [--model MODEL] [--hw HW]
                          [--placement {on-device,edge-server,cloud-server,collaborative}]
                          [--net NET] [--cloud-net CLOUD_NET]
                          [--device-hw DEVICE_HW] [--chunk CHUNK]
                          [--steps STEPS] [--dof DOF] [--decoding DECODING]
                          [--context-steps CONTEXT_STEPS]
                          [--format {table,csv,json}] [--out PATH]

options:
  -h, --help            show this help message and exit
  --model MODEL         model preset name
  --hw HW               serving accelerator preset
  --placement {on-device,edge-server,cloud-server,collaborative}
  --net NET             access network preset (server placements)
  --cloud-net CLOUD_NET
                        second hop for cloud-server
  --device-hw DEVICE_HW
                        robot-side accelerator (collaborative)
  --chunk CHUNK         e.g. 5,10,50,250
  --steps STEPS         e.g. 1,10,50
  --dof DOF             e.g. 7,14,40
  --decoding DECODING   subset of diffusion,diffusion_large,autoregressive,aut
                        oregressive_parallel
  --context-steps CONTEXT_STEPS
                        e.g. 1,10,100,1000
  --format {table,csv,json}
                        output format (default: table)
  --out PATH            write output to PATH instead of stdout
""",
        ""),
    "reproduce --help": (0, """\
usage: vla-roofline reproduce [-h] [--format {table,csv,json}] [--out PATH]
                              {T1,T3,T4,T5,T6,T8,T9,scaling,collab,all}

positional arguments:
  {T1,T3,T4,T5,T6,T8,T9,scaling,collab,all}

options:
  -h, --help            show this help message and exit
  --format {table,csv,json}
                        output format (default: table)
  --out PATH            write output to PATH instead of stdout
""",
        ""),
    "list-presets --help": (0, """\
usage: vla-roofline list-presets [-h] [--format {table,csv,json}] [--out PATH]

options:
  -h, --help            show this help message and exit
  --format {table,csv,json}
                        output format (default: table)
  --out PATH            write output to PATH instead of stdout
""",
        ""),
    "": (1, "",
        """\
usage: vla-roofline [-h] {analyze,sweep,reproduce,list-presets} ...
vla-roofline: error: the following arguments are required: command
"""),
    "reproduce T99": (1, "",
        """\
usage: vla-roofline reproduce [-h] [--format {table,csv,json}] [--out PATH]
                              {T1,T3,T4,T5,T6,T8,T9,scaling,collab,all}
vla-roofline reproduce: error: argument table: invalid choice: 'T99' (choose from 'T1', 'T3', 'T4', 'T5', 'T6', 'T8', 'T9', 'scaling', 'collab', 'all')
"""),
    "analyze --placement edge-server": (1, "",
        """\
error: edge-server placement requires --net
"""),
}


@pytest.mark.parametrize("argv", TEXTS, ids=lambda argv: argv or "no-command")
def test_help_and_usage_errors_keep_their_text(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = cli.main(argv.split())
    except SystemExit as exited:
        code = exited.code
    assert (code, *capsys.readouterr()) == TEXTS[argv]


LAZY_ARGPARSE = """\
import contextlib, io, sys
from vla_roofline import cli
results = []
for argv in (["analyze"], ["sweep", "--chunk", "5,10"], ["reproduce", "T1"],
             ["list-presets"], ["analyze", "--placement", "edge-server"],
             ["--help"], ["sweep", "--chunk", "x"]):
    if argv == ["--help"]:
        results.append("argparse" in sys.modules)
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            results.append(cli.main(argv))
        except SystemExit as exc:
            results.append(exc.code)
print(results)
"""


def test_well_formed_commands_never_import_argparse():
    """One well-formed call per command, and a placement that lacks its
    link (exit 1), leave argparse unloaded; help and a usage error then
    load it and exit 0 and 1."""
    result = subprocess.run([sys.executable, "-c", LAZY_ARGPARSE],
                            capture_output=True, text=True)
    assert result.stdout == "[0, 0, 0, 0, 1, False, 0, 1]\n", result.stderr


WATCHED = ("vla_roofline.commands", "vla_roofline.golden",
           "vla_roofline.references", "argparse", "csv", "pathlib")

# Runs the process entry in a fresh ``python -S`` process, so that ``site``
# preloads nothing (it may import ``pathlib``), with the directory that holds
# the package first on the path.  Prints the exit code, then each module of
# WATCHED that the command loaded.
COLD_LOADS = f"""\
import io, sys
sys.path.insert(0, sys.argv[1])
sys.argv = ["vla-roofline", *sys.argv[2:]]
from vla_roofline.__main__ import run
stdout, sys.stdout = sys.stdout, io.StringIO()
try:
    code = run()
finally:
    sys.stdout = stdout
print(code, *(name for name in {WATCHED!r} if name in sys.modules))
"""

# What each well-formed command loads of WATCHED; OUT stands for a file path.
COLD_COMMANDS = {
    "analyze --format json": (),
    "analyze": (),
    "sweep --chunk 5,10": ("vla_roofline.commands",),
    "list-presets": ("vla_roofline.commands",),
    "reproduce T1": ("vla_roofline.commands", "vla_roofline.golden",
                     "vla_roofline.references"),
    "analyze --format json --out OUT": ("pathlib",),
}


@pytest.mark.parametrize("argv", COLD_COMMANDS)
def test_each_cold_command_loads_only_what_it_uses(tmp_path, argv):
    """``analyze`` loads neither the batch commands nor argparse, csv or
    pathlib; the batch commands load ``golden`` only to reproduce, and
    pathlib loads only to write ``--out``."""
    env = dict(os.environ)
    env.pop("VLA_ROOFLINE_PRESETS", None)
    args = [str(tmp_path / "out") if arg == "OUT" else arg
            for arg in argv.split()]
    result = subprocess.run(
        [sys.executable, "-S", "-c", COLD_LOADS,
         str(Path(vla_roofline.__file__).parents[1]), *args],
        capture_output=True, text=True, env=env)
    assert result.stdout.split() == ["0", *COLD_COMMANDS[argv]], result.stderr
