"""README's transcripts match the CLI.

Each ``text`` block of README that starts with a ``$ vla-roofline`` command
is that command's stdout, line for line, and the placement and
``--steps`` errors README quotes are the lines the CLI prints.
"""

import re
import shlex
from pathlib import Path

import pytest

from vla_roofline import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")
TRANSCRIPTS = re.findall(r"^```text\n\$ vla-roofline ([^\n]*)\n(.*?)^```$",
                         README, re.MULTILINE | re.DOTALL)


def test_readme_has_its_three_transcripts():
    assert [command for command, _ in TRANSCRIPTS] == [
        "analyze --model pi0 --hw b100", "sweep --chunk 10,50,250",
        "reproduce T1"]


@pytest.mark.parametrize("command, stdout", TRANSCRIPTS,
                         ids=[command for command, _ in TRANSCRIPTS])
def test_a_readme_transcript_is_the_cli_output(monkeypatch, capsys, command,
                                               stdout):
    monkeypatch.delenv("VLA_ROOFLINE_PRESETS", raising=False)
    assert cli.main(shlex.split(command)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == stdout.splitlines()


def test_readme_quotes_the_placement_errors_the_cli_prints(monkeypatch,
                                                           capsys):
    monkeypatch.delenv("VLA_ROOFLINE_PRESETS", raising=False)
    printed = []
    for argv in (["analyze", "--placement", "edge-server"],
                 ["analyze", "--net", "5g"]):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        printed.append(err.rstrip("\n"))
    assert printed == re.findall(r"`(error: [\w-]+ placement [^`]*)`",
                                 " ".join(README.split()))


def test_readme_quotes_the_steps_error_the_cli_prints(monkeypatch, capsys):
    monkeypatch.delenv("VLA_ROOFLINE_PRESETS", raising=False)
    assert cli.main(["analyze", "--decoding", "autoregressive",
                     "--steps", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"`{err.rstrip()}`" in " ".join(README.split())
