"""Bounded fuzz of the in-process CLI: every input ends in a result or an
``error:`` line.

Arguments are drawn from the parser's own subcommands, flags and choices,
with preset names, numbers at and beyond the validated ranges, and some
junk.  A second fuzz runs the same arguments over mutated preset YAML under
``VLA_ROOFLINE_PRESETS``.  Every call must return (or exit with) 0, 1 or 2
without an exception, and ``--format json`` output must be strict JSON.  A
third fuzz, with junk tokens spliced in, checks that ``cli._read_argv``
reads each argument list as argparse does or leaves it to argparse.
Examples are capped to keep this file at about three seconds.
"""

import argparse
import contextlib
import copy
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vla_roofline import cli, commands, presets
from vla_roofline.configio import PRESET_DIR_ENV, load_presets
from vla_roofline.scenarios import DECODING_VARIANTS

PARSER = commands.build_parser()
SUBCOMMANDS = next(action.choices for action in PARSER._actions
                   if isinstance(action, argparse._SubParsersAction))

LIB = load_presets()
PRESET_NAMES = {"model": sorted(LIB.models), "hw": sorted(LIB.hardware),
                "device_hw": sorted(LIB.hardware), "net": sorted(LIB.networks),
                "cloud_net": sorted(LIB.networks)}

JUNK = st.text(alphabet="0123456789-+.,eEinfaxyz _", max_size=6)
INTEGERS = st.one_of(
    st.integers(-3, 300),
    st.sampled_from([2 ** 53, 2 ** 53 + 1, 10 ** 400])).map(str)
NUMBERS = st.one_of(
    INTEGERS,
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e309", "1e-320", "0.5"]))


def _value(action: argparse.Action) -> st.SearchStrategy[str]:
    """Text for one option or positional: mostly valid, sometimes junk."""
    if action.dest == "out":
        # Never a junk name: that would write a file into the working tree.
        # An empty name is refused before anything is written.
        return st.sampled_from([os.devnull, "/nonexistent/out.txt", ""])
    if action.dest in PRESET_NAMES:
        valid = st.sampled_from(PRESET_NAMES[action.dest])
    elif action.type in (cli._int_list, cli._str_list):
        item = (INTEGERS if action.type is cli._int_list
                else st.sampled_from(DECODING_VARIANTS))
        valid = st.lists(item, min_size=1, max_size=3).map(",".join)
    elif action.choices:
        valid = st.sampled_from(sorted(action.choices))
    else:
        valid = NUMBERS if action.type is float else INTEGERS
    return st.one_of(valid, valid, valid, JUNK)


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    sub = SUBCOMMANDS[command]
    argv = [command]
    for action in sub._actions:
        if not action.option_strings:
            argv.append(draw(_value(action)))
    options = [action for action in sub._actions
               if action.option_strings and action.dest != "help"]
    for action in draw(st.lists(st.sampled_from(options), max_size=5)):
        argv.append(action.option_strings[-1])
        if action.nargs != 0:
            argv.append(draw(_value(action)))
    return argv


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def _run(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    if code == 1:
        assert "error: " in err.getvalue().splitlines()[-1], err.getvalue()
        return
    args = PARSER.parse_args(argv)
    if args.format == "json" and not args.out:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(argvs())
def test_cli_arguments_end_in_a_result_or_an_error(argv):
    with mock.patch.dict(os.environ):
        os.environ.pop(PRESET_DIR_ENV, None)
        _run(argv)


# Tokens argparse reads in its own way: help, an abbreviation, an inline
# value, the end of options, negative numbers, an empty value, a stray
# positional.
JUNK_TOKENS = ("--form", "--format=json", "-h", "--", "-5", "-1e3", "", "T1")


@st.composite
def argvs_with_junk(draw) -> list[str]:
    """An argv with junk tokens inserted, or put in place of a token."""
    argv = draw(argvs())
    for token in draw(st.lists(st.sampled_from(JUNK_TOKENS), max_size=2)):
        at = draw(st.integers(0, len(argv)))
        argv[at:at + draw(st.integers(0, 1))] = [token]
    return argv


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(argvs(), argvs_with_junk()))
@example(["analyze", "--s2-cap", "nan", "--async", "--async"])
@example(["sweep", "--model", "pi0-l", "--model", "pi0", "--chunk", "5,10"])
@example(["reproduce", "--out", "", "T1", "--format", "csv"])
@example(["reproduce", "--format", "json"])
@example(["analyze", "--model", "-h"])
def test_the_argv_reader_reads_what_argparse_reads(argv):
    """``cli._read_argv`` gives argparse's attributes (compared by repr, so
    NaN equals NaN) or leaves the command line to argparse."""
    read = cli._read_argv(argv)
    if read is not None:
        assert repr(sorted(vars(read).items())) == repr(
            sorted(vars(PARSER.parse_args(argv)).items()))


PACKAGED = {"models.yaml": presets.MODELS, "hardware.yaml": presets.HARDWARE,
            "networks.yaml": presets.NETWORKS}

LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2),
    st.sampled_from([2 ** 53 + 1, 10 ** 400, float("nan"), float("inf"),
                     1e-320, 1e308, -0.0, "x", [], {}]),
    st.text(max_size=4), st.lists(st.integers(0, 3), max_size=2))


def _nodes(tree, path=()):
    """Every (path, value) in a nested mapping, the root included."""
    yield path, tree
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _nodes(value, path + (key,))


@st.composite
def mutated_preset_files(draw) -> dict[str, str]:
    filename = draw(st.sampled_from(sorted(PACKAGED)))
    tree = copy.deepcopy(PACKAGED[filename])
    path, node = draw(st.sampled_from(list(_nodes(tree))))
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    mutation = draw(st.sampled_from(["replace", "delete", "add", "text"]))
    if mutation == "replace" and path:
        parent[path[-1]] = draw(LEAVES)
    elif mutation == "delete" and path:
        del parent[path[-1]]
    elif mutation == "add" and isinstance(node, dict):
        node[draw(st.sampled_from(["extra", "x1", ""]))] = draw(LEAVES)
    text = yaml.safe_dump(tree)
    if mutation == "text":
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + draw(st.sampled_from(["", ":", "{", "\t", "'"])) \
            + text[cut + draw(st.integers(0, 3)):]
    return {filename: text}


# A preset name YAML reads as a number once broke sorting; an override
# that makes a reference configuration infeasible once broke ``reproduce``.
SMALL_MEMORY = yaml.safe_dump({
    **presets.HARDWARE,
    "b100": {**presets.HARDWARE["b100"], "Memory_GB": 0.001},
    "rtx4090": {**presets.HARDWARE["rtx4090"], "Memory_GB": 1}})


# A phase with no operators once crashed the T4 table and the dual-system
# paths.
NO_DENOISING = yaml.safe_dump({**presets.MODELS, "models": {
    **presets.MODELS["models"],
    "pi0": {**presets.MODELS["models"]["pi0"], "denoise_steps": 0}}})
NO_VLM_LAYERS = yaml.safe_dump({**presets.MODELS, "components": {
    **presets.MODELS["components"],
    "gemma-2b": {**presets.MODELS["components"]["gemma-2b"],
                 "num_decoder_layers": 0}}})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mutated_preset_files(), argvs())
@example({"networks.yaml": "4g: {bandwidth_mbps: 1, base_latency_ms: 1}\n"
                           "5: {bandwidth_mbps: 1, base_latency_ms: 1}\n"},
         ["list-presets"])
@example({"hardware.yaml": SMALL_MEMORY}, ["reproduce", "all"])
@example({"hardware.yaml": SMALL_MEMORY},
         ["reproduce", "all", "--format", "json"])
@example({"models.yaml": NO_DENOISING}, ["reproduce", "all"])
@example({"models.yaml": NO_VLM_LAYERS},
         ["reproduce", "T4", "--format", "json"])
@example({"models.yaml": NO_VLM_LAYERS}, ["analyze", "--s2-cap", "5"])
def test_mutated_presets_end_in_a_result_or_an_error(files, argv):
    with tempfile.TemporaryDirectory() as preset_dir, \
            mock.patch.dict(os.environ, {PRESET_DIR_ENV: preset_dir}):
        for filename, text in files.items():
            Path(preset_dir, filename).write_text(text, encoding="utf-8")
        _run(argv)
