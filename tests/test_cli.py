"""End-to-end CLI tests via subprocess.

Exit code contract: 0 success (including infeasible N/A results), 1 usage
or configuration errors, 2 reproduce-tolerance failures.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest
import yaml

from vla_roofline import cli, commands, presets
from vla_roofline.configio import load_presets


def run_cli(*args, env=None):
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "vla_roofline", *args],
        capture_output=True,
        text=True,
        env=merged,
    )


def test_analyze_default_table():
    result = run_cli("analyze")
    assert result.returncode == 0
    assert result.stderr == ""
    out = result.stdout
    assert "model" in out and "pi0" in out
    assert "e2e_latency_ms" in out and "3.19" in out
    assert "sync_frequency_hz" in out and "313.6" in out
    assert "footprint_gb" in out and "5.05" in out


def test_analyze_json_round_trip():
    result = run_cli("analyze", "--model", "pi0", "--hw", "b100",
                     "--format", "json")
    assert result.returncode == 0
    record = json.loads(result.stdout)
    assert record["model"] == "pi0"
    assert record["feasible"] == "yes"
    assert record["e2e_latency_ms"] == 3.19
    assert record["sync_frequency_hz"] == 313.6
    assert record["vision_bound"] == "compute"
    assert record["vlm_bound"] == "compute"
    assert record["action_bound"] == "memory"
    assert record["vlm_oi"] == 598.8
    assert record["footprint_gb"] == 5.05


def test_analyze_csv_key_value_rows():
    result = run_cli("analyze", "--format", "csv")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "key,value"
    assert "e2e_latency_ms,3.19" in lines
    assert "feasible,yes" in lines


def test_analyze_edge_server_includes_network_legs():
    result = run_cli("analyze", "--placement", "edge-server",
                     "--net", "ethernet-10g", "--format", "json")
    assert result.returncode == 0
    record = json.loads(result.stdout)
    assert record["placement"] == "edge server (b100 via ethernet-10g)"
    assert record["observation_upload_ms"] == 0.09
    assert record["action_download_ms"] == 0.05
    assert record["e2e_latency_ms"] == 3.33


def test_analyze_async_adds_rate():
    result = run_cli("analyze", "--placement", "edge-server", "--net", "4g",
                     "--async", "--format", "json")
    assert result.returncode == 0
    record = json.loads(result.stdout)
    # 4G upload (19 Mbps) throttles the pipeline below the GPU rate.
    assert record["async_frequency_hz"] == 51.1
    assert record["sync_frequency_hz"] == 13.7


def test_analyze_async_is_download_bound_for_a_large_dof(capsys):
    assert cli.main(["analyze", "--placement", "edge-server", "--net", "4g",
                     "--async", "--dof", "2000", "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    # A 3.2 Mb action chunk over 4G's 75 Mbps download: 23.4 Hz, below
    # both the upload's 51.1 Hz and the GPU's 312.5 Hz.
    assert record["sync_frequency_hz"] == 8.7
    assert record["async_frequency_hz"] == 23.4


def test_analyze_dual_system_record():
    result = run_cli("analyze", "--hw", "thor", "--s2-cap", "5",
                     "--format", "json")
    assert result.returncode == 0
    record = json.loads(result.stdout)
    assert record["s2_cap_hz"] == 5
    assert record["s1_latency_ms"] == 33.26
    assert record["s2_latency_ms"] == 20.2
    assert record["async_frequency_hz"] == 27.0


def test_analyze_infeasible_is_not_an_error():
    result = run_cli("analyze", "--model", "pi0-xxl", "--hw", "thor")
    assert result.returncode == 0
    assert "feasible" in result.stdout and "no" in result.stdout
    assert "N/A" in result.stdout
    assert "needs" in result.stdout  # capacity note explains the N/A


def test_collaborative_without_denoise_steps_prints_no_action_phase():
    result = run_cli("analyze", "--placement", "collaborative", "--net",
                     "wifi7", "--device-hw", "thor", "--steps", "0",
                     "--format", "json")
    assert result.returncode == 0
    record = json.loads(result.stdout)
    assert record["feasible"] == "yes"
    assert "vlm_latency_ms" in record
    assert not any(key.startswith("action_") for key in record)


@pytest.mark.parametrize("args, message", [
    (("--placement", "collaborative", "--net", "wifi7", "--device-hw", "thor",
      "--context-steps", "1000"), "camera history"),
    (("--hw", "thor", "--s2-cap", "5", "--context-steps", "1000"),
     "camera history"),
    (("--s2-cap", "nan", "--format", "json"), "finite positive"),
    (("--s2-cap", "inf", "--format", "json"), "finite positive"),
    (("--hw", "thor", "--s2-cap", "5", "--async"), "--async"),
])
def test_ignored_or_non_finite_input_is_an_error(args, message):
    result = run_cli("analyze", *args)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and message in result.stderr
    assert len(result.stderr.splitlines()) == 1


HUGE = "1" + "0" * 400
HUGE_LAYERS_YAML = (
    "components:\n"
    f"  c: {{num_decoder_layers: {HUGE}, hidden_size: 8, intermediate_size: 8,"
    " num_ffi: 1, num_attention_heads: 1, num_kv_heads: 1, head_dim: 8}\n"
    "models:\n"
    "  pi0: {vision_encoder: c, vlm: c, action_expert: c}\n")
BIG_CHUNK_YAML = (
    "components:\n"
    "  c: {num_decoder_layers: 1, hidden_size: 8, intermediate_size: 8,"
    " num_ffi: 1, num_attention_heads: 1, num_kv_heads: 1, head_dim: 8}\n"
    "models:\n"
    f"  pi0: {{vision_encoder: c, vlm: c, action_expert: c,"
    f" chunk_size: {2 ** 53 + 1}}}\n")


@pytest.mark.parametrize("args, models_yaml", [
    pytest.param(("analyze", "--chunk", "1" + "0" * 300), None,
                 id="analyze-chunk"),
    # Below float overflow, but above 2**53: once priced as 130-digit
    # latencies at 0.0 Hz.
    pytest.param(("analyze", "--steps", "1" + "0" * 300), None,
                 id="analyze-steps"),
    pytest.param(("analyze", "--dof", "1" + "0" * 300, "--s2-cap", "5"), None,
                 id="analyze-dof-s2-cap"),
    pytest.param(("analyze", "--chunk", str(2 ** 53 + 1)), None,
                 id="analyze-chunk-above-2**53"),
    pytest.param(("sweep", "--dof", HUGE), None, id="sweep-dof"),
    pytest.param(("analyze", "--context-steps", HUGE), None,
                 id="analyze-context-steps"),
    pytest.param(("analyze",), HUGE_LAYERS_YAML, id="preset-layer-count"),
    pytest.param(("analyze",), BIG_CHUNK_YAML, id="preset-chunk-above-2**53"),
])
def test_huge_integer_is_an_error(tmp_path, args, models_yaml):
    env = None
    if models_yaml is not None:
        (tmp_path / "models.yaml").write_text(models_yaml, encoding="utf-8")
        env = {"VLA_ROOFLINE_PRESETS": str(tmp_path)}
    result = run_cli(*args, env=env)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and "too large" in result.stderr
    assert len(result.stderr.splitlines()) == 1


def test_largest_allowed_count_is_priced():
    # 2**53 itself is still a count: a result, here an infeasible one.
    result = run_cli("analyze", "--context-steps", str(2 ** 53),
                     "--format", "json")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["feasible"] == "no"


def test_missing_net_is_usage_error():
    result = run_cli("analyze", "--placement", "edge-server")
    assert (result.returncode, result.stdout, result.stderr) == (
        1, "", "error: edge-server placement requires --net\n")


@pytest.mark.parametrize("command", ["analyze", "sweep"])
@pytest.mark.parametrize("args, message", [
    (("--net", "wifi7"), "on-device placement does not use --net"),
    (("--device-hw", "thor", "--net", "5g"),
     "on-device placement does not use --net"),
    (("--placement", "edge-server", "--net", "5g", "--cloud-net",
      "fast-cloud"), "edge-server placement does not use --cloud-net"),
    (("--placement", "edge-server", "--net", "5g", "--device-hw", "thor"),
     "edge-server placement does not use --device-hw"),
    (("--placement", "cloud-server", "--net", "5g", "--cloud-net",
      "fast-cloud", "--device-hw", "thor"),
     "cloud-server placement does not use --device-hw"),
    (("--placement", "collaborative", "--net", "wifi7", "--device-hw", "thor",
      "--cloud-net", "fast-cloud"),
     "collaborative placement does not use --cloud-net"),
])
def test_placement_flag_the_placement_does_not_use_is_usage_error(
        command, args, message):
    """One ``error:`` line, as for any other flag combination that no
    scenario takes."""
    result = run_cli(command, *args)
    assert (result.returncode, result.stdout, result.stderr) == (
        1, "", f"error: {message}\n")


def test_unknown_model_is_usage_error():
    result = run_cli("analyze", "--model", "pi9")
    assert result.returncode == 1
    assert result.stderr.startswith("error:")
    assert "pi9" in result.stderr


def test_unknown_reproduce_id_is_usage_error():
    result = run_cli("reproduce", "T2")
    assert result.returncode == 1
    assert "invalid choice" in result.stderr


def test_reproduce_passes_against_bundled_references():
    result = run_cli("reproduce", "T3")
    assert result.returncode == 0
    assert "T3: PASS" in result.stdout
    assert "overall: PASS" in result.stdout


def test_reproduce_all_lists_every_table():
    result = run_cli("reproduce", "all", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert [group["table"] for group in payload] == [
        "T1", "T3", "T4", "T5", "T6", "T8", "T9", "collab"]
    assert all(group["passed"] for group in payload)


def test_reproduce_fails_with_doctored_presets(tmp_path):
    # Shadow only hardware.yaml; a halved B100 bandwidth must break the
    # latency table and exit 2.
    doctored = (
        "thor: {BF16_TFLOPS: 400, HBM_BW_GBs: 270, Memory_GB: 128}\n"
        "rtx4090: {BF16_TFLOPS: 165, HBM_BW_GBs: 1008, Memory_GB: 24}\n"
        "a100: {BF16_TFLOPS: 312, HBM_BW_GBs: 2039, Memory_GB: 80}\n"
        "h100: {BF16_TFLOPS: 989, HBM_BW_GBs: 3350, Memory_GB: 80}\n"
        "b100: {BF16_TFLOPS: 1750, HBM_BW_GBs: 4000, Memory_GB: 192}\n"
    )
    (tmp_path / "hardware.yaml").write_text(doctored, encoding="utf-8")
    result = run_cli("reproduce", "T3",
                     env={"VLA_ROOFLINE_PRESETS": str(tmp_path)})
    assert result.returncode == 2
    assert "FAIL" in result.stdout
    assert "overall: FAIL" in result.stdout


@pytest.mark.parametrize("filename, packaged, name, removed, message", [
    pytest.param("hardware.yaml", "HARDWARE", "thor",
                 {"FP32_TFLOPS": 100, "INT8_TOPS": 800},
                 "accelerator 'thor': unknown fields ['FP32_TFLOPS', "
                 "'INT8_TOPS']", id="fp32-and-int8"),
    pytest.param("hardware.yaml", "HARDWARE", "b100", {"FP32_TFLOPS": 60},
                 "accelerator 'b100': unknown fields ['FP32_TFLOPS']",
                 id="fp32"),
    pytest.param("hardware.yaml", "HARDWARE", "b100", {"INT8_TOPS": 3500},
                 "accelerator 'b100': unknown fields ['INT8_TOPS']",
                 id="int8"),
    pytest.param("networks.yaml", "NETWORKS", "5g", {"efficiency": 1.0},
                 "network '5g': unknown fields ['efficiency']",
                 id="efficiency"),
])
def test_a_removed_preset_key_is_an_unknown_field(
        tmp_path, monkeypatch, capsys, filename, packaged, name, removed,
        message):
    """Every phase is priced at the BF16 peak and every link at its
    achievable bandwidth, so the FP32 and INT8 peaks and a link's
    efficiency price nothing: an override file that still sets one ends
    every command in the one error line that names it."""
    data = copy.deepcopy(getattr(presets, packaged))
    data[name].update(removed)
    (tmp_path / filename).write_text(yaml.safe_dump(data), encoding="utf-8")
    monkeypatch.setenv("VLA_ROOFLINE_PRESETS", str(tmp_path))
    for args in (("analyze",), ("reproduce", "T1"), ("list-presets",)):
        assert cli.main(list(args)) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_phase_without_operators_fails_its_boundedness_cells(tmp_path):
    """A VLM stack of no layers leaves pi0 no VLM operators: its OI and
    bound cells read N/A and fail, and the command exits 2."""
    models = copy.deepcopy(presets.MODELS)
    models["components"]["gemma-2b"]["num_decoder_layers"] = 0
    (tmp_path / "models.yaml").write_text(yaml.safe_dump(models),
                                          encoding="utf-8")
    result = run_cli("reproduce", "T4", "--format", "json",
                     env={"VLA_ROOFLINE_PRESETS": str(tmp_path)})
    assert result.returncode == 2
    assert result.stderr == ""
    [table] = json.loads(result.stdout)
    assert not table["passed"]
    failed = {cell["label"]: cell["modeled"] for cell in table["cells"]
              if cell["status"] == "FAIL"}
    assert failed == {"vlm OI": "N/A", **{f"{hw} vlm bound": "N/A" for hw in
                      ("thor", "rtx4090", "a100", "h100", "b100")}}


@pytest.fixture
def subnormal_b100_env(tmp_path):
    """An override whose b100 has a subnormal BF16 peak: every phase on it
    prices as infinite seconds and every rate as 0 Hz."""
    hardware = copy.deepcopy(presets.HARDWARE)
    hardware["b100"]["BF16_TFLOPS"] = 1.0e-320
    (tmp_path / "hardware.yaml").write_text(yaml.safe_dump(hardware),
                                            encoding="utf-8")
    return {"VLA_ROOFLINE_PRESETS": str(tmp_path)}


@pytest.mark.parametrize("table", ["T8", "all"])
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_zero_rate_fails_its_speedup_cells(subnormal_b100_env, table, fmt):
    """A speedup over a 0 Hz sync rate is a failed N/A cell, not a
    ZeroDivisionError."""
    result = run_cli("reproduce", table, "--format", fmt,
                     env=subnormal_b100_env)
    assert (result.returncode, result.stderr) == (2, "")
    if fmt == "json":
        cells = {cell["label"]: cell for group in json.loads(result.stdout)
                 for cell in group["cells"]}
        speedup = cells["Ethernet 10G speedup"]
        assert (speedup["modeled"], speedup["status"]) == ("N/A", "FAIL")


# `reproduce T3` and `reproduce T8` as the subnormal-b100 override prints
# them: `inf ms`, `-100.0%` and `N/A x` cells widen the right-aligned
# columns, and an empty error cell is padded like the others.
OVERRIDE_TABLES = {
    "T3": """\
T3  thor vision latency      6.19 ms   6.06 ms    +2.1%  ok
T3  thor vlm latency        20.20 ms  20.30 ms    -0.5%  ok
T3  thor action latency     27.08 ms  26.20 ms    +3.3%  ok
T3  thor e2e latency        53.46 ms  52.57 ms    +1.7%  ok
T3  thor frequency           18.7 Hz   19.0 Hz    -1.5%  ok
T3  rtx4090 vision latency   4.30 ms   4.02 ms    +7.0%  ok
T3  rtx4090 vlm latency     19.79 ms  19.79 ms    -0.0%  ok
T3  rtx4090 action latency   7.25 ms   7.25 ms    +0.0%  ok
T3  rtx4090 e2e latency     31.34 ms  31.06 ms    +0.9%  ok
T3  rtx4090 frequency        31.9 Hz   32.2 Hz    -0.9%  ok
T3  a100 vision latency      2.27 ms   2.13 ms    +6.8%  ok
T3  a100 vlm latency        10.47 ms  10.47 ms    -0.0%  ok
T3  a100 action latency      3.59 ms   3.60 ms    -0.4%  ok
T3  a100 e2e latency        16.32 ms  16.20 ms    +0.8%  ok
T3  a100 frequency           61.3 Hz   61.7 Hz    -0.7%  ok
T3  h100 vision latency      0.72 ms   0.71 ms    +1.1%  ok
T3  h100 vlm latency         3.32 ms   3.30 ms    +0.7%  ok
T3  h100 action latency      2.18 ms   2.14 ms    +2.0%  ok
T3  h100 e2e latency         6.22 ms   6.15 ms    +1.2%  ok
T3  h100 frequency          160.7 Hz  162.5 Hz    -1.1%  ok
T3  b100 vision latency       inf ms   0.40 ms    +inf%  FAIL
T3  b100 vlm latency          inf ms   1.87 ms    +inf%  FAIL
T3  b100 action latency       inf ms   0.91 ms    +inf%  FAIL
T3  b100 e2e latency          inf ms   3.18 ms    +inf%  FAIL
T3  b100 frequency            0.0 Hz  314.4 Hz  -100.0%  FAIL
T3: FAIL (5 cell(s)) — 25 graded, 0 informational

overall: FAIL
""",
    "T8": """\
T8  Ethernet 10G sync latency        inf ms    3.3 ms    +inf%  FAIL
T8  Ethernet 10G sync freq           0.0 Hz  301.4 Hz  -100.0%  FAIL
T8  Ethernet 10G async freq          0.0 Hz  314.4 Hz  -100.0%  FAIL
T8  Ethernet 10G speedup              N/A x    1.04 x           FAIL
T8  Ethernet 1G sync latency         inf ms    3.8 ms    +inf%  FAIL
T8  Ethernet 1G sync freq            0.0 Hz  266.5 Hz  -100.0%  FAIL
T8  Ethernet 1G async freq           0.0 Hz  314.4 Hz  -100.0%  FAIL
T8  Ethernet 1G speedup               N/A x    1.18 x           FAIL
T8  WiFi 7 sync latency              inf ms    8.4 ms    +inf%  FAIL
T8  WiFi 7 sync freq                 0.0 Hz  119.7 Hz  -100.0%  FAIL
T8  WiFi 7 async freq                0.0 Hz  314.4 Hz  -100.0%  FAIL
T8  WiFi 7 speedup                    N/A x    2.63 x           FAIL
T8  5G sync latency                  inf ms   27.8 ms    +inf%  FAIL
T8  5G sync freq                     0.0 Hz   35.9 Hz  -100.0%  FAIL
T8  5G async freq                    0.0 Hz  215.3 Hz  -100.0%  FAIL
T8  5G speedup                        N/A x    5.99 x           FAIL
T8  4G sync latency                  inf ms   73.0 ms    +inf%  FAIL
T8  4G sync freq                     0.0 Hz   13.7 Hz  -100.0%  FAIL
T8  4G async freq                    0.0 Hz   50.5 Hz  -100.0%  FAIL
T8  4G speedup                        N/A x    3.68 x           FAIL
T8  Wired + Fast Cloud sync latency  inf ms   23.4 ms    +inf%  FAIL
T8  Wired + Fast Cloud sync freq     0.0 Hz   42.8 Hz  -100.0%  FAIL
T8  Wired + Fast Cloud async freq    0.0 Hz  314.4 Hz  -100.0%  FAIL
T8  Wired + Fast Cloud speedup        N/A x    7.34 x           FAIL
T8  4G + Slow Cloud sync latency     inf ms  273.4 ms    +inf%  FAIL
T8  4G + Slow Cloud sync freq        0.0 Hz    3.7 Hz  -100.0%  FAIL
T8  4G + Slow Cloud async freq       0.0 Hz   50.5 Hz  -100.0%  FAIL
T8  4G + Slow Cloud speedup           N/A x   13.79 x           FAIL
T8: FAIL (28 cell(s)) — 28 graded, 0 informational

overall: FAIL
""",
}


@pytest.mark.parametrize("table", sorted(OVERRIDE_TABLES))
def test_override_table_layout(capsys, monkeypatch, subnormal_b100_env,
                               table):
    monkeypatch.setenv("VLA_ROOFLINE_PRESETS",
                       subnormal_b100_env["VLA_ROOFLINE_PRESETS"])
    code = cli.main(["reproduce", table])
    assert (code, *capsys.readouterr()) == (2, OVERRIDE_TABLES[table], "")


@pytest.mark.parametrize("override", [False, True],
                         ids=["packaged", "subnormal-b100"])
def test_reproduce_all_json_matches_json_dumps(
        capsys, monkeypatch, subnormal_b100_env, override):
    """``reproduce all --format json`` is ``json.dumps(indent=2)`` of one
    object per table with its cells as objects; the override brings in
    ``"passed": false``, ``N/A`` and ``inf`` text."""
    from vla_roofline import golden

    if override:
        monkeypatch.setenv("VLA_ROOFLINE_PRESETS",
                           subnormal_b100_env["VLA_ROOFLINE_PRESETS"])
    else:
        monkeypatch.delenv("VLA_ROOFLINE_PRESETS", raising=False)
    code = cli.main(["reproduce", "all", "--format", "json"])
    text, err = capsys.readouterr()
    lib, memo = load_presets(), {}
    doc = []
    for name in cli._ALL_TABLES:
        cells = golden.TABLES[name](lib, memo)
        doc.append({"table": name, "passed": golden.table_passed(cells),
                    "cells": [dict(zip(commands._CELL_COLUMNS,
                                       commands._cell_fields(c)))
                              for c in cells]})
    assert (code, err) == ((2, "") if override else (0, ""))
    assert text == json.dumps(doc, indent=2) + "\n"
    if override:
        assert all(word in text for word in ('"passed": false', '"N/A"',
                                             '"inf"', '"+inf%"'))


def test_reproduce_ids_are_the_golden_tables():
    """Each ``reproduce`` id but ``all`` is a ``golden.TABLES`` key and each
    key an id, and ``all`` runs each distinct builder once, in ``TABLES``
    order.  ``cli`` keeps its own copy so that ``analyze`` never imports
    ``golden``; drift would be a ``KeyError`` from ``reproduce`` or a table
    that no command reaches."""
    from vla_roofline import golden

    assert cli.REPRODUCE_IDS[-1] == "all"
    assert sorted(cli.REPRODUCE_IDS[:-1]) == sorted(golden.TABLES)
    assert ([golden.TABLES[name] for name in cli._ALL_TABLES]
            == list(dict.fromkeys(golden.TABLES.values())))


@pytest.mark.parametrize("section, name, field, value", [
    ("components", "act-l", "num_decoder_layers", 4),
    ("models", "pi0", "num_cameras", 1),
])
def test_scaling_table_prices_the_model_analyze_prices(tmp_path, section,
                                                       name, field, value):
    """Under an override, T5's pi0-l row and `analyze --model pi0-l` read
    the one pi0-l preset that the override defines."""
    models = copy.deepcopy(presets.MODELS)
    models[section][name][field] = value
    (tmp_path / "models.yaml").write_text(yaml.safe_dump(models),
                                          encoding="utf-8")
    env = {"VLA_ROOFLINE_PRESETS": str(tmp_path)}
    table = run_cli("reproduce", "T5", "--format", "json", env=env)
    assert table.returncode in (0, 2) and table.stderr == ""
    [group] = json.loads(table.stdout)
    [cell] = [cell["modeled"] for cell in group["cells"]
              if cell["label"] == "pi0-l on b100"]
    record = run_cli("analyze", "--model", "pi0-l", "--hw", "b100",
                     "--format", "json", env=env)
    assert record.returncode == 0
    assert cell == f"{json.loads(record.stdout)['sync_frequency_hz']:.1f}"


@pytest.fixture
def ar_model_env(tmp_path):
    """An override that adds ``ar-model``: pi0 with no action expert,
    decoding autoregressively on its VLM."""
    models = copy.deepcopy(presets.MODELS)
    entry = dict(models["models"]["pi0"], decoding_mode="autoregressive")
    del entry["action_expert"]
    models["models"]["ar-model"] = entry
    (tmp_path / "models.yaml").write_text(yaml.safe_dump(models),
                                          encoding="utf-8")
    return {"VLA_ROOFLINE_PRESETS": str(tmp_path)}


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_every_decoding_sets_its_mode(ar_model_env, fmt):
    """``diffusion`` on a model without an action expert is an error, not
    the model's own decoding; ``diffusion_large`` gives it a VLM-sized
    expert."""
    base = ("--model", "ar-model", "--hw", "b100", "--format", fmt)
    for args in (("analyze", "--decoding", "diffusion"),
                 ("sweep", "--decoding", "diffusion,autoregressive"),
                 ("sweep", "--decoding", "autoregressive,diffusion")):
        result = run_cli(*args, *base, env=ar_model_env)
        assert (result.returncode, result.stdout, result.stderr) == (
            1, "", "error: ar-model: diffusion decoding requires an action "
                   "expert\n")
    large = run_cli("analyze", "--decoding", "diffusion_large", *base,
                    env=ar_model_env)
    assert large.returncode == 0 and large.stderr == ""
    assert "ar-model-large-expert" in large.stdout
    sweep = run_cli("sweep", "--decoding", "diffusion_large,autoregressive",
                    *base, env=ar_model_env)
    assert sweep.returncode == 0 and sweep.stderr == ""


def test_env_override_changes_analyze_output(tmp_path):
    (tmp_path / "networks.yaml").write_text(
        "toy-link: {bandwidth_mbps: 1, base_latency_ms: 100}\n",
        encoding="utf-8")
    result = run_cli("analyze", "--placement", "edge-server",
                     "--net", "toy-link", "--format", "json",
                     env={"VLA_ROOFLINE_PRESETS": str(tmp_path)})
    assert result.returncode == 0
    record = json.loads(result.stdout)
    # 46.5 kB over 1 Mbps plus 100 ms base latency.
    assert record["observation_upload_ms"] == 472.0
    # Without the override the same name is rejected.
    assert run_cli("analyze", "--placement", "edge-server",
                   "--net", "toy-link").returncode == 1


def _assert_preset_error(tmp_path, filename, text, args, message):
    (tmp_path / filename).write_text(text, encoding="utf-8")
    result = run_cli("analyze", *args,
                     env={"VLA_ROOFLINE_PRESETS": str(tmp_path)})
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and message in result.stderr
    assert len(result.stderr.splitlines()) == 1


def _blind_models_yaml() -> str:
    """The packaged models plus ``blind``: pi0 without cameras."""
    models = copy.deepcopy(presets.MODELS)
    models["models"]["blind"] = {**models["models"]["pi0"], "num_cameras": 0}
    return yaml.safe_dump(models)


def test_dual_system_without_system_1_work_is_an_error(tmp_path):
    """Without cameras or denoising steps, System 1 takes no time on the
    device, so its rate has no finite value."""
    _assert_preset_error(tmp_path, "models.yaml", _blind_models_yaml(),
                         ("--model", "blind", "--steps", "0", "--s2-cap", "5"),
                         "dual-system serving needs System-1 work")


def test_a_model_without_a_vlm_prefix_is_an_error(tmp_path):
    """No cameras and no language tokens leave the VLM nothing to prefill:
    the presets do not load, and the one error line names the model."""
    models = copy.deepcopy(presets.MODELS)
    models["models"]["mute"] = {**models["models"]["pi0"], "num_cameras": 0,
                                "language_tokens": 0}
    _assert_preset_error(tmp_path, "models.yaml", yaml.safe_dump(models),
                         ("--model", "mute"),
                         "mute: num_cameras and language_tokens are both 0")


_BLIND_SWEEP = {
    "table": (
        "steps  feasible  vision_latency_ms  vlm_latency_ms  "
        "action_latency_ms  e2e_latency_ms  sync_frequency_hz  footprint_gb\n"
        "0      yes       N/A                0.50            "
        "N/A                0.50            1988.5             5.04\n"
        "10     yes       N/A                0.50            "
        "0.84               1.34            744.2              5.04\n"),
    "csv": (
        "steps,feasible,vision_latency_ms,vlm_latency_ms,action_latency_ms,"
        "e2e_latency_ms,sync_frequency_hz,footprint_gb\n"
        "0,yes,N/A,0.50,N/A,0.50,1988.5,5.04\n"
        "10,yes,N/A,0.50,0.84,1.34,744.2,5.04\n"),
    "json": (
        '[\n'
        '  {\n'
        '    "steps": 0,\n'
        '    "feasible": "yes",\n'
        '    "vision_latency_ms": null,\n'
        '    "vlm_latency_ms": 0.5,\n'
        '    "action_latency_ms": null,\n'
        '    "e2e_latency_ms": 0.5,\n'
        '    "sync_frequency_hz": 1988.5,\n'
        '    "footprint_gb": 5.04\n'
        '  },\n'
        '  {\n'
        '    "steps": 10,\n'
        '    "feasible": "yes",\n'
        '    "vision_latency_ms": null,\n'
        '    "vlm_latency_ms": 0.5,\n'
        '    "action_latency_ms": 0.84,\n'
        '    "e2e_latency_ms": 1.34,\n'
        '    "sync_frequency_hz": 744.2,\n'
        '    "footprint_gb": 5.04\n'
        '  }\n'
        ']\n'),
}


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_sweep_column_mixing_none_and_numbers_in_feasible_rows(tmp_path, fmt):
    """Without cameras no row has a vision phase, and at 0 steps a row has
    no action phase: both print N/A (null) next to numbers of feasible
    rows."""
    (tmp_path / "models.yaml").write_text(_blind_models_yaml(),
                                          encoding="utf-8")
    result = run_cli("sweep", "--model", "blind", "--steps", "0,10",
                     "--format", fmt,
                     env={"VLA_ROOFLINE_PRESETS": str(tmp_path)})
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == _BLIND_SWEEP[fmt]


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_sweep_refuses_its_first_non_finite_cell_in_row_major_order(
        tmp_path, fmt):
    # At a 2e-305 TFLOP/s peak every phase takes about 1e300 s or more.  At
    # 1 camera step only the sum overflows (e2e_latency_ms); at 1000 steps
    # vlm_latency_ms overflows too, but in a later row.
    (tmp_path / "hardware.yaml").write_text(
        "tiny: {BF16_TFLOPS: 2e-305, HBM_BW_GBs: 1000, Memory_GB: 1000000}\n",
        encoding="utf-8")
    result = run_cli("sweep", "--hw", "tiny", "--context-steps", "1,1000",
                     "--format", fmt,
                     env={"VLA_ROOFLINE_PRESETS": str(tmp_path)})
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "error: e2e_latency_ms is inf, not a finite number\n"


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("filename, text, args", [
    pytest.param("networks.yaml",
                 "nan-link: {bandwidth_mbps: .nan, base_latency_ms: 1}\n",
                 ("--placement", "edge-server", "--net", "nan-link"),
                 id="nan-bandwidth"),
    pytest.param("networks.yaml",
                 "slow-link: {bandwidth_mbps: 1, base_latency_ms: .inf}\n",
                 ("--placement", "edge-server", "--net", "slow-link"),
                 id="inf-latency"),
    pytest.param("hardware.yaml", "nan-hw: {BF16_TFLOPS: .nan, "
                 "HBM_BW_GBs: 1, Memory_GB: 1}\n", ("--hw", "nan-hw"),
                 id="nan-peak"),
    # 1e300 TFLOP/s is finite, but 1e312 FLOP/s overflows to infinity.
    pytest.param("hardware.yaml", "big-hw: {BF16_TFLOPS: 1.0e+300, "
                 "HBM_BW_GBs: 1, Memory_GB: 1}\n",
                 ("--hw", "big-hw"), id="overflowing-peak"),
    pytest.param("hardware.yaml", "big-hw: {BF16_TFLOPS: 1, "
                 "HBM_BW_GBs: 1, Memory_GB: .inf}\n", ("--hw", "big-hw"),
                 id="inf-memory"),
])
def test_non_finite_preset_number_is_an_error(tmp_path, fmt, filename, text,
                                              args):
    _assert_preset_error(tmp_path, filename, text, (*args, "--format", fmt),
                         "finite")


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_every_format_rejects_non_finite_numbers(tmp_path, fmt):
    # A subnormal bandwidth is finite and positive, so it loads; the
    # download time it gives overflows to infinity, which every format
    # refuses with the same line.
    (tmp_path / "networks.yaml").write_text(
        "tiny-link: {bandwidth_mbps: 1e-320, base_latency_ms: 1}\n",
        encoding="utf-8")
    result = run_cli("analyze", "--placement", "edge-server",
                     "--net", "tiny-link", "--format", fmt,
                     env={"VLA_ROOFLINE_PRESETS": str(tmp_path)})
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == (
        "error: action_download_ms is inf, not a finite number\n")


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("filename, text, message", [
    pytest.param("hardware.yaml", "thor: {BF16_TFLOPS: 1\n",
                 "hardware.yaml: invalid YAML: ", id="unclosed-mapping"),
    pytest.param("networks.yaml", "wifi7:\n\t- 1\n",
                 "networks.yaml: invalid YAML: ", id="tab-indent"),
    pytest.param("models.yaml", "models: {m: 'open\n",
                 "models.yaml: invalid YAML: ", id="unterminated-quote"),
])
def test_malformed_preset_yaml_is_an_error(tmp_path, fmt, filename, text,
                                           message):
    _assert_preset_error(tmp_path, filename, text, ("--format", fmt),
                         message)


@pytest.mark.parametrize("filename, text, message", [
    pytest.param("hardware.yaml", "thor: {BF16_TFLOPS: [1], "
                 "HBM_BW_GBs: 1, Memory_GB: 1}\n",
                 "accelerator 'thor': BF16_TFLOPS must be a number, got [1]",
                 id="hardware-list"),
    # A zero peak is found only after every number has been read.
    pytest.param("hardware.yaml", "thor: {BF16_TFLOPS: 0, "
                 "HBM_BW_GBs: x, Memory_GB: 1}\n",
                 "accelerator 'thor': HBM_BW_GBs must be a number, got 'x'",
                 id="hardware-zero-peak-string-bandwidth"),
    pytest.param("networks.yaml",
                 "wifi7: {bandwidth_mbps: {up: 1}, base_latency_ms: 1}\n",
                 "network 'wifi7': bandwidth_mbps must be a number, "
                 "got {'up': 1}", id="network-mapping"),
    pytest.param("models.yaml",
                 "components: {c: {num_decoder_layers: 2, hidden_size: wide}}\n",
                 "component 'c': hidden_size must be a number, got 'wide'",
                 id="component-string"),
    pytest.param("models.yaml", "components: {c: {num_decoder_layers: .inf}}\n",
                 "component 'c': num_decoder_layers must be a number, got inf",
                 id="component-infinite-int"),
    pytest.param("models.yaml", "models: {m: {chunk_size: [10]}}\n",
                 "model 'm': chunk_size must be a number, got [10]",
                 id="model-list"),
    pytest.param("models.yaml", "components: {c: {num_decoder_layers: 18.9}}\n",
                 "component 'c': num_decoder_layers must be a whole number, "
                 "got 18.9", id="component-fractional-int"),
    pytest.param("models.yaml", "models: {m: {chunk_size: true}}\n",
                 "model 'm': chunk_size must be a number, got True",
                 id="model-bool"),
])
def test_wrong_type_preset_field_is_an_error(tmp_path, filename, text,
                                             message):
    _assert_preset_error(tmp_path, filename, text, (), message)


@pytest.mark.parametrize("filename, text, message", [
    pytest.param("networks.yaml", "wifi7: 5\n", "'wifi7': expected a mapping",
                 id="network"),
    pytest.param("hardware.yaml", "thor: [1, 2]\n",
                 "'thor': expected a mapping", id="accelerator"),
    pytest.param("models.yaml", "models: [1, 2]\n",
                 "models: expected a mapping", id="models-section"),
    pytest.param("models.yaml", "components: {gemma: 5}\n",
                 "'gemma': expected a mapping", id="component"),
    pytest.param("models.yaml", "models: {m: {vision_encoder: [1]}}\n",
                 "unknown component [1]", id="component-reference"),
])
def test_non_mapping_preset_entry_is_an_error(tmp_path, filename, text,
                                              message):
    _assert_preset_error(tmp_path, filename, text, (), message)


# Each field of one accelerator and one link preset, set to an extreme
# value or dropped (None), under each of four commands.
_BOUNDARY_VALUES = (0, -0.0, 5e-324, 1e300, 1.7e308, 2 ** 63, -1, True,
                    "wide", None)
_BOUNDARY_COMMANDS = (
    ("analyze",),
    ("analyze", "--placement", "edge-server", "--net", "5g"),
    ("sweep", "--chunk", "5,50"),
    ("reproduce", "T8"),
)
# Each field of the VLM component gemma-2b and each of pi0's own fields
# (not its component names), under the 13 values of the full models.yaml
# probe and two decodings.
_MODEL_VALUES = (0, -0.0, 5e-324, 1e300, 1.7e308, 2 ** 53, 2 ** 53 + 1,
                 2 ** 63, -1, 1.5, True, "wide", None)
_MODEL_COMMANDS = (("analyze",), ("analyze", "--decoding", "autoregressive"))
_COMPONENT_NAMES = ("vision_encoder", "vlm", "action_expert")


# libyaml's emitter, where PyYAML has it: the same data as safe_dump, in a
# fraction of the time.
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def _refuse_constant(name):
    raise ValueError(f"{name} in JSON output")


def _each_value(tmp_path, filename, packaged, keys, field, values):
    """Write ``filename`` once per value, as the packaged presets with
    ``field`` of the entry at ``keys`` set to that value (dropped for
    None), and yield the value."""
    for value in values:
        data = copy.deepcopy(getattr(presets, packaged))
        entry = data
        for key in keys:
            entry = entry[key]
        if value is None:
            entry.pop(field, None)
        else:
            entry[field] = value
        (tmp_path / filename).write_text(yaml.dump(data, Dumper=_DUMPER),
                                         encoding="utf-8")
        yield value


def _assert_a_result_or_one_error(capsys, args, value):
    """In-process through ``main``: a result whose JSON parses without NaN
    or Infinity (exit 0, or 2 for a reproduce run that misses a
    tolerance), or exit 1 with one ``error:`` line and nothing on stdout."""
    code = cli.main([*args, "--format", "json"])
    out, err = capsys.readouterr()
    case = (value, args, err)
    if code == 1:
        assert out == "" and err.startswith("error: "), case
        assert err.count("\n") == 1 and err.endswith("\n"), case
    else:
        assert code == 0 or (code, args[0]) == (2, "reproduce"), case
        assert err == "", case
        json.loads(out, parse_constant=_refuse_constant)


@pytest.mark.parametrize("filename, packaged, name, field", [
    *(pytest.param("hardware.yaml", "HARDWARE", "b100", field,
                   id=f"b100-{field}") for field in presets.HARDWARE["b100"]),
    *(pytest.param("networks.yaml", "NETWORKS", "5g", field,
                   id=f"5g-{field}")
      for field in presets.NETWORKS["5g"]),
])
def test_an_extreme_preset_value_ends_in_a_result_or_one_error(
        tmp_path, monkeypatch, capsys, filename, packaged, name, field):
    monkeypatch.setenv("VLA_ROOFLINE_PRESETS", str(tmp_path))
    for value in _each_value(tmp_path, filename, packaged, (name,), field,
                             _BOUNDARY_VALUES):
        for args in _BOUNDARY_COMMANDS:
            _assert_a_result_or_one_error(capsys, args, value)


@pytest.mark.parametrize("section, name, field", [
    *(pytest.param("components", "gemma-2b", field, id=f"gemma-2b-{field}")
      for field in presets.MODELS["components"]["gemma-2b"]),
    *(pytest.param("models", "pi0", field, id=f"pi0-{field}")
      for field in presets.MODELS["models"]["pi0"]
      if field not in _COMPONENT_NAMES),
])
def test_an_extreme_model_value_ends_in_a_result_or_one_error(
        tmp_path, monkeypatch, capsys, section, name, field):
    monkeypatch.setenv("VLA_ROOFLINE_PRESETS", str(tmp_path))
    for value in _each_value(tmp_path, "models.yaml", "MODELS",
                             (section, name), field, _MODEL_VALUES):
        for args in _MODEL_COMMANDS:
            _assert_a_result_or_one_error(capsys, args, value)



def test_sweep_rows_and_determinism():
    args = ("sweep", "--chunk", "5,10,50", "--steps", "1,10",
            "--format", "csv")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    lines = first.stdout.strip().splitlines()
    assert lines[0].startswith("chunk,steps,feasible")
    assert len(lines) == 1 + 3 * 2


def test_sweep_decoding_axis():
    result = run_cli("sweep", "--decoding", "diffusion,autoregressive",
                     "--hw", "b100", "--format", "csv")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("diffusion,")
    assert lines[2].startswith("autoregressive,")


# Grids whose first invalid point fails on its counts, its decoding or
# both, with each sweep's error line; a sweep that configures each count
# triple and decoding once must fail on the same point with the same line.
_CHUNK = "pi0: tokens_per_image, action_dof and chunk_size must be >= 1"
_COUNTS = "pi0: counts must be >= 0"
_BOGUS = "unknown decoding variant 'bogus'"
_STEPS = "--steps sets denoising passes, which {} decoding does not run"


@pytest.mark.parametrize("grid, message", [
    ("--decoding bogus", _BOGUS),
    ("--decoding bogus --chunk 0", _CHUNK),
    ("--chunk 5,0 --decoding bogus", _BOGUS),
    ("--chunk 5,0 --decoding diffusion,bogus", _BOGUS),
    ("--chunk 0,5 --decoding diffusion,bogus", _CHUNK),
    ("--chunk 0 --decoding autoregressive", _CHUNK),
    ("--chunk 5 --decoding autoregressive,bogus", _BOGUS),
    ("--dof 0,4 --decoding diffusion_large", _CHUNK),
    ("--dof 4,0 --steps 3,-1 --decoding diffusion,diffusion_large", _COUNTS),
    # The steps refusal is one more check of a point, after its counts.
    ("--dof 4,0 --steps 3,-1 --decoding "
     "autoregressive_parallel,diffusion_large",
     _STEPS.format("autoregressive_parallel")),
    ("--steps -1 --decoding autoregressive", _COUNTS),
    ("--steps 3 --decoding diffusion_large,autoregressive",
     _STEPS.format("autoregressive")),
    ("--chunk 9007199254740993",
     "pi0: chunk_size is too large (at most 2**53)"),
    ("--context-steps 0 --chunk 0", _CHUNK),
])
def test_invalid_sweep_grid_keeps_its_error_line(capsys, grid, message):
    assert cli.main(["sweep", *grid.split()]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _token_models_yaml():
    """The packaged models plus ``pi0-token``, pi0 decoding its actions
    token by token on the VLM."""
    models = copy.deepcopy(presets.MODELS)
    pi0 = {**models["models"]["pi0"], "decoding_mode": "autoregressive"}
    del pi0["action_expert"]
    models["models"]["pi0-token"] = pi0
    return yaml.safe_dump(models)


@pytest.mark.parametrize("args, refused", [
    (("analyze", "--decoding", "autoregressive", "--steps", "5"),
     "autoregressive"),
    (("analyze", "--decoding", "autoregressive_parallel", "--steps", "0"),
     "autoregressive_parallel"),
    (("analyze", "--model", "pi0-token", "--steps", "10"), "autoregressive"),
    (("sweep", "--model", "pi0-token", "--steps", "1,5"), "autoregressive"),
    (("analyze", "--decoding", "diffusion_large", "--steps", "5"), None),
    (("analyze", "--model", "pi0-token", "--decoding", "diffusion_large",
      "--steps", "5"), None),
    (("sweep", "--model", "pi0-token", "--decoding", "diffusion_large",
      "--steps", "1,5"), None),
])
def test_steps_is_read_or_refused(tmp_path, monkeypatch, capsys, args,
                                  refused):
    """``--steps`` under a decoding that runs no denoising passes, named by
    ``--decoding`` or by the model, is one error line; under
    ``diffusion_large`` it is read, whatever the model decodes by."""
    (tmp_path / "models.yaml").write_text(_token_models_yaml(),
                                          encoding="utf-8")
    monkeypatch.setenv("VLA_ROOFLINE_PRESETS", str(tmp_path))
    code = cli.main([*args, "--format", "csv"])
    out, err = capsys.readouterr()
    if refused is None:
        assert (code, err) == (0, "") and out
        return
    line = _STEPS.format(refused)
    assert (code, out, err) == (1, "", f"error: {line}\n")


@pytest.mark.parametrize("flag, value", [
    ("--decoding", ","),
    ("--decoding", "diffusion,"),
    ("--chunk", ","),
])
def test_empty_list_axis_is_usage_error(flag, value):
    result = run_cli("sweep", flag, value)
    assert result.returncode == 1
    assert result.stdout == ""
    assert f"error: argument {flag}" in result.stderr


def test_reader_closing_the_pipe_early_exits_quietly():
    """More output than a 64 KiB pipe buffer holds, read one line at most."""
    chunks = ",".join(str(n) for n in range(1, 3001))
    proc = subprocess.Popen(
        [sys.executable, "-m", "vla_roofline", "sweep", "--chunk", chunks],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"chunk")
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert stderr == b""


def test_out_writes_file_instead_of_stdout(tmp_path):
    target = tmp_path / "report.txt"
    result = run_cli("analyze", "--out", str(target))
    assert result.returncode == 0
    assert result.stdout == ""
    content = target.read_text(encoding="utf-8")
    assert "e2e_latency_ms" in content
    assert content.endswith("\n")


@pytest.mark.parametrize("target, stderr", [
    ("missing/report.txt", "{target}: No such file or directory"),
    ("", "{target}: Is a directory"),
    (None, "--out needs a file path, not an empty string"),
], ids=["missing-directory", "directory", "empty"])
def test_out_that_cannot_be_written_is_an_error(tmp_path, target, stderr):
    target = "" if target is None else str(tmp_path / target)
    result = run_cli("analyze", "--out", target)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == f"error: {stderr.format(target=target)}\n"


def test_list_presets_names_everything():
    result = run_cli("list-presets")
    assert result.returncode == 0
    for name in ("pi0", "pi0-xxl", "gemma-2b", "siglip-so400m",
                 "b100", "thor", "ethernet-10g", "4g"):
        assert name in result.stdout


def test_list_presets_pads_names_to_the_widest(tmp_path, monkeypatch,
                                               capsys):
    """Every description starts two spaces past the widest name of the
    whole listing, also a name longer than any packaged one."""
    (tmp_path / "networks.yaml").write_text(
        "ethernet-10g-datacenter: {bandwidth_mbps: 10000, "
        "base_latency_ms: 0.1}\n", encoding="utf-8")
    monkeypatch.setenv("VLA_ROOFLINE_PRESETS", str(tmp_path))
    assert cli.main(["list-presets"]) == 0
    starts = set()
    for row in capsys.readouterr().out.splitlines():
        if row.startswith("  "):
            name, description = row.split(maxsplit=1)
            starts.add(len(row) - len(description))
    assert starts == {2 + len("ethernet-10g-datacenter") + 2}


@pytest.mark.skipif(shutil.which("vla-roofline") is None,
                    reason="console script not on PATH")
def test_console_script_entry_point():
    result = subprocess.run(["vla-roofline", "list-presets"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "models:" in result.stdout


# Runs the CLI in a fresh process and reports which of PyYAML, dataclasses,
# inspect (which dataclasses imports) and json it loaded.
YAML_PROBE = (
    "import contextlib, io, sys\n"
    "from vla_roofline import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
    "    code = cli.main(sys.argv[1:])\n"
    "loaded = [m for m in ('yaml', 'dataclasses', 'inspect', 'json') "
    "if m in sys.modules]\n"
    "print(code, ','.join(loaded), out.getvalue(), sep='\\n', end='')\n"
)


def _run_yaml_probe(*args, env=None):
    merged = dict(os.environ)
    merged.pop("VLA_ROOFLINE_PRESETS", None)
    merged.update(env or {})
    result = subprocess.run([sys.executable, "-c", YAML_PROBE, *args],
                            capture_output=True, text=True, env=merged)
    assert result.returncode == 0, result.stderr
    code, loaded, output = result.stdout.split("\n", 2)
    return int(code), set(filter(None, loaded.split(","))), output


@pytest.mark.parametrize("args", [
    ("analyze",),
    ("analyze", "--format", "json"),
    ("list-presets", "--format", "json"),
    ("reproduce", "T3"),
    ("reproduce", "T3", "--format", "json"),
    ("sweep", "--decoding", "diffusion,autoregressive", "--format", "csv"),
    ("sweep", "--decoding", "diffusion,autoregressive", "--format", "json"),
])
def test_default_presets_do_not_import_yaml(args):
    # Nor dataclasses or inspect: together about 25 ms of every process.
    # Nor json: JSON output goes through the ``_json`` C extension alone.
    code, loaded, _ = _run_yaml_probe(*args)
    assert code == 0
    assert loaded == set()


def test_override_file_is_read_with_yaml(tmp_path):
    (tmp_path / "networks.yaml").write_text(
        "toy-link: {bandwidth_mbps: 1, base_latency_ms: 100}\n",
        encoding="utf-8")
    code, loaded, output = _run_yaml_probe(
        "analyze", "--placement", "edge-server", "--net", "toy-link",
        "--format", "json", env={"VLA_ROOFLINE_PRESETS": str(tmp_path)})
    assert code == 0 and "yaml" in loaded
    assert json.loads(output)["observation_upload_ms"] == 472.0


def test_importing_the_cli_leaves_the_reference_tables_unloaded():
    # Only ``reproduce`` needs ``golden`` and ``references``.
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, vla_roofline.cli; "
         "print(sorted(name for name in sys.modules "
         "if name in ('vla_roofline.golden', 'vla_roofline.references')))"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
