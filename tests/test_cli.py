"""End-to-end CLI tests via subprocess.

Exit code contract: 0 success (including infeasible N/A results), 1 usage
or configuration errors, 2 reproduce-tolerance failures.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest


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
    assert result.returncode == 1
    assert "edge-server placement requires --net" in result.stderr


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
        "thor: {FP32_TFLOPS: 100, BF16_TFLOPS: 400, INT8_TOPS: 800, "
        "HBM_BW_GBs: 270, Memory_GB: 128}\n"
        "rtx4090: {FP32_TFLOPS: 83, BF16_TFLOPS: 165, INT8_TOPS: 330, "
        "HBM_BW_GBs: 1008, Memory_GB: 24}\n"
        "a100: {FP32_TFLOPS: 20, BF16_TFLOPS: 312, INT8_TOPS: 624, "
        "HBM_BW_GBs: 2039, Memory_GB: 80}\n"
        "h100: {FP32_TFLOPS: 67, BF16_TFLOPS: 989, INT8_TOPS: 1979, "
        "HBM_BW_GBs: 3350, Memory_GB: 80}\n"
        "b100: {FP32_TFLOPS: 60, BF16_TFLOPS: 1750, INT8_TOPS: 3500, "
        "HBM_BW_GBs: 4000, Memory_GB: 192}\n"
    )
    (tmp_path / "hardware.yaml").write_text(doctored, encoding="utf-8")
    result = run_cli("reproduce", "T3",
                     env={"VLA_ROOFLINE_PRESETS": str(tmp_path)})
    assert result.returncode == 2
    assert "FAIL" in result.stdout
    assert "overall: FAIL" in result.stdout


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
    pytest.param("hardware.yaml", "nan-hw: {FP32_TFLOPS: 1, BF16_TFLOPS: .nan, "
                 "HBM_BW_GBs: 1, Memory_GB: 1}\n", ("--hw", "nan-hw"),
                 id="nan-peak"),
    pytest.param("hardware.yaml", "big-hw: {FP32_TFLOPS: 1, BF16_TFLOPS: 1, "
                 "HBM_BW_GBs: 1, Memory_GB: .inf}\n", ("--hw", "big-hw"),
                 id="inf-memory"),
])
def test_non_finite_preset_number_is_an_error(tmp_path, fmt, filename, text,
                                              args):
    _assert_preset_error(tmp_path, filename, text, (*args, "--format", fmt),
                         "finite")


def test_json_output_rejects_non_finite_numbers(tmp_path):
    # A subnormal bandwidth is finite and positive, so it loads; the
    # download time it gives overflows to infinity at the JSON writer.
    _assert_preset_error(
        tmp_path, "networks.yaml",
        "tiny-link: {bandwidth_mbps: 1e-320, base_latency_ms: 1}\n",
        ("--placement", "edge-server", "--net", "tiny-link",
         "--format", "json"), "JSON")


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_table_and_csv_output_reject_non_finite_numbers(tmp_path, fmt):
    # The same subnormal link: its download time is infinite, which table
    # and csv refuse like the strict JSON writer does.
    _assert_preset_error(
        tmp_path, "networks.yaml",
        "tiny-link: {bandwidth_mbps: 1e-320, base_latency_ms: 1}\n",
        ("--placement", "edge-server", "--net", "tiny-link",
         "--format", fmt), "action_download_ms is inf, not a finite number")


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
@pytest.mark.parametrize("filename, text, message", [
    pytest.param("hardware.yaml", "thor: {FP32_TFLOPS: 1\n",
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
    pytest.param("hardware.yaml", "thor: {FP32_TFLOPS: [1], BF16_TFLOPS: 1, "
                 "HBM_BW_GBs: 1, Memory_GB: 1}\n",
                 "accelerator 'thor': FP32_TFLOPS must be a number, got [1]",
                 id="hardware-list"),
    pytest.param("networks.yaml",
                 "wifi7: {bandwidth_mbps: {up: 1}, base_latency_ms: 1}\n",
                 "network 'wifi7': bandwidth_mbps must be a number, "
                 "got {'up': 1}", id="network-mapping"),
    pytest.param("networks.yaml", "wifi7: {bandwidth_mbps: 1, "
                 "base_latency_ms: 1, efficiency: null}\n",
                 "network 'wifi7': efficiency must be a number, got None",
                 id="network-null"),
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


@pytest.mark.parametrize("missing, reason", [
    (True, "No such file or directory"),
    (False, "Is a directory"),
], ids=["missing-directory", "directory"])
def test_out_that_cannot_be_written_is_an_error(tmp_path, missing, reason):
    target = tmp_path / "missing" / "report.txt" if missing else tmp_path
    result = run_cli("analyze", "--out", str(target))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == f"error: {target}: {reason}\n"


def test_list_presets_names_everything():
    result = run_cli("list-presets")
    assert result.returncode == 0
    for name in ("pi0", "pi0-xxl", "gemma-2b", "siglip-so400m",
                 "b100", "thor", "ethernet-10g", "4g"):
        assert name in result.stdout


@pytest.mark.skipif(shutil.which("vla-roofline") is None,
                    reason="console script not on PATH")
def test_console_script_entry_point():
    result = subprocess.run(["vla-roofline", "list-presets"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "models:" in result.stdout


# Runs the CLI in a fresh process and reports whether it imported PyYAML.
YAML_PROBE = (
    "import contextlib, io, sys\n"
    "from vla_roofline import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
    "    code = cli.main(sys.argv[1:])\n"
    "print(code, 'yaml' in sys.modules, out.getvalue(), sep='\\n', end='')\n"
)


def _run_yaml_probe(*args, env=None):
    merged = dict(os.environ)
    merged.pop("VLA_ROOFLINE_PRESETS", None)
    merged.update(env or {})
    result = subprocess.run([sys.executable, "-c", YAML_PROBE, *args],
                            capture_output=True, text=True, env=merged)
    assert result.returncode == 0, result.stderr
    code, imported, output = result.stdout.split("\n", 2)
    return int(code), imported == "True", output


@pytest.mark.parametrize("args", [
    ("analyze",),
    ("list-presets", "--format", "json"),
    ("reproduce", "T3"),
])
def test_default_presets_do_not_import_yaml(args):
    code, imported, _ = _run_yaml_probe(*args)
    assert code == 0
    assert not imported


def test_override_file_is_read_with_yaml(tmp_path):
    (tmp_path / "networks.yaml").write_text(
        "toy-link: {bandwidth_mbps: 1, base_latency_ms: 100}\n",
        encoding="utf-8")
    code, imported, output = _run_yaml_probe(
        "analyze", "--placement", "edge-server", "--net", "toy-link",
        "--format", "json", env={"VLA_ROOFLINE_PRESETS": str(tmp_path)})
    assert code == 0 and imported
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
