"""Preset loading: one parse per distinct set of preset files per process.

``load_presets`` reads each override file on every call and reuses the
library built from the same paths and bytes (or from the packaged presets
alone), so these tests run in-process and check that an edited file or a
changed ``VLA_ROOFLINE_PRESETS`` is picked up, that the packaged presets
dumped as override files give the same library, and that the shared
library cannot be changed by a caller.
"""

import json

import pytest
import yaml

from vla_roofline import cli, presets
from vla_roofline.configio import PRESET_DIR_ENV, load_presets

TOY_LINK = "toy-link: {{bandwidth_mbps: {mbps}, base_latency_ms: 100}}\n"
ANALYZE_TOY_LINK = ("analyze", "--placement", "edge-server",
                    "--net", "toy-link", "--format", "json")


def _upload_ms(capsys) -> float:
    assert cli.main(ANALYZE_TOY_LINK) == 0
    return json.loads(capsys.readouterr().out)["observation_upload_ms"]


def test_unchanged_files_give_the_same_library(monkeypatch):
    monkeypatch.delenv(PRESET_DIR_ENV, raising=False)
    assert load_presets() is load_presets()


def test_rewritten_override_file_changes_the_next_call(tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.setenv(PRESET_DIR_ENV, str(tmp_path))
    override = tmp_path / "networks.yaml"
    override.write_text(TOY_LINK.format(mbps=1), encoding="utf-8")
    # 46.5 kB over 1 Mbps plus 100 ms base latency.
    assert _upload_ms(capsys) == 472.0
    # Same size, written at once: only the bytes tell the two apart.
    override.write_text(TOY_LINK.format(mbps=2), encoding="utf-8")
    assert _upload_ms(capsys) == 286.0


def test_changed_preset_dir_changes_the_next_call(tmp_path, monkeypatch,
                                                  capsys):
    for mbps in (1, 2):
        (tmp_path / str(mbps)).mkdir()
        (tmp_path / str(mbps) / "networks.yaml").write_text(
            TOY_LINK.format(mbps=mbps), encoding="utf-8")
    monkeypatch.setenv(PRESET_DIR_ENV, str(tmp_path / "1"))
    assert _upload_ms(capsys) == 472.0
    monkeypatch.setenv(PRESET_DIR_ENV, str(tmp_path / "2"))
    assert _upload_ms(capsys) == 286.0
    monkeypatch.delenv(PRESET_DIR_ENV)
    assert cli.main(ANALYZE_TOY_LINK) == 1
    assert "unknown network 'toy-link'" in capsys.readouterr().err


def test_bad_file_fails_on_every_call(tmp_path, monkeypatch):
    monkeypatch.setenv(PRESET_DIR_ENV, str(tmp_path))
    bad = tmp_path / "hardware.yaml"
    bad.write_text("thor: {FP32_TFLOPS: 1\n", encoding="utf-8")
    for _ in range(2):
        with pytest.raises(ValueError, match="hardware.yaml: invalid YAML"):
            load_presets()
    bad.write_text("thor: {FP32_TFLOPS: [1], BF16_TFLOPS: 1, HBM_BW_GBs: 1, "
                   "Memory_GB: 1}\n", encoding="utf-8")
    for _ in range(2):
        with pytest.raises(ValueError, match="FP32_TFLOPS must be a number"):
            load_presets()
    bad.unlink()
    assert "thor" in load_presets().hardware


def test_library_is_read_only(lib):
    with pytest.raises(TypeError):
        lib.hardware["fake"] = lib.accelerator("thor")
    with pytest.raises(TypeError):
        lib.networks["fake"] = lib.network("wifi7")
    with pytest.raises(TypeError):
        lib.components["fake"] = lib.component("gemma-2b")
    with pytest.raises(TypeError):
        lib.models["fake"] = lib.model("pi0")
    with pytest.raises(TypeError):
        lib.accelerator("thor").peak_flops[2] = 1.0


PACKAGED = {"models.yaml": presets.MODELS, "hardware.yaml": presets.HARDWARE,
            "networks.yaml": presets.NETWORKS}


def test_dumped_packaged_presets_load_as_the_packaged_library(
        tmp_path, monkeypatch):
    monkeypatch.delenv(PRESET_DIR_ENV, raising=False)
    packaged = load_presets()
    for filename, mapping in PACKAGED.items():
        (tmp_path / filename).write_text(yaml.safe_dump(mapping),
                                         encoding="utf-8")
    monkeypatch.setenv(PRESET_DIR_ENV, str(tmp_path))
    overridden = load_presets()
    assert overridden is not packaged
    assert overridden == packaged


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")
@pytest.mark.parametrize("filename", sorted(PACKAGED))
def test_libyaml_and_python_loaders_agree(filename):
    text = yaml.safe_dump(PACKAGED[filename])
    assert (yaml.load(text, Loader=yaml.CSafeLoader)
            == yaml.load(text, Loader=yaml.SafeLoader)
            == PACKAGED[filename])
