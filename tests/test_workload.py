"""Closed-form size arithmetic against hand-derived integer oracles.

Every expected number below was computed independently from the counting
conventions (attention projections + FFN matmuls + patch embedding), not
read back from the implementation.
"""

import pytest

from vla_roofline.record import replace
from vla_roofline.scenarios import SCALED_FAMILY
from vla_roofline.workload import (
    TransformerConfig,
    VlaModelSpec,
    kv_bytes_per_token,
    param_count,
    weight_bytes,
)

# A config small enough to count by hand: 1 layer, hidden 2, intermediate 2,
# one up projection, one head of dim 2.  Attention: 2*2*2 (Q, O) + 2*2*2
# (K, V) = 16; FFN: (1+1)*2*2 = 8.  Total 24.
TOY = TransformerConfig(name="toy", num_layers=1, hidden_size=2,
                        intermediate_size=2, num_ffi=1, num_q_heads=1,
                        num_kv_heads=1, head_dim=2)


def test_param_count_toy_config_by_hand():
    assert param_count(TOY) == 24


def test_patch_embedding_adds_input_projection():
    with_patch = replace(TOY, patch_input_dim=3)
    assert param_count(with_patch) == 24 + 3 * 2


@pytest.mark.parametrize("name, expected", [
    ("gemma-2b", 1_981_808_640),
    ("siglip-so400m", 411_747_840),
    ("act-m", 311_427_072),
    ("siglip-giant", 1_133_365_248),
    ("llama2-7b", 6_476_005_376),
    ("llama2-13b", 12_687_769_600),
    ("llama2-70b", 68_451_041_280),
    ("act-l", 1_616_904_192),
    ("act-xl", 3_165_388_800),
    ("act-xxl", 12_834_570_240),
])
def test_component_param_counts(lib, name, expected):
    assert param_count(lib.component(name)) == expected


def test_weight_bytes_is_params_times_precision(lib):
    gemma = lib.component("gemma-2b")
    assert weight_bytes(gemma) == 2 * 1_981_808_640


@pytest.mark.parametrize("name, expected", [
    ("gemma-2b", 18_432),     # 2 * 18 layers * 256 wide * 2 bytes
    ("act-m", 18_432),
    ("llama2-7b", 524_288),
    ("llama2-13b", 819_200),
    ("llama2-70b", 327_680),  # GQA: only 8 of 64 heads carry KV
])
def test_kv_bytes_per_token(lib, name, expected):
    assert kv_bytes_per_token(lib.component(name)) == expected


def test_kv_bytes_ignore_query_head_count(lib):
    gemma = lib.component("gemma-2b")
    wide = replace(gemma, num_q_heads=16)
    assert kv_bytes_per_token(wide) == kv_bytes_per_token(gemma)


def test_baseline_policy_totals(pi0):
    assert pi0.prefix_tokens() == 800
    assert pi0.vision_tokens() == 768
    assert pi0.action_tokens() == 700
    assert pi0.total_params() == 2_704_983_552


def test_scaled_family_totals_and_depths(lib):
    family = [lib.model(name) for name in SCALED_FAMILY]
    assert [m.name for m in family] == ["pi0", "pi0-l", "pi0-xl", "pi0-xxl"]
    assert [m.total_params() for m in family] == [
        2_704_983_552, 9_226_274_816, 16_986_523_648, 82_418_976_768]
    assert [m.action_expert.num_layers for m in family[1:]] == [48, 60, 102]


@pytest.mark.parametrize("name", ["pi0-l", "pi0-xl", "pi0-xxl"])
def test_derived_expert_geometry(lib, name):
    """Each scaled model's expert is its backbone with the width halved and
    the FFN quartered; head_dim and the Q:KV ratio carry over, and the query
    heads fill the halved width."""
    model = lib.model(name)
    expert, vlm = model.action_expert, model.vlm
    assert expert.hidden_size == vlm.hidden_size // 2
    assert expert.intermediate_size == vlm.intermediate_size // 4
    assert expert.head_dim == vlm.head_dim
    assert expert.num_q_heads // expert.num_kv_heads == \
        vlm.num_q_heads // vlm.num_kv_heads
    assert expert.num_q_heads == expert.hidden_size // expert.head_dim


def test_transformer_config_validation():
    with pytest.raises(ValueError):
        replace(TOY, precision_bytes=3)
    # More KV than query heads fails the one head check.
    with pytest.raises(ValueError, match=r"^toy: num_q_heads \(1\) must be a "
                       r"multiple of num_kv_heads \(2\)$"):
        replace(TOY, num_kv_heads=2)
    with pytest.raises(ValueError, match="multiple"):
        replace(TOY, num_q_heads=3, num_kv_heads=2)


def test_model_spec_validation(pi0):
    with pytest.raises(ValueError, match="action expert"):
        replace(pi0, action_expert=None)
    with pytest.raises(ValueError, match="decoding_mode"):
        replace(pi0, decoding_mode="beam")
    with pytest.raises(ValueError):
        VlaModelSpec(name="x", vision_encoder=pi0.vision_encoder,
                     vlm=pi0.vlm, action_expert=pi0.action_expert,
                     decoding_mode="autoregressive")


def test_a_model_without_a_vlm_prefix_is_refused(pi0):
    with pytest.raises(ValueError, match="^pi0: num_cameras and "
                       "language_tokens are both 0"):
        replace(pi0, num_cameras=0, language_tokens=0)
    # Either count alone still leaves a prefix.
    assert replace(pi0, num_cameras=0).prefix_tokens() == 32
    assert replace(pi0, language_tokens=0).prefix_tokens() == 768


@pytest.mark.parametrize("changes, field", [
    ({"denoise_steps": 2 ** 53 + 1, "chunk_size": 2 ** 53 + 1},
     "chunk_size"),
    ({"num_cameras": 2 ** 60, "language_tokens": 2 ** 60}, "num_cameras"),
    # A NaN first would make ``max`` return it; the count after it is
    # still refused.
    ({"num_cameras": float("nan"), "denoise_steps": 2 ** 53 + 1},
     "denoise_steps"),
])
def test_a_spec_names_its_first_count_above_2_53(pi0, changes, field):
    with pytest.raises(ValueError, match=f"^pi0: {field} is too large "
                       r"\(at most 2\*\*53\)$"):
        replace(pi0, **changes)
    # 2**53 itself is a count.
    assert replace(pi0, **dict.fromkeys(changes, 2 ** 53)) is not None
