"""The packaged presets, as the mappings a preset YAML file holds.

``MODELS``, ``HARDWARE`` and ``NETWORKS`` are the top-level mappings of
``models.yaml``, ``hardware.yaml`` and ``networks.yaml``: a file of that
name under ``$VLA_ROOFLINE_PRESETS`` replaces the matching mapping, and
``yaml.safe_dump(MODELS)`` writes a starting point for one.  They are kept
as Python data so that a process without an override file neither reads
a file nor imports PyYAML; :mod:`~vla_roofline.configio` validates them
exactly like an override file.
"""

# Transformer components and the VLA models assembled from them.
# Component fields follow the usual architecture-table names; sizes are
# per-component (embeddings/projectors between components are not counted).
MODELS = {
    "components": {
        "siglip-so400m": {
            "num_decoder_layers": 27,
            "hidden_size": 1152,
            "intermediate_size": 4304,
            "num_ffi": 1,
            "num_attention_heads": 16,
            "num_kv_heads": 16,
            "head_dim": 72,
            "patch_input_dim": 588,  # 14x14 patch, 3 channels
        },
        "gemma-2b": {
            "num_decoder_layers": 18,
            "hidden_size": 2048,
            "intermediate_size": 16384,
            "num_ffi": 2,
            "num_attention_heads": 8,
            "num_kv_heads": 1,
            "head_dim": 256,
        },
        "act-m": {
            "num_decoder_layers": 18,
            "hidden_size": 1024,
            "intermediate_size": 4096,
            "num_ffi": 2,
            "num_attention_heads": 8,
            "num_kv_heads": 1,
            "head_dim": 256,
        },
        "siglip-giant": {
            "num_decoder_layers": 40,
            "hidden_size": 1536,
            "intermediate_size": 6144,
            "num_ffi": 1,
            "num_attention_heads": 16,
            "num_kv_heads": 16,
            "head_dim": 96,
            "patch_input_dim": 588,
        },
        "llama2-7b": {
            "num_decoder_layers": 32,
            "hidden_size": 4096,
            "intermediate_size": 11008,
            "num_ffi": 2,
            "num_attention_heads": 32,
            "num_kv_heads": 32,
            "head_dim": 128,
        },
        "llama2-13b": {
            "num_decoder_layers": 40,
            "hidden_size": 5120,
            "intermediate_size": 13824,
            "num_ffi": 2,
            "num_attention_heads": 40,
            "num_kv_heads": 40,
            "head_dim": 128,
        },
        "llama2-70b": {
            "num_decoder_layers": 80,
            "hidden_size": 8192,
            "intermediate_size": 28672,
            "num_ffi": 2,
            "num_attention_heads": 64,
            "num_kv_heads": 8,
            "head_dim": 128,
        },
        # Action experts for the scaled family (pi0-l/xl/xxl below, which
        # the scaling table T5 prices as written here): half the VLM width,
        # a quarter of its FFN, the VLM's head size and query:KV grouping,
        # and the deepest stack that stays within 10% of the published
        # expert parameter count (1.5/2.9/11.7 B).
        "act-l": {
            "num_decoder_layers": 48,
            "hidden_size": 2048,
            "intermediate_size": 2752,
            "num_ffi": 2,
            "num_attention_heads": 16,
            "num_kv_heads": 16,
            "head_dim": 128,
        },
        "act-xl": {
            "num_decoder_layers": 60,
            "hidden_size": 2560,
            "intermediate_size": 3456,
            "num_ffi": 2,
            "num_attention_heads": 20,
            "num_kv_heads": 20,
            "head_dim": 128,
        },
        "act-xxl": {
            "num_decoder_layers": 102,
            "hidden_size": 4096,
            "intermediate_size": 7168,
            "num_ffi": 2,
            "num_attention_heads": 32,
            "num_kv_heads": 4,
            "head_dim": 128,
        },
    },
    "models": {
        "pi0": {
            "vision_encoder": "siglip-so400m",
            "vlm": "gemma-2b",
            "action_expert": "act-m",
            "num_cameras": 3,
            "tokens_per_image": 256,
            "language_tokens": 32,
            "action_dof": 14,
            "chunk_size": 50,
            "denoise_steps": 10,
            "decoding_mode": "diffusion",
        },
        "pi0-l": {
            "vision_encoder": "siglip-giant",
            "vlm": "llama2-7b",
            "action_expert": "act-l",
            "num_cameras": 3,
            "tokens_per_image": 256,
            "language_tokens": 32,
            "action_dof": 14,
            "chunk_size": 50,
            "denoise_steps": 10,
            "decoding_mode": "diffusion",
        },
        "pi0-xl": {
            "vision_encoder": "siglip-giant",
            "vlm": "llama2-13b",
            "action_expert": "act-xl",
            "num_cameras": 3,
            "tokens_per_image": 256,
            "language_tokens": 32,
            "action_dof": 14,
            "chunk_size": 50,
            "denoise_steps": 10,
            "decoding_mode": "diffusion",
        },
        "pi0-xxl": {
            "vision_encoder": "siglip-giant",
            "vlm": "llama2-70b",
            "action_expert": "act-xxl",
            "num_cameras": 3,
            "tokens_per_image": 256,
            "language_tokens": 32,
            "action_dof": 14,
            "chunk_size": 50,
            "denoise_steps": 10,
            "decoding_mode": "diffusion",
        },
    },
}

# Accelerators: the dense BF16 peak (no sparsity) every phase is priced at,
# memory bandwidth and capacity, vendor datasheet numbers.
HARDWARE = {
    "thor": {
        "BF16_TFLOPS": 400,
        "HBM_BW_GBs": 270,
        "Memory_GB": 128,
    },
    "rtx4090": {
        "BF16_TFLOPS": 165,
        "HBM_BW_GBs": 1008,
        "Memory_GB": 24,
    },
    "a100": {
        "BF16_TFLOPS": 312,
        "HBM_BW_GBs": 2039,
        "Memory_GB": 80,
    },
    "h100": {
        "BF16_TFLOPS": 989,
        "HBM_BW_GBs": 3350,
        "Memory_GB": 80,
    },
    "b100": {
        "BF16_TFLOPS": 1750,
        "HBM_BW_GBs": 8000,
        "Memory_GB": 192,
    },
}

# Network links: achievable application-level bandwidth and one-way base
# latency.  Symmetric links use bandwidth_mbps; asymmetric ones give the
# upload/download pair (robot -> server is the upload direction).
NETWORKS = {
    "ethernet-1g": {"bandwidth_mbps": 1000, "base_latency_ms": 0.10},
    "ethernet-10g": {"bandwidth_mbps": 10000, "base_latency_ms": 0.05},
    "wifi6": {"upload_mbps": 560, "download_mbps": 800,
              "base_latency_ms": 3.50},
    "wifi7": {"upload_mbps": 2000, "download_mbps": 3000,
              "base_latency_ms": 2.50},
    "4g": {"upload_mbps": 19, "download_mbps": 75, "base_latency_ms": 25.00},
    "5g": {"upload_mbps": 80, "download_mbps": 500, "base_latency_ms": 10.00},
    "slow-cloud": {"bandwidth_mbps": 1000, "base_latency_ms": 100.00},
    "fast-cloud": {"bandwidth_mbps": 10000, "base_latency_ms": 10.00},
}
