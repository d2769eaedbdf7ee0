"""Analytic prefill FLOPs and inference-memory estimates for a decoder.

FLOPs convention: one multiply-accumulate = 2 FLOPs; the linear stack costs
2 * nonembed_params per token and attention costs 4 * T^2 * hidden_dim per
layer (score and value products, full square, no causal halving). The KV
cache grows as 2 * layers * kv_heads * head_dim bytes-per-value per token.

The convention leaves out the attention softmax. Its scale, mask, max,
subtract, exp, sum and divide touch heads * T^2 scores per layer, a cost
that grows as T^2 * heads like the score and value products, yet counts for
nothing here. At a small head_dim it is not negligible: in the toy decoder
(head_dim 16, T near 1000) the full-square softmax took most of each
layer's time, so a drop schedule's measured speed-up ran ahead of the
predicted one (2.72x against 2.13x for the paper's schedule on 1024 tokens
and 28 layers, one BLAS thread on a 2-vCPU Xeon).

The toy decoder computes attention in blocks of 32 query rows, each
against its causal key columns only, so QK, the softmax and PV all run on
the lower triangle plus its diagonal blocks: about half the square at
T near 1000, while this convention counts the full square for both
products. The scores see only the mask and exp passes: a per-call bound
on the scores makes the row max shift unneeded, the row sums come out of
the PV matmul, and the divide runs on the head_dim-wide output rows. The
causal saving is smaller at the short sequences a schedule leaves (the
diagonal blocks are a larger share of 192 tokens), and each layer also
pays costs that do not scale with T^2 (projections, MLP, the bound and
the ones column, a fixed number of numpy calls per block). Removing
T^2 passes cuts the long unscheduled layers more than the short
scheduled ones, so the measured speed-up falls short of the prediction:
1.96x against 2.13x, a model error of -0.083, on the same decoder and
host (traced perfbench decoder-deep, seed 77, 30 s; -0.057 at the
parent in a run made back to back).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .dropout import DropSchedule, plan_schedule
from .errors import ConfigError, DomainError

GIB = 1024**3


@dataclass(frozen=True)
class ModelShape:
    """Decoder geometry used by the cost model."""

    layers: int
    hidden_dim: int
    heads: int
    kv_heads: int
    head_dim: int
    nonembed_params: int
    bytes_per_param: int = 2

    def __post_init__(self) -> None:
        if min(
            self.layers,
            self.hidden_dim,
            self.heads,
            self.kv_heads,
            self.head_dim,
            self.nonembed_params,
            self.bytes_per_param,
        ) < 1:
            raise DomainError("all model-shape fields must be positive")
        if self.heads * self.head_dim != self.hidden_dim:
            raise DomainError("heads * head_dim must equal hidden_dim")
        if self.heads % self.kv_heads:
            raise DomainError("kv_heads must divide heads")


# 7b mirrors a Qwen2-7B-class decoder: 28 layers, hidden 3584, GQA with 4 KV
# heads, and 7.07e9 non-embedding parameters (7.62e9 total minus one
# 152k x 3584 embedding). 2b is a Qwen2-1.5B-class decoder. toy matches the
# default toy-decoder geometry.
PRESETS = {
    "7b": ModelShape(
        layers=28,
        hidden_dim=3584,
        heads=28,
        kv_heads=4,
        head_dim=128,
        nonembed_params=7_070_000_000,
    ),
    "2b": ModelShape(
        layers=28,
        hidden_dim=1536,
        heads=12,
        kv_heads=2,
        head_dim=128,
        nonembed_params=1_310_000_000,
    ),
    "toy": ModelShape(
        layers=4,
        hidden_dim=64,
        heads=4,
        kv_heads=4,
        head_dim=16,
        nonembed_params=200_000,
    ),
}


def preset(name: str, **overrides) -> ModelShape:
    """Look up a named shape preset, optionally overriding fields."""
    try:
        shape = PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown shape preset {name!r}; have {sorted(PRESETS)}"
        ) from None
    return replace(shape, **overrides) if overrides else shape


@dataclass(frozen=True)
class CostReport:
    flops: float
    weight_bytes: int
    kv_cache_bytes: int
    overhead_bytes: int
    total_infer_bytes: int


def tokens_for_video(frames: int, tokens_per_frame: int) -> int:
    if frames < 1 or tokens_per_frame < 1:
        raise DomainError("frames and tokens_per_frame must be positive")
    return frames * tokens_per_frame


def prefill_flops(tokens: int, shape: ModelShape) -> float:
    """FLOPs to process `tokens` in one forward pass.

    2 * nonembed_params * T for the linear stack plus 4 * layers * T^2 *
    hidden_dim for attention; strictly superlinear in T.
    """
    if tokens < 0:
        raise DomainError("tokens must be >= 0")
    t = float(tokens)
    return 2.0 * shape.nonembed_params * t + 4.0 * shape.layers * t * t * shape.hidden_dim


def flops_with_schedule(
    initial_tokens: int,
    schedule: DropSchedule,
    shape: ModelShape,
    text_tokens: int = 0,
) -> float:
    """Prefill FLOPs when a drop schedule shrinks the visual context.

    Each layer processes T = text_tokens + kept visual tokens; the linear
    stack contributes its per-layer share 2 * nonembed_params / layers per
    token. With an empty schedule this equals prefill_flops exactly.
    """
    if initial_tokens < 1:
        raise DomainError("initial_tokens must be >= 1")
    if text_tokens < 0:
        raise DomainError("text_tokens must be >= 0")
    counts = plan_schedule(initial_tokens, schedule, shape.layers)
    # Group contiguous layers with the same token count so the empty-schedule
    # path reduces to the prefill_flops expression bit for bit.
    runs: list[tuple[int, int]] = []
    for c in counts:
        t = text_tokens + c
        if runs and runs[-1][0] == t:
            runs[-1] = (t, runs[-1][1] + 1)
        else:
            runs.append((t, 1))
    total = 0.0
    for t, layers in runs:
        tf = float(t)
        total += (2.0 * shape.nonembed_params * tf) * (layers / shape.layers)
        total += 4.0 * layers * tf * tf * shape.hidden_dim
    return total


def memory_estimate(
    tokens: int,
    shape: ModelShape,
    cache_bytes_per_value: int = 2,
    overhead_bytes: int = 2 * GIB,
) -> CostReport:
    """Inference memory: weights + KV cache + a flat activation overhead.

    kv_cache_bytes is exactly linear in tokens with slope
    2 * layers * kv_heads * head_dim * cache_bytes_per_value.
    """
    if tokens < 0:
        raise DomainError("tokens must be >= 0")
    if cache_bytes_per_value < 1:
        raise DomainError("cache_bytes_per_value must be positive")
    if overhead_bytes < 0:
        raise DomainError("overhead_bytes must be >= 0")
    weight_bytes = shape.nonembed_params * shape.bytes_per_param
    kv_cache_bytes = (
        2 * shape.layers * shape.kv_heads * shape.head_dim * tokens * cache_bytes_per_value
    )
    return CostReport(
        flops=prefill_flops(tokens, shape),
        weight_bytes=weight_bytes,
        kv_cache_bytes=kv_cache_bytes,
        overhead_bytes=overhead_bytes,
        total_infer_bytes=weight_bytes + kv_cache_bytes + overhead_bytes,
    )
