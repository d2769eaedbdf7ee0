"""Analytic prefill FLOPs and inference-memory estimates for a decoder.

FLOPs convention: one multiply-accumulate = 2 FLOPs; the linear stack costs
2 * nonembed_params per token and attention costs 4 * T^2 * hidden_dim per
layer (score and value products, full square, no causal halving). The KV
cache grows as 2 * layers * kv_heads * head_dim bytes-per-value per token.

What the convention leaves out, measured against the toy decoder:

* The attention softmax. Its passes touch heads * T^2 scores per layer and
  grow like the two products, yet count for nothing here; at the toy's
  head_dim of 16 they are a large share of each layer's time.
* The causal saving. The toy decoder runs attention in blocks of 32 query
  rows, each against its causal key columns only: about half the square at
  T near 1000, less at the short sequences a schedule leaves, where the
  diagonal blocks are a larger share. `score_cells` counts the scores a
  layer computes exactly.
* Per-layer costs that do not grow as T^2: projections, MLP, a fixed
  number of numpy calls per 32-row block (QK, the mask, exp2 and PV, and
  two more where the row max is shifted), and one normalising divide per
  attention call.
* The drop-aware layer before a drop, which runs queries, attention output
  and MLP for the surviving rows only; the convention counts it at full T.

The causal saving is larger on the long unscheduled layers, and the fixed
costs weigh more on the short scheduled ones: both pull a schedule's
measured speed-up below the predicted one. The uncounted softmax and the
drop-aware layer pull it the other way; on the toy decoder the measured
speed-up falls short on balance. The convention stays the full square
because it is the paper-scale count `hico estimate` reports. The measured
gap (perfbench's ``costmodel.model_error``) and its history are in
CHANGES.md, with the runs in BENCH_12.json.

Every token count, FLOPs total and byte total must be a finite float; one
that is not raises DomainError naming it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import groupby

from .dropout import _ROW_BLOCK, DecoderGeometry, DropSchedule, plan_schedule
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


def toy_shape(geometry: DecoderGeometry) -> ModelShape:
    """The toy decoder `geometry` describes: its layers' wq…w2, without w_in."""
    h = geometry.hidden_dim
    return ModelShape(
        layers=geometry.layers,
        hidden_dim=h,
        heads=geometry.heads,
        kv_heads=geometry.heads,
        head_dim=h // geometry.heads,
        nonembed_params=geometry.layers * geometry.layer_weights,
    )


# 7b mirrors a Qwen2-7B-class decoder: 28 layers, hidden 3584, GQA with 4 KV
# heads, and 7.07e9 non-embedding parameters (7.62e9 total minus one
# 152k x 3584 embedding). 2b is a Qwen2-1.5B-class decoder. toy is the toy
# decoder at DecoderGeometry's defaults; `hico estimate --shape toy` prices
# the one its dropout.* settings describe instead.
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
    "toy": toy_shape(DecoderGeometry()),
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


def _finite(value: float, what: str) -> float:
    """`value` as a float; DomainError naming `what` when it is not a finite one."""
    try:
        f = float(value)
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        raise DomainError(f"{what} is not a finite float")
    return f


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
    t = _finite(tokens, "the token count")
    flops = 2.0 * shape.nonembed_params * t + 4.0 * shape.layers * t * t * shape.hidden_dim
    params = shape.nonembed_params
    return _finite(flops, f"the prefill FLOP count of {t:.6g} tokens and {params:.6g} parameters")


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
    tokens = _finite(initial_tokens + text_tokens, "the visual plus text token count")
    counts = plan_schedule(initial_tokens, schedule, shape.layers)
    # Group contiguous layers with the same token count so the empty-schedule
    # path reduces to the prefill_flops expression bit for bit.
    total = 0.0
    for t, run in groupby(text_tokens + c for c in counts):
        layers = sum(1 for _ in run)
        tf = float(t)
        total += (2.0 * shape.nonembed_params * tf) * (layers / shape.layers)
        total += 4.0 * layers * tf * tf * shape.hidden_dim
    return _finite(total, f"the scheduled FLOP count of {tokens:.6g} tokens")


def score_cells(tokens: int, heads: int, survivors=None) -> int:
    """Attention scores the toy decoder computes at one layer of `tokens` rows.

    Query rows run in blocks of B = _ROW_BLOCK, and a block whose last query
    sits at position r1 - 1 scores key columns [:r1] only, so a layer
    computes heads · Σ_blocks rows · r1. With n full blocks and rem rows
    left over, that is heads · (B²·n(n+1)/2 + rem·T).

    The layer before a drop takes the ascending positions the drop keeps,
    `survivors`. It runs its last query alone, over all T columns, and then
    the survivors in blocks, each working on the columns up to its last
    survivor: heads · (T + Σ_blocks rows · (last + 1)).
    """
    if tokens < 1 or heads < 1:
        raise DomainError("tokens and heads must be >= 1")
    b = _ROW_BLOCK
    if survivors is None:
        n, rem = divmod(tokens, b)
        return heads * (b * b * n * (n + 1) // 2 + rem * tokens)
    rows = [int(p) for p in survivors]
    cells = tokens
    for b0 in range(0, len(rows), b):
        block = rows[b0 : b0 + b]
        cells += len(block) * (block[-1] + 1)
    return heads * cells


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
    flops = prefill_flops(tokens, shape)
    total = weight_bytes + kv_cache_bytes + overhead_bytes
    _finite(total, "the byte total of weights, KV cache and overhead")
    return CostReport(
        flops=flops,
        weight_bytes=weight_bytes,
        kv_cache_bytes=kv_cache_bytes,
        overhead_bytes=overhead_bytes,
        total_infer_bytes=total,
    )
