"""Progressive visual dropout inside a decoder.

Visual tokens are discarded between decoder layers: uniformly strided drops
at shallow layers (cheap, structure-preserving) and attention-guided
selection at deep layers (keeps the tokens the text is actually attending
to). A seeded toy decoder executes schedules end to end and produces the
attention snapshots the attention-guided stage consumes.

Schedules are written as ``uni:<layer>:<ratio>,attn:<layer>:<ratio>``;
each entry keeps ceil(ratio * current_count) tokens just before the named
layer runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, check_bytes

UNIFORM = "uniform"
ATTENTION = "attention"

_METHOD_ALIASES = {
    "uni": UNIFORM,
    "uniform": UNIFORM,
    "attn": ATTENTION,
    "attention": ATTENTION,
}


@dataclass(frozen=True)
class DropEntry:
    layer: int
    method: str
    keep_ratio: float

    def __post_init__(self) -> None:
        if self.method not in (UNIFORM, ATTENTION):
            raise ConfigError(f"unknown drop method {self.method!r}")
        if self.layer < 0:
            raise ConfigError("drop layer must be >= 0")
        if not (0.0 < self.keep_ratio <= 1.0):
            raise ConfigError("keep_ratio must be in (0, 1]")


@dataclass(frozen=True)
class DropSchedule:
    entries: tuple[DropEntry, ...] = ()

    def __post_init__(self) -> None:
        layers = [e.layer for e in self.entries]
        if any(b <= a for a, b in zip(layers, layers[1:])):
            raise ConfigError("schedule layers must be strictly increasing")

    @classmethod
    def parse(cls, text: str) -> "DropSchedule":
        """Parse 'uni:4:0.75,attn:18:0.25' style schedule strings."""
        text = text.strip()
        if not text:
            return cls()
        entries = []
        for part in text.split(","):
            fields = part.strip().split(":")
            if len(fields) != 3:
                raise ConfigError(f"bad schedule entry {part!r}")
            method = _METHOD_ALIASES.get(fields[0].strip().lower())
            if method is None:
                raise ConfigError(f"bad drop method in {part!r}")
            try:
                layer = int(fields[1])
                ratio = float(fields[2])
            except ValueError as exc:
                raise ConfigError(f"bad schedule entry {part!r}") from exc
            entries.append(DropEntry(layer, method, ratio))
        return cls(tuple(entries))

    def format(self) -> str:
        short = {UNIFORM: "uni", ATTENTION: "attn"}
        return ",".join(
            f"{short[e.method]}:{e.layer}:{e.keep_ratio:g}" for e in self.entries
        )


@dataclass(frozen=True)
class DecoderGeometry:
    """Toy decoder size; only shapes and determinism matter, not quality."""

    layers: int = 4
    hidden_dim: int = 64
    heads: int = 4

    def __post_init__(self) -> None:
        if self.layers < 1 or self.hidden_dim < 1 or self.heads < 1:
            raise DomainError("decoder geometry fields must be >= 1")
        if self.hidden_dim % self.heads:
            raise DomainError("heads must divide hidden_dim")


@dataclass
class AttentionSnapshot:
    """Attention from the last text token, head-averaged, at one layer.

    ``scores`` has one entry per visual token kept at that layer, in kept
    order; ``text_scores`` covers the text positions, so the two together
    sum to 1.
    """

    layer: int
    scores: np.ndarray
    text_scores: np.ndarray


@dataclass
class DecoderRun:
    states: np.ndarray
    snapshots: list[AttentionSnapshot]
    kept: list[list[int]] = field(default_factory=list)


def uniform_drop(count: int, keep_ratio: float) -> list[int]:
    """Evenly strided kept indices: j -> floor(j * count / m), m = ceil(ratio*count)."""
    if count < 1:
        raise DomainError("count must be >= 1")
    if not (0.0 < keep_ratio <= 1.0):
        raise DomainError("keep_ratio must be in (0, 1]")
    m = min(count, math.ceil(keep_ratio * count))
    return [j * count // m for j in range(m)]


def attention_select(scores, keep_ratio: float) -> list[int]:
    """Indices of the ceil(ratio*n) highest-scoring tokens, in original order.

    Ties prefer the lower index.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size < 1:
        raise DomainError("scores must be a non-empty 1-D sequence")
    if np.any(np.isnan(scores)):
        raise DomainError("scores contain NaN")
    if not (0.0 < keep_ratio <= 1.0):
        raise DomainError("keep_ratio must be in (0, 1]")
    m = min(scores.size, math.ceil(keep_ratio * scores.size))
    return np.sort(np.argsort(-scores, kind="stable")[:m]).tolist()


def _check_depth(schedule: DropSchedule, total_layers: int) -> None:
    for e in schedule.entries:
        if e.layer >= total_layers:
            raise ConfigError(
                f"schedule layer {e.layer} outside decoder of {total_layers} layers"
            )


def plan_schedule(
    initial_count: int, schedule: DropSchedule, total_layers: int
) -> list[int]:
    """Visual-token count seen by each layer, ceilings applied in entry order."""
    if initial_count < 1:
        raise DomainError("initial_count must be >= 1")
    if total_layers < 1:
        raise DomainError("total_layers must be >= 1")
    _check_depth(schedule, total_layers)
    counts = []
    current = initial_count
    entries = iter(schedule.entries)
    pending = next(entries, None)
    for layer in range(total_layers):
        while pending is not None and pending.layer == layer:
            current = math.ceil(current * pending.keep_ratio)
            pending = next(entries, None)
        counts.append(current)
    return counts


def scale_schedule(
    schedule: DropSchedule, total_layers: int, reference_layers: int = 28
) -> DropSchedule:
    """Re-fit a schedule written for `reference_layers` onto another depth.

    Positions scale proportionally (floor), attention entries never land on
    layer 0, and collisions shift to the next free layer.
    """
    if total_layers < 1 or reference_layers < 1:
        raise ConfigError("layer counts must be >= 1")
    used: set[int] = set()
    entries = []
    for e in schedule.entries:
        layer = e.layer * total_layers // reference_layers
        if e.method == ATTENTION:
            layer = max(layer, 1)
        while layer in used:
            layer += 1
        if layer >= total_layers:
            raise ConfigError(
                f"cannot fit schedule entry at layer {e.layer} into {total_layers} layers"
            )
        used.add(layer)
        entries.append(DropEntry(layer, e.method, e.keep_ratio))
    return DropSchedule(tuple(sorted(entries, key=lambda e: e.layer)))


def _layer_norm(x: np.ndarray) -> np.ndarray:
    # One centred pass; the same bits as x.var, which centres x again.
    c = x - x.mean(axis=-1, keepdims=True)
    return c / np.sqrt((c * c).mean(axis=-1, keepdims=True) + 1e-5)


# Query rows per attention step. A block of rows [r0, r1) only works on key
# columns [:r1], so nothing runs on the masked upper triangle. At 1032 tokens
# and 4 heads a 32-row score block is ≈1.06 MB and stays in a 2 MB L2; it
# timed faster than 16, 64 and 128 rows (one BLAS thread).
_ROW_BLOCK = 32
_BLOCK_UPPER = np.triu(np.ones((_ROW_BLOCK, _ROW_BLOCK), dtype=bool), k=1)

# Scores bounded by this in magnitude go into exp without the row max shift.
# exp then lies in [e^-500, e^500] ≈ [7e-218, 1.4e217]: no overflow and no
# subnormals. The byte cap keeps T below 2^22, so a row sum stays below 6e223
# and a PV entry stays finite for any |v| below 3e84; v is a layer-normed row
# times a weight matrix. Each row keeps its diagonal, so no row sum is zero.
_EXP_SAFE = 500.0


def _causal_attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float, buffer: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Causal softmax(q k^T / scale) v into `out`, one block of query rows at a time.

    `q`, `k`, `v` and `out` are (heads, T, head_dim). `buffer` holds at least
    heads * _ROW_BLOCK * T floats; each block's (heads, rows, r1) scores are a
    contiguous view of its front, so no (heads, T, T) square is built.
    max|q_i|·max|k_j| bounds every score (Cauchy–Schwarz); below _EXP_SAFE
    the row max shift is skipped. PV runs on the unnormalised exp block
    against v with a column of ones appended, so the same matmul yields the
    row sums, which then divide the (heads, rows, head_dim) output. Row sums
    run over [:r1] only, so the last bits can differ from the full-square
    form. Returns the last query's attention over the whole sequence,
    (heads, T), normalised on its own.
    """
    heads, seq, head_dim = q.shape
    q = q / scale
    # max|q_i|·max|k_j|, from the largest squared row norms.
    bound = math.prod(math.sqrt(np.einsum("htd,htd->ht", x, x).max()) for x in (q, k))
    shift = not bound < _EXP_SAFE  # a NaN bound shifts
    v1 = np.empty((heads, seq, head_dim + 1))
    v1[:, :, :head_dim] = v
    v1[:, :, head_dim] = 1.0
    scratch = np.empty((heads, _ROW_BLOCK, head_dim + 1))
    for r0 in range(0, seq, _ROW_BLOCK):
        r1 = min(r0 + _ROW_BLOCK, seq)
        rows = r1 - r0
        probs = buffer[: heads * rows * r1].reshape(heads, rows, r1)
        np.matmul(q[:, r0:r1], k[:, :r1].transpose(0, 2, 1), out=probs)
        np.copyto(probs[:, :, r0:], -np.inf, where=_BLOCK_UPPER[:rows, :rows])
        if shift:
            np.subtract(probs, probs.max(axis=-1, keepdims=True), out=probs)
        np.exp(probs, out=probs)
        pv = scratch[:, :rows]
        np.matmul(probs, v1[:, :r1], out=pv)
        np.divide(pv[:, :, :head_dim], pv[:, :, head_dim:], out=out[:, r0:r1])
    return probs[:, -1] / pv[:, -1, head_dim:]


def _check_bytes(text_tokens: int, visual: np.ndarray, geometry: DecoderGeometry) -> None:
    """Refuse a run whose weights or per-layer arrays would pass BYTES_CAP."""
    h = geometry.hidden_dim
    weights = 8 * (visual.shape[1] * h + geometry.layers * 8 * h * h)
    seq = visual.shape[0] + text_tokens
    # States, text, one layer's projections and MLP activations, the values
    # with their ones column, one score block.
    arrays = 8 * seq * (17 * h + geometry.heads * (1 + _ROW_BLOCK))
    if weights > arrays:
        what = f"the toy decoder's weights at layers={geometry.layers}, hidden_dim {h}"
    else:
        what = f"the toy decoder over {seq} tokens (text_tokens={text_tokens})"
    check_bytes(weights + arrays, what)


class _ToyWeights:
    def __init__(self, rng: np.random.Generator, geometry: DecoderGeometry, in_dim: int):
        h = geometry.hidden_dim
        s = 1.0 / math.sqrt(h)
        self.w_in = rng.standard_normal((in_dim, h)) / math.sqrt(in_dim)
        self.layers = []
        for _ in range(geometry.layers):
            self.layers.append(
                {
                    "wq": rng.standard_normal((h, h)) * s,
                    "wk": rng.standard_normal((h, h)) * s,
                    "wv": rng.standard_normal((h, h)) * s,
                    "wo": rng.standard_normal((h, h)) * s,
                    "w1": rng.standard_normal((h, 2 * h)) * s,
                    "w2": rng.standard_normal((2 * h, h)) / math.sqrt(2 * h),
                }
            )


def toy_decoder_run(
    text_tokens: int,
    visual,
    geometry: DecoderGeometry = DecoderGeometry(),
    schedule: DropSchedule = DropSchedule(),
    seed: int = 0,
) -> DecoderRun:
    """Run a seeded causal decoder over (visual context, synthetic text).

    Visual tokens come first, then `text_tokens` seeded text embeddings.
    Before each scheduled layer the matching drop is applied — attention
    entries consume the snapshot of the immediately preceding layer — and
    every layer records an AttentionSnapshot. Bit-reproducible per seed.
    Raises DomainError, before allocating, when the run would need more than
    errors.BYTES_CAP bytes.
    """
    if text_tokens < 1:
        raise DomainError("need at least one text token for the attention query")
    vis = visual if isinstance(visual, np.ndarray) else visual.vectors()
    vis = np.asarray(vis, dtype=np.float64)
    if vis.ndim != 2 or vis.shape[0] < 1:
        raise DomainError("visual context must be a non-empty (tokens, dim) array")
    _check_depth(schedule, geometry.layers)
    if any(e.method == ATTENTION and e.layer == 0 for e in schedule.entries):
        raise ConfigError("attention drop at layer 0 has no prior snapshot")
    _check_bytes(text_tokens, vis, geometry)

    rng = np.random.default_rng(seed)
    weights = _ToyWeights(rng, geometry, vis.shape[1])
    text = rng.standard_normal((text_tokens, geometry.hidden_dim))

    states = np.concatenate([vis @ weights.w_in, text], axis=0)
    kept = list(range(vis.shape[0]))
    by_layer = {e.layer: e for e in schedule.entries}

    heads = geometry.heads
    head_dim = geometry.hidden_dim // heads
    snapshots: list[AttentionSnapshot] = []
    kept_per_layer: list[list[int]] = []
    # Sequence length never grows, so the first layer's row block fits every layer.
    buffer = np.empty(heads * _ROW_BLOCK * states.shape[0])

    for layer in range(geometry.layers):
        entry = by_layer.get(layer)
        if entry is not None:
            if entry.method == UNIFORM:
                sel = uniform_drop(len(kept), entry.keep_ratio)
            else:
                sel = attention_select(snapshots[layer - 1].scores, entry.keep_ratio)
            kept = [kept[i] for i in sel]
            states = np.concatenate([states[sel], states[len(states) - text_tokens :]])
        kept_per_layer.append(list(kept))

        w = weights.layers[layer]
        seq = states.shape[0]
        normed = _layer_norm(states)
        q = (normed @ w["wq"]).reshape(seq, heads, head_dim).transpose(1, 0, 2)
        k = (normed @ w["wk"]).reshape(seq, heads, head_dim).transpose(1, 0, 2)
        v = (normed @ w["wv"]).reshape(seq, heads, head_dim).transpose(1, 0, 2)
        attn = np.empty((seq, heads, head_dim))
        last = _causal_attention(q, k, v, math.sqrt(head_dim), buffer, attn.transpose(1, 0, 2))
        states = states + attn.reshape(seq, geometry.hidden_dim) @ w["wo"]
        states = states + np.maximum(_layer_norm(states) @ w["w1"], 0.0) @ w["w2"]

        last_row = last.mean(axis=0)
        snapshots.append(
            AttentionSnapshot(
                layer=layer,
                scores=last_row[: len(kept)].copy(),
                text_scores=last_row[len(kept) :].copy(),
            )
        )

    return DecoderRun(states=states, snapshots=snapshots, kept=kept_per_layer)
