"""Progressive visual dropout inside a decoder.

Visual tokens are discarded between decoder layers: uniformly strided drops
at shallow layers (cheap, structure-preserving) and attention-guided
selection at deep layers (keeps the tokens the text is actually attending
to). A seeded toy decoder executes schedules end to end and produces the
attention snapshots the attention-guided stage consumes. A ToyModel holds
its weights, drawn once, folded at build and read-only, for every run.

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

    @property
    def layer_weights(self) -> int:
        """Weights per layer: wq, wk, wv and wo at h×h, and w1 and w2 at h×2h."""
        return 8 * self.hidden_dim * self.hidden_dim


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


def _kept_count(count: int, keep_ratio: float) -> int:
    """The one count of every drop and plan: ceil(keep_ratio * count), at most count."""
    return min(count, math.ceil(keep_ratio * count))


def uniform_drop(count: int, keep_ratio: float) -> list[int]:
    """Evenly strided kept indices: j -> floor(j * count / m), m = ceil(ratio*count)."""
    if count < 1:
        raise DomainError("count must be >= 1")
    if not (0.0 < keep_ratio <= 1.0):
        raise DomainError("keep_ratio must be in (0, 1]")
    m = _kept_count(count, keep_ratio)
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
    m = _kept_count(scores.size, keep_ratio)
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
            current = _kept_count(current, pending.keep_ratio)
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
    d = (c * c).mean(axis=-1, keepdims=True)
    d += 1e-5
    c /= np.sqrt(d, out=d)
    return c


# Query rows per attention step. A block whose last row sits at position
# r1 - 1 only works on key columns [:r1], so nothing runs on the masked upper
# triangle. At 1032 tokens and 4 heads a 32-row score block is ≈1.06 MB and
# stays in a 2 MB L2; it timed faster than 16, 64 and 128 rows (one BLAS
# thread).
_ROW_BLOCK = 32

# Scores are in log2 units (q carries log2(e)), and those bounded by this in
# magnitude go into exp2 without the row max shift. exp2 then lies in
# [2^-500, 2^500] ≈ [3.1e-151, 3.3e150]: no overflow and no subnormals. The
# byte cap keeps T below 2^22, so a row sum stays below 2^522 ≈ 1.4e157 and a
# PV entry stays finite for any |v| below 2^502 ≈ 1.3e151; v is a layer-normed
# row times a weight matrix. Each row keeps its diagonal, so no row sum is zero.
_EXP_SAFE = 500.0


def _causal_attention(
    q: np.ndarray,
    kt: np.ndarray,
    v1: np.ndarray,
    pos: np.ndarray,
    buffer: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Causal softmax attention of the queries at ascending positions `pos`, into `out`.

    `q` and `out` are (heads, len(pos), head_dim), and `out` may be `q`
    itself: the queries are read only before the final divide. `kt` is the
    keys transposed, (heads, head_dim, T), so each block's QK multiplies
    plain row-major operands, and `v1` is (heads, T, head_dim + 1), the
    values with a last column of ones. `q` carries log2(e)/sqrt(head_dim), so
    q k^T is in log2 units and its exp2 is the softmax's exp. The query at
    position p attends to keys [:p + 1], masked from `pos` in every block.
    Query rows go _ROW_BLOCK at a time: a block whose last position is r1 - 1
    works on key columns [:r1] only, and `buffer` holds at least heads *
    _ROW_BLOCK * T floats, so each block's (heads, rows, r1) scores are a
    contiguous view of its front and no (heads, T, T) square is built.
    max|q_i|·max|k_j| bounds every score (Cauchy–Schwarz); below _EXP_SAFE
    the row max shift is skipped, and the masked columns are zeroed after
    exp2 rather than set to -inf before it, which exp2 takes slowly; both
    give +0.0. The shifted path sets -inf first, so the row max skips them.
    PV runs on the unnormalised exp2 block into its rows of one
    (heads, len(pos), head_dim + 1) array, so the ones column yields the row
    sums, and one divide by them after the last block writes `out`. Row
    sums run over [:r1] only, so the last bits can differ from the
    full-square form. Returns the last query's attention over its keys,
    (heads, pos[-1] + 1), normalised on its own.
    """
    heads, count, head_dim = out.shape
    # max|q_i|·max|k_j|, from the largest squared row norms.
    q2, k2 = np.einsum("htd,htd->ht", q, q).max(), np.einsum("hdt,hdt->ht", kt, kt).max()
    bound = math.sqrt(q2 * k2)
    shift = not bound < _EXP_SAFE  # a NaN bound shifts
    pv = np.empty((heads, count, head_dim + 1))
    for b0 in range(0, count, _ROW_BLOCK):
        b1 = min(b0 + _ROW_BLOCK, count)
        rows = b1 - b0
        p0, r1 = int(pos[b0]), int(pos[b1 - 1]) + 1
        probs = buffer[: heads * rows * r1].reshape(heads, rows, r1)
        np.matmul(q[:, b0:b1], kt[:, :, :r1], out=probs)
        # Mask the key columns past each row's own position.
        upper = np.arange(p0, r1) > pos[b0:b1, None]
        if shift:
            np.copyto(probs[:, :, p0:], -np.inf, where=upper)
            np.subtract(probs, probs.max(axis=-1, keepdims=True), out=probs)
            np.exp2(probs, out=probs)
        else:
            np.exp2(probs, out=probs)
            np.copyto(probs[:, :, p0:], 0.0, where=upper)
        np.matmul(probs, v1[:, :r1], out=pv[:, b0:b1])
    np.divide(pv[:, :, :head_dim], pv[:, :, head_dim:], out=out)
    return probs[:, -1] / pv[:, -1, head_dim:]


def _attend(
    x: np.ndarray,
    pos: np.ndarray,
    wq: np.ndarray,
    kt: np.ndarray,
    v1: np.ndarray,
    buffer: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Attention output, (len(pos), hidden), of the layer-normed rows `x` at
    sequence positions `pos`, and the last one's attention row. The output
    is written over the queries."""
    heads, head_dim, _ = kt.shape
    q = (x @ wq).reshape(len(pos), heads, head_dim)
    by_head = q.transpose(1, 0, 2)
    last = _causal_attention(by_head, kt, v1, pos, buffer, by_head)
    return q.reshape(len(pos), heads * head_dim), last


def _check_bytes(geometry: DecoderGeometry, in_dim=0, text_tokens=0, visual_tokens=0) -> None:
    """Refuse a model, or a run with the model it reads, that would pass BYTES_CAP.
    With `in_dim` 0, the model is the decoder's layers without `w_in`."""
    h, heads, layers = geometry.hidden_dim, geometry.heads, geometry.layers
    # The weights and a run's zero-padded copy of one layer's value weights.
    weights = 8 * (in_dim * h + layers * geometry.layer_weights + h * (h + heads))
    seq = visual_tokens + text_tokens
    # Per token, in floats: states and text; the layer-normed states, keys
    # and queries, which then hold the attention output; the values with
    # their ones column, and the PV rows with their row-sum column; the MLP's
    # two (T, 2h) activations; the last row's attention, the bound's two
    # squared norms and one score block; and 13 for index arrays, the
    # snapshot row, and the kept indices and a drop's selection as Python
    # ints (40 bytes each). A layer before a drop is counted at full length.
    # Then the float64 copy of the visual input, counted even for float64 input.
    arrays = 8 * seq * (11 * h + heads * (5 + _ROW_BLOCK) + 13) + 8 * visual_tokens * in_dim
    # Each layer of a run keeps a snapshot and a kept list, 16 bytes a token,
    # and about 2 KiB of objects.
    records = layers * (16 * seq + 2048) if seq else 0
    if weights > arrays + records:
        what = f"the toy decoder's weights at layers={layers}, hidden_dim {h}"
    else:
        what = f"the toy decoder over {seq} tokens (text_tokens={text_tokens})"
    check_bytes(weights + arrays + records, what)


def _checked(text_tokens: int, visual, geometry: DecoderGeometry, schedule: DropSchedule):
    """`visual` as float64, once the run's sizes, schedule and bytes pass."""
    if text_tokens < 1:
        raise DomainError("need at least one text token for the attention query")
    if np.ndim(visual) != 2 or np.shape(visual)[0] < 1:
        raise DomainError("visual context must be a non-empty (tokens, dim) array")
    _check_depth(schedule, geometry.layers)
    if any(e.method == ATTENTION and e.layer == 0 for e in schedule.entries):
        raise ConfigError("attention drop at layer 0 has no prior snapshot")
    _check_bytes(geometry, np.shape(visual)[1], text_tokens, np.shape(visual)[0])
    return np.asarray(visual, dtype=np.float64)


class ToyModel:
    """A seeded toy decoder's weights, drawn once, read-only and read by every run.

    `rng` draws `w_in`, then all layers' wq, wk, wv, wo, w1 and w2 as one
    (layers, geometry.layer_weights) array: the stream of one draw per
    matrix. wq carries the softmax scale and log2(e), so q k^T is in log2
    units. Each kind is a (layers, …) view. Raises DomainError, before drawing, when the weights
    would pass errors.BYTES_CAP."""

    def __init__(self, geometry: DecoderGeometry, in_dim: int, rng: np.random.Generator):
        _check_bytes(geometry, in_dim)
        h, layers = geometry.hidden_dim, geometry.layers
        self.geometry = geometry
        self.w_in = rng.standard_normal((in_dim, h)) / math.sqrt(in_dim)
        w = rng.standard_normal((layers, geometry.layer_weights))
        w[:, : 6 * h * h] *= 1.0 / math.sqrt(h)
        w[:, 6 * h * h :] /= math.sqrt(2 * h)
        w[:, : h * h] *= math.log2(math.e) / math.sqrt(h // geometry.heads)
        self.w_in.flags.writeable = w.flags.writeable = False
        parts = np.split(w, h * h * np.array([1, 2, 3, 4, 6]), axis=1)
        shapes = [(h, h)] * 4 + [(h, 2 * h), (2 * h, h)]
        self.wq, self.wk, self.wv, self.wo, self.w1, self.w2 = (
            part.reshape(layers, *shape) for part, shape in zip(parts, shapes)
        )

    def run(self, visual: np.ndarray, text: np.ndarray, schedule=DropSchedule()) -> DecoderRun:
        """Run over (visual tokens, `text`), a (tokens, hidden) array, as
        toy_decoder_run does. Raises DomainError, before allocating, when the
        run with this model would pass errors.BYTES_CAP."""
        vis = _checked(len(text), visual, self.geometry, schedule)
        h, heads = self.geometry.hidden_dim, self.geometry.heads
        head_dim = h // heads
        # Each layer's value weights are copied into this array, which has a
        # zero column after each head. The projection then leaves a column
        # per head that is set to ones, and PV also yields the row sums.
        wv_pad = np.zeros((h, heads, head_dim + 1))

        states = np.concatenate([vis @ self.w_in, text], axis=0)
        kept = list(range(vis.shape[0]))
        by_layer = {e.layer: e for e in schedule.entries}
        if 0 in by_layer:  # a uniform drop; attention drops at layer 0 were refused above
            kept = uniform_drop(len(kept), by_layer[0].keep_ratio)
            states = np.concatenate([states[kept], text])

        snapshots: list[AttentionSnapshot] = []
        kept_per_layer: list[list[int]] = []
        # Sequence length never grows, so the first layer's row block fits every layer.
        buffer = np.empty(heads * _ROW_BLOCK * states.shape[0])

        weights = zip(self.wq, self.wk, self.wv, self.wo, self.w1, self.w2)
        for layer, (wq, wk, wv, wo, w1, w2) in enumerate(weights):
            kept_per_layer.append(list(kept))
            seq = states.shape[0]
            normed = _layer_norm(states)
            kt = (wk.T @ normed.T).reshape(heads, head_dim, seq)
            wv_pad[:, :, :head_dim] = wv.reshape(h, heads, head_dim)
            v1 = (normed @ wv_pad.reshape(h, -1)).reshape(seq, heads, head_dim + 1)
            v1[:, :, head_dim] = 1.0
            v1 = v1.transpose(1, 0, 2)
            # Every row is a key. Before a drop, the last query runs alone first:
            # its row gives the snapshot the drop may read.
            entry = by_layer.get(layer + 1)
            start = 0 if entry is None else seq - 1
            attn, last = _attend(normed[start:], np.arange(start, seq), wq, kt, v1, buffer)

            last_row = last.mean(axis=0)
            snapshots.append(
                AttentionSnapshot(
                    layer=layer,
                    scores=last_row[: len(kept)].copy(),
                    text_scores=last_row[len(kept) :].copy(),
                )
            )

            if entry is not None:
                # Only the survivors, the kept visual rows and every text
                # row, go on; the rest of the layer runs for them alone, in
                # one attention call.
                if entry.method == UNIFORM:
                    sel = uniform_drop(len(kept), entry.keep_ratio)
                else:
                    sel = attention_select(snapshots[-1].scores, entry.keep_ratio)
                rows = np.concatenate([sel, np.arange(len(kept), seq)])
                kept = [kept[i] for i in sel]
                attn = _attend(normed[rows], rows, wq, kt, v1, buffer)[0]
                states = states[rows]
            states = states + attn @ wo
            # Freed before the MLP allocates its activations: a lower peak.
            del normed, kt, v1, attn
            states = states + np.maximum(_layer_norm(states) @ w1, 0.0) @ w2

        return DecoderRun(states=states, snapshots=snapshots, kept=kept_per_layer)


def toy_decoder_run(
    text_tokens: int,
    visual: np.ndarray,
    geometry: DecoderGeometry = DecoderGeometry(),
    schedule: DropSchedule = DropSchedule(),
    seed: int = 0,
) -> DecoderRun:
    """Build a ToyModel from `seed` and run it over (visual tokens, synthetic text).

    `visual` is an (n, dim) array, e.g. a context's ``vectors()``. Visual
    tokens come first, then `text_tokens` seeded text embeddings.
    Before each scheduled layer the matching drop is applied — attention
    entries consume the snapshot of the immediately preceding layer — and
    every layer records an AttentionSnapshot. The layer before a drop
    computes keys and values for every row and runs its last query alone
    for the snapshot; then queries, attention output and MLP run only for
    the rows the drop keeps, in one attention call, and the next layer
    starts from them. Bit-reproducible per seed.
    Raises DomainError, before allocating, when the weights and the run
    together would need more than errors.BYTES_CAP bytes.
    """
    vis = _checked(text_tokens, visual, geometry, schedule)
    rng = np.random.default_rng(seed)
    model = ToyModel(geometry, vis.shape[1], rng)
    return model.run(vis, rng.standard_normal((text_tokens, geometry.hidden_dim)), schedule)
