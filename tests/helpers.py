"""Shared test oracles: exact merge-tree enumeration, cluster fixtures,
per-token reference implementations of the four connectors, the
full-square reference of the toy decoder, the toy-decoder sizes the cost
model's toy shape is checked on, a tracemalloc peak, and the slots of a
JSON document that the niah fuzzes damage."""
from __future__ import annotations

import math
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np

from hico import compressor, dropout


def traced_peak(call, *args, **kwargs):
    """The most bytes `call(*args, **kwargs)` held at once, beyond what was
    alive before, counted by tracemalloc: deterministic and untimed."""
    tracemalloc.start()
    try:
        call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def json_slots(node) -> list:
    """Every (container, key) pair inside a JSON document."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return []
    slots = []
    for key, value in items:
        slots.append((node, key))
        slots.extend(json_slots(value))
    return slots


def partitions_into_k(n: int, k: int):
    """Yield every set partition of range(n) into exactly k non-empty groups.

    Any sequence of pairwise merges that ends with k tokens induces such a
    partition, so minimizing over partitions is minimizing over merge trees.
    """

    def rec(i, groups):
        if i == n:
            if len(groups) == k:
                yield [list(g) for g in groups]
            return
        for g in groups:
            g.append(i)
            yield from rec(i + 1, groups)
            g.pop()
        if len(groups) < k:
            groups.append([i])
            yield from rec(i + 1, groups)
            groups.pop()

    yield from rec(0, [])


def within_merge_variance(vecs: np.ndarray, groups) -> float:
    """Sum of squared deviations of each group's members from its mean."""
    total = 0.0
    for g in groups:
        pts = vecs[list(g)]
        total += float(((pts - pts.mean(axis=0)) ** 2).sum())
    return total


def best_merge_variance(vecs: np.ndarray, k: int) -> float:
    return min(
        within_merge_variance(vecs, g) for g in partitions_into_k(len(vecs), k)
    )


def tome_groups(vecs: np.ndarray, target: int):
    _, _, owner = compressor.tome_merge(vecs, target)
    return [np.flatnonzero(owner == j).tolist() for j in range(target)]


def cluster_vectors(rng: np.random.Generator, n: int, d: int, k: int, noise: float):
    """Well-separated orthogonal centroids over balanced contiguous blocks."""
    scales = rng.uniform(1.0, 3.0, size=k)
    centroids = np.zeros((k, d))
    for i in range(k):
        centroids[i, i] = scales[i]
    labels = (np.arange(n) * k) // n
    vecs = centroids[labels]
    if noise:
        vecs = vecs + noise * rng.standard_normal((n, d))
    return vecs


# ---------------------------------------------------------------------------
# Reference connectors: one Python object per token, one loop per merge.
# The array implementations in hico.compressor must reproduce these exactly:
# equal vectors bit for bit, equal sizes, order and sources.


@dataclass(eq=False)
class RefToken:
    vector: np.ndarray
    size: int
    sources: frozenset

    @property
    def min_source(self):
        return min(self.sources)


def clip_tokens(context: compressor.VisualContext, shape) -> list[RefToken]:
    """The context's output tokens in order, each with the (frame, row, col)
    sources its ``owner`` gives it over a grid of `shape` (frames, rows,
    cols). A resampler context has no owner: each output's sources are its
    whole clip, whose frames follow the previous clip's, and whose input
    count is the size of its rows."""
    sizes = context.sizes
    if context.owner is None:
        ends = [*context.clip_offsets[1:], len(sizes)]
        members, first = [], 0
        for start, end in zip(context.clip_offsets, ends):
            members += [np.arange(first, first + sizes[start])] * (end - start)
            first += sizes[start]
    else:
        members = [np.flatnonzero(context.owner == j) for j in range(len(sizes))]
    out = []
    for vector, size, inputs in zip(context.vectors(), sizes, members):
        f, r, c = np.unravel_index(inputs, shape)
        out.append(RefToken(vector, int(size), frozenset(zip(f.tolist(), r.tolist(), c.tolist()))))
    return out


def ref_grid_tokens(data: np.ndarray, frame_offset: int = 0) -> list[RefToken]:
    frames, rows, cols, _ = data.shape
    return [
        RefToken(data[f, r, c], 1, frozenset({(f + frame_offset, r, c)}))
        for f in range(frames)
        for r in range(rows)
        for c in range(cols)
    ]


def _unit_rows(vecs: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs / np.where(norms > 0, norms, 1.0)


def ref_tome_merge(tokens: list[RefToken], target: int) -> list[RefToken]:
    """Bipartite merging as a per-token loop; ties prefer the smaller index."""
    current = sorted(tokens, key=lambda t: t.min_source)
    while len(current) > target:
        n = len(current)
        r = min(n // 2, n - target)
        a_pos = list(range(0, n, 2))
        b_pos = list(range(1, n, 2))
        a_vecs = _unit_rows(np.stack([current[i].vector for i in a_pos]))
        b_vecs = _unit_rows(np.stack([current[i].vector for i in b_pos]))
        sims = a_vecs @ b_vecs.T
        best_b = np.argmax(sims, axis=1)
        best_sim = sims[np.arange(len(a_pos)), best_b]
        ranked = sorted(range(len(a_pos)), key=lambda i: (-best_sim[i], i))
        survivors = {i: current[i] for i in b_pos}
        for ai in ranked[:r]:
            src = current[a_pos[ai]]
            dst_pos = b_pos[best_b[ai]]
            dst = survivors[dst_pos]
            total = src.size + dst.size
            survivors[dst_pos] = RefToken(
                (src.size * src.vector + dst.size * dst.vector) / total,
                total,
                src.sources | dst.sources,
            )
        for ai in ranked[r:]:
            survivors[a_pos[ai]] = current[a_pos[ai]]
        current = sorted(survivors.values(), key=lambda t: t.min_source)
    return current


def ref_spatial(frame: np.ndarray, factor: int, frame_index: int) -> list[RefToken]:
    rows, cols, dim = frame.shape
    out = []
    for br in range(rows // factor):
        for bc in range(cols // factor):
            block = frame[br * factor : (br + 1) * factor, bc * factor : (bc + 1) * factor]
            sources = frozenset(
                (frame_index, br * factor + i, bc * factor + j)
                for i in range(factor)
                for j in range(factor)
            )
            out.append(RefToken(block.reshape(-1, dim).mean(axis=0), factor * factor, sources))
    return out


def ref_compress_clip(
    data: np.ndarray, start: int, config: compressor.ConnectorConfig
) -> list[RefToken]:
    """The tokens one clip, whose first frame is `start`, compresses to, one object at a time."""
    if config.kind == "merge":
        if config.st_temperature is not None:
            mixed = compressor.st_mix(data.reshape(-1, data.shape[-1]), config.st_temperature)
            data = mixed.reshape(data.shape)
        return ref_tome_merge(ref_grid_tokens(data, start), config.budget)
    if config.kind in ("spatial", "uneven"):
        first, rest = (
            (config.factor, config.factor)
            if config.kind == "spatial"
            else (config.f_first, config.f_rest)
        )
        out = ref_spatial(data[0], first, start)
        for f in range(1, len(data)):
            out.extend(ref_spatial(data[f], rest, start + f))
        return out
    dim = data.shape[-1]
    rng = np.random.default_rng(config.query_seed)
    queries = rng.standard_normal((config.queries, dim)) / math.sqrt(dim)
    outputs = compressor.resampler_forward(
        data.reshape(-1, dim), queries, temperature=config.temperature
    )
    frames, rows, cols, _ = data.shape
    sources = frozenset(
        (start + f, r, c) for f in range(frames) for r in range(rows) for c in range(cols)
    )
    return [RefToken(vector, len(sources), sources) for vector in outputs]


def ref_compress_video(grid: compressor.TokenGrid, config) -> list[list[RefToken]]:
    """Per-clip reference tokens, with the short final clip's budget scaled."""
    out = []
    for start in range(0, grid.frames, config.clip_len):
        data = grid.data[start : start + config.clip_len]
        frames = len(data)
        cfg = config
        if frames < config.clip_len:
            cfg = replace(
                config,
                budget=compressor.scaled_budget(config.budget, frames, config.clip_len),
                queries=compressor.scaled_budget(config.queries, frames, config.clip_len),
            )
        out.append(ref_compress_clip(data, start, cfg))
    return out


# Toy-decoder sizes: DecoderGeometry's defaults, the CLI's 28-layer default,
# and smaller, narrower and single-head ones.
TOY_GEOMETRIES = [
    dropout.DecoderGeometry(),
    dropout.DecoderGeometry(28, 64, 4),
    dropout.DecoderGeometry(6, 32, 2),
    dropout.DecoderGeometry(3, 12, 3),
    dropout.DecoderGeometry(1, 1, 1),
]


# ---------------------------------------------------------------------------
# Reference toy decoder: full-square masked softmax with fresh temporaries.
# dropout.toy_decoder_run must match it: equal kept indices, and states and
# snapshot scores within the tolerance stated in tests/test_dropout.py.


def ref_layer_norm(x: np.ndarray) -> np.ndarray:
    """Two-pass layer norm: x.var centres x a second time. dropout._layer_norm
    centres once and must give the same bits."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + 1e-5)


def _ref_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def ref_causal_attention(q, k, v, scale, perturb=None):
    """Full-square causal softmax(q k^T / scale) v over (heads, T, head_dim)
    arrays, and the last query's attention row, (heads, T). With `perturb`,
    each nonzero probability first moves one ulp: towards `perturb` when it
    is +inf or -inf, up or down at random when it is a Generator. That is a
    rounding change of the softmax, whose effect on the outputs measures the
    reference's own sensitivity to rounding."""
    seq = q.shape[1]
    scores = q @ k.transpose(0, 2, 1) / scale
    causal = np.triu(np.full((seq, seq), -np.inf), k=1)
    probs = _ref_softmax(scores + causal)
    if perturb is not None:
        toward = perturb
        if isinstance(perturb, np.random.Generator):
            toward = np.where(perturb.random(probs.shape) < 0.5, -np.inf, np.inf)
        probs = np.where(probs > 0, np.nextafter(probs, toward), probs)
    return probs @ v, probs[:, -1, :]


def ref_toy_decoder_run(
    text_tokens: int,
    visual: np.ndarray,
    geometry: dropout.DecoderGeometry = dropout.DecoderGeometry(),
    schedule: dropout.DropSchedule = dropout.DropSchedule(),
    seed: int = 0,
    perturb: float | np.random.Generator | None = None,
) -> dropout.DecoderRun:
    """The full-square decoder; `perturb` perturbs every layer's softmax, as
    ref_causal_attention does."""
    vis = np.asarray(visual, dtype=np.float64)
    rng = np.random.default_rng(seed)
    h = geometry.hidden_dim
    s = 1.0 / math.sqrt(h)
    w_in = rng.standard_normal((vis.shape[1], h)) / math.sqrt(vis.shape[1])
    weights = [
        {
            "wq": rng.standard_normal((h, h)) * s,
            "wk": rng.standard_normal((h, h)) * s,
            "wv": rng.standard_normal((h, h)) * s,
            "wo": rng.standard_normal((h, h)) * s,
            "w1": rng.standard_normal((h, 2 * h)) * s,
            "w2": rng.standard_normal((2 * h, h)) / math.sqrt(2 * h),
        }
        for _ in range(geometry.layers)
    ]
    text = rng.standard_normal((text_tokens, h))

    states = np.concatenate([vis @ w_in, text], axis=0)
    kept = list(range(vis.shape[0]))
    by_layer = {e.layer: e for e in schedule.entries}

    heads = geometry.heads
    head_dim = geometry.hidden_dim // heads
    snapshots: list[dropout.AttentionSnapshot] = []
    kept_per_layer: list[list[int]] = []

    for layer in range(geometry.layers):
        entry = by_layer.get(layer)
        if entry is not None:
            if entry.method == dropout.UNIFORM:
                sel = dropout.uniform_drop(len(kept), entry.keep_ratio)
            else:
                sel = dropout.attention_select(snapshots[layer - 1].scores, entry.keep_ratio)
            kept = [kept[i] for i in sel]
            states = np.concatenate([states[sel], states[len(states) - text_tokens :]])
        kept_per_layer.append(list(kept))

        w = weights[layer]
        seq = states.shape[0]
        normed = ref_layer_norm(states)
        q = (normed @ w["wq"]).reshape(seq, heads, head_dim).transpose(1, 0, 2)
        k = (normed @ w["wk"]).reshape(seq, heads, head_dim).transpose(1, 0, 2)
        v = (normed @ w["wv"]).reshape(seq, heads, head_dim).transpose(1, 0, 2)
        attn, last = ref_causal_attention(q, k, v, math.sqrt(head_dim), perturb)
        attn = attn.transpose(1, 0, 2).reshape(seq, geometry.hidden_dim)
        states = states + attn @ w["wo"]
        states = states + np.maximum(ref_layer_norm(states) @ w["w1"], 0.0) @ w["w2"]

        last_row = last.mean(axis=0)
        snapshots.append(
            dropout.AttentionSnapshot(
                layer=layer,
                scores=last_row[: len(kept)].copy(),
                text_scores=last_row[len(kept) :].copy(),
            )
        )

    return dropout.DecoderRun(states=states, snapshots=snapshots, kept=kept_per_layer)
