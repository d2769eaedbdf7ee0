"""Shared test oracles: exact merge-tree enumeration, cluster fixtures,
per-token reference implementations of the four connectors, the
full-square reference of the toy decoder, and a tracemalloc peak."""
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


def clip_tokens(clips: list[compressor.CompressedClip]) -> list[RefToken]:
    """The clips' output tokens in order, each with the (frame, row, col)
    sources its clip's ``owner`` gives it (the whole clip for WHOLE_CLIP)."""
    out = []
    for clip in clips:
        start, end = clip.frame_span
        shape = (end - start, *clip.frame_shape)
        for j, (vector, size) in enumerate(zip(clip.vectors, clip.sizes)):
            members = (
                np.arange(math.prod(shape))
                if clip.owner is compressor.WHOLE_CLIP
                else np.flatnonzero(clip.owner == j)
            )
            f, r, c = np.unravel_index(members, shape)
            sources = frozenset(zip((f + start).tolist(), r.tolist(), c.tolist()))
            out.append(RefToken(vector, int(size), sources))
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


def ref_causal_attention(q, k, v, scale):
    """Full-square causal softmax(q k^T / scale) v over (heads, T, head_dim)
    arrays, and the last query's attention row, (heads, T)."""
    seq = q.shape[1]
    scores = q @ k.transpose(0, 2, 1) / scale
    causal = np.triu(np.full((seq, seq), -np.inf), k=1)
    probs = _ref_softmax(scores + causal)
    return probs @ v, probs[:, -1, :]


def ref_toy_decoder_run(
    text_tokens: int,
    visual: np.ndarray,
    geometry: dropout.DecoderGeometry = dropout.DecoderGeometry(),
    schedule: dropout.DropSchedule = dropout.DropSchedule(),
    seed: int = 0,
) -> dropout.DecoderRun:
    vis = np.asarray(visual, dtype=np.float64)
    rng = np.random.default_rng(seed)
    weights = dropout._ToyWeights(rng, geometry, vis.shape[1])
    text = rng.standard_normal((text_tokens, geometry.hidden_dim))

    states = np.concatenate([vis @ weights.w_in, text], axis=0)
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

        w = weights.layers[layer]
        seq = states.shape[0]
        normed = ref_layer_norm(states)
        q = (normed @ w["wq"]).reshape(seq, heads, head_dim).transpose(1, 0, 2)
        k = (normed @ w["wk"]).reshape(seq, heads, head_dim).transpose(1, 0, 2)
        v = (normed @ w["wv"]).reshape(seq, heads, head_dim).transpose(1, 0, 2)
        attn, last = ref_causal_attention(q, k, v, math.sqrt(head_dim))
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
