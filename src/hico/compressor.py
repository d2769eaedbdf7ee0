"""Clip-level token compression.

A video's per-frame token grid is cut into short clips, and each clip is
squeezed down to a small token budget by one of four connector families:

* ``merge``     — iterative bipartite merging of cosine-similar tokens,
                  optionally preceded by a parameter-free spatio-temporal
                  attention mix across the clip.
* ``spatial``   — per-frame block-mean pooling by a fixed factor.
* ``uneven``    — block-mean pooling with a fine factor on the first frame
                  of the clip and a coarse factor on the rest.
* ``resampler`` — a single cross-attention layer reading the clip through a
                  fixed set of query vectors.

The connector functions take arrays and return columns; no clip object sits
between them and the grid. ``compress_video`` cuts clip i's frames
[i·clip_len, min((i+1)·clip_len, frames)) out of the grid, as one stack of
the full clips and one of a short final clip, and compresses each stack.
Outputs are stored as columns (CompressedClip): vectors, sizes, and the
output token that absorbed each (frame, row, col) input token. Merge,
spatial and uneven vectors are size-weighted means of their sources, so
token mass is conserved. Resampler outputs are attention-weighted blends of
the whole clip and carry the whole clip as provenance.
"""
from __future__ import annotations

import itertools
import math
import zipfile
import zlib
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, check_bytes

Columns = tuple[np.ndarray, np.ndarray, np.ndarray]  # (vectors, sizes, owner)


@dataclass
class TokenGrid:
    """Per-frame spatial grid of feature vectors, shape (frames, rows, cols, dim)."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 4:
            raise DomainError(f"token grid must be 4-D, got shape {arr.shape}")
        if any(s < 1 for s in arr.shape):
            raise DomainError(f"all grid dimensions must be >= 1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("token grid contains non-finite values")
        self.data = arr

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def rows(self) -> int:
        return self.data.shape[1]

    @property
    def cols(self) -> int:
        return self.data.shape[2]

    @property
    def dim(self) -> int:
        return self.data.shape[3]

    @property
    def token_count(self) -> int:
        return self.frames * self.rows * self.cols


WHOLE_CLIP = None  # owner marker: every output token blends the whole clip


@dataclass(eq=False)
class CompressedClip:
    """One clip's compressed tokens as columns: (n, dim) ``vectors``, (n,) ``sizes``.

    ``owner[i]`` is the output token that absorbed input token i, counted
    frame-major and row-major over ``frame_span`` x ``frame_shape`` (rows,
    cols); it is WHOLE_CLIP when every output draws on the whole clip.
    """

    vectors: np.ndarray
    sizes: np.ndarray
    owner: np.ndarray | None
    frame_span: tuple[int, int]
    frame_shape: tuple[int, int]

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        self.sizes = np.asarray(self.sizes, dtype=np.int64)
        n = len(self.vectors)
        if self.vectors.ndim != 2 or self.sizes.shape != (n,) or np.any(self.sizes < 1):
            raise DomainError("need a (tokens, dim) vector array and a size >= 1 per token")
        inputs = (self.frame_span[1] - self.frame_span[0]) * math.prod(self.frame_shape)
        if self.owner is WHOLE_CLIP:
            counts = np.full(n, inputs)
        else:
            self.owner = np.asarray(self.owner, dtype=np.int64)
            if self.owner.shape != (inputs,) or np.any((self.owner < 0) | (self.owner >= n)):
                raise DomainError("owner must map every input token to an output token")
            counts = np.bincount(self.owner, minlength=n)
        if not np.array_equal(self.sizes, counts):
            raise DomainError("token size must equal the number of sources")


class MergedToken(NamedTuple):
    vector: np.ndarray
    size: int


class TokenView(Sequence):
    """Read-only list of the (vector, size) tokens of some clips, each built when read."""

    def __init__(self, clips: list[CompressedClip]):
        self._at = [(c, j) for c in clips for j in range(len(c.sizes))]

    def __len__(self) -> int:
        return len(self._at)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [MergedToken(c.vectors[j], int(c.sizes[j])) for c, j in self._at[i]]
        c, j = self._at[i]
        return MergedToken(c.vectors[j], int(c.sizes[j]))


@dataclass(eq=False)
class VisualContext:
    """Compressed clips in clip order, read as joined columns: ``vectors()``
    (n, dim) and ``sizes`` (n,). Provenance is each clip's ``owner``."""

    clips: list[CompressedClip]

    def vectors(self) -> np.ndarray:
        return np.concatenate([c.vectors for c in self.clips])

    @property
    def sizes(self) -> np.ndarray:
        return np.concatenate([c.sizes for c in self.clips])

    @property
    def clip_offsets(self) -> list[int]:
        return list(itertools.accumulate((len(c.sizes) for c in self.clips[:-1]), initial=0))

    @property
    def tokens(self) -> TokenView:
        """A lazy (vector, size) view; only the benchmark still reads it."""
        return TokenView(self.clips)


CONNECTOR_KINDS = ("merge", "spatial", "uneven", "resampler")


@dataclass(frozen=True)
class ConnectorConfig:
    """Connector selection plus its per-kind parameters.

    budget / clip_len apply to merge (and queries plays the same role for
    resampler); factor to spatial; f_first / f_rest to uneven. A short final
    clip gets its budget scaled down proportionally to its frame count.
    """

    kind: str = "merge"
    budget: int = 64
    clip_len: int = 4
    st_temperature: float | None = None
    factor: int = 2
    f_first: int = 2
    f_rest: int = 4
    queries: int = 64
    query_seed: int = 0
    weights_path: str | None = None
    temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in CONNECTOR_KINDS:
            raise DomainError(f"unknown connector kind {self.kind!r}")
        if self.budget < 1 or self.clip_len < 1 or self.queries < 1:
            raise DomainError("budget, clip_len and queries must be >= 1")
        if self.factor < 1 or self.f_first < 1 or self.f_rest < 1:
            raise DomainError("downsampling factors must be >= 1")
        if self.f_first > self.f_rest:
            raise DomainError("f_first must not exceed f_rest")
        if self.st_temperature is not None and self.st_temperature <= 0:
            raise DomainError("st_temperature must be positive")
        if self.temperature <= 0:
            raise DomainError("temperature must be positive")


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def st_mix(tokens: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Mix every token of a clip, (n, dim), with all others via self-attention.

    Tokens act as their own queries, keys and values (identity projections):
    out = softmax(X Xᵀ / (temperature * sqrt(dim))) X. As temperature grows
    the output of every token tends to the clip mean; shape is preserved.
    """
    x = np.asarray(tokens, dtype=np.float64)
    if x.ndim != 2:
        raise DomainError(f"tokens must have shape (n, dim), got {x.shape}")
    mixed = resampler_forward(x, x, temperature=temperature)
    if not np.all(np.isfinite(mixed)):
        raise DomainError("attention mix produced non-finite values")
    return mixed


def _unit_rows(vecs: np.ndarray) -> np.ndarray:
    # Zero-norm rows stay zero, giving them cosine similarity 0 to everything.
    norms = np.sqrt(np.add.reduce(vecs * vecs, axis=1, keepdims=True))
    return vecs / np.where(norms > 0, norms, 1.0)


def tome_merge(vectors: np.ndarray, target: int, sizes: np.ndarray | None = None) -> Columns:
    """Reduce each clip's token vectors to exactly `target` rows by similarity merging.

    `vectors` is one clip, (n, dim), or a stack of equal-sized clips,
    (clips, n, dim), whose rounds run in lockstep; the columns come back with
    the same leading shape, bit-identical to merging each clip alone. Input
    rows are in source order with the given sizes (1 when omitted). Each
    round splits a clip's current tokens by index parity into sets A and B,
    matches every A-token to its most cosine-similar B-token, and merges the
    r = min(count // 2, surplus) highest-similarity pairs into their B-token
    by size-weighted averaging. Ties prefer the smaller index. Survivors are
    re-ordered by smallest source before the next round, which is also the
    final output order. owner[i] is the output row that absorbed input row i.
    """
    vecs = np.asarray(vectors, dtype=np.float64)
    if vecs.ndim not in (2, 3) or len(vecs) < 1:
        raise DomainError(f"need (tokens, dim) or (clips, tokens, dim) vectors, got {vecs.shape}")
    sizes = np.ones(vecs.shape[:-1], np.int64) if sizes is None else np.array(sizes, np.int64)
    if sizes.shape != vecs.shape[:-1]:
        raise DomainError(f"sizes shape {sizes.shape} does not match the vectors {vecs.shape}")
    one_clip = vecs.ndim == 2
    if one_clip:
        vecs, sizes = vecs[None], sizes[None]
    clips, n, dim = vecs.shape
    if not 1 <= target <= n:
        raise DomainError(f"target {target} must be between 1 and the token count {n}")
    if n == target:
        vecs = vecs.copy()  # the only round-free case: never hand back the input
    first = np.tile(np.arange(n), (clips, 1))  # smallest source of each current token
    owner = first.copy()
    clip_ids = np.arange(clips)[:, None]
    while n > target:
        r = min(n // 2, n - target)
        half = (n + 1) // 2
        best, best_sim = np.empty((clips, half), np.int64), np.empty((clips, half))
        for c in range(clips):  # one (n/2, n/2) similarity block at a time
            sims = _unit_rows(vecs[c, 0::2]) @ _unit_rows(vecs[c, 1::2]).T
            best[c] = np.argmax(sims, axis=1)
            best_sim[c] = sims[np.arange(half), best[c]]
        ranked = np.argsort(-best_sim, axis=1, kind="stable")[:, :r]
        src, dst = 2 * ranked, 2 * np.take_along_axis(best, ranked, axis=1) + 1
        # Flat row ids clip·n + i let one pass serve the whole stack.
        flat_src, flat_dst = (clip_ids * n + src).ravel(), (clip_ids * n + dst).ravel()
        flat_first = first.reshape(-1)
        np.minimum.at(flat_first, flat_dst, flat_first[flat_src])
        flat_first[flat_src] = owner.shape[1]  # merged-away rows sort last and are dropped
        order = np.argsort(first, axis=1)
        position = np.argsort(order, axis=1)
        position.reshape(-1)[flat_src] = position.reshape(-1)[flat_dst]
        owner = np.take_along_axis(position, owner, axis=1)
        n -= r
        # Survivors go into half-size arrays before the merges, which then read
        # each source from the old array: sources are even rows and
        # destinations odd, so no source has been merged into yet.
        keep = order[:, :n]
        merged, merged_sizes = vecs[clip_ids, keep], sizes[clip_ids, keep]
        first = first[clip_ids, keep]
        into = (clip_ids * n + np.take_along_axis(position, dst, axis=1)).ravel()
        old, old_sizes = vecs.reshape(-1, dim), sizes.reshape(-1)
        new, new_sizes = merged.reshape(-1, dim), merged_sizes.reshape(-1)
        # Merges into one destination must run in rank order to reproduce the
        # running average bit for bit: wave k applies each destination's k-th.
        by_dst = np.argsort(flat_dst, kind="stable")
        wave = np.empty(len(by_dst), np.int64)
        wave[by_dst] = np.arange(len(by_dst)) - np.searchsorted(flat_dst[by_dst], flat_dst[by_dst])
        by_wave = np.argsort(wave, kind="stable")
        for pick in np.split(by_wave, np.cumsum(np.bincount(wave))[:-1]):
            s, d = flat_src[pick], into[pick]
            total = old_sizes[s] + new_sizes[d]
            new[d] = (old_sizes[s, None] * old[s] + new_sizes[d, None] * new[d]) / total[:, None]
            new_sizes[d] = total
        vecs, sizes = merged, merged_sizes
    return (vecs[0], sizes[0], owner[0]) if one_clip else (vecs, sizes, owner)


def spatial_downsample(frames: np.ndarray, factor: int) -> Columns:
    """Block-mean pool each (rows, cols, dim) frame of `frames` by `factor`.

    Produces (rows/factor) * (cols/factor) tokens of size factor² per frame,
    frame by frame in row-major block order.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 4:
        raise DomainError("frames must have shape (frames, rows, cols, dim)")
    count, rows, cols, dim = frames.shape
    if rows % factor or cols % factor:
        raise DomainError(f"factor {factor} does not divide frame grid {rows}x{cols}")
    br, bc = rows // factor, cols // factor
    blocks = (
        frames.reshape(count, br, factor, bc, factor, dim)
        .transpose(0, 1, 3, 2, 4, 5)
        .reshape(count * br * bc, factor * factor, dim)
    )
    f, r, c = np.indices((count, rows, cols)).reshape(3, -1)
    owner = (f * br + r // factor) * bc + c // factor
    return blocks.mean(axis=1), np.full(len(blocks), factor * factor), owner


def uneven_downsample(frames: np.ndarray, f_first: int, f_rest: int) -> Columns:
    """Pool `frames`, (frames, rows, cols, dim): the first by f_first, the rest by f_rest."""
    if f_first > f_rest:
        raise DomainError("f_first must not exceed f_rest")
    head = spatial_downsample(frames[:1], f_first)
    if len(frames) == 1:
        return head  # f_rest never applies, so it need not divide the grid
    tail = spatial_downsample(frames[1:], f_rest)
    vectors, sizes, owner = (np.concatenate(pair) for pair in zip(head, tail))
    owner[len(head[2]) :] += len(head[1])
    return vectors, sizes, owner


def resampler_forward(
    tokens: np.ndarray,
    queries: np.ndarray,
    wk: np.ndarray | None = None,
    wv: np.ndarray | None = None,
    temperature: float = 1.0,
) -> np.ndarray:
    """Single-layer cross-attention: Q queries read N clip tokens.

    K and V are the tokens passed through wk / wv (identity when omitted);
    output is softmax(Q Kᵀ / (temperature * sqrt(d))) V with one row per
    query, regardless of the input length.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    if tokens.ndim != 2 or queries.ndim != 2:
        raise DomainError("tokens and queries must be 2-D")
    if temperature <= 0:
        raise DomainError("temperature must be positive")
    for name, w in (("wk", wk), ("wv", wv)):
        if w is not None and (np.ndim(w) != 2 or np.shape(w)[0] != tokens.shape[1]):
            raise DomainError(
                f"{name} must have shape ({tokens.shape[1]}, d), got {np.shape(w)}"
            )
    k = tokens if wk is None else tokens @ np.asarray(wk, dtype=np.float64)
    v = tokens if wv is None else tokens @ np.asarray(wv, dtype=np.float64)
    if queries.shape[1] != k.shape[1]:
        raise DomainError(
            f"query dim {queries.shape[1]} does not match key dim {k.shape[1]}"
        )
    scores = (queries @ k.T) / (temperature * math.sqrt(k.shape[1]))
    return _softmax(scores) @ v


def _read_weights(path: str) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """(queries, wk, wv) from an .npz archive; wk and wv may be absent.

    Every member must hold finite real numbers (bool, int or float).
    """
    with open(path, "rb") as f:  # np.load(path) leaks its handle on a corrupt zip
        try:
            archive = np.load(f)
        except (ValueError, EOFError, zipfile.BadZipFile):
            archive = None  # pickled, empty or corrupt
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise DomainError(f"weights file {path} is not an .npz archive")
        if "queries" not in archive.files:
            raise DomainError(f"weights file {path} has no 'queries' array")
        try:
            members = [archive[k] if k in archive.files else None for k in ("queries", "wk", "wv")]
        except (ValueError, EOFError, OSError, RuntimeError, zipfile.BadZipFile, zlib.error) as exc:
            # Object arrays, bad .npy headers, truncated or bit-flipped members,
            # and flipped compression or encryption flags.
            raise DomainError(f"weights file {path} has an unreadable member: {exc}") from None
    for name, m in zip(("queries", "wk", "wv"), members):
        if m is not None and m.dtype.kind not in "biuf":
            raise DomainError(f"weights file {path} holds {name} of dtype {m.dtype}, not reals")
    weights = tuple(None if m is None else m.astype(np.float64) for m in members)
    if not all(np.all(np.isfinite(w)) for w in weights if w is not None):
        raise DomainError(f"weights file {path} holds non-finite values")
    return weights


def scaled_budget(budget: int, frames_in_clip: int, clip_len: int) -> int:
    """Token budget for a possibly-short clip: ceil(budget * frames / clip_len)."""
    return -(-budget * frames_in_clip // clip_len)


def _resampler_weights(
    grid: TokenGrid, config: ConnectorConfig, spans
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """The video's (queries, wk, wv), with ``config.queries`` query rows.

    First refuses, before allocating, queries whose arrays would pass
    BYTES_CAP: the video's queries and the largest clip's four (queries,
    tokens) softmax arrays are held at once, the output twice when joined.
    """
    count = spans[0][1] - spans[0][0]
    largest = scaled_budget(config.queries, count, config.clip_len)
    tokens = count * grid.rows * grid.cols
    outputs = sum(scaled_budget(config.queries, b - a, config.clip_len) for a, b in spans)
    needed = 8 * (config.queries * grid.dim + 4 * largest * tokens + 2 * outputs * grid.dim)
    check_bytes(needed, f"--queries {config.queries} on clips of {tokens} tokens")
    if config.weights_path is not None:
        queries, wk, wv = _read_weights(config.weights_path)
        if queries.ndim != 2 or queries.shape[0] != config.queries:
            raise DomainError(
                f"weights file queries have shape {queries.shape}, need ({config.queries}, d)"
            )
        return queries, wk, wv
    rng = np.random.default_rng(config.query_seed)
    queries = rng.standard_normal((config.queries, grid.dim)) / math.sqrt(grid.dim)
    return queries, None, None


def _compress_stack(
    stack: np.ndarray, spans, config: ConnectorConfig, weights
) -> list[CompressedClip]:
    """Compress a stack of equal-length clips, (clips, frames, rows, cols, dim).

    Merge runs the whole stack through tome_merge in lockstep; the other
    kinds compress one clip at a time. Merge and resampler budgets are
    scaled to the clips' frame count, and a short clip reads the first rows
    of the video's resampler ``weights`` (queries, wk, wv); for the
    downsampling kinds the output length is the analytic block count.
    """
    count, rows, cols, dim = stack.shape[1:]
    if config.kind == "merge":
        tokens = stack.reshape(len(stack), -1, dim)
        if config.st_temperature is not None:
            tokens = np.stack([st_mix(clip, config.st_temperature) for clip in tokens])
        columns = zip(*tome_merge(tokens, scaled_budget(config.budget, count, config.clip_len)))
    elif config.kind == "spatial":
        columns = (spatial_downsample(frames, config.factor) for frames in stack)
    elif config.kind == "uneven":
        columns = (uneven_downsample(frames, config.f_first, config.f_rest) for frames in stack)
    else:
        queries, wk, wv = weights
        queries = queries[: scaled_budget(config.queries, count, config.clip_len)]
        columns = (
            (resampler_forward(frames.reshape(-1, dim), queries, wk, wv, config.temperature),
             np.full(len(queries), count * rows * cols), WHOLE_CLIP)
            for frames in stack
        )
    return [CompressedClip(*c, span, (rows, cols)) for span, c in zip(spans, columns)]


def compress_video(grid: TokenGrid, config: ConnectorConfig) -> VisualContext:
    """Cut a video grid into clips, compress each, and join them in clip order.

    Clip i spans frames [i·clip_len, min((i+1)·clip_len, frames)). A short
    final clip gets a proportionally smaller budget so the average
    tokens-per-frame rate stays constant across the video. The full clips
    go to ``_compress_stack`` as one stack, a view of the grid, and a short
    final clip as a second.
    """
    frames, clip_len = grid.frames, config.clip_len
    spans = [(start, min(start + clip_len, frames)) for start in range(0, frames, clip_len)]
    weights = _resampler_weights(grid, config, spans) if config.kind == "resampler" else None
    clips = []
    for _, same_length in itertools.groupby(spans, lambda span: span[1] - span[0]):
        group = list(same_length)
        stack = grid.data[group[0][0] : group[-1][1]].reshape(len(group), -1, *grid.data.shape[1:])
        clips += _compress_stack(stack, group, config, weights)
    return VisualContext(clips)


def conservation_residual(inputs: TokenGrid, context: VisualContext) -> float:
    """Relative error between input token mass and size-weighted output mass.

    Zero (up to float noise) for provenance-preserving connectors.
    """
    in_sum = inputs.data.reshape(-1, inputs.dim).sum(axis=0)
    out_sum = (context.sizes[:, None] * context.vectors()).sum(axis=0)
    denom = max(float(np.linalg.norm(in_sum)), 1e-30)
    return float(np.linalg.norm(out_sum - in_sum)) / denom
