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
the full clips and one of a short final clip, and writes each clip into its
rows of one set of columns allocated up front: vectors, sizes, and
``owner``, the row that absorbed each (frame, row, col) input token of the
grid. Merge, spatial and uneven vectors are size-weighted means of their
sources, so token mass is conserved; merge with st_temperature averages
the mixed tokens, so there it is not. Resampler outputs blend their whole
clip: the context has no owner, and each size is the clip's token count.
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
_SCAN_VALUES = 1 << 16  # values per chunk of a grid scanned, summed, drawn or written


@dataclass
class TokenGrid:
    """Per-frame spatial grid of feature vectors, shape (frames, rows, cols, dim).

    A native float32 array is kept as float32, half the bytes, and no
    consumer widens the whole grid: a connector widens one clip, a merge
    round's survivors or a wave piece's rows where it computes, and the
    conservation residual sums it into float64 accumulators. Any other input
    becomes float64.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data)
        if arr.dtype != np.float32:
            arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 4:
            raise DomainError(f"token grid must be 4-D, got shape {arr.shape}")
        if any(s < 1 for s in arr.shape):
            raise DomainError(f"all grid dimensions must be >= 1, got {arr.shape}")
        # One pass in chunks of at most _SCAN_VALUES values, so the scan's
        # bool mask is small, never one of the whole grid.
        chunks = np.nditer(arr, flags=["external_loop", "buffered"], buffersize=_SCAN_VALUES)
        if not all(np.isfinite(chunk).all() for chunk in chunks):
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


class MergedToken(NamedTuple):
    vector: np.ndarray
    size: int


class TokenView(Sequence):
    """Read-only list of a context's (vector, size) tokens, each built when read."""

    def __init__(self, vectors: np.ndarray, sizes: np.ndarray):
        self._vectors, self._sizes = vectors, sizes

    def __len__(self) -> int:
        return len(self._sizes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [MergedToken(v, int(s)) for v, s in zip(self._vectors[i], self._sizes[i])]
        return MergedToken(self._vectors[i], int(self._sizes[i]))


class VisualContext:
    """A compressed video as one set of read-only columns, in clip order.

    ``vectors()`` is (n, dim) float64 and ``sizes`` (n,) int64; clip i's rows
    start at ``clip_offsets[i]``. ``owner[i]`` is the row that absorbed input
    token i of the grid, counted frame-major and row-major; it is None for the
    resampler, whose every output blends its whole clip. ``clip_inputs``, each
    clip's input-token count, is checked against the columns and not kept.
    """

    def __init__(self, vectors, sizes, owner, clip_offsets: list[int], clip_inputs: list[int]):
        vectors = np.asarray(vectors, dtype=np.float64)
        sizes = np.asarray(sizes, dtype=np.int64)
        n = len(vectors)
        if vectors.ndim != 2 or sizes.shape != (n,) or np.any(sizes < 1):
            raise DomainError("need a (tokens, dim) vector array and a size >= 1 per token")
        if owner is None:
            counts = np.repeat(clip_inputs, np.diff([*clip_offsets, n]))
        else:
            owner = np.asarray(owner, dtype=np.int64)
            if owner.shape != (sum(clip_inputs),) or np.any((owner < 0) | (owner >= n)):
                raise DomainError("owner must map every input token to an output token")
            counts = np.bincount(owner, minlength=n)
        if not np.array_equal(sizes, counts):
            raise DomainError("token size must equal the number of sources")
        for column in (vectors, sizes, owner):
            if column is not None:
                column.flags.writeable = False
        self._vectors, self.sizes, self.owner = vectors, sizes, owner
        self.clip_offsets = clip_offsets

    def vectors(self) -> np.ndarray:
        """The stored (n, dim) array, read-only; a caller that writes copies it first."""
        return self._vectors

    @property
    def tokens(self) -> TokenView:
        """A lazy (vector, size) view; only the benchmark still reads it."""
        return TokenView(self._vectors, self.sizes)


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
    norms = np.sqrt(np.add.reduce(vecs * vecs, axis=-1, keepdims=True))
    return vecs / np.where(norms > 0, norms, 1.0)


_WAVE_ROWS = 256  # merges per piece of a merge wave


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """np.argsort(keys, kind="stable") for non-negative integer keys.

    Each key takes its position as a tie-break, so a plain sort of the unique
    keys gives the stable order, several times faster than a stable argsort.
    Exact while keys·len(keys) < 2**63: for stacks below 3·10^9 tokens.
    """
    m = len(keys)
    return np.sort(keys * m + np.arange(m)) % m


def _best_matches(vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each A token's most cosine-similar B token in a (clips, n, dim) stack,
    and that similarity: two (clips, (n + 1) // 2) arrays.

    A tokens are the even rows, B tokens the odd; best[c, i] = j names A
    token i's match, B token j, which is row 2j + 1. Each clip's rows are
    widened to float64 and normalised once, and its similarities go into one
    block shared by every clip. Block and unit rows are freed on return.
    """
    clips, n, _ = vecs.shape
    half = (n + 1) // 2
    best, best_sim = np.empty((clips, half), np.int64), np.empty((clips, half))
    sims = np.empty((half, n // 2))
    at_best = np.arange(half) * (n // 2)
    for c in range(clips):
        unit = _unit_rows(vecs[c].astype(np.float64, copy=False))
        np.matmul(unit[0::2], unit[1::2].T, out=sims)
        np.argmax(sims, axis=1, out=best[c])
        np.take(sims, at_best + best[c], out=best_sim[c])
    return best, best_sim


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

    A float32 stack is read as it is: round 1 widens one clip, the survivors
    clip by clip, as every round gathers them, and each wave piece's sources
    where it computes. No float64 copy of the stack is made, and the float64
    columns are bit-identical to the widened stack's. Other input is float64.
    """
    vecs = np.asarray(vectors)
    if vecs.dtype != np.float32:
        vecs = np.asarray(vecs, dtype=np.float64)
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
        vecs = vecs.astype(np.float64)  # the only round-free case: a copy, never the input
    first = np.tile(np.arange(n), (clips, 1))  # smallest source of each current token
    owner = first.copy()
    clip_ids = np.arange(clips)[:, None]
    while n > target:
        r = min(n // 2, n - target)
        # The survivors' array is allocated before the similarity pass, whose
        # block and unit rows, freed on its return, leave a hole for later
        # temporaries. Allocated after the pass, the array often did not fit
        # that hole and extended the heap: merge-long's peak RSS rose 4 MiB.
        new = np.empty((clips * (n - r), dim))
        best, best_sim = _best_matches(vecs)
        ranked = np.argsort(-best_sim, axis=1, kind="stable")[:, :r]
        src, dst = 2 * ranked, 2 * np.take_along_axis(best, ranked, axis=1) + 1
        # Flat row ids clip·n + i let one pass serve the whole stack.
        flat_src, flat_dst = (clip_ids * n + src).ravel(), (clip_ids * n + dst).ravel()
        flat_first = first.reshape(-1)
        np.minimum.at(flat_first, flat_dst, flat_first[flat_src])
        flat_first[flat_src] = owner.shape[1]  # merged-away rows sort last and are dropped
        order = np.argsort(first, axis=1)
        position = np.empty_like(order)
        np.put_along_axis(position, order, np.arange(n), axis=1)  # the inverse of order
        position.reshape(-1)[flat_src] = position.reshape(-1)[flat_dst]
        owner = np.take_along_axis(position, owner, axis=1)
        # Survivors go into half-size arrays before the merges, which then read
        # each source from the old array: sources are even rows and
        # destinations odd, so no source has been merged into yet.
        keep = (clip_ids * n + order[:, : n - r]).ravel()
        n -= r
        old, old_sizes = vecs.reshape(-1, dim), sizes.reshape(-1)
        for lo in range(0, len(keep), n):  # one clip's survivors, widened if float32
            new[lo : lo + n] = old.take(keep[lo : lo + n], axis=0)
        new_sizes = old_sizes.take(keep)
        first = first.reshape(-1).take(keep).reshape(clips, n)
        into = (clip_ids * n + np.take_along_axis(position, dst, axis=1)).ravel()
        # Merges into one destination must run in rank order to reproduce the
        # running average bit for bit. Sorted by destination, ties in rank
        # order, each merge's running size is a cumsum over its destination's
        # segment, so every size is known before a vector moves. Wave k then
        # applies each destination's k-th merge: new = (a·source + p·new) / t.
        by_dst = _stable_order(flat_dst)
        s, d = flat_src[by_dst], into[by_dst]
        starts = np.r_[True, d[1:] != d[:-1]]
        seg = np.maximum.accumulate(np.where(starts, np.arange(len(d)), 0))  # segment starts
        added = old_sizes[s]
        ran = np.cumsum(added)
        total = new_sizes[d] + ran - (ran[seg] - added[seg])
        ends = np.r_[starts[1:], True]
        new_sizes[d[ends]] = total[ends]
        wave = np.arange(len(d)) - seg
        by_wave = _stable_order(wave)
        s, d = s[by_wave], d[by_wave]
        a, t = added[by_wave, None].astype(np.float64), total[by_wave, None].astype(np.float64)
        p = t - a
        # Waves run in pieces of at most _WAVE_ROWS rows. A whole wave's
        # temporaries reach megabytes, and on merge-long-sized stacks they
        # fragmented the heap into a 4 MiB higher peak RSS; pieces stay small.
        cuts = np.union1d(np.cumsum(np.bincount(wave)), np.arange(0, len(d), _WAVE_ROWS))
        for lo, hi in itertools.pairwise(cuts.tolist()):
            x = old.take(s[lo:hi], axis=0).astype(np.float64, copy=False)
            x *= a[lo:hi]
            y = new.take(d[lo:hi], axis=0)
            y *= p[lo:hi]
            x += y
            x /= t[lo:hi]
            new[d[lo:hi]] = x
        vecs, sizes = new.reshape(clips, n, dim), new_sizes.reshape(clips, n)
    return (vecs[0], sizes[0], owner[0]) if one_clip else (vecs, sizes, owner)


def spatial_downsample(frames: np.ndarray, factor: int) -> Columns:
    """Block-mean pool each (rows, cols, dim) frame of `frames` by `factor`.

    Produces (rows/factor) * (cols/factor) tokens of size factor² per frame,
    frame by frame in row-major block order.
    """
    frames = np.asarray(frames)
    if frames.ndim != 4:
        raise DomainError("frames must have shape (frames, rows, cols, dim)")
    count, rows, cols, dim = frames.shape
    if rows % factor or cols % factor:
        raise DomainError(f"factor {factor} does not divide frame grid {rows}x{cols}")
    br, bc = rows // factor, cols // factor
    # One copy gathers each block's values and widens them to float64.
    blocks = np.empty((count * br * bc, factor * factor, dim))
    blocks.reshape(count, br, bc, factor, factor, dim)[...] = frames.reshape(
        count, br, factor, bc, factor, dim
    ).transpose(0, 1, 3, 2, 4, 5)
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
    scores = queries @ k.T
    # The softmax runs in place, so the (queries, tokens) scores are the one
    # array of their size.
    scores /= temperature * math.sqrt(k.shape[1])
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores @ v


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
    grid: TokenGrid, config: ConnectorConfig, counts: list[int]
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """The video's (queries, wk, wv), with ``config.queries`` query rows.

    Refuses, before drawing queries or allocating any output, queries whose
    arrays would pass BYTES_CAP; ``counts`` are the clips' output rows. The
    check counts the video's queries, four (queries, tokens) arrays for the
    largest clip, a bound above the one scores array the in-place softmax
    holds, and the output twice, a bound above the context's rows and one
    clip's output, at the width of a weights file's ``wv``, else the grid's.
    """
    queries = wk = wv = None
    if config.weights_path is not None:
        path = config.weights_path
        queries, wk, wv = _read_weights(path)
        for name, w, rows in (("queries", queries, config.queries), ("wk", wk, grid.dim),
                              ("wv", wv, grid.dim)):
            if w is not None and (w.ndim != 2 or w.shape[0] != rows or w.shape[1] < 1):
                raise DomainError(f"weights file {path} holds {name} of shape {w.shape},"
                                  f" need ({rows}, d) with d >= 1")
        key_dim = grid.dim if wk is None else wk.shape[1]
        if queries.shape[1] != key_dim:
            raise DomainError(
                f"weights file {path} holds queries of {queries.shape[1]} columns,"
                f" need the key dim {key_dim}"
            )
    tokens = min(config.clip_len, grid.frames) * grid.rows * grid.cols
    width = grid.dim if wv is None else wv.shape[1]
    needed = 8 * (config.queries * grid.dim + 4 * counts[0] * tokens + 2 * sum(counts) * width)
    check_bytes(needed, f"--queries {config.queries} on clips of {tokens} tokens")
    if queries is None:
        rng = np.random.default_rng(config.query_seed)
        queries = rng.standard_normal((config.queries, grid.dim)) / math.sqrt(grid.dim)
    return queries, wk, wv


def _clip_outputs(config: ConnectorConfig, frames: int, rows: int, cols: int) -> int:
    """The rows a clip of `frames` frames compresses to, known before any connector runs.

    A pooling factor that does not divide the grid, or a merge budget above
    the clip's tokens, is refused by its connector; the count is floored or
    capped only so that the allocation made before the refusal stays small.
    """
    if config.kind == "merge":
        return min(scaled_budget(config.budget, frames, config.clip_len), frames * rows * cols)
    if config.kind == "resampler":
        return scaled_budget(config.queries, frames, config.clip_len)
    uneven = config.kind == "uneven"
    first, rest = (config.f_first, config.f_rest) if uneven else (config.factor, config.factor)
    return (rows // first) * (cols // first) + (frames - 1) * (rows // rest) * (cols // rest)


def _compress_stack(
    stack: np.ndarray, config: ConnectorConfig, weights, vectors, sizes, owner, first_row: int
) -> None:
    """Compress a stack of equal-length clips, (clips, frames, rows, cols, dim),
    into the stack's rows of the context's ``vectors`` and ``sizes``.

    ``owner`` covers the stack's inputs (None for the resampler) and holds
    context rows, counted from ``first_row``. Merge runs the whole stack
    through tome_merge in lockstep; the other kinds compress one clip at a
    time. Merge and resampler budgets are scaled to the clips' frame count,
    and a short clip reads the first rows of the video's resampler
    ``weights`` (queries, wk, wv).
    """
    clips, count, rows, cols, dim = stack.shape
    per = len(sizes) // clips
    if config.kind == "merge":
        tokens = stack.reshape(clips, -1, dim)
        if config.st_temperature is not None:
            mixed = np.empty(tokens.shape)
            for clip, out in zip(tokens, mixed):
                out[...] = st_mix(clip, config.st_temperature)
            tokens = mixed
        outputs = zip(*tome_merge(tokens, scaled_budget(config.budget, count, config.clip_len)))
    elif config.kind == "spatial":
        outputs = (spatial_downsample(frames, config.factor) for frames in stack)
    elif config.kind == "uneven":
        outputs = (uneven_downsample(frames, config.f_first, config.f_rest) for frames in stack)
    else:
        queries, wk, wv = weights
        outputs = (
            (resampler_forward(frames.reshape(-1, dim), queries[:per], wk, wv, config.temperature),
             count * rows * cols, None)
            for frames in stack
        )
    for c, (v, s, o) in enumerate(outputs):
        vectors[c * per : (c + 1) * per], sizes[c * per : (c + 1) * per] = v, s
        if o is not None:
            np.add(o, first_row + c * per, out=owner[c * len(o) : (c + 1) * len(o)])
    if config.kind == "resampler" and not np.all(np.isfinite(vectors)):
        path = config.weights_path
        cause = f"--temperature {config.temperature}" if path is None else f"weights file {path}"
        raise DomainError(f"resampler outputs with {cause} are non-finite")


def compress_video(grid: TokenGrid, config: ConnectorConfig) -> VisualContext:
    """Cut a video grid into clips, compress each, and join them in clip order.

    Clip i spans frames [i·clip_len, min((i+1)·clip_len, frames)). A short
    final clip gets a proportionally smaller budget so the average
    tokens-per-frame rate stays constant across the video. The columns are
    allocated once, before any connector runs; the full clips go to
    ``_compress_stack`` as one stack, a view of the grid, and a short final
    clip as a second.
    """
    frames, rows, cols, dim = grid.data.shape
    lengths = [min(config.clip_len, frames - a) for a in range(0, frames, config.clip_len)]
    counts = [_clip_outputs(config, n, rows, cols) for n in lengths]
    weights = _resampler_weights(grid, config, counts) if config.kind == "resampler" else None
    width = dim if weights is None or weights[2] is None else weights[2].shape[1]  # wv's columns
    offsets = list(itertools.accumulate(counts, initial=0))
    vectors, sizes = np.empty((offsets[-1], width)), np.empty(offsets[-1], np.int64)
    owner = None if config.kind == "resampler" else np.empty(grid.token_count, np.int64)
    full = frames // config.clip_len
    for first, last in (0, full), (full, len(lengths)):  # the stack's clips
        a, b = first * config.clip_len, min(last * config.clip_len, frames)  # and its frames
        if a < b:
            lo, hi = offsets[first], offsets[last]
            inputs = None if owner is None else owner[a * rows * cols : b * rows * cols]
            stack = grid.data[a:b].reshape(last - first, -1, rows, cols, dim)
            _compress_stack(stack, config, weights, vectors[lo:hi], sizes[lo:hi], inputs, lo)
    return VisualContext(vectors, sizes, owner, offsets[:-1], [n * rows * cols for n in lengths])


def conservation_residual(inputs: TokenGrid, context: VisualContext) -> float:
    """Relative error between input token mass and size-weighted output mass.

    Zero up to float noise where each output is the size-weighted mean of its
    inputs. A merge with ``st_temperature`` averages the mixed tokens, so its
    residual is how far the mix moved the mass.
    """
    flat = inputs.data.reshape(-1, inputs.dim)
    vectors, sizes = context.vectors(), context.sizes[:, None]
    in_sum = _column_sums(flat.shape, lambda lo, hi, out: np.copyto(out, flat[lo:hi]))
    out_sum = _column_sums(
        vectors.shape, lambda lo, hi, out: np.multiply(sizes[lo:hi], vectors[lo:hi], out=out)
    )
    denom = max(float(np.linalg.norm(in_sum)), 1e-30)
    return float(np.linalg.norm(out_sum - in_sum)) / denom


def _column_sums(shape: tuple[int, int], fill) -> np.ndarray:
    """Float64 column sums of an (n, dim) array that ``fill(lo, hi, out)``
    writes a chunk of rows at a time, at most _SCAN_VALUES values behind one
    row holding the running sum. numpy sums a block of two or more columns
    row by row, so the bits are those of the whole array's float64 sum."""
    n, dim = shape
    step = max(1, _SCAN_VALUES // dim)
    acc = np.empty((min(step, n) + 1, dim))  # np.zeros timed 5% slower
    acc[0] = 0.0
    for lo in range(0, n, step):
        part = acc[: min(step, n - lo) + 1]
        fill(lo, lo + step, part[1:])
        acc[0] = part.sum(axis=0)
    return acc[0].copy()  # a view would keep the chunk alive
