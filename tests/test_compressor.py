import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    best_merge_variance,
    clip_tokens,
    cluster_vectors,
    ref_compress_video,
    ref_tome_merge,
    RefToken,
    tome_groups,
    traced_peak,
    within_merge_variance,
)
from hico import compressor as cp
from hico.errors import DomainError


def merged_tokens(vecs, target):
    """tome_merge on a single-row clip of unit tokens, read back as tokens."""
    vecs = np.asarray(vecs, dtype=float)
    vectors, sizes, owner = cp.tome_merge(vecs, target)
    return clip_tokens([cp.CompressedClip(vectors, sizes, owner, (0, 1), (1, len(vecs)))])


def rand_grid(seed, shape=(4, 4, 4, 8)):
    return cp.TokenGrid(np.random.default_rng(seed).standard_normal(shape))


# ---------------------------------------------------------------------------
# grids and clips


def test_grid_rejects_bad_shapes():
    with pytest.raises(DomainError):
        cp.TokenGrid(np.zeros((0, 2, 2, 4)))
    with pytest.raises(DomainError):
        cp.TokenGrid(np.zeros((2, 2, 4)))
    bad = np.zeros((1, 1, 1, 2))
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(DomainError):
        cp.TokenGrid(bad)


@pytest.mark.parametrize(
    "frames,clip_len,sizes",
    [(8, 4, [4, 4]), (10, 4, [4, 4, 2]), (4, 4, [4]), (3, 5, [3])],
)
def test_segment_clips(frames, clip_len, sizes):
    grid = cp.TokenGrid(np.zeros((frames, 2, 2, 3)))
    # Both kinds get the full clips as one stack and a short one as another;
    # merge compresses a stack in lockstep, spatial clip by clip.
    for kind in ("merge", "spatial"):
        config = cp.ConnectorConfig(kind=kind, budget=1, factor=1, clip_len=clip_len)
        clips = cp.compress_video(grid, config).clips
        spans = [c.frame_span for c in clips]
        assert [end - start for start, end in spans] == sizes
        assert spans[0][0] == 0 and spans[-1][1] == frames
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))


COLUMNS = r"need a \(tokens, dim\)"
OWNER = "owner must map"
SIZES = "token size must equal"


@pytest.mark.parametrize(
    "vectors, sizes, owner, message",
    [
        (np.zeros(2), [1, 1], [0, 1], COLUMNS),
        (np.zeros((1, 2, 1)), [2], [0, 0], COLUMNS),
        (np.zeros((2, 1)), [2], [0, 0], COLUMNS),
        (np.zeros((2, 1)), [2, 0], [0, 0], COLUMNS),
        (np.zeros((2, 1)), [1, 1], [0, 1, 1], OWNER),
        (np.zeros((2, 1)), [1, 1], [0], OWNER),
        (np.zeros((2, 1)), [1, 1], [0, 2], OWNER),
        (np.zeros((2, 1)), [1, 1], [-1, 1], OWNER),
        (np.zeros((2, 1)), [1, 1], [0, 0], SIZES),
        (np.zeros((2, 1)), [3, 3], cp.WHOLE_CLIP, SIZES),
        (np.zeros((2, 1)), [1, 1], cp.WHOLE_CLIP, SIZES),
    ],
    ids=[
        "1-d-vectors", "3-d-vectors", "short-sizes", "size-zero", "long-owner",
        "short-owner", "owner-past-end", "negative-owner", "sizes-not-bincount",
        "whole-clip-too-big", "whole-clip-too-small",
    ],
)
def test_compressed_clip_rejects_inconsistent_columns(vectors, sizes, owner, message):
    # One frame of 1x2 inputs; each case breaks one rule of the columns.
    with pytest.raises(DomainError, match=message):
        cp.CompressedClip(vectors, sizes, owner, (0, 1), (1, 2))


# ---------------------------------------------------------------------------
# st_mix


def test_st_mix_identical_tokens_fixed_point():
    v = np.array([1.0, -2.0, 0.5])
    tokens = np.tile(v, (8, 1))
    out = cp.st_mix(tokens, temperature=1.0)
    assert np.allclose(out, tokens)


def test_st_mix_single_token_unchanged():
    tokens = np.arange(4.0).reshape(1, 4)
    out = cp.st_mix(tokens, temperature=0.7)
    assert np.allclose(out, tokens)


def test_st_mix_high_temperature_approaches_mean():
    # Closed form for two orthonormal tokens: the score rows are
    # [a, 0] and [0, a] with a = 1 / (temperature * sqrt(dim)), so each
    # output is softmax([a, 0]) . (x0, x1); as temperature grows both
    # weights tend to 1/2 and the outputs tend to the token mean.
    x0 = np.array([1.0, 0.0])
    x1 = np.array([0.0, 1.0])
    temperature = 1e6
    out = cp.st_mix(np.stack([x0, x1]), temperature=temperature)
    a = 1.0 / (temperature * math.sqrt(2))
    w = math.exp(a) / (math.exp(a) + 1.0)
    expected0 = w * x0 + (1 - w) * x1
    assert np.allclose(out[0], expected0, atol=1e-12)
    mean = (x0 + x1) / 2
    assert np.linalg.norm(out[0] - mean) < 1e-5
    assert np.linalg.norm(out[1] - mean) < 1e-5


def test_st_mix_preserves_shape_and_finiteness():
    tokens = rand_grid(3, (3, 2, 5, 7)).data.reshape(-1, 7)
    out = cp.st_mix(tokens, temperature=0.5)
    assert out.shape == tokens.shape
    assert np.all(np.isfinite(out))


def test_st_mix_rejects_bad_temperature():
    with pytest.raises(DomainError):
        cp.st_mix(rand_grid(0, (1, 2, 2, 3)).data.reshape(-1, 3), temperature=0.0)


def test_st_mix_non_finite_is_domain_error():
    # The scores overflow to inf, and the softmax of an inf row is NaN.
    with np.errstate(all="ignore"), pytest.raises(DomainError, match="attention mix produced"):
        cp.st_mix(np.array([[1e200, 0.0], [0.0, 1e200]]), 1.0)


def test_st_mix_rejects_non_2d_tokens():
    with pytest.raises(DomainError):
        cp.st_mix(rand_grid(0, (1, 2, 2, 3)).data, temperature=1.0)


# ---------------------------------------------------------------------------
# tome_merge


def test_tome_identical_vectors_collapse():
    out = merged_tokens([[2.0, 3.0]] * 4, 1)
    assert len(out) == 1
    assert out[0].size == 4
    assert np.allclose(out[0].vector, [2.0, 3.0])


def test_tome_pairs_by_similarity():
    vecs = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
    out = merged_tokens(vecs, 2)
    assert [t.size for t in out] == [2, 2]
    assert np.allclose(out[0].vector, [1.0, 0.0])
    assert np.allclose(out[1].vector, [0.0, 1.0])
    assert out[0].sources == {(0, 0, 0), (0, 0, 1)}
    assert out[1].sources == {(0, 0, 2), (0, 0, 3)}


def test_tome_size_weighted_mean():
    # a holds one source and b three, so the merged mean is (0 + 3 * 4) / 4.
    vectors, sizes, owner = cp.tome_merge(np.array([[0.0], [4.0]]), 1, sizes=[1, 3])
    assert sizes[0] == 4
    assert np.allclose(vectors[0], [3.0])
    assert owner.tolist() == [0, 0]


def test_tome_identity_when_target_equals_count():
    vecs = np.random.default_rng(5).standard_normal((6, 3))
    out = merged_tokens(vecs, 6)
    assert [min(t.sources) for t in out] == [(0, 0, i) for i in range(6)]
    for before, after in zip(vecs, out):
        assert np.array_equal(before, after.vector)
        assert after.size == 1


def test_tome_zero_norm_vectors_score_zero():
    vecs = [[0.0, 0.0], [0.0, 0.0], [3.0, 0.0], [3.0, 0.0]]
    out = merged_tokens(vecs, 2)
    assert [t.size for t in out] == [2, 2]
    assert np.allclose(out[0].vector, [0.0, 0.0])
    assert np.allclose(out[1].vector, [3.0, 0.0])


def test_tome_rejects_bad_targets():
    tokens = np.array([[1.0], [2.0]])
    with pytest.raises(DomainError):
        cp.tome_merge(tokens, 3)
    with pytest.raises(DomainError):
        cp.tome_merge(tokens, 0)


def test_tome_output_sorted_by_min_source():
    rng = np.random.default_rng(11)
    for _ in range(20):
        out = merged_tokens(rng.standard_normal((12, 4)), int(rng.integers(1, 12)))
        keys = [min(t.sources) for t in out]
        assert keys == sorted(keys)


def test_tome_conserves_mass():
    rng = np.random.default_rng(7)
    for _ in range(25):
        vecs = rng.standard_normal((24, 5))
        out = merged_tokens(vecs, int(rng.integers(1, 24)))
        merged_sum = sum(t.size * t.vector for t in out)
        assert np.allclose(merged_sum, vecs.sum(axis=0), rtol=1e-9, atol=1e-9)
        assert sum(t.size for t in out) == 24


def test_tome_tracks_variance_oracle_on_clustered_tokens():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 9))
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, min(d, n - 1) + 1))
        vecs = cluster_vectors(rng, n, d, k, noise=0.0 if seed % 2 else 0.02)
        got = within_merge_variance(vecs, tome_groups(vecs, k))
        best = best_merge_variance(vecs, k)
        assert got <= 1.10 * best + 1e-9


# ---------------------------------------------------------------------------
# downsampling


def test_spatial_block_means():
    frame = np.arange(4 * 4 * 2, dtype=float).reshape(4, 4, 2)
    # Frame 3 of a four-frame video is its own clip when clip_len is 1.
    grid = cp.TokenGrid(np.concatenate([np.zeros((3, 4, 4, 2)), frame[None]]))
    config = cp.ConnectorConfig(kind="spatial", factor=2, clip_len=1)
    out = clip_tokens([cp.compress_video(grid, config).clips[3]])
    assert len(out) == 4
    for t, (br, bc) in zip(out, [(0, 0), (0, 1), (1, 0), (1, 1)]):
        block = frame[br * 2 : br * 2 + 2, bc * 2 : bc * 2 + 2].reshape(-1, 2)
        assert np.allclose(t.vector, block.mean(axis=0))
        assert t.size == 4
        assert all(src[0] == 3 for src in t.sources)


def test_spatial_sixteen_tokens_per_frame():
    frame = np.random.default_rng(0).standard_normal((1, 16, 16, 6))
    vectors, sizes, _ = cp.spatial_downsample(frame, 4)
    assert len(vectors) == 16
    assert all(size == 16 for size in sizes)


def test_spatial_constant_grid():
    frame = np.full((1, 4, 4, 3), 2.5)
    vectors, sizes, _ = cp.spatial_downsample(frame, 2)
    assert all(np.allclose(v, 2.5) for v in vectors)
    assert all(size == 4 for size in sizes)


def test_spatial_rejects_nondivisible_factor():
    with pytest.raises(DomainError):
        cp.spatial_downsample(np.zeros((1, 4, 4, 2)), 3)


def test_uneven_token_count():
    grid = cp.TokenGrid(np.random.default_rng(1).standard_normal((4, 16, 16, 3)))
    vectors, sizes, owner = cp.uneven_downsample(grid.data, 2, 8)
    assert len(vectors) == len(sizes) == 64 + 3 * 4


def test_uneven_equal_factors_matches_spatial():
    grid = rand_grid(2, (3, 4, 4, 5))
    uneven = cp.uneven_downsample(grid.data, 2, 2)
    spatial = cp.spatial_downsample(grid.data, 2)
    assert len(uneven[0]) == len(spatial[0])
    assert np.allclose(uneven[0], spatial[0])
    assert np.array_equal(uneven[2], spatial[2])


def test_uneven_single_frame_matches_spatial():
    grid = rand_grid(4, (1, 4, 4, 3))
    uneven, _, _ = cp.uneven_downsample(grid.data, 2, 4)
    spatial, _, _ = cp.spatial_downsample(grid.data, 2)
    for a, b in zip(uneven, spatial):
        assert np.allclose(a, b)


def test_uneven_rejects_inverted_factors():
    with pytest.raises(DomainError):
        cp.uneven_downsample(rand_grid(5, (2, 4, 4, 3)).data, 4, 2)


# ---------------------------------------------------------------------------
# resampler


def test_resampler_single_token_identity():
    t = np.array([[1.0, 2.0, 3.0]])
    out = cp.resampler_forward(t, t)
    assert np.allclose(out, t)


def test_resampler_identical_inputs():
    v = np.array([0.5, -1.0])
    tokens = np.tile(v, (7, 1))
    queries = np.random.default_rng(2).standard_normal((3, 2))
    out = cp.resampler_forward(tokens, queries)
    assert out.shape == (3, 2)
    assert np.allclose(out, v)


def test_resampler_low_temperature_selects_aligned_input():
    tokens = np.array([[1.0, 0.0], [0.0, 1.0]])
    queries = np.array([[1.0, 0.0]])
    out = cp.resampler_forward(tokens, queries, temperature=1e-3)
    assert np.allclose(out, [[1.0, 0.0]], atol=1e-9)


def test_resampler_dimension_mismatch():
    with pytest.raises(DomainError):
        cp.resampler_forward(np.zeros((2, 3)), np.zeros((1, 4)))


# ---------------------------------------------------------------------------
# compress_video


def test_compress_clip_merge_budget():
    grid = cp.TokenGrid(np.random.default_rng(9).standard_normal((4, 16, 16, 8)))
    out = cp.compress_video(grid, cp.ConnectorConfig(kind="merge", budget=64))
    assert len(out.clips) == 1
    assert len(out.sizes) == 64
    assert out.sizes.sum() == 1024


def test_compress_clip_budget_equals_count_is_identity():
    grid = rand_grid(10, (2, 2, 2, 4))
    out = cp.compress_video(grid, cp.ConnectorConfig(kind="merge", budget=8, clip_len=2))
    flat = grid.data.reshape(-1, 4)
    assert len(out.sizes) == 8
    for vector, size, v in zip(out.vectors(), out.sizes, flat):
        assert np.array_equal(vector, v)
        assert size == 1


def test_compress_clip_merge_with_st_mix():
    grid = rand_grid(12, (4, 4, 4, 6))
    cfg = cp.ConnectorConfig(kind="merge", budget=8, st_temperature=1.0)
    out = cp.compress_video(grid, cfg)
    assert len(out.sizes) == 8
    assert out.sizes.sum() == 64


def test_compress_clip_resampler_budget():
    grid = rand_grid(13, (4, 4, 4, 6))
    out = cp.compress_video(grid, cp.ConnectorConfig(kind="resampler", queries=5, budget=5))
    assert len(out.sizes) == 5
    assert np.all(out.sizes == 64)


def test_concat_context_offsets():
    grid = rand_grid(14, (8, 4, 4, 3))
    cfg = cp.ConnectorConfig(kind="merge", budget=64 // 8)
    ctx = cp.compress_video(grid, cfg)
    assert ctx.clip_offsets == [0, 8]
    assert len(ctx.sizes) == 16


@pytest.mark.parametrize("kind", cp.CONNECTOR_KINDS)
def test_clip_indices_count_up_and_spans_tile_the_video(kind):
    grid = rand_grid(15, (10, 2, 2, 3))
    cfg = cp.ConnectorConfig(kind=kind, budget=4, queries=4, factor=2, f_first=2, f_rest=2)
    clips = cp.compress_video(grid, cfg).clips
    starts = [c.frame_span[0] for c in clips]
    ends = [c.frame_span[1] for c in clips]
    assert starts == [0] + ends[:-1]
    assert ends[-1] == grid.frames
    assert all(start < end for start, end in zip(starts, ends))


def test_compress_video_scales_final_clip_budget():
    grid = rand_grid(16, (10, 4, 4, 3))
    ctx = cp.compress_video(grid, cp.ConnectorConfig(kind="merge", budget=8, clip_len=4))
    # clips of 4, 4, 2 frames -> budgets 8, 8, ceil(8 * 2/4) = 4
    assert ctx.clip_offsets == [0, 8, 16]
    assert len(ctx.sizes) == 20
    assert ctx.sizes.sum() == grid.token_count


@pytest.mark.parametrize("kind", ["merge", "spatial", "uneven"])
def test_compress_video_conserves_mass(kind):
    cfg = cp.ConnectorConfig(
        kind=kind, budget=8, clip_len=4, factor=2, f_first=2, f_rest=4
    )
    for seed in range(10):
        grid = rand_grid(100 + seed)
        ctx = cp.compress_video(grid, cfg)
        assert cp.conservation_residual(grid, ctx) < 1e-6


def test_compression_ratio_strings():
    assert f"{100 * 16 / 729:.2f}" == "2.19"
    assert f"{100 * 64 / 1024:.2f}" == "6.25"


# ---------------------------------------------------------------------------
# equivalence with the per-token reference connectors


def oracle_grid(seed, kind, shape):
    """Grids that stress tie-breaking: duplicates, zero rows and clusters."""
    rng = np.random.default_rng(seed)
    if kind == "ties":
        data = rng.integers(-1, 2, size=shape).astype(float)
    elif kind == "clusters":
        centroids = rng.standard_normal((3, shape[-1]))
        data = centroids[rng.integers(0, 3, size=shape[:-1])]
        data += 1e-3 * rng.standard_normal(shape) * rng.integers(0, 2)
    else:
        data = rng.standard_normal(shape)
    data[rng.random(shape[:-1]) < 0.15] = 0.0
    return cp.TokenGrid(data)


def assert_same_tokens(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.vector, b.vector)
        assert a.size == b.size
        assert a.sources == b.sources


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["ties", "clusters", "gaussian"]),
    frames=st.integers(1, 7),
    side=st.sampled_from([2, 4]),
    dim=st.integers(1, 5),
    clip_len=st.integers(1, 4),
    budget_frac=st.floats(0.0, 1.0),
    st_temperature=st.sampled_from([None, 0.5, 3.0]),
    queries=st.integers(1, 5),
)
@example(seed=1, kind="ties", frames=5, side=2, dim=2, clip_len=2, budget_frac=1.0,
         st_temperature=None, queries=1)
@example(seed=2, kind="clusters", frames=3, side=4, dim=3, clip_len=2, budget_frac=0.0,
         st_temperature=0.5, queries=2)
def test_connectors_match_reference(
    seed, kind, frames, side, dim, clip_len, budget_frac, st_temperature, queries
):
    grid = oracle_grid(seed, kind, (frames, side, side, dim))
    budget = 1 + round(budget_frac * (clip_len * side * side - 1))
    configs = [
        cp.ConnectorConfig(kind="merge", budget=budget, clip_len=clip_len,
                           st_temperature=st_temperature),
        cp.ConnectorConfig(kind="spatial", factor=side // 2 or 1, clip_len=clip_len),
        # One-frame clips never apply f_rest, so it need not divide the grid.
        cp.ConnectorConfig(kind="uneven", f_first=1, f_rest=side * (1 + (clip_len == 1)),
                           clip_len=clip_len),
        cp.ConnectorConfig(kind="resampler", queries=queries, clip_len=clip_len,
                           query_seed=seed % 7, temperature=0.5 + budget_frac),
    ]
    for config in configs:
        ctx = cp.compress_video(grid, config)
        want = ref_compress_video(grid, config)
        assert ctx.clip_offsets == list(np.cumsum([0] + [len(c) for c in want[:-1]]))
        assert_same_tokens(clip_tokens(ctx.clips), [t for clip in want for t in clip])


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    dim=st.integers(1, 4),
    target_frac=st.floats(0.0, 1.0),
    levels=st.integers(1, 3),
)
def test_tome_merge_matches_reference_with_sizes(seed, n, dim, target_frac, levels):
    rng = np.random.default_rng(seed)
    vecs = rng.integers(-levels, levels + 1, size=(n, dim)).astype(float)
    sizes = rng.integers(1, 4, size=n)
    target = 1 + round(target_frac * (n - 1))
    assert_merge_matches_reference(vecs, sizes, target, cp.tome_merge(vecs, target, sizes=sizes))


def assert_merge_matches_reference(vecs, sizes, target, columns):
    """`columns` from tome_merge equal ref_tome_merge on tokens with `sizes`."""
    # Input row i holds the consecutive sources starting at first[i].
    first = np.cumsum(np.r_[0, sizes[:-1]])
    tokens = [
        RefToken(v, int(s), frozenset((0, 0, int(f) + k) for k in range(s)))
        for v, s, f in zip(vecs, sizes, first)
    ]
    want = ref_tome_merge(tokens, target)
    vectors, out_sizes, owner = columns
    assert len(vectors) == len(want)
    for j, t in enumerate(want):
        assert np.array_equal(vectors[j], t.vector)
        assert out_sizes[j] == t.size
        members = np.flatnonzero(owner == j)
        assert t.sources == frozenset((0, 0, int(first[i]) + k) for i in members for k in range(sizes[i]))


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    clips=st.integers(1, 3),
    n=st.integers(120, 200),
    dim=st.integers(2, 5),
    target_frac=st.floats(0.0, 1.0),
)
@example(seed=0, clips=2, n=200, dim=2, target_frac=0.0)
def test_tome_merge_long_wave_chains(seed, clips, n, dim, target_frac):
    # Every A token (even row) lies near its clip's unit hub, row 1, and the
    # other B tokens point away from it, so every A token picks the hub and
    # round 1 merges r >= 50 of them into it one after another: a wave chain
    # of at least 50.
    rng = np.random.default_rng(seed)
    hub = rng.standard_normal((clips, 1, dim))
    hub /= np.linalg.norm(hub, axis=-1, keepdims=True)
    stack = -hub + 0.1 * rng.standard_normal((clips, n, dim))
    stack[:, 0::2] = hub + 0.05 * rng.standard_normal((clips, (n + 1) // 2, dim))
    stack[:, 1] = hub[:, 0]
    sizes = rng.integers(1, 5, size=(clips, n))
    target = 1 + round(target_frac * (n - 51))
    vectors, out_sizes, owner = cp.tome_merge(stack, target, sizes=sizes)
    for c in range(clips):
        assert np.count_nonzero(owner[c] == owner[c, 1]) > 50
        columns = (vectors[c], out_sizes[c], owner[c])
        alone = cp.tome_merge(stack[c], target, sizes=sizes[c])
        assert all(np.array_equal(x, y) for x, y in zip(columns, alone))
        assert_merge_matches_reference(stack[c], sizes[c], target, columns)


def stack_clip(rng, kind, n, dim, levels):
    """One clip of a stack: small integer levels (ties), one repeated row, or gaussian."""
    if kind == "same":
        vecs = np.repeat(rng.integers(-levels, levels + 1, size=(1, dim)), n, axis=0)
    elif kind == "levels":
        vecs = rng.integers(-levels, levels + 1, size=(n, dim))
        vecs[rng.random(n) < 0.3] = vecs[0]  # exact duplicates of one row
    else:
        vecs = rng.standard_normal((n, dim))
    vecs = vecs.astype(float)
    vecs[rng.random(n) < 0.15] = 0.0
    return vecs


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(["levels", "same", "gaussian"]), min_size=1, max_size=5),
    n=st.integers(1, 40),
    dim=st.integers(1, 4),
    target_frac=st.floats(0.0, 1.0),
    levels=st.integers(1, 3),
    unit=st.booleans(),
)
@example(seed=3, kinds=["same", "gaussian", "levels", "same", "levels"], n=40, dim=2,
         target_frac=0.0, levels=1, unit=False)
def test_tome_merge_stack_matches_each_clip_alone(seed, kinds, n, dim, target_frac, levels, unit):
    rng = np.random.default_rng(seed)
    stack = np.stack([stack_clip(rng, kind, n, dim, levels) for kind in kinds])
    sizes = None if unit else rng.integers(1, 5, size=stack.shape[:2])
    target = 1 + round(target_frac * (n - 1))
    vectors, out_sizes, owner = cp.tome_merge(stack, target, sizes=sizes)
    assert vectors.shape == (len(kinds), target, dim)
    for c in range(len(kinds)):
        alone = cp.tome_merge(stack[c], target, sizes=None if unit else sizes[c])
        assert np.array_equal(vectors[c], alone[0])
        assert np.array_equal(out_sizes[c], alone[1])
        assert np.array_equal(owner[c], alone[2])


def test_tome_merge_peak_memory_stays_near_the_stack():
    # A round holds the half-size survivors, one clip's similarity block and
    # unit rows, and small wave pieces; no array is as large as the stack.
    # The peak reads 1.18x to 1.32x the stack's bytes (the higher on a
    # process's first call); the two-normalisation round before it read
    # 1.91x, and whole-stack normalisation, whole waves or a round's sources
    # gathered up front read 1.66x or more. It counts bytes allocated, not
    # time, so it is deterministic.
    stack = np.random.default_rng(0).standard_normal((16, 1024, 64))
    assert traced_peak(cp.tome_merge, stack, 16) <= 1.5 * stack.nbytes


def test_tome_merge_of_float32_stack_peak_memory():
    # Round 1 reads the float32 stack as it is: the float64 survivors, one
    # widened clip with its unit rows and similarity block, and small wave
    # pieces. The peak reads 2.37x the float32 stack's bytes; widening the
    # whole stack on entry read 4.31x.
    stack = np.random.default_rng(0).standard_normal((16, 1024, 64)).astype(np.float32)
    assert traced_peak(cp.tome_merge, stack, 16) <= 2.75 * stack.nbytes


def test_tome_merge_leaves_its_inputs_alone():
    stack = np.random.default_rng(0).standard_normal((3, 8, 2))
    sizes = np.ones((3, 8), np.int64)
    before = stack.copy()
    for target in (8, 3):
        vectors, out_sizes, _ = cp.tome_merge(stack, target, sizes=sizes)
        vectors += 1.0
        out_sizes += 1
        assert np.array_equal(stack, before) and np.all(sizes == 1)


@pytest.mark.parametrize(
    "vectors, sizes",
    [
        (np.zeros(4), None),
        (np.zeros((2, 2, 4, 1)), None),
        (np.zeros((0, 4, 2)), None),
        (np.zeros((4, 2)), np.ones(3)),
        (np.zeros((2, 4, 2)), np.ones(4)),
        (np.zeros((2, 4, 2)), np.ones((4, 2))),
    ],
    ids=["1-d", "4-d", "no-clips", "short-sizes", "flat-stack-sizes", "transposed-sizes"],
)
def test_tome_merge_rejects_bad_shapes(vectors, sizes):
    with pytest.raises(DomainError):
        cp.tome_merge(vectors, 1, sizes=sizes)


# ---------------------------------------------------------------------------
# float32 grids


def assert_same_context(got, want):
    for a, b in zip(got.clips, want.clips, strict=True):
        assert a.vectors.dtype == b.vectors.dtype == np.float64
        assert a.vectors.tobytes() == b.vectors.tobytes()
        assert np.array_equal(a.sizes, b.sizes)
        assert (a.owner is None and b.owner is None) or np.array_equal(a.owner, b.owner)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    frames=st.integers(1, 7),
    side=st.sampled_from([2, 4]),
    dim=st.integers(1, 5),
    clip_len=st.integers(1, 4),
    budget_frac=st.floats(0.0, 1.0),
    st_temperature=st.sampled_from([0.5, 3.0]),
    queries=st.integers(1, 5),
)
# Three clips of two frames and a short final one of a single frame.
@example(seed=4, frames=7, side=4, dim=3, clip_len=2, budget_frac=0.3, st_temperature=0.5,
         queries=4)
def test_float32_grid_compresses_as_its_float64_values(
    seed, frames, side, dim, clip_len, budget_frac, st_temperature, queries
):
    # A float32 grid is widened only where a connector computes, so every
    # connector gives the same bytes as on a float64 grid of the same values.
    narrow = oracle_grid(seed, "gaussian", (frames, side, side, dim)).data.astype(np.float32)
    narrow, wide = cp.TokenGrid(narrow), cp.TokenGrid(narrow.astype(np.float64))
    assert narrow.data.dtype == np.float32 and wide.data.dtype == np.float64
    budget = 1 + round(budget_frac * (clip_len * side * side - 1))
    configs = [
        cp.ConnectorConfig(kind="merge", budget=budget, clip_len=clip_len),
        cp.ConnectorConfig(kind="merge", budget=budget, clip_len=clip_len,
                           st_temperature=st_temperature),
        cp.ConnectorConfig(kind="spatial", factor=side // 2, clip_len=clip_len),
        cp.ConnectorConfig(kind="uneven", f_first=1, f_rest=side, clip_len=clip_len),
        cp.ConnectorConfig(kind="resampler", queries=queries, clip_len=clip_len,
                           query_seed=seed % 7),
    ]
    for config in configs:
        got, want = cp.compress_video(narrow, config), cp.compress_video(wide, config)
        assert_same_context(got, want)
        assert cp.conservation_residual(narrow, got) == cp.conservation_residual(wide, want)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    clips=st.integers(0, 4),
    n=st.integers(1, 120),
    dim=st.integers(1, 39),
    target_frac=st.floats(0.0, 1.0),
    repeats=st.integers(0, 3),
    unit=st.booleans(),
)
# One 2-D clip with nothing to merge, and a stack with many duplicate and
# zero rows.
@example(seed=0, clips=0, n=5, dim=3, target_frac=1.0, repeats=0, unit=True)
@example(seed=2, clips=3, n=64, dim=4, target_frac=0.1, repeats=3, unit=False)
def test_tome_merge_of_float32_stack_matches_float64(
    seed, clips, n, dim, target_frac, repeats, unit
):
    # Round 1 widens only what it computes on, so a float32 stack merges to
    # the bytes of the same values widened first; clips=0 is one 2-D clip.
    rng = np.random.default_rng(seed)
    shape = (n, dim) if clips == 0 else (clips, n, dim)
    narrow = rng.standard_normal(shape).astype(np.float32)
    rows = narrow.reshape(-1, n, dim)
    for _ in range(repeats):  # duplicate rows, and zero rows (cosine 0 to all)
        rows[:, rng.integers(0, n, n // 2)] = rows[:, rng.integers(0, n, 1)]
        rows[:, rng.integers(0, n, n // 4)] = 0.0
    sizes = None if unit else rng.integers(1, 5, size=shape[:-1])
    target = 1 + round(target_frac * (n - 1))
    got = cp.tome_merge(narrow, target, sizes=sizes)
    want = cp.tome_merge(narrow.astype(np.float64), target, sizes=sizes)
    assert got[0].dtype == np.float64
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_conservation_residual_peak_memory():
    # A dim-64 float32 grid is summed straight into float64 accumulators:
    # the peak, numpy's cast buffers and the compressed context's sums, reads
    # 0.02x the grid's bytes. Widening the grid first read 2.00x.
    values = np.random.default_rng(0).standard_normal((64, 16, 16, 64))
    grid = cp.TokenGrid(values.astype(np.float32))
    context = cp.compress_video(grid, cp.ConnectorConfig(kind="spatial", factor=16))
    assert traced_peak(cp.conservation_residual, grid, context) <= 0.25 * grid.data.nbytes


def test_merge_with_st_temperature_peak_memory():
    # One float64 stack of the mixed clips, one clip's (n, n) scores with its
    # softmax run in place, and the merge of the stack: 6.5x the float32
    # grid's bytes. A list of mixed clips joined by np.stack, and a softmax
    # holding shifted and exponentiated copies of the scores, read 18.0x.
    values = np.random.default_rng(0).standard_normal((32, 16, 16, 64))
    grid = cp.TokenGrid(values.astype(np.float32))
    config = cp.ConnectorConfig(kind="merge", budget=16, clip_len=4, st_temperature=1.0)
    assert traced_peak(cp.compress_video, grid, config) <= 8 * grid.data.nbytes


def test_context_stores_its_vectors_once():
    # A 128-frame spatial context: vectors() returns the one stored array,
    # allocating nothing; joining the clips on each call allocated 1.0 MiB.
    grid = cp.TokenGrid(np.random.default_rng(0).standard_normal((128, 16, 16, 16)))
    ctx = cp.compress_video(grid, cp.ConnectorConfig(kind="spatial", factor=2))
    vectors = ctx.vectors()
    assert ctx.vectors() is vectors and not vectors.flags.writeable
    assert traced_peak(ctx.vectors) < 1024
    for clip, start in zip(ctx.clips, ctx.clip_offsets):
        assert clip.vectors.base is vectors
        assert np.shares_memory(clip.vectors, vectors[start : start + len(clip.sizes)])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    tokens=st.integers(1, 20_000),
    dim=st.integers(1, 4),
    decades=st.sampled_from([0, 4]),
    column_major=st.booleans(),
)
# Summed with dtype=float64 straight from float32, a one-column grid is summed
# pairwise inside 8,192-value cast buffers and read 3.4e-16 here, not 0.0.
@example(seed=1, tokens=300_000, dim=1, decades=4, column_major=False)
def test_conservation_residual_of_float32_grid_matches_float64(
    seed, tokens, dim, decades, column_major
):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((1, 1, tokens, dim)) * 10 ** rng.uniform(0, decades, (tokens, 1))
    values = values.astype(np.float32)
    narrow = cp.TokenGrid(np.asfortranarray(values) if column_major else values)
    wide = cp.TokenGrid(narrow.data.astype(np.float64))
    context = cp.compress_video(wide, cp.ConnectorConfig(kind="spatial", factor=1))
    assert cp.conservation_residual(narrow, context) == cp.conservation_residual(wide, context)
