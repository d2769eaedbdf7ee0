import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import TOY_GEOMETRIES
from hico import costmodel as cm, dropout as dp
from hico.dropout import DropSchedule
from hico.errors import ConfigError, DomainError

SEVEN_B = cm.preset("7b")
TABLE_SCHEDULE = DropSchedule.parse("uni:4:0.75,attn:18:0.25")


def test_tokens_for_video():
    assert cm.tokens_for_video(64, 16) == 1024
    assert cm.tokens_for_video(10000, 16) == 160000
    assert cm.tokens_for_video(64, 196) == 12544
    with pytest.raises(DomainError):
        cm.tokens_for_video(0, 16)


def test_shape_invariants():
    with pytest.raises(DomainError):
        cm.ModelShape(28, 3584, 28, 4, 100, 10**9)  # heads*head_dim != hidden
    with pytest.raises(DomainError):
        cm.ModelShape(28, 3584, 28, 3, 128, 10**9)  # kv_heads must divide heads
    for name, shape in cm.PRESETS.items():
        assert shape.heads * shape.head_dim == shape.hidden_dim, name


def test_preset_lookup():
    assert cm.preset("toy").layers == 4
    assert cm.preset("7b", nonembed_params=5).nonembed_params == 5
    with pytest.raises(ConfigError):
        cm.preset("13b")


@pytest.mark.parametrize("geometry", TOY_GEOMETRIES, ids=str)
def test_toy_shape_counts_the_toy_models_weights(geometry):
    model = dp.ToyModel(geometry, 8, np.random.default_rng(0))
    layers = (model.wq, model.wk, model.wv, model.wo, model.w1, model.w2)
    shape = cm.toy_shape(geometry)
    assert shape.nonembed_params == sum(w.size for w in layers)
    assert (shape.layers, shape.hidden_dim, shape.heads) == (
        geometry.layers, geometry.hidden_dim, geometry.heads
    )


def test_toy_preset_is_the_default_toy_decoder():
    assert cm.preset("toy") == cm.toy_shape(dp.DecoderGeometry())


def test_prefill_zero_tokens():
    assert cm.prefill_flops(0, SEVEN_B) == 0.0


@pytest.mark.parametrize(
    "frames,reported_tflops,tolerance",
    [(64, 14.8, 0.05), (256, 63.0, 0.05), (1000, 303.3, 0.30), (10000, 9969.5, 0.30)],
)
def test_prefill_matches_reported_values(frames, reported_tflops, tolerance):
    got = cm.prefill_flops(cm.tokens_for_video(frames, 16), SEVEN_B) / 1e12
    assert abs(got - reported_tflops) / reported_tflops <= tolerance


@given(tokens=st.integers(min_value=1, max_value=10**7))
def test_prefill_superlinear(tokens):
    assert cm.prefill_flops(2 * tokens, SEVEN_B) > 2 * cm.prefill_flops(tokens, SEVEN_B)


@given(frames=st.integers(min_value=1, max_value=10**5))
def test_dense_vs_compressed_ratio(frames):
    dense = cm.prefill_flops(cm.tokens_for_video(frames, 196), SEVEN_B)
    lean = cm.prefill_flops(cm.tokens_for_video(frames, 16), SEVEN_B)
    assert dense / lean >= 196 / 16


def test_schedule_empty_equals_prefill_exactly():
    for tokens in (1, 17, 1024, 160000):
        assert cm.flops_with_schedule(
            tokens, DropSchedule(), SEVEN_B
        ) == cm.prefill_flops(tokens, SEVEN_B)


def test_schedule_drop_at_layer_zero_is_plain_prefill_of_fewer_tokens():
    sched = DropSchedule.parse("uni:0:0.5")
    assert cm.flops_with_schedule(2048, sched, SEVEN_B) == cm.prefill_flops(
        1024, SEVEN_B
    )


def test_schedule_flops_bracketed():
    full = cm.prefill_flops(1024, SEVEN_B)
    dropped = cm.flops_with_schedule(1024, TABLE_SCHEDULE, SEVEN_B)
    floor_sched = DropSchedule.parse("uni:0:0.1875")  # 0.75 * 0.25 from layer 0
    floor = cm.flops_with_schedule(1024, floor_sched, SEVEN_B)
    assert floor < dropped < full


def test_schedule_with_text_tokens_increases_cost():
    base = cm.flops_with_schedule(1024, TABLE_SCHEDULE, SEVEN_B, text_tokens=0)
    more = cm.flops_with_schedule(1024, TABLE_SCHEDULE, SEVEN_B, text_tokens=64)
    assert more > base


def test_memory_zero_tokens():
    rep = cm.memory_estimate(0, SEVEN_B)
    assert rep.kv_cache_bytes == 0
    assert rep.total_infer_bytes == rep.weight_bytes + rep.overhead_bytes


def test_memory_linearity():
    slope = 2 * SEVEN_B.layers * SEVEN_B.kv_heads * SEVEN_B.head_dim * 2
    for tokens in (1, 100, 4096):
        a = cm.memory_estimate(tokens, SEVEN_B)
        b = cm.memory_estimate(2 * tokens, SEVEN_B)
        assert b.kv_cache_bytes == 2 * a.kv_cache_bytes
        assert a.kv_cache_bytes == slope * tokens


def test_memory_totals_sum():
    rep = cm.memory_estimate(160000, SEVEN_B)
    assert rep.total_infer_bytes == (
        rep.weight_bytes + rep.kv_cache_bytes + rep.overhead_bytes
    )


def test_memory_ten_thousand_frames_near_reported():
    rep = cm.memory_estimate(160000, SEVEN_B, cache_bytes_per_value=2)
    total_gb = rep.total_infer_bytes / 1e9
    assert abs(total_gb - 33.6) / 33.6 <= 0.40
    assert rep.kv_cache_bytes / 1e9 == pytest.approx(9.175, abs=0.01)


# ---------------------------------------------------------------------------
# score_cells against the toy decoder's own attention calls

BLOCK = dp._ROW_BLOCK


def decoder_layer_cells(monkeypatch, text, n, geometry, schedule):
    """Per layer, heads · Σ_blocks rows · r1 over the `pos` arrays the decoder
    passes to _causal_attention, with the run. The calls of one layer share
    its key array."""
    calls = []
    real = dp._causal_attention

    def spy(q, kt, v1, pos, buffer, out):
        blocks = [pos[b0 : b0 + BLOCK] for b0 in range(0, len(pos), BLOCK)]
        cells = q.shape[0] * sum(len(block) * (int(block[-1]) + 1) for block in blocks)
        if calls and calls[-1][0] is kt:
            calls[-1][1] += cells
        else:
            calls.append([kt, cells])
        return real(q, kt, v1, pos, buffer, out)

    monkeypatch.setattr(dp, "_causal_attention", spy)
    vis = np.random.default_rng(n).standard_normal((n, 16))
    run = dp.toy_decoder_run(text, vis, geometry, schedule, seed=1)
    return [cells for _, cells in calls], run


@pytest.mark.parametrize(
    "n,text,layers,schedule",
    [
        (27, 4, 2, ""),  # T = 31, below one block
        (28, 4, 2, ""),  # T = 32, one block
        (29, 4, 2, ""),  # T = 33, just past one
        (1024, 8, 6, "uni:2:0.75,attn:4:0.25"),  # T = 1032, 776 and 200
        (56, 8, 3, "uni:1:0.5,attn:2:0.5"),  # a drop at T = 64 and at T = 36
        (20, 4, 3, "attn:1:0.5"),  # T = 24: the last query alone, then 14 survivors
        (40, 30, 4, "uni:0:0.9,attn:2:1.0"),  # every row survives the drop
    ],
)
def test_score_cells_equals_the_decoders_blocks(monkeypatch, n, text, layers, schedule):
    sched = DropSchedule.parse(schedule)
    geometry = dp.DecoderGeometry(layers=layers, hidden_dim=16, heads=2)
    measured, run = decoder_layer_cells(monkeypatch, text, n, geometry, sched)
    drops = {e.layer for e in sched.entries}
    want = []
    for layer, kept in enumerate(run.kept):
        seq = len(kept) + text
        survivors = None
        if layer + 1 in drops:
            sel = np.searchsorted(kept, run.kept[layer + 1])
            survivors = np.concatenate([sel, np.arange(len(kept), seq)])
        want.append(cm.score_cells(seq, geometry.heads, survivors))
    assert measured == want


@given(tokens=st.integers(min_value=1, max_value=5 * BLOCK), heads=st.integers(1, 8))
def test_score_cells_closed_form_is_the_block_sum(tokens, heads):
    full = cm.score_cells(tokens, heads)
    ends = [min(b0 + BLOCK, tokens) for b0 in range(0, tokens, BLOCK)]
    assert full == heads * sum((r1 - b0) * r1 for b0, r1 in zip(range(0, tokens, BLOCK), ends))
    # A drop that every row survives computes a full layer and the last query alone.
    assert cm.score_cells(tokens, heads, range(tokens)) == full + heads * tokens


def test_score_cells_refuses_empty_layers():
    with pytest.raises(DomainError):
        cm.score_cells(0, 4)
