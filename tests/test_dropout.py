import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hico import dropout as dp
from hico import errors
from hico.errors import ConfigError, DomainError

from helpers import ref_causal_attention, ref_layer_norm, ref_toy_decoder_run, traced_peak

TABLE_SCHEDULE = dp.DropSchedule.parse("uni:4:0.75,attn:18:0.25")


# ---------------------------------------------------------------------------
# uniform_drop


@pytest.mark.parametrize(
    "count,ratio,expected",
    [
        (8, 0.5, [0, 2, 4, 6]),
        (6, 1.0, [0, 1, 2, 3, 4, 5]),
        (5, 0.5, [0, 1, 3]),  # m = 3, floor(j * 5 / 3)
    ],
)
def test_uniform_drop_examples(count, ratio, expected):
    assert dp.uniform_drop(count, ratio) == expected


@pytest.mark.parametrize("ratio", [0.0, -0.1, 1.5])
def test_uniform_drop_rejects_bad_ratio(ratio):
    with pytest.raises(DomainError):
        dp.uniform_drop(8, ratio)


@given(
    count=st.integers(min_value=1, max_value=2048),
    ratio=st.floats(min_value=0.01, max_value=1.0),
)
def test_uniform_drop_strictly_increasing_and_spaced(count, ratio):
    kept = dp.uniform_drop(count, ratio)
    assert all(a < b for a, b in zip(kept, kept[1:]))
    assert kept[0] == 0
    assert kept[-1] < count
    if len(kept) > 1:
        gaps = [b - a for a, b in zip(kept, kept[1:])]
        assert max(gaps) - min(gaps) <= 2


# ---------------------------------------------------------------------------
# attention_select


def test_attention_select_examples():
    assert dp.attention_select([0.1, 0.4, 0.2, 0.3], 0.5) == [1, 3]
    assert dp.attention_select([1.0, 1.0, 1.0, 1.0], 0.5) == [0, 1]
    assert dp.attention_select([0.2, 0.9, 0.1], 1.0) == [0, 1, 2]


def test_attention_select_rejects_nan():
    with pytest.raises(DomainError):
        dp.attention_select([0.1, float("nan")], 0.5)


@given(
    scores=st.lists(
        st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=300
    ),
    ratio=st.floats(min_value=0.01, max_value=1.0),
)
def test_attention_select_matches_sort_oracle(scores, ratio):
    kept = dp.attention_select(scores, ratio)
    m = min(len(scores), math.ceil(ratio * len(scores)))
    oracle = sorted(
        sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:m]
    )
    assert kept == oracle
    assert all(a < b for a, b in zip(kept, kept[1:]))


# ---------------------------------------------------------------------------
# plan_schedule


def test_plan_schedule_table_counts():
    counts = dp.plan_schedule(1024, TABLE_SCHEDULE, 28)
    assert counts[:4] == [1024] * 4
    assert counts[4:18] == [768] * 14
    assert counts[18:] == [192] * 10


def test_plan_schedule_empty_is_constant():
    assert dp.plan_schedule(100, dp.DropSchedule(), 6) == [100] * 6


def test_plan_schedule_single_halving():
    counts = dp.plan_schedule(1024, dp.DropSchedule.parse("uni:4:0.5"), 28)
    assert counts[:4] == [1024] * 4
    assert counts[4:] == [512] * 24


def test_plan_schedule_non_increasing():
    sched = dp.DropSchedule.parse("uni:1:0.9,attn:3:0.4,attn:5:0.7")
    counts = dp.plan_schedule(333, sched, 8)
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_plan_schedule_rejects_deep_entries():
    with pytest.raises(ConfigError):
        dp.plan_schedule(10, dp.DropSchedule.parse("uni:9:0.5"), 8)


# ---------------------------------------------------------------------------
# schedule parsing


def test_schedule_parse_round_trip():
    assert TABLE_SCHEDULE.format() == "uni:4:0.75,attn:18:0.25"
    assert dp.DropSchedule.parse("").entries == ()
    assert dp.DropSchedule.parse("uniform:2:0.5").entries[0].method == dp.UNIFORM


@pytest.mark.parametrize(
    "text", ["uni:4", "what:4:0.5", "uni:4:0", "uni:4:1.5", "uni:x:0.5"]
)
def test_schedule_parse_rejects(text):
    with pytest.raises(ConfigError):
        dp.DropSchedule.parse(text)


def test_schedule_rejects_non_increasing_layers():
    with pytest.raises(ConfigError):
        dp.DropSchedule.parse("uni:4:0.5,attn:4:0.5")
    with pytest.raises(ConfigError):
        dp.DropSchedule.parse("uni:6:0.5,attn:4:0.5")


def test_scale_schedule_proportional():
    scaled = dp.scale_schedule(TABLE_SCHEDULE, 4, reference_layers=28)
    assert [(e.layer, e.method) for e in scaled.entries] == [
        (0, dp.UNIFORM),
        (2, dp.ATTENTION),
    ]


def test_scale_schedule_resolves_collisions():
    sched = dp.DropSchedule.parse("uni:4:0.9,uni:5:0.9")
    scaled = dp.scale_schedule(sched, 4, reference_layers=28)
    assert [e.layer for e in scaled.entries] == [0, 1]


def test_scale_schedule_overflow():
    sched = dp.DropSchedule.parse("attn:27:0.5")
    with pytest.raises(ConfigError):
        dp.scale_schedule(sched, 1, reference_layers=28)


# ---------------------------------------------------------------------------
# toy decoder


def visual(seed=0, n=32, d=12):
    return np.random.default_rng(seed).standard_normal((n, d))


def test_decoder_empty_schedule_keeps_everything():
    run = dp.toy_decoder_run(4, visual(), schedule=dp.DropSchedule(), seed=1)
    assert all(kept == list(range(32)) for kept in run.kept)
    assert all(len(s.scores) == 32 for s in run.snapshots)
    assert len(run.snapshots) == 4


def test_decoder_uniform_entry_shrinks_snapshots():
    sched = dp.DropSchedule.parse("uni:1:0.5")
    run = dp.toy_decoder_run(4, visual(), schedule=sched, seed=1)
    assert [len(s.scores) for s in run.snapshots] == [32, 16, 16, 16]
    assert [len(k) for k in run.kept] == [32, 16, 16, 16]


def test_decoder_deterministic_per_seed():
    sched = dp.DropSchedule.parse("uni:1:0.75,attn:2:0.5")
    a = dp.toy_decoder_run(4, visual(), schedule=sched, seed=7)
    b = dp.toy_decoder_run(4, visual(), schedule=sched, seed=7)
    assert np.array_equal(a.states, b.states)
    assert a.kept == b.kept
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert np.array_equal(sa.scores, sb.scores)
    c = dp.toy_decoder_run(4, visual(), schedule=sched, seed=8)
    assert not np.array_equal(a.states, c.states)


def test_decoder_attention_entry_uses_previous_snapshot():
    sched = dp.DropSchedule.parse("attn:2:0.25")
    run = dp.toy_decoder_run(3, visual(seed=5), schedule=sched, seed=9)
    expected_sel = dp.attention_select(run.snapshots[1].scores, 0.25)
    assert run.kept[2] == [run.kept[1][i] for i in expected_sel]


def test_decoder_attention_at_layer_zero_rejected():
    with pytest.raises(ConfigError):
        dp.toy_decoder_run(
            2, visual(), schedule=dp.DropSchedule.parse("attn:0:0.5"), seed=0
        )


def test_decoder_kept_sets_are_subsequences():
    sched = dp.DropSchedule.parse("uni:1:0.6,attn:3:0.4")
    run = dp.toy_decoder_run(5, visual(seed=3, n=50), schedule=sched, seed=3)
    for prev, cur in zip(run.kept, run.kept[1:]):
        it = iter(prev)
        assert all(x in it for x in cur)  # subsequence, order preserved


def test_decoder_snapshot_rows_normalized():
    sched = dp.DropSchedule.parse("uni:1:0.5,attn:2:0.5")
    run = dp.toy_decoder_run(6, visual(seed=2), schedule=sched, seed=2)
    for snap in run.snapshots:
        total = snap.scores.sum() + snap.text_scores.sum()
        assert abs(total - 1.0) < 1e-5
        assert np.all(snap.scores >= 0)


def test_decoder_matches_plan_schedule_counts():
    sched = dp.DropSchedule.parse("uni:1:0.7,attn:3:0.3")
    geometry = dp.DecoderGeometry(layers=5, hidden_dim=32, heads=2)
    run = dp.toy_decoder_run(4, visual(seed=6, n=40), geometry, sched, seed=6)
    assert [len(k) for k in run.kept] == dp.plan_schedule(40, sched, 5)


def test_decoder_rejects_schedule_beyond_depth():
    with pytest.raises(ConfigError):
        dp.toy_decoder_run(
            2, visual(), schedule=dp.DropSchedule.parse("uni:7:0.5"), seed=0
        )


def test_decoder_needs_text_token():
    with pytest.raises(DomainError):
        dp.toy_decoder_run(0, visual(), seed=0)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=1100),
    cols=st.integers(min_value=1, max_value=200),
    scale=st.floats(min_value=1e-3, max_value=1e3),
    shift=st.floats(min_value=-10.0, max_value=10.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_layer_norm_equals_two_pass_reference(rows, cols, scale, shift, seed):
    x = (np.random.default_rng(seed).standard_normal((rows, cols)) + shift) * scale
    assert np.array_equal(dp._layer_norm(x), ref_layer_norm(x))


BLOCK = dp._ROW_BLOCK


@st.composite
def decoder_cases(draw):
    heads = draw(st.sampled_from([1, 2, 4, 8]))
    head_dim = draw(st.integers(min_value=1, max_value=4))
    text = draw(st.integers(min_value=1, max_value=12))
    # Visual counts, and whole sequence lengths, below, equal to, a multiple
    # of, and off a multiple of the softmax row block.
    edges = st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 3 * BLOCK])
    visual = draw(
        st.one_of(
            st.integers(min_value=1, max_value=3 * BLOCK + 5),
            edges,
            edges.map(lambda seq: seq - text),
        )
    )
    kind = draw(st.sampled_from(["empty", "uniform", "uniform+attention", "attention"]))
    layers = draw(st.integers(min_value=3 if kind == "attention" else 2, max_value=4))
    ratio = st.floats(min_value=0.05, max_value=1.0)
    entries = []
    if kind == "attention":
        # Drops on consecutive layers: the layer before the second drop
        # starts from the first drop's survivors.
        attn = draw(st.integers(min_value=1, max_value=layers - 2))
        entries += [f"attn:{attn}:{draw(ratio)}", f"attn:{attn + 1}:{draw(ratio)}"]
    elif kind != "empty":
        uni = draw(st.integers(min_value=0, max_value=layers - 2))
        entries.append(f"uni:{uni}:{draw(ratio)}")
        if kind == "uniform+attention":
            attn = draw(st.integers(min_value=uni + 1, max_value=layers - 1))
            entries.append(f"attn:{attn}:{draw(ratio)}")
    return dict(
        heads=heads,
        head_dim=head_dim,
        text=text,
        visual=visual,
        dim=draw(st.integers(min_value=1, max_value=6)),
        scale=draw(st.floats(min_value=1e-3, max_value=30.0)),
        layers=layers,
        schedule=dp.DropSchedule.parse(",".join(entries)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )


# The row-blocked attention normalises each row over its causal columns
# only, so its last bits differ from the full-square reference. Every float
# output stays within this share of the reference's largest magnitude.
TOLERANCE = 1e-12

# Except where the reference itself is that sensitive to rounding. At
# hidden_dim 2 the layer norm divides the half-difference of two nearly equal
# entries by sqrt(1e-5), and ulp changes grow through the layers: one draw's
# states moved 1.48e-10 of max|ref| when the reference's own softmax moved one
# ulp. hidden_dim 3 over two tokens does the same (1.8e-11 on a draw at seed
# 3). On such draws an output may also differ by SENSITIVITY_FACTOR times the
# largest change that up to SENSITIVITY_PROBES one-ulp perturbations of the
# reference's softmax make to it: all up, all down, then random ones. The
# decoder rounds its scores differently (the scale folded into wq, the keys
# projected transposed), and one ulp of a score moves its probability by as
# many ulps as the score's magnitude, up to 14 here; exp2 for exp, row sums in
# block order and one divide per row add a few more. So k = 16. Of 200,000
# random hidden_dim <= 2 draws, 230 missed TOLERANCE; on them the deviation
# was at most 8.1 times the 64 probes' largest change, except on one, whose
# rounding only 200 probes reached. On 97 two-token hidden_dim 3 draws that
# missed it, at most 2.94 times.
SENSITIVITY_PROBES = 64
SENSITIVITY_FACTOR = 16


def outputs(run):
    return [run.states] + [a for s in run.snapshots for a in (s.scores, s.text_scores)]


def assert_matches_reference(got, want, probes=()):
    """Equal kept lists and layers, and every float output within TOLERANCE of
    the reference's, or within SENSITIVITY_FACTOR times the largest change the
    perturbed reference runs `probes` make. They run only while needed."""
    assert got.kept == want.kept
    assert [s.layer for s in got.snapshots] == [s.layer for s in want.snapshots]
    pairs = list(zip(outputs(got), outputs(want), strict=True))
    assert all(a.shape == b.shape and np.all(np.isfinite(a)) for a, b in pairs)
    deviation = [np.max(np.abs(a - b)) for a, b in pairs]
    bound = [TOLERANCE * np.max(np.abs(b)) for _, b in pairs]
    for probe in probes:
        if all(d <= b for d, b in zip(deviation, bound)):
            break
        if probe.kept == want.kept:
            change = (np.max(np.abs(p - b)) for p, (_, b) in zip(outputs(probe), pairs))
            bound = [max(b, SENSITIVITY_FACTOR * c) for b, c in zip(bound, change)]
    assert all(d <= b for d, b in zip(deviation, bound))


def score_bound(q, k, scale):
    """max|q_i / scale| · max|k_j|, which bounds every |score|."""
    return np.sqrt((q * q).sum(-1).max()) / scale * np.sqrt((k * k).sum(-1).max())


LOG2E = math.log2(math.e)


# Scores of magnitude 2000 overflow exp unless the row max is subtracted
# first; random unit-scale q and k keep the bound below _EXP_SAFE, in log2
# units, and skip it. Queries run at every position, or at a random subset
# that keeps the last one, as before a drop.
@settings(max_examples=100, deadline=None)
@given(
    heads=st.integers(min_value=1, max_value=4),
    seq=st.one_of(
        st.integers(min_value=1, max_value=3 * BLOCK + 5),
        st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK]),
    ),
    head_dim=st.integers(min_value=1, max_value=16),
    peak=st.sampled_from([None, 2000.0]),
    density=st.sampled_from([1.0, 0.6, 0.2]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_causal_attention_matches_full_square_softmax(heads, seq, head_dim, peak, density, seed):
    rng = np.random.default_rng(seed)
    q, k, v = (rng.standard_normal((heads, seq, head_dim)) for _ in range(3))
    scale = math.sqrt(head_dim)
    if peak is None:
        assert score_bound(q, k, scale) * LOG2E < dp._EXP_SAFE
    else:
        # Scale q so that the largest causal score is exactly +-peak.
        scores = np.tril(q @ k.transpose(0, 2, 1) / scale)
        q = q * (peak / np.abs(scores).max())
        assert score_bound(q, k, scale) * LOG2E > dp._EXP_SAFE
    pos = np.flatnonzero((rng.random(seq) < density) | (np.arange(seq) == seq - 1))
    v1 = np.concatenate([v, np.ones((heads, seq, 1))], axis=-1)
    out = np.empty((heads, len(pos), head_dim))
    buffer = np.empty(heads * BLOCK * seq)
    kt = k.transpose(0, 2, 1).copy()
    last = dp._causal_attention(q[:, pos] * (LOG2E / scale), kt, v1, pos, buffer, out)
    want_out, want_last = ref_causal_attention(q, k, v, scale)
    for got, want in ((out, want_out[:, pos]), (last, want_last)):
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= TOLERANCE * np.max(np.abs(want))


# sha256 of _causal_attention's `out` and `last` on the shifted path, from
# the parent of the change that zeroes the masked columns after exp2 on the
# unshifted path alone. The decoder goldens never reach this path.
SHIFTED_GOLDEN = {
    "consecutive": (
        "60faafa7b0223d060b39949fe0fafdacad68dbb2d7b2beda71426cae59617586",
        "8f52e416e3cd8d5255d7562b1ba745893306d5af71d914628ae14a4a96f706c1",
    ),
    "sparse": (
        "9fd8e3543be781400eb5503af83a2739ad45ebcc1772e54074db55112a0c8856",
        "8f52e416e3cd8d5255d7562b1ba745893306d5af71d914628ae14a4a96f706c1",
    ),
}


@pytest.mark.golden
@pytest.mark.parametrize("positions", sorted(SHIFTED_GOLDEN))
def test_shifted_causal_attention_golden_digests(positions):
    rng = np.random.default_rng(2000)
    heads, seq, head_dim = 4, 3 * BLOCK + 5, 16
    q, k, v = (rng.standard_normal((heads, seq, head_dim)) for _ in range(3))
    scale = math.sqrt(head_dim)
    # The largest causal score is exactly +-2000.
    q *= 2000.0 / np.abs(np.tril(q @ k.transpose(0, 2, 1) / scale)).max()
    assert score_bound(q, k, scale) * LOG2E > dp._EXP_SAFE
    pos = np.arange(seq)
    if positions == "sparse":
        pos = np.flatnonzero((rng.random(seq) < 0.4) | (pos == seq - 1))
        assert len(pos) == 46
    v1 = np.concatenate([v, np.ones((heads, seq, 1))], axis=-1)
    out = np.empty((heads, len(pos), head_dim))
    buffer = np.empty(heads * BLOCK * seq)
    kt = k.transpose(0, 2, 1).copy()
    last = dp._causal_attention(q[:, pos] * (LOG2E / scale), kt, v1, pos, buffer, out)
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (out, last))
    assert digests == SHIFTED_GOLDEN[positions]


@settings(max_examples=60, deadline=None)
@given(case=decoder_cases())
def test_decoder_matches_full_square_reference(case):
    vis = np.random.default_rng(case["seed"]).standard_normal((case["visual"], case["dim"]))
    vis *= case["scale"]
    geometry = dp.DecoderGeometry(
        layers=case["layers"], hidden_dim=case["heads"] * case["head_dim"], heads=case["heads"]
    )
    args = (case["text"], vis, geometry, case["schedule"])
    got = dp.toy_decoder_run(*args, seed=case["seed"])
    want = ref_toy_decoder_run(*args, seed=case["seed"])
    probes = ()
    tokens = case["visual"] + case["text"]
    if geometry.hidden_dim <= 2 or (geometry.hidden_dim == 3 and tokens == 2):
        rngs = [np.random.default_rng(i) for i in range(SENSITIVITY_PROBES - 2)]
        probes = (
            ref_toy_decoder_run(*args, seed=case["seed"], perturb=p)
            for p in [np.inf, -np.inf, *rngs]
        )
    assert_matches_reference(got, want, probes)


def paper_sized_visual(seed=0):
    return np.random.default_rng(seed).standard_normal((1024, 64)) / 4


def check_paper_size(schedule, layers):
    """1024 visual + 8 text tokens through `layers` layers, against the reference."""
    args = (8, paper_sized_visual(), dp.DecoderGeometry(layers=layers), schedule)
    got = dp.toy_decoder_run(*args, seed=3)
    want = ref_toy_decoder_run(*args, seed=3)
    assert [len(k) for k in got.kept] == dp.plan_schedule(1024, schedule, layers)
    assert_matches_reference(got, want)


def test_decoder_matches_reference_at_paper_size():
    # Layer 18 runs the attention drop. The 768 visual survivors of layer 3
    # fill whole row blocks, and the 8 text rows make a block of their own.
    check_paper_size(TABLE_SCHEDULE, 19)


def test_decoder_matches_reference_at_paper_size_on_partial_blocks():
    # 615 + 8 survivors before layer 2 and 308 + 8 before layer 3: a block
    # of each survivors' call holds visual and text rows together.
    check_paper_size(dp.DropSchedule.parse("uni:2:0.6,attn:3:0.5"), 4)


def test_one_model_serves_every_run_bit_for_bit_and_is_read_only():
    geometry = dp.DecoderGeometry(layers=4, hidden_dim=8, heads=2)
    schedule = dp.DropSchedule.parse("uni:1:0.5,attn:3:0.5")
    sizes = ((0, 40, 3), (1, 70, 5))  # seed, visual tokens, text tokens
    inputs = [(np.random.default_rng(i).standard_normal((n, 6)), t) for i, n, t in sizes]
    shared = dp.ToyModel(geometry, 6, np.random.default_rng(7))

    def bits(run):
        arrays = [run.states] + [a for s in run.snapshots for a in (s.scores, s.text_scores)]
        return [a.tobytes() for a in arrays], run.kept

    for vis, text_tokens in inputs:
        rng = np.random.default_rng(7)
        fresh = dp.ToyModel(geometry, 6, rng)  # the text follows the weights in the stream
        text = rng.standard_normal((text_tokens, geometry.hidden_dim))
        want = bits(dp.toy_decoder_run(text_tokens, vis, geometry, schedule, seed=7))
        assert bits(shared.run(vis, text, schedule)) == want
        assert bits(fresh.run(vis, text, schedule)) == want
    for array in (shared.w_in, shared.wq, shared.wk, shared.wv, shared.wo, shared.w1, shared.w2):
        with pytest.raises(ValueError, match="read-only"):
            array *= 2.0


def test_model_and_run_refuse_over_cap_sizes_before_allocating():
    with pytest.raises(DomainError, match="weights at layers=100000000"):
        dp.ToyModel(dp.DecoderGeometry(layers=10**8), 4, None)  # None draws nothing
    model = dp.ToyModel(dp.DecoderGeometry(layers=1, hidden_dim=8, heads=2), 4, np.random.default_rng(0))
    text = np.broadcast_to(np.zeros(8), (10**9, 8))  # no memory behind its rows
    with pytest.raises(DomainError, match="text_tokens=1000000000"):
        model.run(np.ones((4, 4)), text)


def test_decoder_peak_memory_below_half_a_score_square():
    heads, seq = 4, 1024 + 8
    geometry = dp.DecoderGeometry(layers=2, hidden_dim=64, heads=heads)
    vis = paper_sized_visual()
    peak = traced_peak(dp.toy_decoder_run, 8, vis, geometry, seed=0)
    assert peak < heads * seq * seq * 8 / 2


@pytest.mark.parametrize(
    "tokens,hidden_dim,heads,layers,schedule,in_dim,dtype",
    [
        (1024, 64, 4, 28, "", 16, np.float64),
        (200, 16, 1, 3, "", 16, np.float64),
        (3000, 8, 8, 2, "", 16, np.float64),
        (64, 256, 2, 2, "", 16, np.float64),
        (1024, 64, 4, 28, "uni:4:0.75,attn:18:0.25", 16, np.float64),
        (4000, 2, 2, 4, "uni:0:0.99,attn:2:0.99,attn:3:0.99", 16, np.float64),
        (2000, 1, 1, 50, "", 16, np.float64),
        (100, 32, 32, 4, "uni:1:0.9", 16, np.float64),
        (2000, 8, 2, 1, "", 1024, np.float32),
    ],
    ids=[
        "1024-64-4-28",
        "200-16-1-3",
        "3000-8-8-2",
        "64-256-2-2",
        "1024-64-4-28-paper-schedule",
        "4000-2-2-4-three-drops",
        "2000-1-1-50",
        "100-32-32-4-uniform",
        "2000-8-2-1-float32-wide-input",
    ],
)
def test_byte_estimate_covers_the_measured_peak(
    monkeypatch, tokens, hidden_dim, heads, layers, schedule, in_dim, dtype
):
    # A float32 visual is widened to float64 by the run, a copy the estimate
    # counts: 16.4 MB of the wide input's 18.6 MB peak, estimated at 19.3 MB.
    estimates = []
    monkeypatch.setattr(dp, "check_bytes", lambda needed, what: estimates.append(needed))
    vis = np.random.default_rng(0).standard_normal((tokens, in_dim)).astype(dtype)
    geometry = dp.DecoderGeometry(layers=layers, hidden_dim=hidden_dim, heads=heads)
    peak = traced_peak(
        dp.toy_decoder_run, 8, vis, geometry, dp.DropSchedule.parse(schedule), seed=0
    )
    assert estimates and peak <= estimates[0]


def test_wide_float32_visual_is_refused_before_it_is_widened(monkeypatch):
    # The run's arrays need about 3 MB, and its float64 copy of the visual
    # 16.4 MB more: the cap is checked, counting the copy, before it is made.
    monkeypatch.setattr(errors, "BYTES_CAP", 8 << 20)
    vis = np.zeros((2000, 1024), np.float32)

    def run():
        with pytest.raises(DomainError, match="over the 8388608-byte cap"):
            dp.toy_decoder_run(8, vis, dp.DecoderGeometry(layers=1, hidden_dim=8, heads=2))

    assert traced_peak(run) < vis.nbytes
