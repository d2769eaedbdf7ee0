import pytest
from hypothesis import given, strategies as st

from hico import sampler
from hico.errors import DomainError

POLICY = sampler.SamplingPolicy(t_min=64, t_max=512)


def density(duration, policy):
    """A plan's sampled frames per second for a `duration`-second video at 1 fps."""
    return sampler.build_plan(sampler.VideoMeta.from_rate(duration, 1.0), policy).density


@pytest.mark.parametrize(
    "duration,expected",
    [(30, 64), (128, 128), (4000, 512)],
)
def test_frame_count_clamp(duration, expected):
    assert sampler.compute_frame_count(duration, POLICY) == expected


@pytest.mark.parametrize(
    "duration,expected",
    [(32, 2.0), (512, 1.0), (5120, 0.1)],
)
def test_density_examples(duration, expected):
    assert density(duration, POLICY) == pytest.approx(expected)


@pytest.mark.parametrize("duration", [0, -1, -0.5])
def test_nonpositive_duration_rejected(duration):
    with pytest.raises(DomainError):
        sampler.compute_frame_count(duration, POLICY)
    with pytest.raises(DomainError):
        density(duration, POLICY)


def test_policy_validation():
    with pytest.raises(DomainError):
        sampler.SamplingPolicy(t_min=10, t_max=5)
    with pytest.raises(DomainError):
        sampler.SamplingPolicy(t_min=0, t_max=5)


def test_plan_stride():
    meta = sampler.VideoMeta(duration=10.0, fps=0.8, total_frames=8)
    plan = sampler.build_plan(meta, sampler.SamplingPolicy(4, 4))
    assert plan.indices == (0, 2, 4, 6)


def test_plan_identity():
    meta = sampler.VideoMeta(duration=5.0, fps=1.0, total_frames=5)
    plan = sampler.build_plan(meta, sampler.SamplingPolicy(5, 5))
    assert plan.indices == (0, 1, 2, 3, 4)


def test_plan_pads_short_video():
    # floor(j * 3 / 4) for j = 0..3
    meta = sampler.VideoMeta(duration=4.0, fps=0.75, total_frames=3)
    plan = sampler.build_plan(meta, sampler.SamplingPolicy(4, 4))
    assert plan.indices == (0, 0, 1, 2)


def test_meta_validation():
    with pytest.raises(DomainError):
        sampler.VideoMeta(duration=10.0, fps=1.0, total_frames=20)
    with pytest.raises(DomainError):
        sampler.VideoMeta(duration=-1.0, fps=1.0, total_frames=1)


def test_prompt_verbatim():
    got = sampler.timestamp_prompt(60.0, 64)
    assert got == "The video lasts for 60 seconds, and 64 frames are uniformly sampled from it."


def test_prompt_never_pluralizes():
    got = sampler.timestamp_prompt(1.0, 64)
    assert got == "The video lasts for 1 seconds, and 64 frames are uniformly sampled from it."


@pytest.mark.parametrize(
    "duration,expected_n",
    [(3600.4, 3600), (3600.5, 3601), (0.5, 1), (2.5, 3)],
)
def test_prompt_rounds_half_up(duration, expected_n):
    n, _ = sampler.parse_timestamp_prompt(sampler.timestamp_prompt(duration, 8))
    assert n == expected_n


@given(
    duration=st.floats(min_value=0.01, max_value=1e6),
    frame_count=st.integers(min_value=1, max_value=10**6),
)
def test_prompt_round_trips(duration, frame_count):
    text = sampler.timestamp_prompt(duration, frame_count)
    n, t = sampler.parse_timestamp_prompt(text)
    assert t == frame_count
    assert abs(n - duration) <= 0.5 + 1e-6


policies = st.tuples(
    st.integers(min_value=1, max_value=600), st.integers(min_value=0, max_value=600)
).map(lambda p: sampler.SamplingPolicy(p[0], p[0] + p[1]))


@given(duration=st.floats(min_value=1e-3, max_value=1e7), policy=policies)
def test_frame_count_bounds(duration, policy):
    count = sampler.compute_frame_count(duration, policy)
    assert policy.t_min <= count <= policy.t_max


@given(
    d1=st.floats(min_value=1e-3, max_value=1e7),
    d2=st.floats(min_value=1e-3, max_value=1e7),
    policy=policies,
)
def test_frame_count_monotone(d1, d2, policy):
    lo, hi = sorted((d1, d2))
    assert sampler.compute_frame_count(lo, policy) <= sampler.compute_frame_count(
        hi, policy
    )


@given(
    policy=policies,
    frac=st.floats(min_value=0.05, max_value=0.95),
    step=st.floats(min_value=1e-4, max_value=0.04),
)
def test_density_decreases_for_short_videos(policy, frac, step):
    d = policy.t_min * frac
    assert density(d, policy) > density(d + step * policy.t_min, policy)


@given(
    policy=policies,
    extra=st.floats(min_value=0.01, max_value=1e4),
    step=st.floats(min_value=0.01, max_value=1e3),
)
def test_density_decreases_for_long_videos(policy, extra, step):
    d = policy.t_max + extra
    assert density(d, policy) > density(d + step, policy)


@given(
    total_frames=st.integers(min_value=1, max_value=5000),
    fps=st.floats(min_value=0.1, max_value=120.0),
    policy=policies,
)
def test_plan_indices_valid(total_frames, fps, policy):
    meta = sampler.VideoMeta(
        duration=total_frames / fps, fps=fps, total_frames=total_frames
    )
    plan = sampler.build_plan(meta, policy)
    assert len(plan.indices) == plan.frame_count
    assert all(0 <= i < total_frames for i in plan.indices)
    assert all(a <= b for a, b in zip(plan.indices, plan.indices[1:]))
    assert all(0.0 <= t <= meta.duration + 1e-9 for t in plan.timestamps)
