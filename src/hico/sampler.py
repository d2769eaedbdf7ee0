"""Duration-based frame sampling and the timestamp prompt.

The number of frames taken from a video is its duration in whole seconds,
clamped to a [t_min, t_max] window: short videos get sampled densely (many
frames per second), long videos sparsely. The sampling density is the
resulting frames-per-second rate. A fixed-text prompt announces the duration
and frame count so a downstream model can recover absolute timestamps.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import DomainError, check_bytes

PROMPT_TEMPLATE = (
    "The video lasts for {n} seconds, and {t} frames are uniformly sampled from it."
)
_PROMPT_RE = re.compile(
    r"^The video lasts for (\d+) seconds, "
    r"and (\d+) frames are uniformly sampled from it\.$"
)


def _check_duration(duration: float) -> None:
    if not (math.isfinite(duration) and duration > 0):
        raise DomainError("duration must be a positive finite number of seconds")


@dataclass(frozen=True)
class SamplingPolicy:
    """Frame-count clamp window, in frames."""

    t_min: int = 64
    t_max: int = 512

    def __post_init__(self) -> None:
        if self.t_min < 1 or self.t_max < 1:
            raise DomainError("t_min and t_max must be >= 1")
        if self.t_min > self.t_max:
            raise DomainError(f"t_min={self.t_min} exceeds t_max={self.t_max}")


@dataclass(frozen=True)
class VideoMeta:
    """Source-video geometry: duration in seconds, frame rate, frame count."""

    duration: float
    fps: float
    total_frames: int

    def __post_init__(self) -> None:
        _check_duration(self.duration)
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise DomainError("fps must be a positive finite number")
        if self.total_frames < 1:
            raise DomainError("total_frames must be >= 1")
        if abs(self.total_frames - self.duration * self.fps) > 1.0:
            raise DomainError(
                "total_frames must match duration*fps within one frame"
            )

    @classmethod
    def from_rate(cls, duration: float, fps: float) -> VideoMeta:
        """A video of `duration` seconds at `fps`, its frame count rounded half-up."""
        _check_duration(duration)
        frames = duration * fps
        if not math.isfinite(frames):
            raise DomainError("duration * fps must be finite")
        return cls(duration=duration, fps=fps, total_frames=max(1, math.floor(frames + 0.5)))


@dataclass(frozen=True)
class SamplePlan:
    """Resolved sampling: which source frames to take and when they occur."""

    frame_count: int
    density: float
    indices: tuple[int, ...]
    timestamps: tuple[float, ...]


def compute_frame_count(duration: float, policy: SamplingPolicy) -> int:
    """Number of frames to sample from a video of `duration` seconds.

    The duration is truncated to whole seconds, then clamped into
    [t_min, t_max]. The result is always within those bounds and is
    non-decreasing in duration.
    """
    _check_duration(duration)
    return min(policy.t_max, max(math.floor(duration), policy.t_min))


# A plan's index and timestamp per frame, as Python objects and again as the
# report's text, with the join's temporaries.
_PLAN_BYTES_PER_FRAME = 256


def build_plan(meta: VideoMeta, policy: SamplingPolicy) -> SamplePlan:
    """Pick uniformly strided source-frame indices for a video.

    Index j is floor(j * total_frames / frame_count). When the video has
    fewer frames than requested the stride formula repeats frames rather
    than failing, so tiny synthetic inputs stay usable. Raises DomainError,
    before allocating, when the plan would pass errors.BYTES_CAP.
    """
    count = compute_frame_count(meta.duration, policy)
    check_bytes(
        _PLAN_BYTES_PER_FRAME * count,
        f"a sampling plan of {count} frames (t_min={policy.t_min}, t_max={policy.t_max})",
    )
    indices = tuple(j * meta.total_frames // count for j in range(count))
    timestamps = tuple(i / meta.fps for i in indices)
    return SamplePlan(
        frame_count=count,
        density=count / meta.duration,
        indices=indices,
        timestamps=timestamps,
    )


def timestamp_prompt(duration: float, frame_count: int) -> str:
    """Render the fixed timestamp prompt.

    The duration is rounded half-up to an integer; the template text is
    byte-exact and never pluralized ("1 seconds" is intentional).
    """
    _check_duration(duration)
    if frame_count < 1:
        raise DomainError("frame_count must be >= 1")
    n = math.floor(duration + 0.5)
    return PROMPT_TEMPLATE.format(n=n, t=frame_count)


def parse_timestamp_prompt(text: str) -> tuple[int, int]:
    """Recover (seconds, frame count) from a rendered prompt."""
    m = _PROMPT_RE.match(text)
    if m is None:
        raise DomainError("text does not match the timestamp prompt template")
    return int(m.group(1)), int(m.group(2))
