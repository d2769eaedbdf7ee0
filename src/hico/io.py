"""Binary embedding files, synthetic test grids, and config loading.

Embedding file layout (little-endian throughout):

    bytes 0..3    magic "HICO"
    bytes 4..5    u16 version (currently 1)
    bytes 6..21   u32 frames, rows, cols, dim
    bytes 22..    frames*rows*cols*dim float32 payload, frame-major then
                  row-major (C order)

Declared sizes must match the payload length exactly and every float must
be finite. Writes go to a temp file in the target directory and are renamed
into place, so readers never observe a partial file.
"""
from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .compressor import CONNECTOR_KINDS, TokenGrid
from .errors import ConfigError, DomainError

MAGIC = b"HICO"
VERSION = 1
_HEADER = struct.Struct("<4sHIIII")


class EmbeddingFormatError(Exception):
    """Base class for embedding-file parse failures."""


class BadMagicError(EmbeddingFormatError):
    pass


class BadVersionError(EmbeddingFormatError):
    pass


class TruncatedFileError(EmbeddingFormatError):
    pass


class SizeMismatchError(EmbeddingFormatError):
    pass


class NonFiniteDataError(EmbeddingFormatError):
    pass


def decode_embeddings(blob: bytes) -> TokenGrid:
    """Parse an embedding blob, rejecting any size/payload inconsistency."""
    if len(blob) < _HEADER.size:
        raise TruncatedFileError(
            f"file too short for header: {len(blob)} < {_HEADER.size} bytes"
        )
    magic, version, frames, rows, cols, dim = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise BadVersionError(f"unsupported version {version}")
    if min(frames, rows, cols, dim) < 1:
        raise SizeMismatchError(
            f"non-positive dimension in header: {(frames, rows, cols, dim)}"
        )
    expected = frames * rows * cols * dim * 4
    payload = len(blob) - _HEADER.size
    if payload < expected:
        raise TruncatedFileError(f"payload {payload} bytes, header declares {expected}")
    if payload > expected:
        raise SizeMismatchError(f"{payload - expected} trailing bytes after payload")
    data = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size)
    if not np.all(np.isfinite(data)):
        raise NonFiniteDataError("payload contains NaN or infinity")
    grid = data.astype(np.float64).reshape(frames, rows, cols, dim)
    return TokenGrid(grid)


def encode_embeddings(grid: TokenGrid) -> bytes:
    header = _HEADER.pack(MAGIC, VERSION, grid.frames, grid.rows, grid.cols, grid.dim)
    return header + np.ascontiguousarray(grid.data, dtype="<f4").tobytes()


def read_embeddings(path: str | os.PathLike) -> TokenGrid:
    with open(path, "rb") as f:
        return decode_embeddings(f.read())


def write_embeddings(grid: TokenGrid, path: str | os.PathLike) -> None:
    """Write atomically: temp file in the same directory, then rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(encode_embeddings(grid))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        # Name the target, not the temp file the failure happened on.
        raise OSError(exc.errno, exc.strerror, path) from exc


GRID_KINDS = ("constant", "clusters", "gaussian")


def synth_grid(
    kind: str,
    shape: tuple[int, int, int, int],
    seed: int = 0,
    k: int = 2,
    noise: float = 0.0,
) -> TokenGrid:
    """Deterministic synthetic grid for tests and CLI demos.

    constant: every vector equal (value drawn from the seed).
    clusters: k well-separated orthogonal centroids assigned to equal-as-
              possible contiguous token blocks, plus optional gaussian noise;
              similarity merging recovers the centroids.
    gaussian: iid standard normals.

    Values are rounded to float32 so grids survive file round-trips exactly.
    """
    if kind not in GRID_KINDS:
        raise DomainError(f"unknown grid kind {kind!r}; have {GRID_KINDS}")
    frames, rows, cols, dim = shape
    if min(shape) < 1:
        raise DomainError("all shape entries must be >= 1")
    rng = np.random.default_rng(seed)
    n = frames * rows * cols

    if kind == "constant":
        vec = rng.standard_normal(dim)
        flat = np.tile(vec, (n, 1))
    elif kind == "gaussian":
        flat = rng.standard_normal((n, dim))
    else:
        if not (1 <= k <= dim):
            raise DomainError(f"clusters needs 1 <= k <= dim, got k={k}, dim={dim}")
        if k > n:
            raise DomainError(f"clusters needs k <= token count, got k={k}, n={n}")
        if noise < 0:
            raise DomainError("noise must be >= 0")
        # Orthogonal centroids: scaled axis vectors with seeded magnitudes.
        centroids = np.zeros((k, dim))
        scales = rng.uniform(1.0, 3.0, size=k)
        for i in range(k):
            centroids[i, i] = scales[i]
        # Balanced contiguous blocks; every cluster gets at least one token.
        labels = (np.arange(n) * k) // n
        flat = centroids[labels]
        if noise > 0:
            flat = flat + noise * rng.standard_normal((n, dim))

    data = flat.reshape(frames, rows, cols, dim).astype(np.float32).astype(np.float64)
    return TokenGrid(data)


@dataclass
class ToolConfig:
    """Flat dotted-key configuration with typed accessors."""

    values: dict[str, str]

    def get_str(self, key: str, default: str | None = None) -> str | None:
        return self.values.get(key, default)

    def get_int(self, key: str, default: int | None = None) -> int | None:
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"config key {key!r} must be an integer, got {raw!r}")

    def get_float(self, key: str, default: float | None = None) -> float | None:
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"config key {key!r} must be a number, got {raw!r}")

    def get_bool(self, key: str, default: bool | None = None) -> bool | None:
        raw = self.values.get(key)
        if raw is None:
            return default
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"config key {key!r} must be a boolean, got {raw!r}")


KNOWN_CONFIG_KEYS = frozenset(
    {
        "seed",
        "sampler.t_min",
        "sampler.t_max",
        "sampler.fps",
        "connector.kind",
        "connector.budget",
        "connector.clip_len",
        "connector.st_temperature",
        "connector.factor",
        "connector.f_first",
        "connector.f_rest",
        "connector.queries",
        "connector.temperature",
        "connector.weights_path",
        "dropout.schedule",
        "dropout.layers",
        "dropout.hidden_dim",
        "dropout.heads",
        "dropout.text_tokens",
        "costmodel.shape",
        "costmodel.nonembed_params",
        "costmodel.bytes_per_param",
        "costmodel.cache_bytes_per_value",
        "costmodel.overhead_bytes",
        "costmodel.tokens_per_frame",
        "niah.clue_template",
        "niah.start_template",
        "niah.q1_text",
        "niah.hops",
        "niah.distractors",
        "niah.ordered",
    }
)


_INT_KEYS = (
    "seed", "sampler.t_min", "sampler.t_max", "connector.budget",
    "connector.clip_len", "connector.factor", "connector.f_first",
    "connector.f_rest", "connector.queries", "dropout.layers",
    "dropout.hidden_dim", "dropout.heads", "dropout.text_tokens",
    "costmodel.bytes_per_param", "costmodel.cache_bytes_per_value",
    "costmodel.overhead_bytes", "costmodel.tokens_per_frame",
    "niah.hops", "niah.distractors",
)
_FLOAT_KEYS = (
    "sampler.fps", "connector.st_temperature", "connector.temperature",
    "costmodel.nonembed_params",
)
_BOOL_KEYS = ("niah.ordered",)


def _validate_values(cfg: ToolConfig) -> None:
    from .costmodel import PRESETS
    from .dropout import DropSchedule

    for key in _INT_KEYS:
        cfg.get_int(key)
    for key in _FLOAT_KEYS:
        cfg.get_float(key)
    for key in _BOOL_KEYS:
        cfg.get_bool(key)
    kind = cfg.get_str("connector.kind")
    if kind is not None and kind not in CONNECTOR_KINDS:
        raise ConfigError(f"config key 'connector.kind' has unknown value {kind!r}")
    shape = cfg.get_str("costmodel.shape")
    if shape is not None and shape not in PRESETS:
        raise ConfigError(f"config key 'costmodel.shape' names unknown preset {shape!r}")
    schedule = cfg.get_str("dropout.schedule")
    if schedule is not None:
        DropSchedule.parse(schedule)
    for key, marker in (
        ("niah.clue_template", "{next_caption}"),
        ("niah.start_template", "{caption}"),
    ):
        template = cfg.get_str(key)
        if template is not None and template.count(marker) != 1:
            raise ConfigError(f"config key {key!r} must contain {marker} exactly once")


def load_config(path: str | os.PathLike) -> ToolConfig:
    """Parse a key=value config file with dotted section names.

    Blank lines and '#' comments are ignored; unknown keys and values that
    fail their key's validation are rejected at load time, so typos fail
    loudly before any command runs.
    """
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = list(f)
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: config file is not UTF-8 text") from None
    for lineno, line in enumerate(lines, 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in KNOWN_CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    cfg = ToolConfig(values)
    _validate_values(cfg)
    return cfg
