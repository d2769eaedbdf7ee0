"""Binary embedding files, synthetic test grids, and config loading.

Embedding file layout (little-endian throughout):

    bytes 0..3    magic "HICO"
    bytes 4..5    u16 version (currently 1)
    bytes 6..21   u32 frames, rows, cols, dim
    bytes 22..    frames*rows*cols*dim float32 payload, frame-major then
                  row-major (C order)

Declared sizes must match the payload length exactly and every float must
be finite. Every output goes through write_output, which replaces a regular
file atomically and writes through to a pipe or device. A payload is written
in float32 chunks of 64K values, so a float64 grid is never copied whole.
"""
from __future__ import annotations

import math
import os
import stat
import struct
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .compressor import CONNECTOR_KINDS, ConnectorConfig, TokenGrid
from .costmodel import GIB, PRESETS
from .dropout import DecoderGeometry, DropSchedule
from .errors import ConfigError, DomainError, FileFormatError, check_bytes
from .niah import CLUE_TEMPLATE, Q1_TEXT, START_TEMPLATE
from .sampler import SamplingPolicy

MAGIC = b"HICO"
VERSION = 1
_HEADER = struct.Struct("<4sHIIII")
_CHUNK_VALUES = 1 << 16  # values drawn, or written, per chunk of rows


class EmbeddingFormatError(FileFormatError):
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


def _parse_header(header: bytes, size: int) -> tuple[int, int, int, int]:
    """The (frames, rows, cols, dim) of an embedding file of `size` bytes
    whose first bytes are `header`, once the sizes agree and fit BYTES_CAP."""
    if size < _HEADER.size:
        raise TruncatedFileError(f"file too short for header: {size} < {_HEADER.size} bytes")
    magic, version, frames, rows, cols, dim = _HEADER.unpack_from(header)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise BadVersionError(f"unsupported version {version}")
    if min(frames, rows, cols, dim) < 1:
        raise SizeMismatchError(
            f"non-positive dimension in header: {(frames, rows, cols, dim)}"
        )
    expected = frames * rows * cols * dim * 4
    payload = size - _HEADER.size
    if payload < expected:
        raise TruncatedFileError(f"payload {payload} bytes, header declares {expected}")
    if payload > expected:
        raise SizeMismatchError(f"{payload - expected} trailing bytes after payload")
    # The cap counts 8 bytes a value, the float64 copy a connector widens the
    # grid to.
    shape = f"{frames}x{rows}x{cols}x{dim}"
    check_bytes(8 * frames * rows * cols * dim, f"an embedding file of shape {shape}")
    return frames, rows, cols, dim


def _grid(data: np.ndarray) -> TokenGrid:
    try:
        return TokenGrid(data)
    except DomainError:  # its finiteness scan: the one check a 4-D grid of this shape can fail
        raise NonFiniteDataError("payload contains NaN or infinity") from None


def decode_embeddings(blob: bytes) -> TokenGrid:
    """Parse an embedding blob, rejecting any size/payload inconsistency."""
    shape = _parse_header(blob, len(blob))
    # The grid is one float32 copy of the payload, not a view: the payload
    # starts at byte 22, so a view would be misaligned and read-only, and
    # would keep the whole blob alive.
    data = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size).astype(np.float32)
    return _grid(data.reshape(shape))


def _file_chunks(grid: TokenGrid) -> Iterator:
    """The header, then the payload in float32 chunks of whole rows: views of
    a float32 grid, or one chunk at a time rounded from a float64 one."""
    yield _HEADER.pack(MAGIC, VERSION, grid.frames, grid.rows, grid.cols, grid.dim)
    rows = grid.data.reshape(-1, grid.dim)
    step = max(1, _CHUNK_VALUES // grid.dim)
    for lo in range(0, len(rows), step):
        yield np.ascontiguousarray(rows[lo : lo + step], dtype="<f4")


def encode_embeddings(grid: TokenGrid) -> bytes:
    return b"".join(_file_chunks(grid))


_CHANGED_SIZE = "file changed size while it was read"


def read_embeddings(path: str | os.PathLike) -> TokenGrid:
    """Read and decode an embedding file; a format error names the file.

    A regular file is sized with fstat and checked as decode_embeddings
    checks a blob, then its payload is read straight into the grid, with no
    bytes copy of the file. Anything else, such as a pipe, is read whole and
    decoded.
    """
    try:
        with open(path, "rb") as f:
            info = os.fstat(f.fileno())
            if not stat.S_ISREG(info.st_mode):
                return decode_embeddings(f.read())
            header = f.read(_HEADER.size)
            if len(header) != min(info.st_size, _HEADER.size):
                raise EmbeddingFormatError(_CHANGED_SIZE)
            data = np.empty(_parse_header(header, info.st_size), "<f4")
            if f.readinto(data) != data.nbytes or f.read(1):
                raise EmbeddingFormatError(_CHANGED_SIZE)
            return _grid(data.astype(np.float32, copy=False))
    except EmbeddingFormatError as exc:
        raise type(exc)(f"{os.fspath(path)}: {exc}") from None


def write_output(path: str | os.PathLike, chunks: Iterable) -> None:
    """Write the bytes-like `chunks` to `path`, as the target found there needs.

    A missing path or a regular file, also one behind a symlink, is written
    to a temp file beside the real target, given the replaced file's mode
    (or the mode open() gives a new file) and renamed into place, so a
    failed write leaves the old file and no temp file. Anything else, such
    as a FIFO, a character device or a /proc/self/fd link, is opened and
    written through. An OSError names `path`.
    """
    path = os.fspath(path)
    try:
        mode = os.stat(path).st_mode if os.path.exists(path) else None
        if mode is not None and not stat.S_ISREG(mode):
            with open(path, "wb") as f:
                f.writelines(chunks)
            return
        real = os.path.realpath(path)
        tmp = os.path.join(os.path.dirname(real), f"tmp{os.urandom(8).hex()}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as f:
                if mode is not None:
                    os.fchmod(fd, stat.S_IMODE(mode))
                f.writelines(chunks)
            os.replace(tmp, real)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        # Name the target, not the temp file the failure happened on.
        raise OSError(exc.errno, exc.strerror, path) from exc


def write_embeddings(grid: TokenGrid, path: str | os.PathLike) -> None:
    write_output(path, _file_chunks(grid))


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

    The grid is float32, so it survives file round-trips exactly. Values are
    drawn and computed in float64 a chunk of rows at a time and rounded into
    the grid, so no float64 copy of the whole grid is made; consecutive draws
    continue one stream, so the bytes do not depend on the chunk size.
    Raises DomainError, before allocating, when the grid would pass
    errors.BYTES_CAP.
    """
    if kind not in GRID_KINDS:
        raise DomainError(f"unknown grid kind {kind!r}; have {GRID_KINDS}")
    frames, rows, cols, dim = shape
    if min(shape) < 1:
        raise DomainError("all shape entries must be >= 1")
    # Only the float32 grid and one float64 chunk of rows are alive at once,
    # well under the three float64 copies of the grid the cap is checked at.
    check_bytes(3 * 8 * frames * rows * cols * dim, f"--shape {frames}x{rows}x{cols}x{dim}")
    rng = np.random.default_rng(seed)
    n = frames * rows * cols

    if kind == "clusters":
        if not (1 <= k <= dim):
            raise DomainError(f"clusters needs 1 <= k <= dim, got k={k}, dim={dim}")
        if k > n:
            raise DomainError(f"clusters needs k <= token count, got k={k}, n={n}")
        if not (math.isfinite(noise) and noise >= 0):
            raise DomainError(f"noise must be finite and >= 0, got {noise}")
        # Orthogonal centroids: scaled axis vectors with seeded magnitudes.
        centroids = np.zeros((k, dim))
        scales = rng.uniform(1.0, 3.0, size=k)
        for i in range(k):
            centroids[i, i] = scales[i]
        # Balanced contiguous blocks, token t in cluster t·k // n; every
        # cluster gets at least one token.
        bounds = -(-np.arange(k + 1) * n // k)

    data = np.empty((n, dim), np.float32)
    if kind == "constant":
        data[...] = rng.standard_normal(dim)
        return TokenGrid(data.reshape(shape))
    step = max(1, _CHUNK_VALUES // dim)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        if kind == "gaussian":
            data[lo:hi] = rng.standard_normal((hi - lo, dim))
            continue
        if noise > 0:
            chunk = rng.standard_normal((hi - lo, dim))
            chunk *= noise
        else:
            chunk = np.zeros((hi - lo, dim))
        # Adding in place gives each value the float of noise·z + centroid
        # with no gathered centroid array.
        for i in range(lo * k // n, (hi - 1) * k // n + 1):
            chunk[max(bounds[i], lo) - lo : min(bounds[i + 1], hi) - lo] += centroids[i]
        data[lo:hi] = chunk
    return TokenGrid(data.reshape(shape))


_ECHO_CHARS = 40  # of a bad value's text, echoed in its one-line error


def _clip(text: str) -> str:
    return text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS] + "…"


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


_TYPE_NAMES = {int: "an integer", float: "a number", _parse_bool: "a boolean"}


def _at_least(low: int):
    return lambda value: None if value >= low else f"must be >= {low}"


def _one_of(names):
    return lambda value: None if value in names else f"must be one of {', '.join(sorted(names))}"


def _positive(value: float) -> str | None:
    return None if value > 0 else "must be > 0"  # NaN fails it too


def _finite_and(check):
    return lambda value: check(value) if math.isfinite(value) else "must be finite"


def _schedule(text: str) -> str | None:
    try:
        DropSchedule.parse(text)
    except ConfigError as exc:
        return f"must be a drop schedule ({_clip(str(exc))})"
    return None


def _placeholder_once(marker: str):
    return lambda text: None if text.count(marker) == 1 else f"must contain {marker} exactly once"


class ConfigRow(NamedTuple):
    """How one config key's text is parsed, its value when unset, a check that
    returns a complaint about a bad value, or None, and its flag, if it has one."""

    parse: Callable[[str], Any]
    default: Any
    check: Callable[[Any], str | None] = lambda value: None
    flag: str | None = None


# The one list of config keys; the CLI builds each key's flag from its row.
CONFIG_SCHEMA: dict[str, ConfigRow] = {
    "seed": ConfigRow(int, 0, _at_least(0), "--seed"),
    "sampler.t_min": ConfigRow(int, SamplingPolicy.t_min, _at_least(1), "--tmin"),
    "sampler.t_max": ConfigRow(int, SamplingPolicy.t_max, _at_least(1), "--tmax"),
    "sampler.fps": ConfigRow(float, 1.0, _finite_and(_positive), "--fps"),
    "connector.kind": ConfigRow(str, ConnectorConfig.kind, _one_of(CONNECTOR_KINDS), "--connector"),
    "connector.budget": ConfigRow(int, ConnectorConfig.budget, _at_least(1), "--budget"),
    "connector.clip_len": ConfigRow(int, ConnectorConfig.clip_len, _at_least(1), "--clip-len"),
    "connector.st_temperature": ConfigRow(
        float, ConnectorConfig.st_temperature, _positive, "--st-temperature"
    ),
    "connector.factor": ConfigRow(int, ConnectorConfig.factor, _at_least(1), "--factor"),
    "connector.f_first": ConfigRow(int, ConnectorConfig.f_first, _at_least(1), "--f-first"),
    "connector.f_rest": ConfigRow(int, ConnectorConfig.f_rest, _at_least(1), "--f-rest"),
    "connector.queries": ConfigRow(int, ConnectorConfig.queries, _at_least(1), "--queries"),
    "connector.temperature": ConfigRow(
        float, ConnectorConfig.temperature, _positive, "--temperature"
    ),
    "connector.weights_path": ConfigRow(str, ConnectorConfig.weights_path, flag="--weights"),
    "dropout.schedule": ConfigRow(str, "", _schedule, "--schedule"),
    # The paper's 28-layer decoders, not DecoderGeometry's 4-layer toy.
    "dropout.layers": ConfigRow(int, 28, _at_least(1), "--layers"),
    "dropout.hidden_dim": ConfigRow(int, DecoderGeometry.hidden_dim, _at_least(1), "--hidden-dim"),
    "dropout.heads": ConfigRow(int, DecoderGeometry.heads, _at_least(1), "--heads"),
    # An attention drop ranks tokens by a text query, so keep some text.
    "dropout.text_tokens": ConfigRow(int, 8, _at_least(1), "--text-tokens"),
    "costmodel.shape": ConfigRow(str, "7b", _one_of(PRESETS), "--shape"),
    # Unset: the preset's own parameter count and bytes per parameter.
    "costmodel.nonembed_params": ConfigRow(float, None, _finite_and(_at_least(1))),
    "costmodel.bytes_per_param": ConfigRow(int, None, _at_least(1)),
    "costmodel.cache_bytes_per_value": ConfigRow(int, 2, _at_least(1), "--cache-bytes"),
    "costmodel.overhead_bytes": ConfigRow(int, 2 * GIB, _at_least(0), "--overhead-bytes"),
    "costmodel.tokens_per_frame": ConfigRow(int, 16, _at_least(1), "--tokens-per-frame"),
    "niah.clue_template": ConfigRow(str, CLUE_TEMPLATE, _placeholder_once("{next_caption}")),
    "niah.start_template": ConfigRow(str, START_TEMPLATE, _placeholder_once("{caption}")),
    "niah.q1_text": ConfigRow(str, Q1_TEXT),
    "niah.hops": ConfigRow(int, 3, _at_least(1), "--hops"),
    "niah.distractors": ConfigRow(int, 1, _at_least(0), "--distractors"),
    "niah.ordered": ConfigRow(_parse_bool, False, flag="--ordered"),
}


def check_value(key: str, value: Any) -> Any:
    """Return `value`, or raise ConfigError if it fails `key`'s check."""
    complaint = CONFIG_SCHEMA[key].check(value)
    if complaint:
        raise ConfigError(f"{key} {complaint}, got {_clip(repr(value))}")
    return value


@dataclass
class ToolConfig:
    """Flat dotted-key configuration, typed and checked by CONFIG_SCHEMA."""

    values: dict[str, str]

    def get(self, key: str) -> Any:
        """The typed, checked value of `key`, or its schema default when unset."""
        row = CONFIG_SCHEMA[key]
        text = self.values.get(key)
        if text is None:
            return row.default
        try:
            value = row.parse(text)
        except ValueError:
            raise ConfigError(f"{key} must be {_TYPE_NAMES[row.parse]}, got {_clip(repr(text))}") from None
        return check_value(key, value)


def load_config(path: str | os.PathLike) -> ToolConfig:
    """Parse a key=value config file with dotted section names.

    Blank lines and '#' comments are ignored; unknown keys and values that
    fail their key's validation are rejected at load time, so typos fail
    loudly before any command runs.
    """
    cfg = ToolConfig({})
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
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown config key {_clip(repr(key))}")
        cfg.values[key] = value.strip()
        try:
            cfg.get(key)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return cfg
