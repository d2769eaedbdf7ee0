"""Binary embedding files, synthetic test grids, and the one output writer.

Embedding file layout (little-endian throughout):

    bytes 0..3    magic "HICO"
    bytes 4..5    u16 version (currently 1)
    bytes 6..21   u32 frames, rows, cols, dim
    bytes 22..    frames*rows*cols*dim float32 payload, frame-major then
                  row-major (C order)

Declared sizes must match the payload length exactly and every float must
be finite. One reader decodes a blob, a file or a pipe: with a known size
every check runs before the payload is read; a stream's header is checked
first, its payload read under BYTES_CAP, and its trailing bytes counted up
to the cap. Every output goes through write_output, which replaces a
regular file atomically and writes through to a pipe or device; a payload
is written in float32 chunks of 64K values, so a float64 grid is never
copied whole.
"""
from __future__ import annotations

import math
import os
import stat
import struct
from io import BytesIO
from typing import Iterable, Iterator

import numpy as np

from . import errors
from .compressor import _SCAN_VALUES, TokenGrid
from .errors import DomainError, FileFormatError, check_bytes

MAGIC = b"HICO"
VERSION = 1
_HEADER = struct.Struct("<4sHIIII")


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


def _parse_header(header: bytes, size: int | None) -> tuple[int, int, int, int]:
    """The (frames, rows, cols, dim) of an embedding file of `size` bytes
    whose first bytes are `header`, once the sizes agree and fit BYTES_CAP;
    with `size` None, as for a stream, once the header alone is good."""
    if len(header) < _HEADER.size:
        raise TruncatedFileError(f"file too short for header: {len(header)} < {_HEADER.size} bytes")
    magic, version, frames, rows, cols, dim = _HEADER.unpack_from(header)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != VERSION:
        raise BadVersionError(f"unsupported version {version}")
    if min(frames, rows, cols, dim) < 1:
        raise SizeMismatchError(
            f"non-positive dimension in header: {(frames, rows, cols, dim)}"
        )
    if size is None:
        return frames, rows, cols, dim
    expected = frames * rows * cols * dim * 4
    payload = size - _HEADER.size
    if payload < expected:
        raise TruncatedFileError(f"payload {payload} bytes, header declares {expected}")
    if payload > expected:
        raise SizeMismatchError(f"{payload - expected} trailing bytes after payload")
    # The cap counts 8 bytes a value: merge with st_temperature stacks its
    # full clips' mixed tokens in float64, and dropout widens its input.
    shape = f"{frames}x{rows}x{cols}x{dim}"
    check_bytes(8 * frames * rows * cols * dim, f"an embedding file of shape {shape}")
    return frames, rows, cols, dim


def decode_embeddings(blob: bytes) -> TokenGrid:
    """Parse an embedding blob, rejecting any size/payload inconsistency."""
    # BytesIO shares the bytes of a bytes blob, so the grid is its one copy.
    return _read(BytesIO(blob), len(blob))


def _file_chunks(grid: TokenGrid) -> Iterator:
    """The header, then the payload in float32 chunks of whole rows: views of
    a float32 grid, or one chunk at a time rounded from a float64 one."""
    yield _HEADER.pack(MAGIC, VERSION, grid.frames, grid.rows, grid.cols, grid.dim)
    rows = grid.data.reshape(-1, grid.dim)
    step = max(1, _SCAN_VALUES // grid.dim)
    for lo in range(0, len(rows), step):
        yield np.ascontiguousarray(rows[lo : lo + step], dtype="<f4")


def encode_embeddings(grid: TokenGrid) -> bytes:
    return b"".join(_file_chunks(grid))


_CHANGED_SIZE = "file changed size while it was read"


def _read(f, size: int | None) -> TokenGrid:
    """Decode the embedding file the binary file `f` reads: `size` bytes, or
    None for a pipe or device (see the module docstring). A file that ends
    early or runs on once its checks have passed changed size while read."""
    header = f.read(_HEADER.size)
    if size is not None and len(header) != min(size, _HEADER.size):
        raise EmbeddingFormatError(_CHANGED_SIZE)
    shape = _parse_header(header, size)
    data = np.empty(shape, "<f4") if 8 * math.prod(shape) <= errors.BYTES_CAP else None
    got = 0 if data is None else f.readinto(data)
    # 64 KiB reads: a file's read(n) allocates n bytes even at its end.
    while chunk := f.read(1 << 16):
        if size is not None:
            raise EmbeddingFormatError(_CHANGED_SIZE)
        got += len(chunk)
        if got > errors.BYTES_CAP:
            raise SizeMismatchError(f"more than {errors.BYTES_CAP} bytes after the header")
    if size is None:
        _parse_header(header, _HEADER.size + got)
    elif got != data.nbytes:
        raise EmbeddingFormatError(_CHANGED_SIZE)
    try:
        return TokenGrid(data.astype(np.float32, copy=False))
    except DomainError:  # its finiteness scan: the one check a 4-D grid of this shape can fail
        raise NonFiniteDataError("payload contains NaN or infinity") from None


def read_embeddings(path: str | os.PathLike) -> TokenGrid:
    """Read and decode an embedding file; a format error names the file.

    A regular file is sized with fstat, so it is checked as decode_embeddings
    checks a blob; anything else, such as a pipe, is read as a stream.
    """
    try:
        with open(path, "rb") as f:
            info = os.fstat(f.fileno())
            return _read(f, info.st_size if stat.S_ISREG(info.st_mode) else None)
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
    errors.BYTES_CAP, and when a clusters value overflows float32.
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
    step = max(1, _SCAN_VALUES // dim)
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
    try:
        return TokenGrid(data.reshape(shape))
    except DomainError:  # its finiteness scan, which only a noisy clusters grid can fail
        raise DomainError(f"--noise {noise} overflows the float32 grid") from None
