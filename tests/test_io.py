import argparse
import hashlib
import io as bytes_io
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import traced_peak
from hico import cli, costmodel, errors, io
from hico.compressor import TokenGrid, tome_merge
from hico.errors import ConfigError, DomainError


def grid_from(seed, shape=(2, 3, 4, 5)):
    return io.synth_grid("gaussian", shape, seed=seed)


def test_round_trip(tmp_path):
    path = tmp_path / "g.bin"
    grid = grid_from(1)
    io.write_embeddings(grid, path)
    again = io.read_embeddings(path)
    assert np.array_equal(again.data, grid.data)
    io.write_embeddings(again, tmp_path / "g2.bin")
    assert (tmp_path / "g.bin").read_bytes() == (tmp_path / "g2.bin").read_bytes()


def test_single_zero_vector(tmp_path):
    path = tmp_path / "z.bin"
    io.write_embeddings(TokenGrid(np.zeros((1, 1, 1, 4))), path)
    grid = io.read_embeddings(path)
    assert grid.data.shape == (1, 1, 1, 4)
    assert np.all(grid.data == 0.0)


def test_bad_magic():
    blob = io.encode_embeddings(grid_from(0))
    with pytest.raises(io.BadMagicError):
        io.decode_embeddings(b"NOPE" + blob[4:])


def test_bad_version():
    blob = bytearray(io.encode_embeddings(grid_from(0)))
    struct.pack_into("<H", blob, 4, 9)
    with pytest.raises(io.BadVersionError):
        io.decode_embeddings(bytes(blob))


def test_truncated_header():
    blob = io.encode_embeddings(grid_from(0))
    with pytest.raises(io.TruncatedFileError):
        io.decode_embeddings(blob[:10])


def test_truncated_payload():
    blob = io.encode_embeddings(grid_from(0))
    with pytest.raises(io.TruncatedFileError):
        io.decode_embeddings(blob[:-5])


def test_trailing_bytes_rejected():
    blob = io.encode_embeddings(grid_from(0))
    with pytest.raises(io.SizeMismatchError):
        io.decode_embeddings(blob + b"\x00\x00\x00\x00")


def test_zero_dimension_rejected():
    blob = bytearray(io.encode_embeddings(grid_from(0)))
    struct.pack_into("<I", blob, 6, 0)
    with pytest.raises(io.SizeMismatchError):
        io.decode_embeddings(bytes(blob))


def test_non_finite_payload_rejected():
    grid = grid_from(0, (1, 1, 1, 2))
    blob = bytearray(io.encode_embeddings(grid))
    struct.pack_into("<f", blob, len(blob) - 4, float("nan"))
    with pytest.raises(io.NonFiniteDataError):
        io.decode_embeddings(bytes(blob))


def test_atomic_write_leaves_no_temp(tmp_path):
    path = tmp_path / "out.bin"
    io.write_embeddings(grid_from(2), path)
    io.write_embeddings(grid_from(3), path)  # overwrite in place
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
    assert np.array_equal(io.read_embeddings(path).data, grid_from(3).data)


def test_read_error_names_the_file_and_keeps_its_class(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(io.encode_embeddings(grid_from(2))[:-4])
    with pytest.raises(io.TruncatedFileError, match=f"^{re.escape(str(path))}: payload "):
        io.read_embeddings(path)


def test_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        io.read_embeddings(tmp_path / "absent.bin")


# ---------------------------------------------------------------------------
# synth_grid


def test_synth_constant():
    grid = io.synth_grid("constant", (2, 2, 2, 3), seed=4)
    flat = grid.data.reshape(-1, 3)
    assert np.all(flat == flat[0])


def test_synth_deterministic():
    a = io.synth_grid("gaussian", (2, 2, 2, 3), seed=5)
    b = io.synth_grid("gaussian", (2, 2, 2, 3), seed=5)
    c = io.synth_grid("gaussian", (2, 2, 2, 3), seed=6)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_synth_clusters_recoverable_by_merging():
    grid = io.synth_grid("clusters", (1, 2, 2, 4), seed=7, k=2)
    flat = grid.data.reshape(-1, 4)
    vectors, sizes, _ = tome_merge(flat, 2)
    centroids = {tuple(np.round(v, 6)) for v in flat}
    assert len(centroids) == 2
    for v in vectors:
        assert any(
            np.linalg.norm(v - np.array(c)) < 1e-5 for c in centroids
        )
    assert set(sizes.tolist()) == {2}


def test_synth_rejects_bad_args():
    with pytest.raises(DomainError):
        io.synth_grid("sparkle", (1, 1, 1, 1))
    with pytest.raises(DomainError):
        io.synth_grid("clusters", (1, 1, 2, 2), k=5)
    with pytest.raises(DomainError):
        io.synth_grid("gaussian", (0, 1, 1, 1))


# sha256 of the grid's bytes, pinned from the code that drew each whole grid
# in float64 and rounded it once. Chunks of rows must give the same bytes:
# shapes of one chunk, of several with a partial last one, and of rows wider
# than a chunk; cluster bounds inside a chunk; noise 0 and 5e-324.
SYNTH_DIGESTS = [
    (("constant", (2, 3, 3, 5), 0, 2, 0.0),
     "13d1e8bdfa526c9e108a86f90f143b4c767ae11d6eabba6b25417640fa3912a8"),
    (("constant", (1, 1, 3, 70_000), 9, 2, 0.0),
     "093a076a4a7ba9686c0826e14e74c3194e38144964bceed830cb2ce51c7ece7e"),
    (("gaussian", (1, 1, 1, 1), 2, 2, 0.0),
     "7880f5c293507dff93fccb2bbfb51f2e972a32be0ec40f045d79d7dd68010efd"),
    (("gaussian", (5, 33, 33, 70), 1, 2, 0.0),
     "f8d8c68efc1092b8cbb2e145830c78c91f7df2dd974fbb00b79f20fbb8f9b386"),
    (("gaussian", (1, 1, 3, 70_000), 8, 2, 0.0),
     "647ecd4046af5b795a94fdaa2a0a237999ab4b32b161f41da5b880a699a2fdd5"),
    (("clusters", (4, 4, 4, 8), 3, 3, 0.0),
     "c869536473552f9da9717a77ea1463d304fcd8325038774346ce0c807b8d59f5"),
    (("clusters", (5, 33, 33, 70), 4, 7, 0.5),
     "c33715fd00ca0cb8b25dd5710cf173fa3362f4c594f1e7a6fcf39566e6ce017b"),
    (("clusters", (2, 5, 7, 3), 5, 2, 5e-324),
     "e947719706abf22098cb08cc7a2b4f972f40b43e81563f654268fbc096cab76b"),
    (("clusters", (3, 37, 41, 3), 6, 3, 1.5),
     "85d702a5db935f5f6d49d2e7b55ae56a7b08a0c41a37fa132c1367d6463b735f"),
    (("clusters", (1, 1, 3, 70_000), 7, 3, 0.25),
     "1988b445e8540ee7b77f79fe3224cc5c06618d10a8b53d63a30046753e0b4f40"),
]


@pytest.mark.golden
@pytest.mark.parametrize("args, digest", SYNTH_DIGESTS, ids=[str(a) for a, _ in SYNTH_DIGESTS])
def test_synth_grid_bytes_are_pinned(args, digest):
    grid = io.synth_grid(*args)
    assert grid.data.dtype == np.float32 and grid.data.shape == args[1]
    assert hashlib.sha256(grid.data.tobytes()).hexdigest() == digest


def test_synth_values_survive_float32_round_trip(tmp_path):
    grid = io.synth_grid("gaussian", (1, 2, 2, 3), seed=8)
    path = tmp_path / "g.bin"
    io.write_embeddings(grid, path)
    assert np.array_equal(io.read_embeddings(path).data, grid.data)


# ---------------------------------------------------------------------------
# memory: bytes allocated, counted by tracemalloc, so deterministic and untimed


def test_synth_grid_peak_memory():
    # The float32 grid, one float64 chunk of rows and one chunk's finiteness
    # mask: 1.43x the grid's float32 bytes for clusters, 1.13x for gaussian
    # (a mask of the whole grid read 1.56x and 1.25x). A whole-grid float64
    # draw and its float32 rounding read 3.00x (and a gathered centroid array
    # plus a noise sum, widened back, 5.21x).
    shape = (64, 16, 16, 64)
    peak = traced_peak(io.synth_grid, "clusters", shape, 0, 8, 0.25)
    assert peak <= 2.25 * 4 * np.prod(shape)
    peak = traced_peak(io.synth_grid, "gaussian", shape, 0)
    assert peak <= 1.75 * 4 * np.prod(shape)


def test_decode_embeddings_scans_for_non_finite_values_once(monkeypatch):
    blob = io.encode_embeddings(grid_from(0))
    calls = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda *a, **kw: calls.append(1) or isfinite(*a, **kw))
    io.decode_embeddings(blob)
    assert len(calls) == 1


def test_decode_embeddings_peak_memory():
    # One float32 copy of the payload and one chunk's finiteness mask: 1.07x
    # the payload. A mask of the whole grid read 1.25x, and widening the grid
    # to float64 2.25x.
    blob = io.encode_embeddings(io.synth_grid("gaussian", (16, 16, 16, 64), seed=0))
    payload = len(blob) - io._HEADER.size
    assert traced_peak(io.decode_embeddings, blob) <= 1.1 * payload


def test_read_embeddings_peak_memory(tmp_path):
    # The payload is read straight into the grid: 1.07x the payload, the grid
    # and one chunk's finiteness mask. Reading the file into bytes and
    # decoding them read 2.25x.
    path = tmp_path / "g.bin"
    grid = io.synth_grid("gaussian", (16, 16, 16, 64), seed=0)
    io.write_embeddings(grid, path)
    assert traced_peak(io.read_embeddings, path) <= 1.15 * grid.data.nbytes


def test_write_embeddings_peak_memory(tmp_path):
    # A float32 grid's payload goes to the file as it is: 0.005x the payload.
    # A float64 grid is rounded one 64K-value chunk of rows at a time: 0.26x
    # of this 1 MiB payload. One float32 copy of the whole grid read 1.0x,
    # and joining header and payload into one bytes object first 2.0x.
    grid = io.synth_grid("gaussian", (16, 16, 16, 64), seed=0)
    payload = grid.data.nbytes
    assert traced_peak(io.write_embeddings, grid, tmp_path / "a.bin") <= 0.1 * payload
    wide = TokenGrid(grid.data.astype(np.float64))
    assert traced_peak(io.write_embeddings, wide, tmp_path / "b.bin") <= 0.3 * payload
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


@pytest.mark.parametrize(
    "damage",
    [lambda blob: blob[:-5], lambda blob: blob + bytes(3), lambda blob: blob[:10]],
    ids=["shrinks", "grows", "shrinks-into-header"],
)
def test_read_refuses_a_file_that_changes_size_while_read(tmp_path, monkeypatch, damage):
    # fstat reports the size the file had before it changed: the header and
    # that size agree, and the file then ends early or runs on.
    path = tmp_path / "g.bin"
    blob = io.encode_embeddings(grid_from(0))
    path.write_bytes(damage(blob))
    fstat = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
        [*fstat(fd)[:6], len(blob), *fstat(fd)[7:]]  # st_size
    ))
    with pytest.raises(io.EmbeddingFormatError) as exc:
        io.read_embeddings(path)
    assert type(exc.value) is io.EmbeddingFormatError
    assert str(exc.value) == f"{path}: file changed size while it was read"


class EndlessZeros(bytes_io.RawIOBase):
    """A pipe that serves `header`, then zeros without end, and fails the
    test once it has served `limit` bytes; `fd` is the pipe fstat sees."""

    def __init__(self, header, fd, limit):
        self.header, self.fd, self.limit, self.served = header, fd, limit, 0

    def readable(self):
        return True

    def fileno(self):
        return self.fd

    def readinto(self, buf):
        view = memoryview(buf).cast("B")
        n = len(view)
        assert self.served + n <= self.limit, f"read {self.served + n} bytes of an endless stream"
        head = self.header[self.served : self.served + n]
        view[: len(head)] = head
        view[len(head) :] = bytes(n - len(head))
        self.served += n
        return n


def test_read_refuses_a_stream_that_runs_past_the_byte_cap(monkeypatch):
    # A valid 4x16x16x8 header, its 32 KiB payload, then zeros: counting them
    # all would never end, so the count stops once the cap is passed.
    monkeypatch.setattr(errors, "BYTES_CAP", 1 << 20)
    header = io._HEADER.pack(io.MAGIC, io.VERSION, 4, 16, 16, 8)
    r, w = os.pipe()
    stream = bytes_io.BufferedReader(EndlessZeros(header, r, 64 << 20))
    monkeypatch.setattr(io, "open", lambda path, mode: stream, raising=False)
    try:
        with pytest.raises(io.SizeMismatchError) as exc:
            io.read_embeddings("/dev/stdin")
    finally:
        os.close(r)
        os.close(w)
    assert str(exc.value) == f"/dev/stdin: more than {1 << 20} bytes after the header"
    assert stream.raw.served <= 2 << 20


def test_encode_embeddings_peak_memory():
    # A float32 grid is joined to its header in one copy: 1.0x the payload.
    # Copying it to bytes and then adding the header read 2.0x.
    grid = io.synth_grid("gaussian", (16, 16, 16, 64), seed=0)
    assert grid.data.dtype == np.float32
    assert traced_peak(io.encode_embeddings, grid) <= 1.25 * grid.data.nbytes


# ---------------------------------------------------------------------------
# config: cli.load_config and the schema


def test_config_parse(tmp_path):
    path = tmp_path / "tool.cfg"
    path.write_text(
        """
# comment
sampler.t_min = 32
sampler.t_max = 128   # trailing comment
connector.kind = spatial
niah.ordered = true
""",
        encoding="utf-8",
    )
    cfg = cli.load_config(path)
    assert cfg == {
        "sampler.t_min": 32, "sampler.t_max": 128, "connector.kind": "spatial", "niah.ordered": True,
    }
    assert cfg["niah.ordered"] is True
    settings = cli.resolve_settings(argparse.Namespace(config=str(path)))
    assert settings["sampler.t_min"] == 32
    assert settings["dropout.layers"] == 28


def test_config_typed_getters_reject_bad_values(tmp_path):
    path = tmp_path / "tool.cfg"
    for body, message in (
        ("sampler.t_min = lots", ":1: sampler.t_min must be an integer, got 'lots'"),
        ("\nsampler.t_min = lots", ":2: sampler.t_min must be an integer, got 'lots'"),
        ("niah.ordered = maybe", ":1: niah.ordered must be a boolean, got 'maybe'"),
    ):
        path.write_text(body + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(message)):
            cli.load_config(path)


@pytest.mark.parametrize(
    "body, message",
    [
        ("niah.hops = " + "9" * 5000, "niah.hops must be an integer, got '" + "9" * 39 + "…"),
        ("dropout.schedule = uni:" + "4" * 5000,
         "dropout.schedule must be a drop schedule (bad schedule entry 'uni:" + "4" * 16
         + "…), got 'uni:" + "4" * 35 + "…"),
        ("9" * 5000 + " = 1", "unknown config key '" + "9" * 39 + "…"),
        ("niah.hops = x", "niah.hops must be an integer, got 'x'"),
    ],
    ids=["long-value", "long-schedule", "long-key", "short-value"],
)
def test_config_error_echoes_at_most_40_characters(tmp_path, body, message):
    path = tmp_path / "tool.cfg"
    path.write_text(body + "\n", encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        cli.load_config(path)
    assert str(exc.value).split(": ", 1)[1] == message


def test_config_rejects_missing_equals(tmp_path):
    path = tmp_path / "tool.cfg"
    path.write_text("just some words\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        cli.load_config(path)


@pytest.mark.parametrize("key", sorted(cli.CONFIG_SCHEMA))
def test_config_schema_defaults_pass_their_checks(monkeypatch, key):
    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
    default = cli.resolve_settings(argparse.Namespace(config=None))[key]
    assert default == cli.CONFIG_SCHEMA[key].default
    if default is not None:
        assert cli.check_value(key, default) == default


CONFIG_LINES = st.one_of(
    st.tuples(
        st.sampled_from(sorted(cli.CONFIG_SCHEMA)) | st.text(st.characters(codec="utf-8"), max_size=12),
        st.one_of(
            st.text(st.characters(codec="utf-8"), max_size=20),
            st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-1", "-9" * 40, "9" * 5000, ""]),
            st.integers().map(str),
            st.floats().map(repr),
        ),
    ).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(st.characters(codec="utf-8"), max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(CONFIG_LINES, max_size=6))
def test_load_config_fuzz_raises_only_config_error(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        cfg = cli.load_config(path)
    except ConfigError as exc:
        # A 5,000-digit value is echoed cut short, so the error stays one
        # short line after its file and line number.
        assert len(str(exc)) <= len(f"{path}:6: ") + 160, str(exc)
        return
    for key, value in cfg.items():
        assert cli.check_value(key, value) is value


def test_readme_library_example_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(compile(code, "README.md", "exec"), names)
    ctx, run, flops = names["ctx"], names["run"], names["flops"]
    # 8 frames of 16x16 in 4-frame clips, 64 tokens per clip.
    assert len(ctx.sizes) == 128 and ctx.sizes.sum() == 8 * 16 * 16
    assert [len(kept) for kept in run.kept] == [128, 96, 24, 24]
    assert 0 < flops < costmodel.prefill_flops(128 + 64, costmodel.preset("7b"))


def test_readme_documents_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([\w.]+)` \| (?:`(--[\w-]+)`|—) \| (\w+) \|", section, flags=re.M)
    type_names = {"_parse_bool": "bool"}
    assert rows == [
        (key, row.flag or "", type_names.get(row.parse.__name__, row.parse.__name__))
        for key, row in cli.CONFIG_SCHEMA.items()
    ]
