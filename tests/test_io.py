import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hico import io
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


def test_synth_values_survive_float32_round_trip(tmp_path):
    grid = io.synth_grid("gaussian", (1, 2, 2, 3), seed=8)
    path = tmp_path / "g.bin"
    io.write_embeddings(grid, path)
    assert np.array_equal(io.read_embeddings(path).data, grid.data)


# ---------------------------------------------------------------------------
# config


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
    cfg = io.load_config(path)
    assert cfg.get("sampler.t_min") == 32
    assert cfg.get("sampler.t_max") == 128
    assert cfg.get("connector.kind") == "spatial"
    assert cfg.get("niah.ordered") is True
    assert cfg.get("dropout.layers") == 28


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "tool.cfg"
    path.write_text("sampler.t_mni = 32\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        io.load_config(path)


def test_config_rejects_bad_types_at_load(tmp_path):
    path = tmp_path / "tool.cfg"
    path.write_text("\nsampler.t_min = lots\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=":2: sampler.t_min must be an integer"):
        io.load_config(path)


def test_config_typed_getters_reject_bad_values():
    cfg = io.ToolConfig({"sampler.t_min": "lots", "niah.ordered": "maybe"})
    with pytest.raises(ConfigError):
        cfg.get("sampler.t_min")
    with pytest.raises(ConfigError):
        cfg.get("niah.ordered")


def test_config_validates_presets_and_schedules(tmp_path):
    for body in (
        "costmodel.shape = 13b\n",
        "dropout.schedule = uni:4\n",
        "connector.kind = sparkle\n",
        "niah.clue_template = no placeholder here\n",
        "seed = -1\n",
        "costmodel.nonembed_params = nan\n",
        "costmodel.nonembed_params = 1e400\n",
    ):
        path = tmp_path / "tool.cfg"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(ConfigError):
            io.load_config(path)


def test_config_rejects_missing_equals(tmp_path):
    path = tmp_path / "tool.cfg"
    path.write_text("just some words\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        io.load_config(path)


@pytest.mark.parametrize("key", sorted(io.CONFIG_SCHEMA))
def test_config_schema_defaults_pass_their_checks(key):
    default = io.ToolConfig({}).get(key)
    assert default == io.CONFIG_SCHEMA[key].default
    if default is not None:
        assert io.check_value(key, default) == default


CONFIG_LINES = st.one_of(
    st.tuples(
        st.sampled_from(sorted(io.CONFIG_SCHEMA)) | st.text(st.characters(codec="utf-8"), max_size=12),
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
        cfg = io.load_config(path)
    except ConfigError:
        return
    for key in cfg.values:
        cfg.get(key)


def test_readme_documents_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([\w.]+)` \| (?:`(--[\w-]+)`|—) \| (\w+) \|", section, flags=re.M)
    type_names = {"_parse_bool": "bool"}
    assert rows == [
        (key, row.flag or "", type_names.get(row.parse.__name__, row.parse.__name__))
        for key, row in io.CONFIG_SCHEMA.items()
    ]
