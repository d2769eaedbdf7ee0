"""Input fuzz: numeric flags of synth, compress, dropout, estimate and sample
set to edge values, mutated resampler `--weights` archives, damaged
embedding files, damaged config files and damaged niah library, instance,
responses and grid files must end in exit 0, 2 or 3 with at most one stderr
line and no traceback. Commands run in a child process under
an address-space cap, so a size that slips past the byte checks fails this
test rather than filling the machine's memory. A damaged embedding file must
also fail to read as its bytes fail to decode, and a pipe must read as a
file does."""
import argparse
import io as bytes_io
import json
import math
import os
import select
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hico
from helpers import json_slots
from hico import cli, io
from hico.errors import ConfigError, DomainError

VALUES = ["0", "-1", "nan", "inf", "1e400", "1e-320", "1000000000000", "1" + "0" * 400]
ADDRESS_SPACE = 1 << 30
# Seconds one command may take before the test fails on it.
TIMEOUT = 20.0

BASE = {
    "synth": ["--kind", "clusters", "--shape", "2x4x4x8", "--noise", "0.1", "--out", "{tmp}/s.bin"],
    "compress": ["--in", "{tmp}/grid.bin", "--out", "{tmp}/c.bin"],
    "dropout": ["--in", "{tmp}/grid.bin", "--schedule", "uni:1:0.5,attn:2:0.5", "--layers", "4"],
    "estimate": ["--frames", "64", "--schedule", "uni:4:0.75,attn:18:0.25"],
    "sample": ["--duration", "60"],
}


def numeric_flags(command):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [a.option_strings[0] for a in sub.choices[command]._actions if a.type in (int, float)]


FLAGS = {command: numeric_flags(command) for command in BASE}


def test_every_command_has_numeric_flags():
    assert all(FLAGS.values()), FLAGS


class Child:
    def __init__(self, tmp, **env_vars):
        self.tmp = tmp
        src = str(Path(hico.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env.pop(cli.ENV_CONFIG, None)
        env.update(env_vars)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(ADDRESS_SPACE)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=tmp,
        )

    def run(self, argv):
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        assert line, f"no answer within {TIMEOUT} s (exit {self.proc.poll()}) for {argv}"
        return json.loads(line)

    def close(self):
        self.proc.kill()
        self.proc.wait()


# The 4-frame grid every command reads, and the embedding-file fuzzes damage.
EMBEDDING_GRID = io.synth_grid("clusters", (4, 4, 4, 8), seed=1, k=2, noise=0.1)


@pytest.fixture(scope="module")
def child(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    io.write_embeddings(EMBEDDING_GRID, tmp / "grid.bin")
    proc = Child(tmp)
    yield proc
    proc.close()


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(BASE)))
    argv = [command, *BASE[command]]
    if command == "compress":
        argv += ["--connector", draw(st.sampled_from(io.CONNECTOR_KINDS))]
    flags = draw(st.lists(st.sampled_from(FLAGS[command]), min_size=1, max_size=3, unique=True))
    for flag in flags:
        argv += [flag, draw(st.sampled_from(VALUES))]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=argvs())
# numpy's overflow warnings once printed ahead of the error line here.
@example(argv=["compress", *BASE["compress"], "--connector", "resampler", "--temperature", "1e-320"])
# A 10^12-frame plan once grew until memory ran out.
@example(argv=["sample", *BASE["sample"], "--tmin", "1000000000000", "--tmax", "1000000000000"])
# A 400-digit byte count once overflowed a float after the report had printed.
@example(argv=["estimate", *BASE["estimate"], "--overhead-bytes", "1" + "0" * 400])
def test_numeric_flag_edge_values_exit_cleanly(child, argv):
    argv = [a.format(tmp=child.tmp) for a in argv]
    result = child.run(argv)
    err = result["stderr"]
    assert result["code"] in (0, 2, 3), (argv, err)
    assert len(err.splitlines()) <= 1, (argv, err)
    assert "Traceback" not in err, (argv, err)


# Weights fuzz: `compress --connector resampler` on the 4-frame grid in clips
# of 3 and 1 frames, so every archive also meets a short final clip.
QUERIES = 6
WEIGHTS_ARGV = [
    "compress", *BASE["compress"], "--connector", "resampler", "--clip-len", "3",
    "--queries", str(QUERIES), "--weights", "{tmp}/w.npz",
]
FINITE = [0.0, 1.0, -0.5, 2.0, 1e300]
DTYPES = ["float16", "float64", "int64", "bool", "complex128", "<U3", "object"]


@st.composite
def weight_arrays(draw, fits):
    # The shape that fits this member, or any shape from 0-d to 3-d.
    shape = draw(st.one_of(st.just(fits), st.lists(st.integers(0, 4), max_size=3).map(tuple)))
    pool = draw(st.sampled_from([FINITE, FINITE + [math.nan, math.inf]]))
    count = math.prod(shape)
    values = draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count))
    with np.errstate(all="ignore"):
        return np.array(values).reshape(shape).astype(draw(st.sampled_from(DTYPES)))


FITS = {"queries": (QUERIES, 8), "wk": (8, 8), "wv": (8, 3), "extra": (2,)}
MEMBERS = {name: weight_arrays(fits) for name, fits in FITS.items()}
OTHERS = {name: MEMBERS[name] for name in ("wk", "wv", "extra")}
# Half of the archives hold queries; the other half may lack them.
archives = st.one_of(
    st.fixed_dictionaries({"queries": MEMBERS["queries"]}, optional=OTHERS),
    st.fixed_dictionaries({}, optional=MEMBERS),
)
# None, or (kind, where in the archive as a fraction of its length, xor mask).
damages = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(["truncate", "flip"]), st.floats(0, 1), st.integers(1, 255)),
)


def archive_bytes(members, damage):
    buffer = bytes_io.BytesIO()
    np.savez(buffer, **members)
    blob = bytearray(buffer.getvalue())
    if damage is not None:
        kind, where, mask = damage
        at = min(int(where * len(blob)), len(blob) - 1)
        if kind == "truncate":
            del blob[at:]
        else:
            blob[at] ^= mask
    return bytes(blob)


@settings(max_examples=120, deadline=None)
@given(members=archives, damage=damages)
# A complex queries array once exited 0 with a ComplexWarning on stderr.
@example(members={"queries": np.full((QUERIES, 8), 1 + 2j)}, damage=None)
# np.load(path) once left the file open on a corrupt zip, and the
# ResourceWarning printed when it was collected.
@example(members={}, damage=("truncate", 1.0, 1))
# A flipped compression-method field once ended in NotImplementedError.
@example(members={"queries": np.zeros((8, 8), bool)}, damage=("flip", 0.796875, 1))
# Finite weights whose scores overflow once ended in an error naming no file.
@example(members={"queries": np.full((QUERIES, 8), 1e300), "wk": np.full((8, 8), 1e300)},
         damage=None)
def test_weights_archives_exit_cleanly(child, members, damage):
    (child.tmp / "w.npz").write_bytes(archive_bytes(members, damage))
    argv = [a.format(tmp=child.tmp) for a in WEIGHTS_ARGV]
    result = child.run(argv)
    err = result["stderr"]
    assert result["code"] in (0, 2, 3), (members, damage, err)
    assert len(err.splitlines()) <= 1, (members, damage, err)
    assert "Traceback" not in err, (members, damage, err)
    if result["code"] == 2:
        assert f"{child.tmp}/w.npz" in err, (members, damage, err)


# Embedding-file fuzz: `compress --in` and `dropout --in` read a damaged copy
# of the 4-frame grid's file (header: magic, u16 version, four u32 sizes).
EMBEDDING_ARGV = {
    "compress": ["compress", "--in", "{tmp}/e.bin", "--out", "{tmp}/c.bin"],
    "dropout": ["dropout", "--in", "{tmp}/e.bin", *BASE["dropout"][2:]],
}
HEADER = io._HEADER.size
SHAPE_FIELDS = range(6, HEADER, 4)
# Sizes whose product overflows int64 (and any u32), or that are zero.
SIZES = [0, 1, 4, 8, 1 << 16, (1 << 31) - 1, (1 << 32) - 1]
embedding_damages = st.one_of(
    # A truncated file, mostly inside the header.
    st.tuples(st.just("truncate"), st.one_of(st.integers(0, HEADER), st.integers(0, 1 << 12))),
    # One flipped byte: magic, version and sizes, or anywhere in the file.
    st.tuples(st.just("flip"), st.one_of(st.integers(0, HEADER - 1), st.integers(0, 1 << 12)),
              st.integers(1, 255)),
    # All four sizes rewritten.
    st.tuples(st.just("sizes"), st.lists(st.sampled_from(SIZES), min_size=4, max_size=4)),
)


def damaged_embeddings(blob, damage):
    blob = bytearray(blob)
    if damage[0] == "truncate":
        del blob[damage[1]:]
    elif damage[0] == "flip":
        blob[min(damage[1], len(blob) - 1)] ^= damage[2]
    else:
        for at, size in zip(SHAPE_FIELDS, damage[1]):
            blob[at : at + 4] = size.to_bytes(4, "little")
    return bytes(blob)


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(sorted(EMBEDDING_ARGV)), damage=embedding_damages)
@example(command="compress", damage=("sizes", [(1 << 32) - 1] * 4))
@example(command="dropout", damage=("truncate", 5))
def test_embedding_files_exit_cleanly(child, command, damage):
    blob = (child.tmp / "grid.bin").read_bytes()
    (child.tmp / "e.bin").write_bytes(damaged_embeddings(blob, damage))
    result = child.run([a.format(tmp=child.tmp) for a in EMBEDDING_ARGV[command]])
    err = result["stderr"]
    assert result["code"] in (0, 2, 3), (command, damage, err)
    assert len(err.splitlines()) <= 1, (command, damage, err)
    assert "Traceback" not in err, (command, damage, err)


@settings(max_examples=200, deadline=None)
@given(damage=embedding_damages, tail=st.binary(max_size=9))
@example(damage=("truncate", 1 << 12), tail=b"")  # a valid file
@example(damage=("truncate", 1 << 12), tail=b"\x00\x00\x00\x00")  # trailing bytes
@example(damage=("sizes", [1, 1, 1, 1]), tail=b"")
def test_read_embeddings_matches_decode_embeddings(tmp_path_factory, damage, tail):
    # The file is read into the grid, the blob decoded from bytes: the same
    # grid, or the same error class and message, the file's prefixed.
    blob = damaged_embeddings(io.encode_embeddings(EMBEDDING_GRID), damage) + tail
    path = tmp_path_factory.getbasetemp() / "parity.bin"
    path.write_bytes(blob)
    try:
        want = io.decode_embeddings(blob)
    except (io.EmbeddingFormatError, DomainError) as exc:
        with pytest.raises(type(exc)) as got:
            io.read_embeddings(path)
        assert type(got.value) is type(exc)
        prefix = f"{path}: " if isinstance(exc, io.EmbeddingFormatError) else ""
        assert str(got.value) == prefix + str(exc)
    else:
        got = io.read_embeddings(path)
        assert got.data.dtype == want.data.dtype and got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("damage", [None, ("truncate", 100)], ids=["valid", "truncated"])
def test_compress_reads_a_pipe_as_it_reads_a_file(tmp_path, damage):
    # A pipe has no size to check before reading, so it is read whole and
    # decoded; the stdout, stderr, exit code and output file are the file's.
    blob = io.encode_embeddings(EMBEDDING_GRID)
    if damage is not None:
        blob = damaged_embeddings(blob, damage)
    (tmp_path / "e.bin").write_bytes(blob)
    src = str(Path(hico.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop(cli.ENV_CONFIG, None)
    runs = []
    for source, out in ((str(tmp_path / "e.bin"), "file.out"), ("/dev/stdin", "pipe.out")):
        argv = ["compress", "--in", source, "--out", str(tmp_path / out)]
        runs.append(subprocess.run([sys.executable, "-m", "hico.cli", *argv], input=blob,
                                   capture_output=True, env=env, timeout=TIMEOUT))
    by_file, by_pipe = runs
    assert by_pipe.returncode == by_file.returncode == (0 if damage is None else 3)
    assert by_pipe.stdout == by_file.stdout
    assert by_pipe.stderr == by_file.stderr.replace(str(tmp_path / "e.bin").encode(), b"/dev/stdin")
    if damage is None:
        assert (tmp_path / "pipe.out").read_bytes() == (tmp_path / "file.out").read_bytes()


# Config-file fuzz: a damaged config file reaches the CLI through --config or
# through $HICO_CONFIG, which the second child reads as {tmp}/env.cfg.
CONFIG_ARGV = {
    "compress": BASE["compress"][:4],
    "dropout": [*BASE["dropout"][:2], "--layers", "4"],
    "estimate": ["--frames", "64"],
    "sample": BASE["sample"],
}
MANY_DIGITS = "9" * 5000
CONFIG_VALUES = [
    # Values of the right type for some key.
    "0", "1", "4", "-1", "0.5", "true", "merge", "resampler", "7b", "uni:2:0.5,attn:3:0.5",
    # Values of the wrong type for most keys.
    "abc", "1.5x", "", "yes please", "0x10", "[1, 2]", "nan", "inf",
    # 5,000-digit numbers.
    MANY_DIGITS, "-" + MANY_DIGITS, MANY_DIGITS + ".5", "0." + MANY_DIGITS, "1e" + MANY_DIGITS,
]
config_lines = st.one_of(
    st.tuples(
        st.sampled_from(sorted(io.CONFIG_SCHEMA) + ["connector.kinds", "seed.x", "", "Seed"]),
        st.sampled_from(CONFIG_VALUES),
    ).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.sampled_from(["# comment", "", "no equals sign", "= 1"]),
)
DIRECTORY, MISSING = "directory", "missing"
config_damages = st.one_of(
    st.none(),
    # The last line cut short, without its newline.
    st.tuples(st.just("truncate"), st.integers(1, 40)),
    # A byte that is never UTF-8 (or starts a sequence it does not finish).
    st.tuples(st.just("bytes"), st.floats(0, 1), st.sampled_from([b"\xff", b"\xc3", b"\x80\x80"])),
    st.just(DIRECTORY),
    st.just(MISSING),
)


def place_config(path, lines, damage):
    """Make `path` the config file `lines` spell, damaged, or a directory, or nothing."""
    if path.is_dir():
        path.rmdir()
    path.unlink(missing_ok=True)
    if damage == DIRECTORY:
        path.mkdir()
        return
    if damage == MISSING:
        return
    blob = "".join(line + "\n" for line in lines).encode()
    if damage is not None and damage[0] == "truncate":
        blob = blob[: max(0, len(blob) - damage[1])]
    elif damage is not None:
        at = int(damage[1] * len(blob))
        blob = blob[:at] + damage[2] + blob[at:]
    path.write_bytes(blob)


@pytest.fixture(scope="module")
def config_child(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("config")
    io.write_embeddings(EMBEDDING_GRID, tmp / "grid.bin")
    proc = Child(tmp, **{cli.ENV_CONFIG: str(tmp / "env.cfg")})
    yield proc
    proc.close()


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(sorted(CONFIG_ARGV)),
    via=st.sampled_from(["flag", "env"]),
    lines=st.lists(config_lines, max_size=5).flatmap(
        # Half of the files repeat one of their lines, a duplicate key or not.
        lambda ls: st.just(ls) | st.sampled_from(ls).map(lambda l: ls + [l]) if ls else st.just(ls)
    ),
    damage=config_damages,
)
@example(command="estimate", via="flag", lines=["costmodel.overhead_bytes = " + MANY_DIGITS],
         damage=None)
@example(command="sample", via="env", lines=["sampler.fps = 2"], damage=("bytes", 0.0, b"\xff"))
@example(command="compress", via="env", lines=[], damage=DIRECTORY)
def test_config_files_exit_cleanly(config_child, command, via, lines, damage):
    tmp = config_child.tmp
    path = tmp / ("flag.cfg" if via == "flag" else "env.cfg")
    place_config(path, lines, damage)
    argv = [command, *CONFIG_ARGV[command]]
    if via == "flag":
        argv = ["--config", str(path), *argv]
    result = config_child.run([a.format(tmp=tmp) for a in argv])
    err = result["stderr"]
    assert result["code"] in (0, 2, 3), (argv, lines, damage, err)
    assert len(err.splitlines()) <= 1, (argv, lines, damage, err)
    assert "Traceback" not in err, (argv, lines, damage, err)
    # Whatever fails to load must fail the command, in a line that names the file.
    try:
        io.load_config(path)
    except (ConfigError, OSError):
        assert result["code"] in (2, 3) and str(path) in err, (argv, lines, damage, err)


# Niah file fuzz: each command reads one damaged file, {bad}, beside intact
# copies of the others, all made once by the commands below.
NIAH_SETUP = [
    ["niah", "synth-library", "--size", "12", "--out", "{tmp}/lib.json"],
    ["niah", "gen", "--length", "60", "--hops", "2", "--count", "2", "--library", "{tmp}/lib.json",
     "--out-dir", "{tmp}/inst"],
    ["niah", "solve", "{tmp}/inst", "--library", "{tmp}/lib.json", "--out", "{tmp}/r.jsonl"],
    ["niah", "heatmap", "--lengths", "30,60", "--depths", "0,1", "--library", "{tmp}/lib.json",
     "--out-dir", "{tmp}/cells", "--grid", "{tmp}/grid.csv"],
    ["niah", "solve", "{tmp}/cells", "--library", "{tmp}/lib.json", "--out", "{tmp}/cells.jsonl"],
]
# command -> (the intact file it reads damaged, its argv)
NIAH_ARGV = {
    "gen": ("lib.json", ["niah", "gen", "--length", "60", "--hops", "2", "--library", "{bad}",
                         "--out-dir", "{tmp}/out"]),
    "gen-single": ("lib.json", ["niah", "gen", "--mode", "single", "--length", "60",
                                "--library", "{bad}", "--out-dir", "{tmp}/out"]),
    "validate": ("instance.json", ["niah", "validate", "{bad}", "--library", "{tmp}/lib.json"]),
    "solve": ("instance.json", ["niah", "solve", "{bad}", "--library", "{tmp}/lib.json",
                                "--out", "{tmp}/out.jsonl"]),
    "score": ("r.jsonl", ["niah", "score", "{tmp}/inst", "--responses", "{bad}"]),
    "heatmap-score": ("grid.csv", ["niah", "heatmap-score", "{tmp}/cells", "--grid", "{bad}",
                                   "--responses", "{tmp}/cells.jsonl", "--out", "{tmp}/heat.csv"]),
}
BIG = "<5,000 digits>"  # an integer json.dumps refuses to write
SAME = "same"  # a duplicated key's value written again
JSON_SWAPS = [None, True, 0, -3, 2.5, "", "x", [], [1], {}, {"k": 1}, BIG]


class Twice(tuple):
    """A key written twice in its object: (first value, second value)."""


def to_json(node):
    """json.dumps, but a Twice writes its key twice and BIG its digits."""
    if isinstance(node, dict):
        pairs = [(k, v) for k, vs in node.items() for v in (vs if isinstance(vs, Twice) else [vs])]
        return "{" + ", ".join(f"{json.dumps(k)}: {to_json(v)}" for k, v in pairs) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(to_json, node)) + "]"
    return "9" * 5000 if node == BIG else json.dumps(node)


def damaged_niah_file(blob, damage, jsonl):
    kind = damage[0]
    if kind in ("truncate", "flip"):
        blob = bytearray(blob)
        at = min(int(damage[1] * len(blob)), len(blob) - 1)
        if kind == "truncate":
            del blob[at:]
        else:
            blob[at] ^= damage[2]
        return bytes(blob)
    # A JSON lines file is a list of documents; a JSON file is a list of one.
    docs = [json.loads(line) for line in blob.splitlines()] if jsonl else [json.loads(blob)]
    slots = json_slots(docs)
    if kind != "swap":
        slots = [(c, k) for c, k in slots if isinstance(c, dict)]
    container, key = slots[damage[1] % len(slots)]
    if kind == "swap":
        container[key] = damage[2]
    elif kind == "delete":
        del container[key]
    else:
        container[key] = Twice((container[key], container[key] if damage[2] == SAME else damage[2]))
    return "".join(to_json(doc) + "\n" for doc in docs).encode()


@st.composite
def niah_damages(draw, command):
    kinds = ["truncate", "flip"]
    if command != "heatmap-score":  # a CSV file has no JSON to damage
        kinds += ["swap", "delete", "duplicate"]
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate":
        return kind, draw(st.floats(0, 1))
    if kind == "flip":
        return kind, draw(st.floats(0, 1)), draw(st.integers(1, 255))
    if kind == "delete":
        return kind, draw(st.integers(0, 1 << 16))
    values = JSON_SWAPS + [SAME] if kind == "duplicate" else JSON_SWAPS
    return kind, draw(st.integers(0, 1 << 16)), draw(st.sampled_from(values))


niah_cases = st.sampled_from(sorted(NIAH_ARGV)).flatmap(
    lambda command: st.tuples(st.just(command), niah_damages(command))
)


@pytest.fixture(scope="module")
def niah_dir(child):
    tmp = child.tmp / "niah"
    tmp.mkdir()
    for argv in NIAH_SETUP:
        assert child.run([a.format(tmp=tmp) for a in argv]) == {"code": 0, "stderr": ""}
    (tmp / "instance.json").write_bytes(sorted((tmp / "inst").iterdir())[0].read_bytes())
    return tmp


@settings(max_examples=250, deadline=None)
@given(case=niah_cases)
# A 5,000-digit integer once escaped json.loads as a bare ValueError.
@example(case=("score", ("swap", 0, BIG)))
# An empty responses file, a library that is not an array, an empty library
# and a path with no hops once ended in errors that named no file; the empty
# library once ended `gen --mode single` in a traceback.
@example(case=("score", ("truncate", 0.0)))
@example(case=("gen", ("swap", 0, None)))
@example(case=("gen", ("swap", 0, [])))
@example(case=("gen-single", ("swap", 0, [])))
@example(case=("solve", ("duplicate", 55764, [])))
def test_niah_files_exit_cleanly(child, niah_dir, case):
    command, damage = case
    intact, argv = NIAH_ARGV[command]
    bad = niah_dir / ("bad" + Path(intact).suffix)
    blob = (niah_dir / intact).read_bytes()
    bad.write_bytes(damaged_niah_file(blob, damage, jsonl=bad.suffix == ".jsonl"))
    result = child.run([a.format(tmp=niah_dir, bad=bad) for a in argv])
    code, err = result["code"], result["stderr"]
    assert code in (0, 2, 3), (command, damage, err)
    assert len(err.splitlines()) <= 1 and "Traceback" not in err, (command, damage, err)
    if err:
        assert str(bad) in err, (command, damage, err)
    else:  # validate reports an unsound instance on stdout and exits 2
        assert code == 0 or command == "validate", (command, damage, err)
