"""Input fuzz: numeric flags of synth, compress, dropout, estimate and sample
set to edge values, mutated resampler `--weights` archives and damaged
embedding files must end in exit 0, 2 or 3 with at most one stderr line and
no traceback. Commands run
in one child process under an address-space cap, so a size that slips past
the byte checks fails this test rather than filling the machine's memory."""
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
from hico import cli, io

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
    def __init__(self, tmp):
        self.tmp = tmp
        src = str(Path(hico.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
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


@pytest.fixture(scope="module")
def child(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    grid = io.synth_grid("clusters", (4, 4, 4, 8), seed=1, k=2, noise=0.1)
    io.write_embeddings(grid, tmp / "grid.bin")
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
