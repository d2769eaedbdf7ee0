"""Argv fuzz: numeric flags of synth, compress, dropout, estimate and sample
set to edge values must end in exit 0, 2 or 3 with at most one stderr line
and no traceback. Commands run in one child process under an address-space
cap, so a size that slips past the byte checks fails this test rather than
filling the machine's memory."""
import argparse
import json
import os
import select
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import hico
from hico import cli, io

VALUES = ["0", "-1", "nan", "inf", "1e400", "1e-320", "1000000000000"]
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
def test_numeric_flag_edge_values_exit_cleanly(child, argv):
    argv = [a.format(tmp=child.tmp) for a in argv]
    result = child.run(argv)
    err = result["stderr"]
    assert result["code"] in (0, 2, 3), (argv, err)
    assert len(err.splitlines()) <= 1, (argv, err)
    assert "Traceback" not in err, (argv, err)
