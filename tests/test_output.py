"""The one output writer, io.write_output, through the CLI commands that use
it: a missing path or a regular file, also one behind a symlink, is replaced
atomically with the mode it had (or the umask's, when new); a FIFO or a pipe
is written through. Every test stays inside its own temporary directory and
makes no device node."""
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from hico import cli, io


def compress(tmp_path, out) -> int:
    """`hico compress` of one small seeded grid into `out`; the exit code."""
    grid = tmp_path / "grid.bin"
    if not grid.exists():
        io.write_embeddings(io.synth_grid("gaussian", (2, 4, 4, 8), seed=0), grid)
    return cli.main(["compress", "--in", str(grid), "--out", str(out)])


def plain_bytes(tmp_path) -> bytes:
    """The bytes `compress` writes to a new regular file."""
    assert compress(tmp_path, tmp_path / "plain.bin") == 0
    return (tmp_path / "plain.bin").read_bytes()


def temp_files(tmp_path) -> list:
    return sorted(p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp"))


def test_symlink_target_is_rewritten_and_the_link_kept(tmp_path):
    real = tmp_path / "real.bin"
    real.write_bytes(b"old")
    link = tmp_path / "link.bin"
    link.symlink_to(real)
    assert compress(tmp_path, link) == 0
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_bytes() == plain_bytes(tmp_path)
    assert temp_files(tmp_path) == []


def test_fifo_is_written_through(tmp_path):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        code = compress(tmp_path, fifo)
        reader.join(timeout=10)
    finally:
        if reader.is_alive():  # no writer opened the FIFO: let the reader see its end
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10)
    assert code == 0 and stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert got == [plain_bytes(tmp_path)]


def test_proc_fd_link_of_a_pipe_is_written_through(tmp_path):
    # A link to /proc/self/fd/N of a pipe this test owns stands in for
    # `--out /dev/stdout` with stdout piped. The output is far below the
    # pipe's buffer, so the write completes with no reader running.
    r, w = os.pipe()
    link = tmp_path / "stdout"
    link.symlink_to(f"/proc/self/fd/{w}")
    try:
        code = compress(tmp_path, link)
    finally:
        os.close(w)
    with os.fdopen(r, "rb") as f:
        got = f.read()
    assert code == 0 and link.is_symlink()
    assert got == plain_bytes(tmp_path)


@pytest.mark.parametrize("mode", [0o644, 0o640])
def test_replaced_file_keeps_its_mode(tmp_path, mode):
    out = tmp_path / "c.bin"
    out.write_bytes(b"old")
    out.chmod(mode)
    assert compress(tmp_path, out) == 0
    assert stat.S_IMODE(out.stat().st_mode) == mode
    assert out.read_bytes() == plain_bytes(tmp_path)


def test_new_file_gets_the_umask_mode(tmp_path):
    old = os.umask(0o027)
    try:
        assert compress(tmp_path, tmp_path / "c.bin") == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "c.bin").stat().st_mode) == 0o640


CHILD = """\
import resource, sys
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))
from hico import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def test_failed_write_leaves_the_old_file_and_names_it(tmp_path):
    lib = tmp_path / "lib.json"
    assert cli.main(["niah", "synth-library", "--size", "200", "--out", str(lib)]) == 0
    old = lib.read_bytes()
    assert len(old) > 4096
    src = str(Path(io.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", CHILD, "niah", "synth-library", "--size", "300", "--out", str(lib)],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
    )
    assert run.returncode == 3
    assert run.stderr.startswith("io error: [Errno 27]") and len(run.stderr.splitlines()) == 1
    assert str(lib) in run.stderr and ".tmp" not in run.stderr
    assert lib.read_bytes() == old
    assert temp_files(tmp_path) == []


def test_path_under_a_regular_file_exits_3_naming_it(tmp_path, capsys):
    # ENOTDIR, which root meets too, unlike a read-only directory.
    parent = tmp_path / "file"
    parent.write_bytes(b"")
    out = parent / "out"
    with pytest.raises(NotADirectoryError) as exc:
        io.write_output(out, [b"x"])
    assert exc.value.filename == str(out)
    for argv in (
        ["synth", "--shape", "1x1x1x4", "--out", str(out)],
        ["niah", "synth-library", "--size", "4", "--out", str(out)],
    ):
        capsys.readouterr()
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("io error:") and len(err.splitlines()) == 1
        assert str(out) in err and ".tmp" not in err
    assert parent.read_bytes() == b""
