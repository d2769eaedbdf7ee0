"""Child process for the argv fuzz in test_cli_fuzz.py.

Usage: python cli_child.py ADDRESS_SPACE_BYTES

Caps its own address space, then reads one JSON argv list per stdin line,
runs `hico.cli.main` on it and writes one JSON line back: the exit code and
everything the command wrote to stderr. An exception that escapes `main` is
written to stderr as its traceback, exit code 1.
"""
import contextlib
import io
import json
import resource
import sys
import traceback
import warnings

limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

from hico import cli  # noqa: E402  (imported under the cap)

# Show every warning, not only the first from each line, so that no example
# hides a warning behind an earlier one.
warnings.simplefilter("always")

for line in sys.stdin:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(json.loads(line))
        except SystemExit as exc:
            code = exc.code
        except BaseException:
            traceback.print_exc()
            code = 1
    print(json.dumps({"code": code, "stderr": err.getvalue()}), flush=True)
