"""The examples of README.md run as written: each python block executes,
and each ``lehmer-ff`` line of its sh blocks runs through ``cli.run``."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from lehmer_ff.cli import run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```", README, re.M | re.S)

# the one example that exits 1: the totient bound fails at n = 3, 6, 12,
# 16, 24 and 48, as "Known reported mismatches" documents
EXPECTED_EXIT = {("verify", "--suite", "bounds"): 1}


def test_python_blocks_run():
    sources = [body for lang, body in BLOCKS if lang == "python"]
    assert sources
    for source in sources:
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(source, "README.md", "exec"), {})


def test_cli_lines_exit_as_documented():
    argvs = [
        shlex.split(line, comments=True)[1:]
        for lang, body in BLOCKS
        if lang == "sh"
        for line in body.splitlines()
        if line.startswith("lehmer-ff ")
    ]
    assert len(argvs) == 16
    codes = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes.append(run(argv))
    assert codes == [EXPECTED_EXIT.get(tuple(argv), 0) for argv in argvs]
