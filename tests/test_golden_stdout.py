"""Stdout of the command line, pinned byte for byte.

Each line of data/golden_stdout.txt is one command: its exit code, the first
16 hex digits of the sha256 of its stdout, and its argv as a JSON list.  The
commands are the first two rounds of seeds 1-3 of the benchmark's four
workloads, the other output format of every enumerate and dp job among them,
and edge commands at the caps.  data/make_golden_stdout.py wrote the file; a
change that must change stdout writes it again and says why.

The commands run in this process, in file order, under the default
int-to-str limit.  Each certify command writes its stdout to cert-<n>.json
(n counts the certify commands so far), and a verify command reads the file
its {cert-<n>} placeholder names, as the benchmark's runner chains bound,
certify and verify.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

from qadic import cli

DATA = Path(__file__).parent / "data" / "golden_stdout.txt"
INT_STR_LIMIT = 4300
_CERT = re.compile(r"\{cert-(\d+)\}")


class Replay:
    """Runs commands through qadic.cli.main, chaining certificates through
    files in workdir."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.certs = 0

    def __call__(self, argv: list[str]) -> tuple[int, str]:
        argv = [_CERT.sub(lambda m: str(self.workdir / f"cert-{m.group(1)}.json"), a) for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        text = out.getvalue()
        if argv[0] == "certify":
            (self.workdir / f"cert-{self.certs}.json").write_text(text, encoding="utf-8")
            self.certs += 1
        return rc, text


def format_line(argv: list[str], rc: int, text: str) -> str:
    return f"{rc} {hashlib.sha256(text.encode()).hexdigest()[:16]} {json.dumps(argv)}"


def test_stdout_matches_the_golden_file(tmp_path, int_str_limit):
    lines = DATA.read_text(encoding="utf-8").splitlines()
    assert len(lines) > 500
    replay = Replay(tmp_path)
    int_str_limit(INT_STR_LIMIT)
    for number, line in enumerate(lines, 1):
        argv = json.loads(line.split(" ", 2)[2])
        got = format_line(argv, *replay(argv))
        if got != line:
            pytest.fail(f"line {number} of {DATA.name}: {' '.join(argv)[:160]}\n"
                        f"  expected {line[:60]}\n  got      {got[:60]}")
