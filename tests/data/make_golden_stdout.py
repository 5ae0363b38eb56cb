"""Write golden_stdout.txt, the commands tests/test_golden_stdout.py replays,
each with the exit code and digest of its stdout on the current tree.

    PYTHONPATH=src python3 tests/data/make_golden_stdout.py

The commands come from the benchmark's job generator (perfbench/jobs.py):
the first two rounds of seeds 1-3 of every workload, with the certify --k
resolved from the round's bound output as the runner resolves it, then the
other output format of every enumerate and dp job among them, then EDGE.
The test reads only the file this writes, so a change to the benchmark does
not change the golden set.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import jobs  # noqa: E402
from test_golden_stdout import DATA, Replay, default_int_str_limit, format_line  # noqa: E402

SEEDS = (1, 2, 3)
ROUNDS = 2
EDGE = (
    # a 50020-digit period: 2 is a primitive root mod the prime 50021
    ("expand", "--x", "1/50021", "--q", "2"),
    ("expand", "--x", "1/7", "--q", "10", "--emit-config"),
    ("enumerate", "--alpha", "1/2", "--q", "3", "--A", "0,2", "--ratio", "1/4", "--k-max", "10",
     "--format", "csv", "--emit-config"),
    ("expand", "--x", "1/7", "--q", "10", "--format", "csv"),
    ("certify", "--alpha", "1/1", "--q", "3", "--A", "0,1", "--primes", "2", "--k", "14000"),
    ("witness", "--q", "3", "--t", "1", "--primes", "2", "--h", "2", "--k", "14000"),
    ("euclid", "--q", "3", "--k", "9011"),
    ("stabilize", "--p", "101", "--q", "3"),
)


def _other_format(argv: tuple[str, ...]) -> list[str]:
    if "--format" in argv:
        i = argv.index("--format")
        return list(argv[:i] + argv[i + 2:])
    return [*argv, "--format", "csv"]


def commands(replay: Replay):
    """Yield (argv, exit code, stdout) for every golden command, in order."""
    others = []
    for workload in jobs.WORKLOADS:
        for seed in SEEDS:
            rounds = jobs.rounds(workload, seed)
            for _ in range(ROUNDS):
                k_alpha, first_cert = None, replay.certs
                for job in next(rounds):
                    argv = list(job.argv)
                    if job.kind == "certify":
                        ks = [max(k_alpha, k) for k in job.params["k"]]
                        argv[argv.index(jobs.K_SLOT)] = ",".join(map(str, ks))
                    elif job.kind == "verify":
                        argv[argv.index(jobs.CERT_SLOT)] = f"{{cert-{first_cert + job.params['slot']}}}"
                    elif job.kind in ("geometric", "lattice", "dp"):
                        others.append(_other_format(job.argv))
                    rc, text = replay(argv)
                    if job.kind == "bound":
                        k_alpha = json.loads(text)["k_alpha"]
                    yield argv, rc, text
    for argv in [*others, *map(list, EDGE)]:
        yield (argv, *replay(argv))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp, default_int_str_limit():
        lines = [format_line(argv, rc, text) for argv, rc, text in commands(Replay(Path(tmp)))]
    DATA.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{DATA.relative_to(ROOT)}: {len(lines)} commands", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
