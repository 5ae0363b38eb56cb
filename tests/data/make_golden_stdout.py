"""Write golden_stdout.txt, the commands tests/test_golden_stdout.py replays,
each with the exit code and digest of its stdout on the current tree.

    PYTHONPATH=src python3 tests/data/make_golden_stdout.py

The commands come from the benchmark's job generator (perfbench/jobs.py):
the first two rounds of seeds 1-3 of every workload, with the certify --k
resolved from the round's bound output as the runner resolves it, then the
other output format of every enumerate and dp job among them, then EDGE (DIGIT_EDGE last).
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
from test_golden_stdout import DATA, INT_STR_LIMIT, Replay, format_line  # noqa: E402

SEEDS = (1, 2, 3)
ROUNDS = 2
# alpha / prod(p_j**k_j) lattices at their edges, replayed in both formats:
# a first prime prime to q and a last one not, no prime prime to q, three
# primes (all prime to q, and with q's prime last), a numerator sharing a
# prime with the last prime prime to q (49/4 / 7**2 = 1/4), 0 not an allowed
# digit, and box 0
LATTICE_EDGE = (
    ("enumerate", "--alpha", "1/4", "--q", "10", "--A", "0,2,5", "--primes", "3,5", "--box", "12"),
    ("enumerate", "--alpha", "1/1", "--q", "10", "--A", "0,1,2,5", "--primes", "2,5", "--box", "10"),
    ("enumerate", "--alpha", "1/2", "--q", "3", "--A", "0,2", "--primes", "5,2,7", "--box", "6"),
    ("enumerate", "--alpha", "5/2", "--q", "3", "--A", "0,2", "--primes", "2,7,3", "--box", "5"),
    ("enumerate", "--alpha", "49/4", "--q", "3", "--A", "0,2", "--primes", "2,7", "--box", "8"),
    ("enumerate", "--alpha", "1/2", "--q", "7", "--A", "1,3,5", "--primes", "3,7", "--box", "12"),
    ("enumerate", "--alpha", "1/4", "--q", "3", "--A", "0,2", "--primes", "2,5", "--box", "0"),
)
# alpha/t**k lines whose numerator shares primes with t, replayed in both
# formats: 9/20 / 3**2 = 1/20 and 2304/25 / 16**2 = 9/25 end in base q and
# are members only by their trailing-(q-1) form, t = 12 is composite, and
# two lattices have the carried modulus squared (49/2 over 2, 7) and cubed
# (1331/9 over 3, 11) in alpha's numerator
SHARED_EDGE = (
    ("enumerate", "--alpha", "9/20", "--q", "10", "--A", "0,4,9", "--ratio", "1/3", "--k-max", "40"),
    ("enumerate", "--alpha", "2304/25", "--q", "5", "--A", "1,2,3,4", "--ratio", "1/16", "--k-max", "40"),
    ("enumerate", "--alpha", "1728/7", "--q", "5", "--A", "0,1,3", "--ratio", "1/12", "--k-max", "40"),
    ("enumerate", "--alpha", "49/2", "--q", "3", "--A", "0,2", "--primes", "2,7", "--box", "8"),
    ("enumerate", "--alpha", "1331/9", "--q", "4", "--A", "0,1,3", "--primes", "3,11", "--box", "8"),
)
# 1/t lines whose t shares a prime with q, replayed in both formats: t | q**inf
# with alpha not ending in base q (1/7 over 1/2 in base 10), alpha ending in
# base q (1/2 over 1/2, members by their trailing-9 form), t with primes both
# in and out of q (1/6 in base 10, 1/12 in base 3, and 12/7, whose numerator
# shares 2 and 3 with t), --primes 2,5 lattices in base 10, q = 4 with t = 2,
# and 0 not an allowed digit
RATIO_EDGE = (
    ("enumerate", "--alpha", "1/7", "--q", "10", "--A", "0,1,2,4,5,7,8", "--ratio", "1/2", "--k-max", "40"),
    ("enumerate", "--alpha", "1/2", "--q", "10", "--A", "0,2,4,9", "--ratio", "1/2", "--k-max", "40"),
    ("enumerate", "--alpha", "1/1", "--q", "10", "--A", "0,1,2,4,5,7,8", "--ratio", "1/6", "--k-max", "40"),
    ("enumerate", "--alpha", "12/7", "--q", "10", "--A", "0,1,2,4,5,7,8", "--ratio", "1/6", "--k-max", "40"),
    ("enumerate", "--alpha", "3/7", "--q", "3", "--A", "0,2", "--ratio", "1/12", "--k-max", "40"),
    ("enumerate", "--alpha", "3/7", "--q", "10", "--A", "0,1,2,4,5,7,8", "--primes", "2,5", "--box", "10"),
    ("enumerate", "--alpha", "2/9", "--q", "10", "--A", "0,2,5,9", "--primes", "2,5", "--box", "10"),
    ("enumerate", "--alpha", "1/9", "--q", "10", "--A", "1,2,5", "--primes", "2,5", "--box", "6"),
    ("enumerate", "--alpha", "1/3", "--q", "4", "--A", "0,1,2", "--ratio", "1/2", "--k-max", "60"),
    ("enumerate", "--alpha", "5/3", "--q", "4", "--A", "0,1,3", "--ratio", "1/2", "--k-max", "60"),
    ("enumerate", "--alpha", "1/3", "--q", "4", "--A", "1,2", "--ratio", "1/2", "--k-max", "60"),
    ("enumerate", "--alpha", "1/7", "--q", "10", "--A", "1,2,4,5,7,8", "--ratio", "1/2", "--k-max", "40"),
)
# rows that end in base q (alpha's denominator and t both divide a power of
# q), replayed in both formats: the long README scan of 2**-k with A = 0..8,
# 5**-k with members by both forms, a --primes 2,5 lattice, q = 4 with t = 2
# (the preperiod grows by half a digit per k), A without 0, A holding q - 1
# with trailing-(q-1) members, points equal to 1 (alpha = t**j), numerators
# sharing t's primes (12/5 and 96/5 over t = 2 in base 10), q = 12 with
# t = 6 and t = 8, and more --q 10 --primes 2,5 lattices
TERMINATING_EDGE = (
    ("enumerate", "--alpha", "1", "--q", "10", "--A", "0,1,2,3,4,5,6,7,8", "--ratio", "1/2", "--k-max", "3161"),
    ("enumerate", "--alpha", "1", "--q", "10", "--A", "0,1,9", "--ratio", "1/5", "--k-max", "1500"),
    ("enumerate", "--alpha", "7/8", "--q", "10", "--A", "0,1,2,5,7,9", "--primes", "2,5", "--box", "40"),
    ("enumerate", "--alpha", "1/1", "--q", "4", "--A", "0,1,3", "--ratio", "1/2", "--k-max", "80"),
    ("enumerate", "--alpha", "3/4", "--q", "4", "--A", "0,3", "--ratio", "1/2", "--k-max", "80"),
    ("enumerate", "--alpha", "1/2", "--q", "10", "--A", "1,2,4,9", "--ratio", "1/2", "--k-max", "40"),
    ("enumerate", "--alpha", "1/1", "--q", "10", "--A", "1,2,3,5,6,8,9", "--ratio", "1/5", "--k-max", "40"),
    ("enumerate", "--alpha", "8/1", "--q", "10", "--A", "0,2,4,9", "--ratio", "1/2", "--k-max", "40"),
    ("enumerate", "--alpha", "125/1", "--q", "10", "--A", "1,2,4,9", "--ratio", "1/5", "--k-max", "40"),
    ("enumerate", "--alpha", "12/5", "--q", "10", "--A", "0,2,4,9", "--ratio", "1/2", "--k-max", "40"),
    ("enumerate", "--alpha", "96/5", "--q", "10", "--A", "1,2,4,5,9", "--ratio", "1/2", "--k-max", "40"),
    ("enumerate", "--alpha", "1/1", "--q", "12", "--A", "0,2,3,6,11", "--ratio", "1/6", "--k-max", "40"),
    ("enumerate", "--alpha", "5/3", "--q", "12", "--A", "0,1,4,6,9,11", "--ratio", "1/8", "--k-max", "40"),
    ("enumerate", "--alpha", "1/1", "--q", "10", "--A", "0,2,5,9", "--primes", "2,5", "--box", "16"),
    ("enumerate", "--alpha", "16/25", "--q", "10", "--A", "1,2,3,4,6,9", "--primes", "2,5", "--box", "16"),
    ("enumerate", "--alpha", "40/1", "--q", "10", "--A", "0,4,8,9", "--primes", "5,2", "--box", "12"),
)
# digit_set cells whose digits take more than one character, in CSV: for
# each base, a geometric scan, a lattice scan and dp, with 0 in A and
# without it; each A holds the repeated digit of a small fraction such as
# 1/2 or 1/3 in that base, so some rows are members
_DIGIT_BASES = (
    # q, A with 0, A without 0, alpha, ratio, primes, p, exp_max
    ("11", "0,5,10", "2,5,8,10", "1/1", "1/2", "2,3", "2", "12"),
    ("16", "0,5,10,15", "1,3,5,10,12", "1/1", "1/3", "3,5", "3", "8"),
    ("36", "0,7,14,21,28,35", "7,14,21,28,35", "2/1", "1/5", "5,7", "5", "6"),
    ("37", "0,9,12,18,27", "4,9,12,18,24,27", "1/1", "1/2", "2,3", "2", "12"),
    ("256", "0,85,170,255", "51,85,170,204", "1/1", "1/2", "2,3", "3", "8"),
    ("1000", "0,27,37,333,999", "27,37,111,333,666", "1/1", "1/27", "3,5", "3", "8"),
)
DIGIT_EDGE = tuple(
    command
    for q, with_0, without_0, alpha, ratio, primes, p, exp_max in _DIGIT_BASES
    for A in (with_0, without_0)
    for command in (
        ("enumerate", "--alpha", alpha, "--q", q, "--A", A, "--ratio", ratio, "--k-max", "12", "--format", "csv"),
        ("enumerate", "--alpha", alpha, "--q", q, "--A", A, "--primes", primes, "--box", "5", "--format", "csv"),
        ("dp", "--p", p, "--q", q, "--A", A, "--exp-max", exp_max, "--format", "csv"),
    )
)
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
    # the carried alpha/t**k scan at its edges, in both formats: a member
    # planted at k = 2 (49/4 / 7**2 = 1/4), a numerator sharing a prime with
    # t (the per-point rows), and 0 not an allowed digit
    ("enumerate", "--alpha", "49/4", "--q", "3", "--A", "0,2", "--ratio", "1/7", "--k-max", "30"),
    ("enumerate", "--alpha", "49/4", "--q", "3", "--A", "0,2", "--ratio", "1/7", "--k-max", "30",
     "--format", "csv"),
    ("enumerate", "--alpha", "10/3", "--q", "3", "--A", "0,2", "--ratio", "1/10", "--k-max", "60"),
    ("enumerate", "--alpha", "10/3", "--q", "3", "--A", "0,2", "--ratio", "1/10", "--k-max", "60",
     "--format", "csv"),
    ("enumerate", "--alpha", "1/2", "--q", "5", "--A", "1,3", "--ratio", "1/7", "--k-max", "50"),
    ("enumerate", "--alpha", "1/2", "--q", "5", "--A", "1,3", "--ratio", "1/7", "--k-max", "50",
     "--format", "csv"),
    *((*argv, *fmt) for argv in LATTICE_EDGE for fmt in ((), ("--format", "csv"))),
    *((*argv, *fmt) for argv in SHARED_EDGE for fmt in ((), ("--format", "csv"))),
    *((*argv, *fmt) for argv in RATIO_EDGE for fmt in ((), ("--format", "csv"))),
    *((*argv, *fmt) for argv in TERMINATING_EDGE for fmt in ((), ("--format", "csv"))),
    *DIGIT_EDGE,
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
    sys.set_int_max_str_digits(INT_STR_LIMIT)
    with tempfile.TemporaryDirectory() as tmp:
        lines = [format_line(argv, rc, text) for argv, rc, text in commands(Replay(Path(tmp)))]
    DATA.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{DATA.relative_to(ROOT)}: {len(lines)} commands", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
