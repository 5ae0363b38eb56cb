"""Seeded job generator for the four benchmark workloads.

A workload is an endless sequence of rounds.  Every round has the same slots;
a slot fixes the job's kind and its size class (for example "dp with p**e near
10**5"), and the seed fills in the rest (base, digit set, numerators, primes).
Because every run is made of whole rounds, two seeds give runs with the same
mix of job kinds and sizes, which keeps the per-run medians steady.

Jobs are argv lists for `qadic.cli.main`.  Certify rounds are chained: the
`--k` of a certify job and the `--cert` of a verify job are placeholders that
the runner fills from the outputs of earlier jobs in the same round.

Nothing here imports qadic: the number theory the generator needs (primality,
multiplicative orders of small moduli) is written out below.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("scan", "orders", "certify", "expand")
BASES = (3, 4, 5, 7, 10)
# k placeholder, resolved to max(k_alpha, proposed k) from the round's bound job
K_SLOT = "{k}"
CERT_SLOT = "{cert}"
# decimal digits Python will print for an int (sys.get_int_max_str_digits default)
INT_STR_LIMIT = 4300


@dataclass(frozen=True)
class Job:
    """One CLI call.  `params` holds what the oracle needs, in plain types."""

    kind: str
    argv: tuple[str, ...]
    params: dict


# ---------------------------------------------------------------- arithmetic


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _small_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division (n below ~10**12)."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def small_order(a: int, p: int) -> int:
    """Order of a modulo the prime p (p below ~10**12)."""
    order = p - 1
    for r in _small_factors(order):
        while order % r == 0 and pow(a, order // r, p) == 1:
            order //= r
    return order


def _random_prime(rng: random.Random, lo: int, hi: int, avoid: int = 1) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if is_prime(n) and math.gcd(n, avoid) == 1:
            return n


class Strata:
    """Seeded sources of job parameters that keep every run's mix alike.

    `size` spreads a size parameter evenly over its range: a golden-ratio
    (Weyl) sequence with a seeded start, per key, mapped log-uniformly, so
    the sizes in any stretch of rounds cover the range with no clumps.
    `pick` deals categorical choices from a seeded, reshuffled deck per key,
    so each value comes up equally often.  Other fine details (digits,
    numerators) are plain random draws from `rng`."""

    _STEP = 0.6180339887498949

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._phase = {}
        self._decks = {}

    def size(self, key, lo: float, hi: float) -> float:
        u = self._phase.get(key)
        u = self.rng.random() if u is None else (u + self._STEP) % 1.0
        self._phase[key] = u
        return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))

    def ladder(self, key, lo: float, hi: float, n: int) -> list[float]:
        """n sizes, one from each of n equal log-width strata of [lo, hi]."""
        step = (hi / lo) ** (1 / n)
        return [self.size((key, n, i), lo * step**i, lo * step ** (i + 1)) for i in range(n)]

    def pick(self, key, values):
        deck = self._decks.get(key)
        if not deck:
            deck = self._decks[key] = list(values)
            self.rng.shuffle(deck)
        return deck.pop()


def _digits(st: Strata, key, q: int, zero: bool = False) -> list[int]:
    """A digit set with 2 <= #A <= q-1, holding 0 when `zero` is set.  #A
    is dealt per (key, q), because how far a scan runs depends on it."""
    size = st.pick(("digits", key, q), range(2, q))
    while True:
        A = sorted(st.rng.sample(range(q), size))
        if 0 in A or not zero:
            return A


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _alpha(rng: random.Random) -> str:
    return _frac(Fraction(rng.randint(1, 9), rng.randint(1, 9)))


# ---------------------------------------------------------------- scan

RATIO_DENOMINATORS = range(2, 13)
LATTICE_PRIMES = (2, 3, 5, 7, 11, 13)


def _geometric(st: Strata, q: int, kind: str, size: tuple[float, float] | None = None) -> Job:
    """alpha*(1/t)**k for k = 0..k_max.  0 is always allowed, so each value
    is scanned through its leading zeros before its first disallowed digit:
    about k*log_q(t) bigint steps on a k*log2(t)-bit denominator.

    kind "coprime": gcd(t, q) = 1, with (t, u) given as `size`, t from 50 to
    50000 and u from 0.85 to 1.2.  The job's cost goes as about
    bits**1.6 / (ln(t) * ln(q)) for final denominators of `bits` bits, so
    bits is set for a cost proportional to u, whatever (q, t): the last
    denominators have 1500 to 5200 bits.
    kind "shared": t <= 12 shares a prime with q; denominators of 100-300 bits.
    kind "csv": as "coprime" with denominators of 500-1000 bits, in CSV rows
    with digit sets."""
    rng = st.rng
    if kind == "shared":
        t = st.pick(("geo", kind, q), [t for t in RATIO_DENOMINATORS if math.gcd(t, q) > 1])
        bits = st.size(("geo", kind), 100, 300)
    else:
        t, u = size if kind == "coprime" else (st.size(("geo", kind, "t"), 50, 50_000), None)
        t = round(t)
        while math.gcd(t, q) != 1:
            t += 1
        if kind == "coprime":
            bits = 3000 * (u * math.log(t) * math.log(q) / 12) ** 0.6
        else:
            bits = st.size(("geo", kind), 500, 1000)
    k_max = round(bits / math.log2(t))
    A = _digits(st, ("geo", kind), q, zero=True)
    alpha = _alpha(rng)
    argv = ["enumerate", "--alpha", alpha, "--q", str(q), "--A", _csv(A), "--ratio", f"1/{t}", "--k-max", str(k_max)]
    fmt = "csv" if kind == "csv" else "json"
    if fmt == "csv":
        argv += ["--format", "csv"]
    params = {"alpha": alpha, "q": q, "A": A, "ratio": f"1/{t}", "k_max": k_max, "format": fmt}
    return Job("geometric", tuple(argv), params)


def _lattice(st: Strata, q: int, fmt: str) -> Job:
    """alpha/(p1**k1 * p2**k2) over a box; the primes may share one with q."""
    primes = list(st.pick(("lattice", fmt, q), list(itertools.combinations(LATTICE_PRIMES, 2))))
    box = round(st.size(("lattice", fmt), 20, 30) if fmt == "json" else st.size(("lattice", fmt), 10, 18))
    A = _digits(st, ("lattice", fmt), q)
    alpha = _alpha(st.rng)
    argv = ["enumerate", "--alpha", alpha, "--q", str(q), "--A", _csv(A), "--primes", _csv(primes), "--box", str(box)]
    if fmt == "csv":
        argv += ["--format", "csv"]
    params = {"alpha": alpha, "q": q, "A": A, "primes": primes, "box": box, "format": fmt}
    return Job("lattice", tuple(argv), params)


def _scan_round(st: Strata) -> list[Job]:
    """For each base: three geometric jobs with t coprime to q, one with t
    sharing a prime with q, and a lattice job, all in JSON; then a geometric
    and a lattice job in CSV, on bases dealt in turn.  The coprime jobs are
    the slowest and well over half of the round, so the median job is one of
    them, not a job at the edge between two kinds.  Their sizes come from one
    ladder per round, so every round has the same spread of costs."""
    n = 3 * len(BASES)
    ts = st.ladder(("geo", "coprime", "t"), 50, 50_000, n)
    us = st.ladder(("geo", "coprime", "u"), 0.85, 1.2, n)
    st.rng.shuffle(ts)
    st.rng.shuffle(us)
    sizes = list(zip(ts, us))
    out = []
    for q in BASES:
        out += [*(_geometric(st, q, "coprime", sizes.pop()) for _ in range(3)), _geometric(st, q, "shared"),
                _lattice(st, q, "json")]
    return out + [_geometric(st, st.pick("csv.geometric", BASES), "csv"),
                  _lattice(st, st.pick("csv.lattice", BASES), "csv")]


# ---------------------------------------------------------------- orders


def _prime_power(st: Strata, target: float, q: int) -> tuple[int, int]:
    """(p, e) with p prime, coprime to q, and p**e within 10% of target."""
    for e in [st.pick("dp.e", (2, 3, 4)), 1]:
        p = round(target ** (1 / e))
        for cand in sorted(range(max(2, p - 200), p + 200), key=lambda c: abs(c - p)):
            if is_prime(cand) and q % cand and abs(cand**e / target - 1) <= 0.1:
                return cand, e
    raise RuntimeError(f"no prime power near {target}")


def _dp(st: Strata, size: float) -> Job:
    q = st.pick("dp.q", BASES)
    p, e = _prime_power(st, size, q)
    A = _digits(st, "dp", q)
    argv = ("dp", "--p", str(p), "--q", str(q), "--A", _csv(A), "--exp-max", str(e))
    return Job("dp", argv, {"p": p, "q": q, "A": A, "e": e})


def _cosets(st: Strata, size: float) -> Job:
    q = st.pick("cosets.q", BASES)
    m = round(size)
    while math.gcd(m, q) != 1:
        m += 1
    return Job("cosets", ("cosets", "--m", str(m), "--q", str(q)), {"m": m, "q": q})


def _order(st: Strata, semiprime: bool) -> Job:
    rng = st.rng
    a = rng.randint(2, 20)
    params = {"a": a}
    if semiprime:
        # the oracle gets the factors; factoring m itself is the job's work
        params["factors"] = [_random_prime(rng, 1 << 31, 1 << 32, a) for _ in range(2)]
        m = math.prod(params["factors"])
    else:
        m = rng.randrange(1 << 20, 1 << 32)
        while math.gcd(a, m) != 1:
            m += 1
    params["m"] = m
    return Job("order", ("order", "--a", str(a), "--m", str(m)), params)


def _stabilize(st: Strata) -> Job:
    """p < 300 with q**ord(q mod p**2) printable: the CLI prints b, a divisor
    of that power, and larger ones crash on the int-to-str limit (README)."""
    q = st.pick("stabilize.q", BASES)
    while True:
        p = _random_prime(st.rng, 3, 300, q)
        d1 = small_order(q, p)
        d2 = d1 if pow(q, d1, p * p) == 1 else d1 * p
        if d2 * math.log10(q) < INT_STR_LIMIT - 100:
            return Job("stabilize", ("stabilize", "--p", str(p), "--q", str(q)), {"p": p, "q": q})


def _orders_round(st: Strata) -> list[Job]:
    """dp over p**e from 10**3 to 10**6 and cosets over m from 10**3 to 10**5,
    each range split into strata, plus orders of word-size moduli and of
    64-bit semiprimes, and two stabilizations."""
    return [
        *(_dp(st, n) for n in st.ladder("dp", 1e3, 1e6, 4)),
        *(_cosets(st, m) for m in st.ladder("cosets", 1e3, 1e5, 2)),
        _order(st, False),
        _order(st, True),
        _stabilize(st),
        _stabilize(st),
    ]


# ---------------------------------------------------------------- certify


def _certify_config(st: Strata, q: int, n_primes: int) -> dict:
    primes = sorted(st.rng.sample([p for p in LATTICE_PRIMES if q % p], n_primes))
    return {"alpha": _alpha(st.rng), "q": q, "A": _digits(st, "certify", q), "primes": primes}


def _certify_rounds(st: Strata):
    """One round per configuration: a bound, then 3-5 certify jobs whose
    denominators span 300 to 3000 bits, then a verify of each certificate.
    Configurations come from a pool of three per base, with one or two
    primes, dealt in turn, so they repeat and the witness cache sees hits
    across rounds as well as within; a pool that large keeps the mix of
    configurations alike from seed to seed."""
    pool = [_certify_config(st, BASES[i % len(BASES)], 1 + i % 2) for i in range(3 * len(BASES))]
    index = 0
    while True:
        cfg = pool[st.pick("certify.cfg", range(len(pool)))]
        common = ["--alpha", cfg["alpha"], "--q", str(cfg["q"]), "--A", _csv(cfg["A"]),
                  "--primes", _csv(cfg["primes"])]
        round_ = [Job("bound", ("bound", *common), dict(cfg))]
        bits = st.ladder("certify.bits", 300, 3000, 3 + index % 3)
        for slot, b in enumerate(bits):
            share = b / len(cfg["primes"])
            ks = [max(1, round(share / math.log2(p))) for p in cfg["primes"]]
            round_.append(Job("certify", ("certify", *common, "--k", K_SLOT), dict(cfg, k=ks, slot=slot)))
        for slot in range(len(bits)):
            round_.append(Job("verify", ("verify", "--cert", CERT_SLOT), dict(cfg, slot=slot)))
        index += 1
        yield round_


# ---------------------------------------------------------------- expand


def _period_prime(rng: random.Random, q: int, period: int) -> int:
    """A prime p coprime to q with ord_p(q) within 10% of `period`."""
    while True:
        p = _random_prime(rng, period * 9 // 10, period * 23 // 10 + 3, q)
        if abs(small_order(q, p) - period) <= period // 10:
            return p


MAX_PERIOD = 50_000


def _expand(st: Strata, slot: int, bits: float | None) -> Job:
    """s/t with a preperiod of 1-3 digits and a period of about bits/log2(q)
    digits (100 to MAX_PERIOD), so that a size costs about the same in any
    base.  bits=None gives the largest case: base 2 and MAX_PERIOD digits."""
    rng = st.rng
    if bits is None:
        q, period = 2, MAX_PERIOD
    else:
        q = st.pick(("expand.q", slot), range(2, 17))
        period = min(MAX_PERIOD, max(100, round(bits / math.log2(q))))
    p = _period_prime(rng, q, period)
    q_prime = next(r for r in LATTICE_PRIMES if q % r == 0)
    t = p * q_prime ** rng.randint(1, 3)
    s = rng.randrange(1, t)
    while math.gcd(s, t) != 1:
        s += 1
    x = _frac(Fraction(s, t))
    return Job("expand", ("expand", "--x", x, "--q", str(q)), {"x": x, "q": q})


def _member(st: Strata, planted: bool) -> Job:
    """A planted member (a value whose expansion uses only A) or a random
    rational, which is almost never a member."""
    rng = st.rng
    q = st.pick(("member", planted), BASES)
    A = _digits(st, ("member", planted), q)
    if planted:
        pre = [rng.choice(A) for _ in range(rng.randint(0, 6))]
        per = [rng.choice(A) for _ in range(rng.randint(1, 12))]
        head = sum(d * q ** (len(pre) - 1 - i) for i, d in enumerate(pre))
        rep = sum(d * q ** (len(per) - 1 - i) for i, d in enumerate(per))
        x = Fraction(head * (q ** len(per) - 1) + rep, q ** len(pre) * (q ** len(per) - 1))
    else:
        den = rng.randint(2, 10**6)
        x = Fraction(rng.randint(0, den), den)
    argv = ("member", "--x", _frac(x), "--q", str(q), "--A", _csv(A))
    return Job("member", argv, {"x": _frac(x), "q": q, "A": A})


def _euclid(st: Strata) -> Job:
    q = st.pick("euclid.q", BASES)
    k = round(st.size("euclid.k", 200, 1500))
    return Job("euclid", ("euclid", "--q", str(q), "--k", str(k)), {"q": q, "k": k})


def _expand_round(st: Strata, first: bool = False) -> list[Job]:
    """Five expands whose periods span 300 to 65000 bits (10**2 to 5*10**4
    digits), each followed in its job by the ExpansionQ round trip; then
    member and euclid jobs.  In the first round the largest slot is the
    largest case, so that every run holds it and reaches the same peak
    memory."""
    bits = st.ladder("expand.bits", 300, 65_000, 5)
    if first:
        bits[-1] = None
    return [
        *(_expand(st, slot, b) for slot, b in enumerate(bits)),
        _member(st, True),
        _member(st, False),
        _member(st, False),
        _euclid(st),
    ]


# ---------------------------------------------------------------- entry


def rounds(workload: str, seed: int):
    """Endless iterator of rounds (lists of Jobs) for a workload and seed."""
    st = Strata(random.Random(f"{workload}-{seed}"))
    if workload == "certify":
        yield from _certify_rounds(st)
        return
    build = {"scan": _scan_round, "orders": _orders_round, "expand": _expand_round}[workload]
    if workload == "expand":
        yield _expand_round(st, first=True)
    while True:
        yield build(st)
