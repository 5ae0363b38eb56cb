import math
import random
import time
from fractions import Fraction

import pytest

from qadic import kernels
from qadic.expansion import expand
from qadic.rational import PreconditionError, split_coprime_part


def _samples(count, den_max, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        den = rng.randrange(2, den_max)
        num = rng.randrange(1, den)
        g = math.gcd(num, den)
        base = rng.randrange(2, 13)
        out.append((num // g, den // g, base))
    return out


def _long_division(num, den, base):
    """(preperiod, period) of num/den, stepping a Fraction until it recurs."""
    x = Fraction(num, den)
    seen = {}
    digits = []
    while x not in seen:
        seen[x] = len(digits)
        x *= base
        d = math.floor(x)
        digits.append(d)
        x -= d
    start = seen[x]
    return digits[:start], digits[start:]


# lowest terms, denominators of 70 to 85 bits, each with a period short enough
# to walk whole; the last three use every digit of their base
WIDE = [
    (12347, 2**70 - 1, 2),
    (1, 2**5 * (2**80 - 1), 2),
    (1, 3**45 - 1, 3),
    (7, 2 * (3**50 + 1), 3),
    (3, 5**3 * (5**31 - 1), 5),
    (3, 7 * 10**21, 10),
    (5, 3**47 + 1, 3),
    (123456781, 10**22 - 1, 10),
    (1234567891, 10**22 - 1, 10),
]


def test_backend_reports_mode():
    assert kernels.backend() == "pure"


def _check_scan_and_mask(num, den, base, pre, per):
    """scan_allowed and digit_mask agree with the digits (pre, per) of num/den."""
    used = set(pre) | set(per)
    for pad in (0, 3):
        v = len(pre) + pad
        assert kernels.digit_mask(num, den, base, v) == used
        assert kernels.scan_allowed(num, den, base, frozenset(used), v)
        assert kernels.scan_allowed(num, den, base, frozenset(range(base)), v)
        for d in used:
            assert not kernels.scan_allowed(num, den, base, frozenset(used - {d}), v)


def test_loops_match_long_division_beyond_64_bits():
    for num, den, base in WIDE:
        assert den.bit_length() >= 70 and math.gcd(num, den) == 1
        pre, per = _long_division(num, den, base)
        assert kernels.digit_cycle(num, den, base, split_coprime_part(den, base)[2]) == (pre, per)
        _check_scan_and_mask(num, den, base, pre, per)


def _tiny_values(base):
    """(x, relation of the leading-zero count z to the preperiod length v)
    for values alpha / t**k with 149 to 1109 leading zeros."""
    # t divides base, so t**-k terminates after more digits than its zeros
    t = 2 if base == 4 else 5 if base == 10 else base
    for k in (300, 1100):
        n = k + 7
        yield Fraction(1, t**k), "z < v"
        yield Fraction(base - 1, (base + 1) * base**k), "z = v"  # (q-1)/(q+1) >= 1/q
        yield Fraction(1, base**3 * (base**n - 1)), "z > v"
        yield Fraction(base + 2, base**n - 1), "z > v = 0"


def test_tiny_values_skip_zeros_exactly():
    seen = set()
    for base in (3, 4, 5, 7, 10):
        for x, case in _tiny_values(base):
            num, den = x.numerator, x.denominator
            pre, per = _long_division(num, den, base)
            z, r = kernels.skip_zeros(num, den, base)
            digits = pre + per * (z // len(per) + 2)
            assert z >= 100 and digits[:z] == [0] * z and digits[z] != 0
            assert r == num * base**z
            relation = "z < v" if z < len(pre) else "z = v" if z == len(pre) else "z > v"
            assert case.startswith(relation) and (case != "z > v = 0" or pre == []), (x, base, case)
            seen.add(case)
            assert kernels.digit_cycle(num, den, base, split_coprime_part(den, base)[2]) == (pre, per)
            _check_scan_and_mask(num, den, base, pre, per)
            # 0 disallowed: the first digit already fails
            assert not kernels.scan_allowed(num, den, base, frozenset(range(1, base)), len(pre))
    assert seen == {"z < v", "z = v", "z > v", "z > v = 0"}


def test_cycle_terminating_and_purely_periodic():
    # terminating: den divides a power of base, period [0]; purely periodic:
    # den coprime to base, v = 0
    rng = random.Random(2107)
    assert kernels.digit_cycle(0, 1, 10, 0) == ([], [0])
    for base in (2, 3, 6, 10, 12):
        for _ in range(20):
            terminating = 1
            while terminating == 1:
                terminating = math.gcd(rng.randrange(2, 10**12), base**12)
            periodic = base
            while math.gcd(periodic, base) > 1:
                periodic = rng.randrange(2, 5_000)
            for den in (terminating, periodic):
                num = rng.randrange(1, den)
                while math.gcd(num, den) > 1:
                    num = rng.randrange(1, den)
                pre, per = _long_division(num, den, base)
                v = split_coprime_part(den, base)[2]
                assert kernels.digit_cycle(num, den, base, v) == (pre, per)
                if den == terminating:
                    assert per == [0] and len(pre) == v > 0
                else:
                    assert pre == [] and v == 0


def test_cycle_matches_expansion_type():
    for num, den, base in _samples(80, 3_000, 2105):
        pre, per = kernels.digit_cycle(num, den, base, split_coprime_part(den, base)[2])
        e = expand(Fraction(num, den), base)
        assert tuple(pre) == e.preperiod
        assert tuple(per) == e.period


def test_scan_tolerates_padded_preperiod():
    # any bound at least the true preperiod length must give the same verdict
    for num, den, base in _samples(100, 5_000, 2106):
        _, _, v = split_coprime_part(den, base)
        allowed = frozenset(range(1, base))
        base_verdict = kernels.scan_allowed(num, den, base, allowed, v)
        for pad in (1, 5, 17):
            assert kernels.scan_allowed(num, den, base, allowed, v + pad) == base_verdict


def test_digit_cycle_period_cap(monkeypatch):
    # 1/7 in base 10 has a 6-digit period: listed at a cap of 6, refused at 5
    monkeypatch.setattr(kernels, "MAX_DIGITS", 6)
    assert kernels.digit_cycle(1, 7, 10, 0) == ([], [1, 4, 2, 8, 5, 7])
    monkeypatch.setattr(kernels, "MAX_DIGITS", 5)
    with pytest.raises(PreconditionError, match="MAX_DIGITS = 5"):
        kernels.digit_cycle(1, 7, 10, 0)


def test_scan_walks_period_cap(monkeypatch):
    # 5/6 in base 3 has a preperiod of one digit; walked as if it had none,
    # the period walk never meets its start again, and once ran forever
    short = (lambda: kernels.scan_allowed(5, 6, 3, frozenset((1, 2)), 0), lambda: kernels.digit_mask(5, 6, 3, 0))
    for call in short:
        start = time.perf_counter()
        with pytest.raises(PreconditionError, match="MAX_DIGITS = 1000000"):
            call()
        assert time.perf_counter() - start < 1
    # 1/7 in base 10 has a 6-digit period: walked at a cap of 6, refused at 5
    monkeypatch.setattr(kernels, "MAX_DIGITS", 6)
    assert kernels.scan_allowed(1, 7, 10, frozenset(range(10)), 0)
    assert kernels.digit_mask(1, 7, 10, 0) == {1, 4, 2, 8, 5, 7}
    for call in short:
        with pytest.raises(PreconditionError, match="MAX_DIGITS = 6"):
            call()
    monkeypatch.setattr(kernels, "MAX_DIGITS", 5)
    with pytest.raises(PreconditionError, match="MAX_DIGITS = 5"):
        kernels.scan_allowed(1, 7, 10, frozenset(range(10)), 0)
    with pytest.raises(PreconditionError, match="MAX_DIGITS = 5"):
        kernels.digit_mask(1, 7, 10, 0)


def test_period_cap_counts_a_wide_digit_once_per_64_bits(monkeypatch):
    # 1/7 in base 2**64 + 1, a base of 65 bits, has a 6-digit period; each
    # digit counts twice, so the walks take it at a cap of 12 and refuse it at 11
    base = 2**64 + 1
    monkeypatch.setattr(kernels, "MAX_DIGITS", 12)
    pre, per = kernels.digit_cycle(1, 7, base, 0)
    assert (pre, per) == _long_division(1, 7, base) and len(per) == 6
    assert kernels.scan_allowed(1, 7, base, frozenset(per), 0)
    assert kernels.digit_mask(1, 7, base, 0) == set(per)
    monkeypatch.setattr(kernels, "MAX_DIGITS", 11)
    for call in (kernels.digit_cycle, kernels.digit_mask):
        with pytest.raises(PreconditionError, match="MAX_DIGITS = 11 digits, a digit of a base past 64 bits"):
            call(1, 7, base, 0)
    with pytest.raises(PreconditionError, match="MAX_DIGITS = 11"):
        kernels.scan_allowed(1, 7, base, frozenset(per), 0)


def _shared_rows(seed):
    # rows num / (den * t**i) with t sharing a prime with q, num prime to t,
    # and den with a q-part (a preperiod) and a part prime to q or not:
    # (num, den, t, q, allowed), 0 in A and not, for every pair of q and t
    rng = random.Random(seed)
    for q in (4, 8, 9, 10, 12, 18):
        for t in (2, 3, 4, 6, 12, 18):
            if math.gcd(t, q) == 1:
                continue
            for zero in (True, False):
                for _ in range(6):
                    den = rng.randrange(1, 60) * rng.choice([1, 2, 3, q, q * q])
                    num = rng.randrange(1, den + 1)
                    g = math.gcd(num, den)
                    num, den = num // g, den // g
                    if num >= den or math.gcd(num, t) > 1:
                        continue
                    digits = rng.sample(range(1, q), rng.randrange(1, q - 1))
                    yield num, den, t, q, frozenset(digits + [0] * zero)


def test_scan_powers_matches_scan_allowed_when_t_shares_a_prime_with_q():
    cases = 0
    for num, den, t, q, allowed in _shared_rows(25):
        v = split_coprime_part(den, q)[2]
        assert kernels.scan_powers(num, den, t, q, allowed, v, 25) == [
            kernels.scan_allowed(num, den * t**i, q, allowed, split_coprime_part(den * t**i, q)[2])
            for i in range(25)], (num, den, t, q, allowed)
        cases += 1
    assert cases > 200


def test_scan_powers_walks_each_point_from_its_exact_preperiod(monkeypatch):
    # every walk of the carried row starts at r / (den * t**i), the remainder
    # after the point's leading zeros, with exactly that value's preperiod
    # length, never a bound above it
    walks = []
    scan_allowed = kernels.scan_allowed

    def recorded(num, den, base, allowed, preperiod_len):
        walks.append((num, den, base, preperiod_len))
        return scan_allowed(num, den, base, allowed, preperiod_len)

    monkeypatch.setattr(kernels, "scan_allowed", recorded)
    for num, den, t, q, allowed in _shared_rows(2501):
        walks.clear()
        kernels.scan_powers(num, den, t, q, allowed | {0}, split_coprime_part(den, q)[2], 40)
        assert len(walks) == 40
        for i, (r, den_i, base, preperiod_len) in enumerate(walks):
            assert den_i == den * t**i and r * base >= den_i > r
            assert preperiod_len == split_coprime_part(Fraction(r, den_i).denominator, base)[2], (num, den, t, q, i)


def _both_forms(m, v, base, allowed):
    # the reference: the v digits of m, then 0 forever, or the v digits of
    # m - 1, then base - 1 forever, each digit listed
    def digits(n):
        return {n // base**i % base for i in range(v)}

    return digits(m) | {0} <= allowed or digits(m - 1) | {base - 1} <= allowed


def test_terminating_allowed_matches_both_expansions():
    # points m / base**v with v on either side of each word of digits, and
    # leading zeros that start inside a later word, in bases narrow and past
    # 64 bits; digits drawn from a small pool so that both forms meet members
    rng = random.Random(26)
    forms = {"canonical": 0, "trailing": 0, "neither": 0}
    for base in (3, 4, 10, 12, 2**64 + 13):
        width = kernels._word(base)[0]
        pool = sorted({0, 1, 2, base - 2, base - 1, rng.randrange(base)})
        for v in sorted({1, 2, width - 1, width, width + 1, 2 * width + 1, 3 * width + 2} - {0}):
            for _ in range(60):
                allowed = frozenset(rng.sample(pool, rng.randrange(2, len(pool))))
                # least significant first: a nonzero last digit, then z leading zeros
                digits = [rng.choice(pool[1:]), *(rng.choice(pool) for _ in range(v - 1))]
                z = rng.randrange(0, v) if rng.random() < 0.4 else 0
                digits[v - z:] = [0] * z
                m = sum(d * base**i for i, d in enumerate(digits))
                got = kernels.terminating_allowed(m, v, base, allowed)
                assert got == _both_forms(m, v, base, allowed), (m, v, base, allowed)
                canonical = {m // base**i % base for i in range(v)} | {0} <= allowed
                forms["neither" if not got else "canonical" if canonical else "trailing"] += 1
    assert min(forms.values()) > 50, forms


def _terminating_rows(seed):
    # rows num / (den * t**i) with den and t dividing powers of q, num below
    # den and prime to both: (num, den, t, q, allowed), with 0 and q - 1 in
    # A or not
    rng = random.Random(seed)
    for q in (3, 4, 6, 10, 12, 18):
        ts = [t for t in range(2, 50) if split_coprime_part(t, q)[0] == 1]
        for _ in range(40):
            t = rng.choice(ts)
            den = rng.choice(ts) * q ** rng.randrange(0, 3)
            num = rng.randrange(1, den)
            if math.gcd(num, den) > 1 or math.gcd(num, t) > 1:
                continue
            yield num, den, t, q, frozenset(rng.sample(range(q), rng.randrange(2, q)))


def test_terminating_powers_matches_terminating_allowed_point_by_point():
    # each point's m and exact v come from its own Fraction, not from the
    # carried c
    cases = members = 0
    for num, den, t, q, allowed in _terminating_rows(2601):
        got = kernels.terminating_powers(num, den, t, q, allowed, split_coprime_part(den, q)[2], 30)
        want = []
        for i in range(30):
            x = Fraction(num, den * t**i)
            v = split_coprime_part(x.denominator, q)[2]
            m = x.numerator * q**v // x.denominator
            assert m % q
            want.append(kernels.terminating_allowed(m, v, q, allowed))
        assert got == want, (num, den, t, q, allowed)
        cases, members = cases + 1, members + sum(got)
    assert cases > 100 and members > 50
