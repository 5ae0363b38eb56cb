import math
import random
from fractions import Fraction

from qadic import kernels
from qadic.expansion import expand
from qadic.rational import split_coprime_part


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


def test_loops_match_long_division_beyond_64_bits():
    for num, den, base in WIDE:
        assert den.bit_length() >= 70 and math.gcd(num, den) == 1
        pre, per = _long_division(num, den, base)
        assert kernels.digit_cycle(num, den, base) == (pre, per)
        used = set(pre) | set(per)
        used_mask = sum(1 << d for d in used)
        assert kernels.digit_mask(num, den, base, len(pre)) == used_mask
        for pad in (0, 3):
            v = len(pre) + pad
            assert kernels.scan_allowed(num, den, base, used_mask, v)
            assert kernels.scan_allowed(num, den, base, (1 << base) - 1, v)
            for d in used:
                assert not kernels.scan_allowed(num, den, base, used_mask & ~(1 << d), v)


def test_cycle_matches_expansion_type():
    for num, den, base in _samples(80, 3_000, 2105):
        pre, per = kernels.digit_cycle(num, den, base)
        e = expand(Fraction(num, den), base)
        assert tuple(pre) == e.preperiod
        assert tuple(per) == e.period


def test_scan_tolerates_padded_preperiod():
    # any bound at least the true preperiod length must give the same verdict
    for num, den, base in _samples(100, 5_000, 2106):
        _, _, v = split_coprime_part(den, base)
        mask = (1 << base) - 2
        base_verdict = kernels.scan_allowed(num, den, base, mask, v)
        for pad in (1, 5, 17):
            assert kernels.scan_allowed(num, den, base, mask, v + pad) == base_verdict


def test_mask_round_trip():
    assert kernels.mask_of((0, 2, 5)) == 0b100101
    assert kernels.mask_digits(0b100101) == (0, 2, 5)
    assert kernels.mask_digits(kernels.mask_of(())) == ()
    for digits in ((0,), (1, 3), (0, 1, 2, 3, 4)):
        assert kernels.mask_digits(kernels.mask_of(digits)) == digits
