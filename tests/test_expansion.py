import math
import random
import re
from fractions import Fraction

import pytest

from qadic.expansion import (
    ExpansionQ,
    alternate_expansion,
    digit_set,
    expand,
    shift_digits,
)
from qadic.orders import mult_order
from qadic.rational import PreconditionError, split_coprime_part


def test_expand_frozen():
    e = expand(Fraction(1, 2), 3)
    assert (e.preperiod, e.period) == ((), (1,))
    e = expand(Fraction(0), 7)
    assert (e.preperiod, e.period) == ((), (0,))
    e = expand(Fraction(1, 4), 3)
    assert (e.preperiod, e.period) == ((), (0, 2))
    e = expand(Fraction(1, 6), 10)
    assert (e.preperiod, e.period) == ((1,), (6,))


def test_expand_domain():
    with pytest.raises(PreconditionError):
        expand(Fraction(1), 3)
    with pytest.raises(PreconditionError):
        expand(Fraction(3, 2), 3)
    with pytest.raises(PreconditionError):
        expand(Fraction(1, 2), 1)


def test_expansion_validation():
    with pytest.raises(PreconditionError):
        ExpansionQ(3, (), ())
    with pytest.raises(PreconditionError):
        ExpansionQ(3, (), (3,))
    with pytest.raises(PreconditionError):
        ExpansionQ(3, (), (0, 1, 0, 1))
    with pytest.raises(PreconditionError):
        ExpansionQ(3, (1,), (2, 1))
    # the all-(q-1) period is non-canonical but constructible: it is exactly
    # what alternate_expansion returns, only expand() is barred from it
    assert ExpansionQ(3, (), (2,)).value() == 1


def test_digit_set_frozen():
    assert digit_set(Fraction(1, 4), 3) == {0, 2}
    assert digit_set(Fraction(0), 9) == {0}
    assert digit_set(Fraction(1, 2), 3) == {1}


def test_alternate_expansion_frozen():
    e = alternate_expansion(Fraction(1, 3), 3)
    assert (e.preperiod, e.period) == ((0,), (2,))
    assert alternate_expansion(Fraction(1, 7), 10) is None
    e = alternate_expansion(Fraction(1, 2), 2)
    assert (e.preperiod, e.period) == ((0,), (1,))


def _random_sample(count, den_max, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        den = rng.randrange(2, den_max + 1)
        num = rng.randrange(0, den)
        out.append((Fraction(num, den), rng.randrange(2, 13)))
    return out


def _long_division(x, q):
    """(preperiod, period) of x, stepping a Fraction until it recurs."""
    seen = {}
    digits = []
    while x not in seen:
        seen[x] = len(digits)
        x *= q
        d = math.floor(x)
        digits.append(d)
        x -= d
    start = seen[x]
    return tuple(digits[:start]), tuple(digits[start:])


def test_reconstruction_and_structural_law():
    # every value: exact re-evaluation of the digit series and the period
    # length against the order law; expand takes its preperiod length from
    # split_coprime_part, so every 50th value's digits are also checked by
    # Fraction long division, a route that knows no v
    for i, (x, q) in enumerate(_random_sample(1000, 10**5, 915)):
        e = expand(x, q)
        assert e.value() == x
        t_hat, _, v = split_coprime_part(x.denominator, q)
        assert len(e.preperiod) == v
        assert len(e.period) == (mult_order(q, t_hat) if t_hat > 1 else 1)
        assert e.period != (q - 1,)
        if i % 50 == 0:
            assert (e.preperiod, e.period) == _long_division(x, q)


def _horner_value(e):
    """Reference for value(): the rational of e by two Horner folds."""
    q = e.base
    v, n = len(e.preperiod), len(e.period)
    head = 0
    for d in e.preperiod:
        head = head * q + d
    rep = 0
    for d in e.period:
        rep = rep * q + d
    return Fraction(head * (q**n - 1) + rep, q**v * (q**n - 1))


def _divisor_loop_block(period):
    """Reference for the minimality check: the smallest block length the
    period repeats, or 0, by trying every divisor of its length."""
    n = len(period)
    for k in range(1, n):
        if n % k == 0 and period == period[:k] * (n // k):
            return k
    return 0


def _random_expansion(rng, q, v, n):
    """A valid ExpansionQ with random digits, preperiod length v, period length n."""
    period = tuple(rng.randrange(q) for _ in range(n))
    while _divisor_loop_block(period):
        period = tuple(rng.randrange(q) for _ in range(n))
    pre = [rng.randrange(q) for _ in range(v)]
    if pre and pre[-1] == period[-1]:
        pre[-1] = (pre[-1] + 1) % q
    return ExpansionQ(q, tuple(pre), period)


def test_value_matches_horner(int_str_limit):
    # leaves of 640 digits read by int(text, q) pass the least int-to-str
    # limit Python accepts; a longer leaf fails here in every base but 2
    lengths = (0, 1, 639, 640, 641, 1279, 1280, 1281, 10_000)
    for limit in (640, 0):
        int_str_limit(limit)
        rng = random.Random(920)
        for q in (2, 3, 10, 36, 37, 257):
            for length in lengths:
                for v, n in ((length, 1), (0, max(length, 1)), (length, max(length, 1))):
                    e = _random_expansion(rng, q, v, n)
                    assert e.value() == _horner_value(e), (limit, q, v, n)
            # every digit at its largest: carries cross each split
            for length in lengths[1:]:
                e = ExpansionQ(q, (q - 1,) * length, (q - 1,) * (length - 1) + (0,))
                assert e.value() == _horner_value(e), (limit, q, length)


@pytest.mark.parametrize("limit", [640, 0])
@pytest.mark.parametrize("q", [2, 3, 10])
def test_value_round_trip_of_a_long_period(int_str_limit, limit, q):
    int_str_limit(limit)
    x = Fraction(1, 50021)
    assert expand(x, q).value() == x


def _block_error(period):
    """The block length named by ExpansionQ's minimality error, or 0 if none is raised."""
    try:
        ExpansionQ(3, (), period)
    except PreconditionError as exc:
        return int(re.search(r"repeats a block of length (\d+)", str(exc)).group(1))
    return 0


def _check_minimality(period):
    named = _block_error(period)
    assert bool(named) == bool(_divisor_loop_block(period)), period
    if named:
        n = len(period)
        assert 0 < named < n and n % named == 0
        assert period == period[:named] * (n // named)


def test_minimality_matches_divisor_loop():
    rng = random.Random(921)
    # every block-repeat shape with n <= 120: each divisor k of n, with a
    # random block and with that block's last repeat spoiled in one digit
    for n in range(1, 121):
        for k in range(1, n + 1):
            if n % k:
                continue
            for q in (2, 3):
                period = tuple(rng.randrange(q) for _ in range(k)) * (n // k)
                _check_minimality(period)
                _check_minimality(period[:-1] + ((period[-1] + 1) % q,))
    # prime-power n, where a single rotation decides
    for p, top in ((2, 12), (3, 7), (5, 5), (7, 4), (4099, 1)):
        n = p**top
        for j in range(top + 1):
            block = tuple(rng.randrange(2) for _ in range(p**j))
            period = block * (n // p**j)
            _check_minimality(period)
            _check_minimality((1 - period[0],) + period[1:])


def test_alternate_expansion_same_value():
    for x, q in _random_sample(300, 3000, 917):
        if x == 0:
            continue
        alt = alternate_expansion(x, q)
        if alt is not None:
            assert alt.value() == x
            assert alt.period == (q - 1,)


def test_shift_digits_small_cases():
    x = Fraction(1, 4)
    # (02)^infty base 3: shifting by one swaps the phase
    assert shift_digits(x, 3, 0) == x
    assert shift_digits(x, 3, 1) == Fraction(3, 4)
    assert shift_digits(x, 3, 2) == x
    # terminating: 1/6 base 10 -> preperiod 1 then (6)^infty
    assert shift_digits(Fraction(1, 6), 10, 1) == Fraction(2, 3)


def test_shift_digits_matches_direct_pow():
    for x, q in _random_sample(300, 2000, 919):
        for n in (0, 1, 2, 7, 30):
            assert shift_digits(x, q, n) == (x * q**n) % 1


def test_shift_digits_huge_exponent():
    # past the preperiod only the coprime part of the denominator survives
    x = Fraction(1, 3**50 * 7)
    n = 10**40 + 13
    assert shift_digits(x, 3, n) == Fraction(pow(3, n - 50, 7), 7)


def test_expansion_dict_round_trip():
    e = expand(Fraction(5, 12), 10)
    assert ExpansionQ.from_dict(e.to_dict()) == e
    # nothing is coerced: [1.9] is not the period (1,); a missing field is no KeyError
    for bad in (
        {"base": 3, "preperiod": [], "period": [1.9]},
        {"base": 3.9, "preperiod": [], "period": [1]},
        {"base": "3", "preperiod": [], "period": [1]},
        {"base": 3, "preperiod": ["0"], "period": [1]},
        {"base": 3, "preperiod": [], "period": [True]},
        {"base": 3},
    ):
        with pytest.raises(PreconditionError):
            ExpansionQ.from_dict(bad)
