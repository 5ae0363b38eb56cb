import random
from fractions import Fraction

import pytest

from qadic.expansion import (
    ExpansionQ,
    alternate_expansion,
    blocks_present,
    digit_at,
    digit_set,
    expand,
    is_finite_expansion,
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


def test_digit_at_frozen():
    assert digit_at(Fraction(1, 4), 3, 2) == 2
    assert digit_at(Fraction(0), 5, 17) == 0
    assert digit_at(Fraction(1, 6), 10, 5) == 6
    with pytest.raises(PreconditionError):
        digit_at(Fraction(1, 4), 3, 0)


def test_is_finite_expansion_frozen():
    assert is_finite_expansion(Fraction(3, 8), 2)
    assert is_finite_expansion(Fraction(0), 5)
    assert not is_finite_expansion(Fraction(1, 3), 2)


def test_digit_set_frozen():
    assert digit_set(Fraction(1, 4), 3) == {0, 2}
    assert digit_set(Fraction(0), 9) == {0}
    assert digit_set(Fraction(1, 2), 3) == {1}


def test_blocks_present_frozen():
    assert blocks_present(Fraction(1, 4), 3, 2) == {(0, 2), (2, 0)}
    assert blocks_present(Fraction(0), 4, 3) == {(0, 0, 0)}
    assert blocks_present(Fraction(1, 8), 3, 2) == {(0, 1), (1, 0)}


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


def test_reconstruction_and_structural_law():
    # two independent routes to the same shape: cycle detection vs the
    # split/order law, plus exact re-evaluation of the digit series
    for x, q in _random_sample(1000, 10**5, 915):
        e = expand(x, q)
        assert e.value() == x
        t_hat, _, v = split_coprime_part(x.denominator, q)
        assert len(e.preperiod) == v
        assert len(e.period) == (mult_order(q, t_hat) if t_hat > 1 else 1)
        assert e.period != (q - 1,)


def test_digit_at_matches_unrolled():
    for x, q in _random_sample(40, 500, 916):
        e = expand(x, q)
        unrolled = e.prefix(200)
        for i in range(1, 201):
            assert digit_at(x, q, i) == unrolled[i - 1]


def test_alternate_expansion_same_value():
    for x, q in _random_sample(300, 3000, 917):
        if x == 0:
            continue
        alt = alternate_expansion(x, q)
        if alt is not None:
            assert alt.value() == x
            assert alt.period == (q - 1,)


def test_finite_expansion_iff_period_zero():
    for x, q in _random_sample(300, 3000, 918):
        assert is_finite_expansion(x, q) == (expand(x, q).period == (0,))


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
