import math
import random

import pytest
from hypothesis import given, strategies

from qadic.cantor import DigitCantorSet
from qadic.certificates import congruence_witness, exclusion_bound, make_certificate
from qadic.enumeration import lattice_rows
from qadic.orders import product_stabilization
from qadic.rational import (
    PreconditionError,
    Rational,
    euler_phi,
    factorize,
    format_rational,
    integer_root,
    is_prime,
    parse_natural,
    parse_rational,
    require,
    require_digits,
    split_coprime_part,
    valuation,
)


def test_factorize_frozen():
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(1) == []
    assert factorize(97) == [(97, 1)]
    with pytest.raises(PreconditionError):
        factorize(0)


def test_factorize_reconstructs_and_sorts():
    rng = random.Random(20240817)
    for _ in range(200):
        n = rng.randrange(1, 10**12)
        factors = factorize(n)
        assert math.prod(p**e for p, e in factors) == n
        assert all(is_prime(p) for p, _ in factors)
        assert [p for p, _ in factors] == sorted(p for p, _ in factors)


def test_factorize_large_semiprime():
    p, q = 1000003, 1000033
    assert factorize(p * q) == [(p, 1), (q, 1)]


def test_is_prime_against_sieve():
    limit = 2000
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    for n in range(limit + 1):
        assert is_prime(n) == bool(sieve[n])


def test_is_prime_pseudoprime_traps():
    # Fermat and strong pseudoprimes to small bases, plus Carmichael numbers
    for n in (341, 561, 645, 1105, 1729, 2047, 3215031751, 25326001, 3825123056546413051):
        assert not is_prime(n)
    assert is_prime(2**89 - 1)
    assert is_prime(2**127 - 1)
    assert is_prime(10**18 + 9)


def test_euler_phi_frozen():
    assert euler_phi(12) == 4
    assert euler_phi(1) == 1
    assert euler_phi(9) == 6


def test_euler_phi_brute_force_sample():
    rng = random.Random(7)
    for _ in range(1000):
        n = rng.randrange(1, 10**6)
        if n <= 3000:
            assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        else:
            # product formula cross-check from an independent factorization
            m, out = n, n
            seen = []
            d = 2
            while d * d <= m:
                if m % d == 0:
                    seen.append(d)
                    while m % d == 0:
                        m //= d
                d += 1
            if m > 1:
                seen.append(m)
            for p in seen:
                out = out // p * (p - 1)
            assert euler_phi(n) == out


def test_split_coprime_part_frozen():
    assert split_coprime_part(12, 10) == (3, 4, 2)
    assert split_coprime_part(7, 10) == (7, 1, 0)
    assert split_coprime_part(8, 2) == (1, 8, 3)


@given(strategies.integers(1, 10**6), strategies.integers(2, 50))
def test_split_coprime_part_round_trip(t, q):
    t_hat, u, v = split_coprime_part(t, q)
    assert t_hat * u == t
    assert math.gcd(t_hat, q) == 1
    assert q**v % u == 0
    if v >= 1:
        assert q ** (v - 1) % u != 0


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(48, 3) == 1
    assert valuation(7, 5) == 0


def test_integer_root():
    assert integer_root(64, 3) == 4
    assert integer_root(63, 3) == 3
    assert integer_root(10**30, 5) == 10**6
    for n in range(1, 200):
        for k in (2, 3, 5):
            r = integer_root(n, k)
            assert r**k <= n < (r + 1) ** k


def test_rational_construction():
    x = Rational(6, 8)
    assert (x.numerator, x.denominator) == (3, 4)
    with pytest.raises(PreconditionError):
        Rational(-1, 2)


def test_parse_and_format_round_trip():
    assert parse_rational("1/8") == Rational(1, 8)
    assert parse_rational("5") == 5
    assert parse_rational(" 3 / 9 ") == Rational(1, 3)
    assert format_rational(Rational(1, 8)) == "1/8"
    assert format_rational(Rational(5)) == "5/1"
    for bad in ("0.5", "1e3", "-1/2", "1/0", "", "a/b", None, "1/" + "7" * 5000):
        with pytest.raises(PreconditionError):
            parse_rational(bad)


K5 = DigitCantorSet(5, (0, 1, 2))
MODULUS_LIST_ENTRY_POINTS = {
    "product_stabilization": lambda primes: product_stabilization(primes, 5),
    "congruence_witness": lambda primes: congruence_witness(5, 1, primes, 1, (40,) * len(primes)),
    "exclusion_bound": lambda primes: exclusion_bound(1, K5, primes),
    "make_certificate": lambda primes: make_certificate(1, K5, primes, (40,) * len(primes)),
    "lattice_rows": lambda primes: lattice_rows(1, primes, K5, 2),
}


@pytest.mark.parametrize("entry", sorted(MODULUS_LIST_ENTRY_POINTS))
@pytest.mark.parametrize("primes", [(), (2, 2), (1,), (2, 3.0)], ids=["empty", "repeated", "one", "float"])
def test_every_modulus_list_entry_point_rejects_bad_lists(entry, primes):
    with pytest.raises(PreconditionError, match="modulus"):
        MODULUS_LIST_ENTRY_POINTS[entry](primes)


def test_require_rejects_bools_floats_and_small_values():
    require("k", 0, 0)
    for value in (True, 2.0, "3", -1):
        with pytest.raises(PreconditionError, match="k = "):
            require("k", value, 0)
    require_digits((0, 1, 2), 3)
    for digits in ((0, 3), (-1,), (True,), (1.0,), ("1",)):
        with pytest.raises(PreconditionError, match="base 3"):
            require_digits(digits, 3)


def test_parse_natural_accepts_only_ascii_digit_runs():
    assert parse_natural("0") == 0
    assert parse_natural("0012") == 12
    for bad in ("", " 1", "+1", "-1", "1_0", "1.0", "\u0661", None, 5):
        with pytest.raises(PreconditionError, match="malformed"):
            parse_natural(bad)
    with pytest.raises(PreconditionError, match="5000 digits"):
        parse_natural("7" * 5000)
