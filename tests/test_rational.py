import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies

from qadic import rational
from qadic.cantor import DigitCantorSet
from qadic.certificates import congruence_witness, exclusion_bound, make_certificate
from qadic.enumeration import (
    all_digits_onset,
    exceptional_geometric,
    exceptional_lattice,
    geometric_rows,
    lattice_rows,
)
from qadic.expansion import alternate_expansion, digit_set, expand, shift_digits
from qadic.rational import (
    MAX_RESIDUES,
    MAX_RHO_STEPS,
    PreconditionError,
    euler_phi,
    factorize,
    format_rational,
    is_prime,
    parse_natural,
    parse_rational,
    require,
    require_digits,
    require_residues,
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


def _random_prime(rng, lo, hi):
    # an odd draw from [lo, hi) kept if prime, as the benchmark draws them
    while True:
        n = rng.randrange(lo, hi) | 1
        if is_prime(n):
            return n


def _products_of_known_primes():
    # each entry is a list of primes, so its factorization is known by construction
    rng = random.Random(20261018)
    above = (1031, 1033, 1039)  # the first primes above the trial bound 2**10
    mersenne = 2**31 - 1
    yield from ([p, p] for p in above)
    yield from ([p, p, p] for p in above)
    yield [mersenne, mersenne]
    yield [mersenne] * 3
    yield [1021, 1031]  # the largest trial prime times the smallest prime past it
    yield [1031] * 40
    # straddling the old trial limit of 10**6
    yield [999983, 1000003]
    yield [999983, 999983]
    yield [1009, 999983, 4294967291]
    yield [1000003, 1000033, 1000037]
    for _ in range(4):
        # 64-bit semiprimes like the `orders` benchmark's
        yield [_random_prime(rng, 1 << 31, 1 << 32) for _ in range(2)]
        # a prime below 2**20 times a 32-bit prime
        yield [_random_prime(rng, 1 << 10, 1 << 20), _random_prime(rng, 1 << 31, 1 << 32)]
        # small and medium primes mixed, with repeats
        medium = [_random_prime(rng, 1 << 10, 1 << 24) for _ in range(3)]
        yield [rng.choice((2, 3, 5, 1021)) for _ in range(5)] + medium * 2


def test_factorize_known_by_construction():
    for primes in _products_of_known_primes():
        assert factorize(math.prod(primes)) == sorted(Counter(primes).items()), primes


def test_factorize_budget_names_its_cap(monkeypatch):
    # a product of two 32-bit primes takes about 10**5 steps of Brent's method
    n = 4294967291 * 4294967279
    monkeypatch.setattr(rational, "MAX_RHO_STEPS", 1000)
    with pytest.raises(PreconditionError, match="MAX_RHO_STEPS = 1000"):
        factorize(n)
    monkeypatch.undo()
    assert MAX_RHO_STEPS >= 1 << 21
    assert factorize(n) == [(4294967279, 1), (4294967291, 1)]


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


def test_is_prime_refuses_what_is_not_a_plain_int():
    # is_prime(7.0) used to return False, as if seven were not prime; a
    # predicate of an integer raises on anything else, a bool included
    for n in (7.0, True, "7", None, Fraction(7)):
        with pytest.raises(PreconditionError, match="^n = .* is not an integer$"):
            is_prime(n)
    assert not any(is_prime(n) for n in (-7, 0, 1))


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
    assert split_coprime_part(2**7 * 5, 8) == (5, 2**7, 3)
    # long q-parts: v in the thousands
    for k in (1, 100, 500, 2000):
        assert split_coprime_part(6**k * 7, 10) == (3**k * 7, 2**k, k)
        assert split_coprime_part(6**k * 7, 12) == (7, 6**k, k)


@given(strategies.integers(1, 10**6), strategies.integers(2, 50))
@example(6**100 * 7, 10)
@example(6**500 * 7, 10)
@example(6**2000 * 7, 10)
@example(6**2000 * 7, 12)
def test_split_coprime_part_round_trip(t, q):
    t_hat, u, v = split_coprime_part(t, q)
    assert t_hat * u == t
    assert math.gcd(t_hat, q) == 1
    assert q**v % u == 0
    if v >= 1:
        assert q ** (v - 1) % u != 0


def _split_by_division(t, q):
    # the division loop split_coprime_part used to run: one gcd per unit of v
    t_hat, v = t, 0
    while (g := math.gcd(t_hat, q)) > 1:
        t_hat //= g
        v += 1
    return t_hat, t // t_hat, v


def test_split_coprime_part_matches_the_division_loop():
    rng = random.Random(20)
    for _ in range(20000):
        q = rng.choice((2, 3, 4, 6, 10, 12, 36, rng.randrange(2, 1000)))
        shape = rng.randrange(3)
        if shape == 0:  # a power of q times a small cofactor, v up to 60
            t = q ** rng.randrange(0, 60) * rng.randrange(1, 100)
        elif shape == 1:  # up to 300 random bits
            t = rng.randrange(1, 2 ** rng.randrange(1, 300))
        else:  # products of prime powers, some shared with q
            t = math.prod(rng.choice((2, 3, 5, 7, 11)) ** rng.randrange(0, 40) for _ in range(3))
        assert split_coprime_part(t, q) == _split_by_division(t, q), (t, q)
    for q in (4, 12, 36):
        for k in range(0, 200, 7):
            assert split_coprime_part(q**k, q) == _split_by_division(q**k, q) == (1, q**k, k)


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(48, 3) == 1
    assert valuation(7, 5) == 0


def test_parse_and_format_round_trip():
    assert parse_rational("1/8") == Fraction(1, 8)
    assert parse_rational("5") == 5
    assert parse_rational(" 3 / 9 ") == Fraction(1, 3)
    assert format_rational(Fraction(1, 8)) == "1/8"
    assert format_rational(Fraction(5)) == "5/1"
    for bad in ("0.5", "1e3", "-1/2", "1/0", "", "a/b", None, "1/" + "7" * 5000):
        with pytest.raises(PreconditionError):
            parse_rational(bad)


def test_format_rational_refuses_inexact_values():
    # format_rational(0.5) used to raise AttributeError, and True printed 1/1
    assert format_rational(3) == "3/1"
    for x in (0.5, True, "1/2", None):
        with pytest.raises(PreconditionError, match="^x = .* is not an int or a Fraction$"):
            format_rational(x)


def test_require_coprime_refuses_bools_and_floats():
    # math.gcd took True as 1 and raised TypeError on a float
    rational.require_coprime(2, 9, "gcd")
    for a, m in ((True, 9), (2, False), (2.0, 9), (2, 9.0), ("2", 9)):
        with pytest.raises(PreconditionError, match="^gcd: .* is not an integer$"):
            rational.require_coprime(a, m, "gcd")


K5 = DigitCantorSet(5, (0, 1, 2))
MODULUS_LIST_ENTRY_POINTS = {
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


RATIONAL_ENTRY_POINTS = {
    "exclusion_bound": lambda alpha, ratio: exclusion_bound(alpha, K5, (2,)),
    "make_certificate": lambda alpha, ratio: make_certificate(alpha, K5, (2,), (40,)),
    "lattice_rows": lambda alpha, ratio: lattice_rows(alpha, (2,), K5, 2),
    "exceptional_lattice": lambda alpha, ratio: exceptional_lattice(alpha, (2,), K5, 2),
    "geometric_rows": lambda alpha, ratio: geometric_rows(alpha, ratio, K5, 2),
    "exceptional_geometric": lambda alpha, ratio: exceptional_geometric(alpha, ratio, K5, 2),
    "all_digits_onset": lambda alpha, ratio: all_digits_onset(alpha, ratio, 5, 2),
}
TAKES_RATIO = {"geometric_rows", "exceptional_geometric", "all_digits_onset"}


@pytest.mark.parametrize("entry", sorted(RATIONAL_ENTRY_POINTS))
def test_every_rational_entry_point_rejects_inexact_values(entry):
    # a float such as 0.1 is not coerced to 3602879701896397/36028797018963968
    call = RATIONAL_ENTRY_POINTS[entry]
    call(1, Fraction(1, 2))
    call(Fraction(3, 4), Fraction(1, 2))
    for alpha in (0.1, 1.0, True, "1/2", None):
        with pytest.raises(PreconditionError, match="^alpha = .* is not an int or a Fraction$"):
            call(alpha, Fraction(1, 2))
    for ratio in (0.5, True, "1/2") if entry in TAKES_RATIO else ():
        with pytest.raises(PreconditionError, match="^ratio = .* is not an int or a Fraction$"):
            call(1, ratio)


X_ENTRY_POINTS = {
    "expand": lambda x: expand(x, 3),
    "digit_set": lambda x: digit_set(x, 3),
    "alternate_expansion": lambda x: alternate_expansion(x, 3),
    "shift_digits": lambda x: shift_digits(x, 3, 2),
    "contains": lambda x: DigitCantorSet(3, (0, 2)).contains(x),
}


@pytest.mark.parametrize("entry", sorted(X_ENTRY_POINTS))
def test_every_x_entry_point_rejects_inexact_values(entry):
    # a float or a string x used to raise AttributeError or TypeError
    call = X_ENTRY_POINTS[entry]
    call(Fraction(1, 4))
    for x in (0.1, 1.0, True, "1/2", None):
        with pytest.raises(PreconditionError, match="^x = .* is not an int or a Fraction$"):
            call(x)


def test_require_rational_passes_a_fraction_through():
    x = Fraction(1, 4)
    assert rational.require_rational("x", x) is x
    assert rational.require_rational("x", 3) == Fraction(3)


def test_require_rejects_bools_floats_and_small_values():
    require("k", 0, 0)
    for value in (True, 2.0, "3", -1):
        with pytest.raises(PreconditionError, match="k = "):
            require("k", value, 0)
    require_digits((0, 1, 2), 3)
    require_digits((), 3)
    require_digits((0, 300, 999), 1000)
    for digits in ((0, 3), (-1,), (True,), (1.0,), ("1",), (1, True), (0, 1, 1.0), (None,), (2**70,)):
        with pytest.raises(PreconditionError, match="base 3"):
            require_digits(digits, 3)
    for digits, base in (((0, 1000), 1000), ((256,), 256), ((255,), 255), ((-1, 5), 1000)):
        with pytest.raises(PreconditionError, match=f"base {base}"):
            require_digits(digits, base)
    # the message names the first bad digit, as a per-digit loop would
    with pytest.raises(PreconditionError, match=r"^digit 5 out of range for base 3$"):
        require_digits((0, 1) * 1000 + (5, True, 7), 3)
    with pytest.raises(PreconditionError, match=r"^digit True out of range for base 3$"):
        require_digits((1, 2) * 1000 + (True, 5), 3)


HUGE = 10**5000  # past the default int-to-str limit of 4300 digits
PAST_THE_LIMIT = [
    ("geometric_rows k_max", "k_max", lambda: geometric_rows(1, Fraction(1, 2), K5, -HUGE)),
    ("lattice_rows box", "box", lambda: lattice_rows(1, (2,), K5, -HUGE)),
    ("shift_digits n", "n", lambda: shift_digits(Fraction(1, 2), 3, -HUGE)),
    ("geometric_rows alpha", "alpha", lambda: geometric_rows(-HUGE, Fraction(1, 2), K5, 3)),
    ("geometric_rows ratio", "ratio", lambda: geometric_rows(1, Fraction(HUGE, 3), K5, 3)),
    ("contains", "x", lambda: K5.contains(Fraction(HUGE))),
    ("expand", "x", lambda: expand(Fraction(HUGE), 3)),
    ("alternate_expansion", "x", lambda: alternate_expansion(Fraction(1, HUGE + 1) - 1, 3)),
    ("shift_digits x", "x", lambda: shift_digits(Fraction(-HUGE, 7), 3, 2)),
    ("require_coprime", "gcd", lambda: rational.require_coprime(HUGE, HUGE, "gcd")),
    ("require_digits", "digit", lambda: require_digits((HUGE,), 3)),
    ("modulus_list", "repeated", lambda: rational.modulus_list((HUGE, HUGE))),
]


@pytest.mark.parametrize("name, call", [case[1:] for case in PAST_THE_LIMIT], ids=[case[0] for case in PAST_THE_LIMIT])
def test_messages_describe_a_number_past_the_int_str_limit(name, call, int_str_limit):
    # such a number used to raise ValueError from str() while the message was built
    int_str_limit(4300)
    with pytest.raises(PreconditionError, match=f"^{name}.* a (negative )?(16610-bit integer|fraction of)"):
        call()


def test_shown_prints_what_str_can_print(monkeypatch, int_str_limit):
    int_str_limit(4300)
    assert rational.shown(10**4300 - 1) == "9" * 4300
    assert rational.shown(-(10**4300)) == "a negative 14285-bit integer"
    assert rational.shown(Fraction(1, 10**4300)) == "a fraction of a 1-bit numerator over a 14285-bit denominator"
    assert rational.shown(Fraction(-3, 4)) == "-3/4"
    for other in (True, 0.5, "1/2", None):
        assert rational.shown(other) == repr(other)
    # where no limit applies, MAX_PRINT_DIGITS = 10**4 decides
    int_str_limit(0)
    assert rational.shown(10**4300) == "1" + "0" * 4300
    assert rational.shown(10**10000) == "a 33220-bit integer"


def test_parse_natural_accepts_only_ascii_digit_runs():
    assert parse_natural("0") == 0
    assert parse_natural("0012") == 12
    for bad in ("", " 1", "+1", "-1", "1_0", "1.0", "\u0661", None, 5):
        with pytest.raises(PreconditionError, match="malformed"):
            parse_natural(bad)
    with pytest.raises(PreconditionError, match="5000 digits"):
        parse_natural("7" * 5000)


def test_require_residues_cap():
    assert require_residues("m", MAX_RESIDUES) == MAX_RESIDUES
    with pytest.raises(PreconditionError, match="m exceeds MAX_RESIDUES"):
        require_residues("m", MAX_RESIDUES + 1)


def test_require_printable_falls_back_to_a_named_cap(monkeypatch):
    # the int-to-str limit where one applies, else MAX_PRINT_DIGITS
    assert rational.MAX_PRINT_DIGITS == 10**4
    monkeypatch.setattr(rational, "int_str_limit", lambda: 5)
    rational.require_printable("x", 99999)
    with pytest.raises(PreconditionError, match=r"x has more than 5 decimal digits, the int-to-str limit"):
        rational.require_printable("x", 10**5)
    with pytest.raises(PreconditionError, match="the int-to-str limit"):
        rational.require_printable("x", log2_floor=17)  # 2**17 > 10**5
    monkeypatch.setattr(rational, "int_str_limit", lambda: 0)
    rational.require_printable("x", 10**10000 - 1, log2_floor=33219)
    for value, floor in ((10**10000, 0), (0, 33220)):  # 2**33220 > 10**10000 > 2**33219
        with pytest.raises(PreconditionError, match="more than 10000 decimal digits, MAX_PRINT_DIGITS"):
            rational.require_printable("x", value, log2_floor=floor)
