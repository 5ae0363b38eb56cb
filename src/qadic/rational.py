"""Exact nonnegative rationals, the elementary number theory used everywhere
else, and the precondition checks every module shares (`require`,
`require_coprime`, `require_digits`, `require_field`, `modulus_list`,
`parse_natural`).

Integers are plain Python ints (arbitrary precision, always exact); rationals
are `fractions.Fraction` values, kept in lowest terms by construction.
Factorization runs trial division below one million and then Brent's cycle
method with Miller-Rabin/Lucas primality certification; inputs whose surviving
hard factors exceed roughly 120 bits are outside the supported range.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

__all__ = [
    "PreconditionError",
    "Rational",
    "parse_rational",
    "parse_natural",
    "format_rational",
    "require",
    "require_coprime",
    "require_digits",
    "require_field",
    "require_residues",
    "MAX_RESIDUES",
    "modulus_list",
    "is_prime",
    "factorize",
    "euler_phi",
    "split_coprime_part",
    "valuation",
    "integer_root",
]


class PreconditionError(ValueError):
    """An operation was called outside its contract; the message names the violated hypothesis."""


class Rational(Fraction):
    """Nonnegative exact fraction; negative values are rejected at construction.

    Arithmetic is inherited from Fraction and may return plain Fraction
    values; construct a Rational at boundaries where the sign contract matters.
    """

    def __new__(cls, numerator=0, denominator=None):
        self = super().__new__(cls, numerator, denominator)
        if self < 0:
            raise PreconditionError(f"negative value {self}; only nonnegative rationals are supported")
        return self


_RATIONAL_RE = re.compile(r"\s*(\d+)\s*(?:/\s*(\d+))?\s*")


def parse_rational(text: str) -> Rational:
    """Parse "num/den" (or a bare natural) into a Rational; float syntax is rejected."""
    m = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if not m:
        raise PreconditionError(f'malformed rational {text!r}; expected "num/den" with decimal integers')
    num = _to_int(m.group(1))
    den = _to_int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise PreconditionError(f"zero denominator in {text!r}")
    return Rational(num, den)


_NATURAL_RE = re.compile(r"[0-9]+")


def parse_natural(text: str, what: str = "integer") -> int:
    """Parse a nonempty run of ASCII digits; signs, spaces and other syntax are rejected."""
    if not isinstance(text, str) or not _NATURAL_RE.fullmatch(text):
        raise PreconditionError(f"malformed {what} {text!r}; expected decimal digits 0-9")
    return _to_int(text)


def _to_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past Python's int-to-str conversion limit
        raise PreconditionError(f"integer of {len(digits)} digits exceeds Python's int conversion limit") from None


def format_rational(x) -> str:
    """Exact "num/den" string, with an explicit denominator even for integers."""
    return f"{x.numerator}/{x.denominator}"


def require(name: str, value: int, minimum: int):
    """Raise unless value is a plain int (a bool is not one) and at least minimum."""
    if type(value) is not int:
        raise PreconditionError(f"{name} = {value!r} is not an integer")
    if value < minimum:
        raise PreconditionError(f"{name} = {value}; need {name} >= {minimum}")


def require_coprime(a: int, m: int, what: str):
    g = math.gcd(a, m)
    if g != 1:
        raise PreconditionError(f"{what}: gcd({a}, {m}) = {g}, not 1")


def require_digits(digits, base: int):
    """Every digit must be a plain int (a bool is not one) in [0, base)."""
    for d in digits:
        if type(d) is not int or not 0 <= d < base:
            raise PreconditionError(f"digit {d!r} out of range for base {base}")


def require_field(data, key: str, kind: type, what: str):
    """data[key] from a decoded JSON object, which must have exactly this type.

    A missing key, a bool for an int or a float for an int all raise."""
    if not isinstance(data, dict):
        raise PreconditionError(f"{what} must be a JSON object, not {type(data).__name__}")
    value = data.get(key)
    if type(value) is not kind:
        raise PreconditionError(f"{what} field {key!r} = {value!r}; need a JSON {kind.__name__}")
    return value


# Largest modulus for a table with one byte per residue (`dp_intersection`,
# `coset_decomposition`): 10 MB of flags, and a walk of a few seconds.
MAX_RESIDUES = 10**7


def require_residues(name: str, n: int) -> int:
    """n, if a table of one byte per residue mod n fits under MAX_RESIDUES."""
    if n > MAX_RESIDUES:
        raise PreconditionError(f"{name} exceeds MAX_RESIDUES = {MAX_RESIDUES}, the cap on one-byte-per-residue tables")
    return n


def modulus_list(values) -> tuple[int, ...]:
    """The moduli p_1..p_l as a tuple; they must be nonempty, distinct integers >= 2."""
    values = tuple(values)
    if not values:
        raise PreconditionError("empty modulus list")
    for p in values:
        require("modulus", p, 2)
    if len(set(values)) != len(values):
        raise PreconditionError(f"repeated entries in modulus list {values}")
    return values


_TRIAL_LIMIT = 1_000_000
_small_prime_cache = None

# Below this bound the fixed Miller-Rabin base set is a deterministic test.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


def _small_primes():
    """The primes below _TRIAL_LIMIT, sieved on first use.

    Held as an array of C unsigned ints: 0.3 MB, against 3.0 MB as a list of
    Python ints, for the rest of the life of any process that factors."""
    global _small_prime_cache
    if _small_prime_cache is None:
        # imported here: loading the array extension would add about 0.5 ms
        # to every `import qadic`, and many CLI calls never factor
        from array import array

        sieve = bytearray([1]) * _TRIAL_LIMIT
        sieve[0] = sieve[1] = 0
        for p in range(2, math.isqrt(_TRIAL_LIMIT) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
        _small_prime_cache = array("I", itertools.compress(range(_TRIAL_LIMIT), sieve))
    return _small_prime_cache


def _mr_witness(n: int, a: int) -> bool:
    # True if a witnesses that n is composite
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    # n odd and positive
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    # Selfridge parameter choice; n odd, coprime to small primes, not a square.
    r = math.isqrt(n)
    if r * r == n:
        return False
    D = 5
    while _jacobi(D, n) != -1:
        D = -(D + 2) if D > 0 else -(D - 2)
    P, Q = 1, (1 - D) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    inv2 = (n + 1) // 2
    U, V, Qk = 1, P, Q % n
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = (P * U + V) * inv2 % n, (D * U + P * V) * inv2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def is_prime(n: int) -> bool:
    """Deterministic below ~3.3e24; Miller-Rabin base 2 plus a strong Lucas test beyond."""
    if not isinstance(n, int) or n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _MR_DETERMINISTIC_BOUND:
        return not any(_mr_witness(n, a) for a in _MR_BASES)
    return not _mr_witness(n, 2) and _strong_lucas_prp(n)


def _brent_cycle(n: int, c: int) -> int:
    # One Brent rho round with increment c; returns a factor (possibly n).
    if n % 2 == 0:
        return 2
    y, r, q = 2, 1, 1
    g = 1
    x = ys = y
    m = 128
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        g = 1
        y = ys
        while g == 1:
            y = (y * y + c) % n
            g = math.gcd(abs(x - y), n)
    return g


def _factor_hard(n: int, out: dict):
    stack = [n]
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_prime(v):
            out[v] = out.get(v, 0) + 1
            continue
        c = 1
        d = _brent_cycle(v, c)
        while not 1 < d < v:
            c += 1
            d = _brent_cycle(v, c)
        stack.append(d)
        stack.append(v // d)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as a sorted list of (prime, exponent) pairs."""
    require("n", n, 1)
    out: dict[int, int] = {}
    m = n
    for p in _small_primes():
        if p * p > m:
            break
        while m % p == 0:
            m //= p
            out[p] = out.get(p, 0) + 1
    if m > 1:
        if m < _TRIAL_LIMIT * _TRIAL_LIMIT:
            # no divisor below the trial limit, so m is prime
            out[m] = out.get(m, 0) + 1
        else:
            _factor_hard(m, out)
    return sorted(out.items())


def euler_phi(n: int) -> int:
    require("n", n, 1)
    result = n
    for p, _ in factorize(n):
        result -= result // p
    return result


def split_coprime_part(t: int, q: int) -> tuple[int, int, int]:
    """Split t = t_hat * u with gcd(t_hat, q) = 1 and u | q**v, v minimal.

    Returns (t_hat, u, v).  Each division by gcd(t_hat, q) lowers v_p(t_hat)
    by v_p(q), down to 0, for every prime p of q, so the loop runs the largest
    ceil(v_p(t) / v_p(q)) times, which is exactly the minimal v."""
    require("t", t, 1)
    require("q", q, 2)
    t_hat = t
    v = 0
    g = math.gcd(t_hat, q)
    while g > 1:
        t_hat //= g
        v += 1
        g = math.gcd(t_hat, q)
    return t_hat, t // t_hat, v


def valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n (n >= 1, p >= 2)."""
    require("n", n, 1)
    require("p", p, 2)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def integer_root(n: int, k: int) -> int:
    """Floor of the k-th root of n, exactly."""
    require("n", n, 0)
    require("k", k, 1)
    if n < 2 or k == 1:
        return n
    x = 1 << ((n.bit_length() - 1) // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y
