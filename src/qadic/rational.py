"""Exact parsing and formatting of rationals, the elementary number theory
used everywhere else, the precondition checks every module shares
(`require`, `require_rational`, `require_coprime`, `require_digits`,
`require_field`, `modulus_list`, `parse_natural`, `int_str_limit`,
`require_printable`), `shown`, which prints a caller's number in their
messages, and `Record`, the base of the frozen result classes.

Integers are plain Python ints (arbitrary precision, always exact); rationals
are `fractions.Fraction` values, kept in lowest terms by construction.
Factorization trial-divides by the 172 primes below 2**10, then splits what is
left by Brent's cycle method (Brent, BIT 20, 1980), with Miller-Rabin/Lucas
primality tests. Brent's method needs about sqrt(p) steps to find a prime
factor p; a step modulo n costs w**2 for n of w 64-bit words, so one
`factorize` call may spend at most MAX_RHO_STEPS = 2**21 steps weighted by w**2
and raises PreconditionError past it. A product of two primes in [2**31, 2**32]
takes about 10**5 steps (at most 257,916 over 1,500 of them), so the cap leaves
room for every prime factor but the largest up to roughly 2**36 below 2**64,
2**32 below 2**128 and 2**24 below 2**512; a 3278-bit n gets 775 steps.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import sys
from fractions import Fraction

__all__ = [
    "PreconditionError",
    "Record",
    "parse_rational",
    "parse_natural",
    "format_rational",
    "require",
    "require_rational",
    "require_coprime",
    "require_digits",
    "require_field",
    "require_residues",
    "int_str_limit",
    "require_printable",
    "shown",
    "MAX_RESIDUES",
    "MAX_POINTS",
    "MAX_SCAN_BITS",
    "MAX_DIGITS",
    "MAX_PRINT_DIGITS",
    "MAX_RHO_STEPS",
    "SMALL_PRIMES",
    "modulus_list",
    "is_prime",
    "factorize",
    "euler_phi",
    "split_coprime_part",
    "valuation",
]


class PreconditionError(ValueError):
    """An operation was called outside its contract; the message names the violated hypothesis."""


class Record:
    """Base of the frozen result classes; it does what `@dataclass(frozen=True)`
    did for them, without importing `dataclasses` (and with it `inspect` and
    `ast`) or generating code for each class.

    A subclass's annotated names, in order, are its fields (`_fields`).  The
    constructor takes them by position or keyword, all required, then calls
    `self.__post_init__()`, looked up at call time.  Assignment and deletion
    raise AttributeError; fields live in the instance `__dict__`, so
    `object.__setattr__` and `functools.cached_property` still work.
    Equality and hash go by the exact class and the field values, and the
    repr is the dataclass one."""

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            state = dict(zip(fields, args), **kwargs)
            # every field given, and none twice or past the last
            if len(args) + len(kwargs) != len(fields) or state.keys() != set(fields):
                raise TypeError(f"{type(self).__name__}() takes each of the fields {', '.join(fields)} once")
            args = [state[name] for name in fields]
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


_RATIONAL_RE = re.compile(r"\s*(\d+)\s*(?:/\s*(\d+))?\s*")


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" (or a bare natural) into a Fraction; signs and float syntax are rejected."""
    m = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if not m:
        raise PreconditionError(f'malformed rational {text!r}; expected "num/den" with decimal integers')
    num = _to_int(m.group(1))
    den = _to_int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise PreconditionError(f"zero denominator in {text!r}")
    return Fraction(num, den)


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
    """Exact "num/den" string, with an explicit denominator even for integers.

    x must be a plain int (a bool is not one) or a Fraction."""
    x = require_rational("x", x)
    return f"{x.numerator}/{x.denominator}"


def require(name: str, value: int, minimum: int):
    """Raise unless value is a plain int (a bool is not one) and at least minimum."""
    if type(value) is not int:
        raise PreconditionError(f"{name} = {shown(value)} is not an integer")
    if value < minimum:
        raise PreconditionError(f"{name} = {shown(value)}; need {name} >= {minimum}")


def require_rational(name: str, value) -> Fraction:
    """value as a Fraction, uncopied if it is one; it must be a plain int (a bool is not one) or a Fraction."""
    if type(value) is Fraction:
        return value
    if type(value) is not int and not isinstance(value, Fraction):
        raise PreconditionError(f"{name} = {value!r} is not an int or a Fraction")
    return Fraction(value)


def require_coprime(a: int, m: int, what: str):
    """Raise unless a and m are plain ints (a bool is not one) with gcd(a, m) = 1."""
    for value in (a, m):
        if type(value) is not int:
            raise PreconditionError(f"{what}: {shown(value)} is not an integer")
    g = math.gcd(a, m)
    if g != 1:
        raise PreconditionError(f"{what}: gcd({shown(a)}, {shown(m)}) = {shown(g)}, not 1")


def require_digits(digits, base: int):
    """Every digit of the sequence must be a plain int (a bool is not one) in [0, base).

    The check runs in C: the plain ints are counted, then packed into bytes,
    and deleting the bytes below base must leave nothing. When it fails, the
    loop names the first bad digit; it also passes digits of 256 and more in
    bases above 256, which `bytes` rejects."""
    if operator.countOf(map(type, digits), int) == len(digits):
        try:
            if not bytes(digits).translate(None, bytes(range(min(base, 256)))):
                return
        except ValueError:  # a digit outside [0, 256)
            pass
    for d in digits:
        if type(d) is not int or not 0 <= d < base:
            raise PreconditionError(f"digit {shown(d)} out of range for base {base}")


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


# Most points a geometric or lattice scan evaluates (`enumeration`, and the
# empirical scan of `exclusion_bound`): 10**5, a hundred times the
# benchmark's largest scan, checked before any point is listed.
MAX_POINTS = 10**5

# Most denominator bits a geometric or lattice scan may sum over its points,
# a bound on its time, which grows with the size of each point: about eleven
# times the largest sum of the benchmark's scans (911,248 bits).  Checked
# with MAX_POINTS, from the closed forms in geometric_rows and lattice_rows.
MAX_SCAN_BITS = 10**7


def _require_points(what: str, n: int, den_bits: int):
    if n > MAX_POINTS:
        raise PreconditionError(f"{what} gives more than MAX_POINTS = {MAX_POINTS} points")
    if den_bits > MAX_SCAN_BITS:
        raise PreconditionError(
            f"{what} gives denominators of {den_bits} bits in all, more than MAX_SCAN_BITS = {MAX_SCAN_BITS}"
        )


# Longest period a digit walk lists (`kernels.digit_cycle`): a million digits,
# about 20 times the longest period of the benchmark's expand jobs.
MAX_DIGITS = 10**6


# Most decimal digits of an integer that is printed where no int-to-str limit
# applies: about twice Python's default limit of 4300, so the stabilization b
# of p = 101, q = 3 (4819 digits) still prints, while a witness exponent or a
# q**ord past it fails as fast as it does under the default limit.
MAX_PRINT_DIGITS = 10**4


def int_str_limit() -> int:
    """Python's int-to-str digit limit, or 0 where none applies (disabled, or before Python 3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


@functools.lru_cache(maxsize=8)
def _power_of_ten(n: int) -> int:
    # 10**4300 takes some 30 us to build, a tenth of a small euclid job
    return 10**n


def require_printable(what: str, value: int = 0, log2_floor: int = 0):
    """Raise PreconditionError if an integer has more decimal digits than the
    int-to-str limit, so that it could be neither written nor read back, or,
    where no limit applies, than MAX_PRINT_DIGITS.  A caller that knows
    value >= 2**log2_floor before building it passes that floor alone, so
    that nothing far past the limit is ever built."""
    limit = int_str_limit()
    cap = "the int-to-str limit (sys.get_int_max_str_digits())"
    if not limit:
        limit, cap = MAX_PRINT_DIGITS, "MAX_PRINT_DIGITS, the cap where no int-to-str limit applies"
    ceiling = _power_of_ten(limit)
    if value >= ceiling or log2_floor >= ceiling.bit_length():
        raise PreconditionError(f"{what} has more than {limit} decimal digits, {cap}")


def shown(value) -> str:
    """value as a message prints it: str() of an int or a Fraction whose
    numerator and denominator have at most int_str_limit() digits each
    (MAX_PRINT_DIGITS where no limit applies), a description by size in bits
    of one past that, which str() may refuse, and repr() of anything else."""
    if type(value) is bool or not isinstance(value, (int, Fraction)):
        return repr(value)
    num, den = abs(value.numerator), value.denominator
    ceiling = _power_of_ten(int_str_limit() or MAX_PRINT_DIGITS)
    if num < ceiling and den < ceiling:
        return str(value)
    sign = "a negative" if value < 0 else "a"
    if den == 1:
        return f"{sign} {num.bit_length()}-bit integer"
    return f"{sign} fraction of a {num.bit_length()}-bit numerator over a {den.bit_length()}-bit denominator"


def modulus_list(values) -> tuple[int, ...]:
    """The moduli p_1..p_l as a tuple; they must be nonempty, distinct integers >= 2."""
    values = tuple(values)
    if not values:
        raise PreconditionError("empty modulus list")
    for p in values:
        require("modulus", p, 2)
    if len(set(values)) != len(values):
        raise PreconditionError(f"repeated entries in modulus list ({', '.join(map(shown, values))})")
    return values


# Trial division runs over SMALL_PRIMES, the 172 primes below _TRIAL_BOUND,
# sieved at import in microseconds; Brent's method finds every larger factor.
_TRIAL_BOUND = 1 << 10


def _primes_below(n: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(itertools.compress(range(n), sieve))


SMALL_PRIMES = _primes_below(_TRIAL_BOUND)

# Cap on the f-steps of Brent's method in one `factorize` call, each weighted by
# the square of the cofactor's 64-bit word count: about 8x the most that a
# product of two primes below 2**32 has needed.
MAX_RHO_STEPS = 1 << 21

# Below this bound the fixed Miller-Rabin base set is a deterministic test.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


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
    """Deterministic below ~3.3e24; Miller-Rabin base 2 plus a strong Lucas test beyond.

    n must be a plain int: a bool or a float such as 7.0 raises
    PreconditionError rather than reading as a number that is not prime.
    Every int below 2 is not prime."""
    if type(n) is not int:
        raise PreconditionError(f"n = {shown(n)} is not an integer")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _MR_DETERMINISTIC_BOUND:
        return not any(_mr_witness(n, a) for a in _MR_BASES)
    return not _mr_witness(n, 2) and _strong_lucas_prp(n)


def _brent_cycle(n: int, c: int, budget: int) -> tuple[int, int]:
    """A factor of n above 1 (possibly n) by one run of Brent's method with
    f(y) = y*y + c mod n, and what it leaves of a budget of f-steps.

    The gcd is taken once per batch of up to 128 steps, on the product of the
    differences x - y (gcd ignores their sign); the steps go two to a pass, so
    r starts at 2 to keep every batch even. A batch that reaches gcd n is
    stepped again from its start, ys, one gcd per step."""
    y, r, q, g = 2, 2, 1, 1
    while g == 1:
        budget = _spend(budget, r, n)
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            batch = min(128, r - k)
            budget = _spend(budget, batch, n)
            for _ in range(batch >> 1):
                y1 = (y * y + c) % n
                y = (y1 * y1 + c) % n
                q = q * (x - y1) * (x - y) % n
            g = math.gcd(q, n)
            k += batch
        r *= 2
    if g == n:
        g = 1
        y = ys
        while g == 1:
            budget = _spend(budget, 1, n)
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
    return g, budget


def _spend(budget: int, steps: int, n: int) -> int:
    budget -= steps * ((n.bit_length() + 63) >> 6) ** 2
    if budget < 0:
        raise PreconditionError(
            f"factoring a {n.bit_length()}-bit cofactor exceeds MAX_RHO_STEPS = {MAX_RHO_STEPS}, "
            "the cap on weighted steps of Brent's method in one factorization"
        )
    return budget


def _factor_hard(n: int, out: dict):
    """Add the factorization of n, which has no prime factor below _TRIAL_BOUND, to out.

    Each prime found is divided out of every later part at once, so a prime
    power costs one run of Brent's method, not one per exponent."""
    budget = MAX_RHO_STEPS
    found = []
    stack = [n]
    while stack:
        v = stack.pop()
        for p in found:
            while v % p == 0:
                v //= p
                out[p] += 1
        if v == 1:
            continue
        if is_prime(v):
            out[v] = 1
            found.append(v)
            continue
        c = 1
        d, budget = _brent_cycle(v, c, budget)
        while d == v:
            c += 1
            d, budget = _brent_cycle(v, c, budget)
        stack += (v // d, d)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as a sorted list of (prime, exponent) pairs.

    Raises PreconditionError past MAX_RHO_STEPS weighted steps of Brent's method."""
    require("n", n, 1)
    out: dict[int, int] = {}
    m = n
    for p in SMALL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            m //= p
            out[p] = out.get(p, 0) + 1
    if m > 1:
        if m < _TRIAL_BOUND * _TRIAL_BOUND:
            # no prime factor below the trial bound, so m is prime
            out[m] = 1
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

    Returns (t_hat, u, v), in O(log v) gcds and modular powers.  u is the
    part of t made of the primes of q: from gcd(t, q), each u -> gcd(t, u**2)
    doubles every exponent of u up to the prime's exponent in t, so u reaches
    it in about log2 v rounds and then stays.  v is one more than the largest
    w with q**w != 0 mod u, which binary lifting over the squares
    q**(2**j) mod u finds in about 2*log2 v products mod u."""
    require("t", t, 1)
    require("q", q, 2)
    u = math.gcd(t, q)
    if u == 1:
        return t, 1, 0
    while (g := math.gcd(t, u * u)) != u:
        u = g
    squares = [q % u]  # q**(2**j) mod u, up to the first that is 0
    while squares[-1]:
        squares.append(squares[-1] ** 2 % u)
    w, x = 0, 1  # x = q**w mod u, never 0
    for j in range(len(squares) - 2, -1, -1):
        if y := x * squares[j] % u:
            w, x = w + (1 << j), y
    return t // u, u, w + 1


def valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n (n >= 1, p >= 2)."""
    require("n", n, 1)
    require("p", p, 2)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e

