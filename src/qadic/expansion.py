"""Eventually periodic base-q digit expansions of rationals in [0, 1)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from qadic import kernels
from qadic.rational import PreconditionError, require, require_digits, require_field, split_coprime_part

__all__ = [
    "ExpansionQ",
    "expand",
    "digit_at",
    "digit_set",
    "blocks_present",
    "alternate_expansion",
    "is_finite_expansion",
    "shift_digits",
]


# value() folds runs of at most this many digits by Horner's rule.
_HORNER_DIGITS = 48


def _digits_int(digits, lo, hi, q):
    """The integer whose base-q digits, most significant first, are digits[lo:hi].

    Splits the run in halves, value(left) * q**len(right) + value(right), so
    the large multiplications have balanced operands and the whole costs
    within a log factor of one multiplication of the result's size; Horner's
    rule, quadratic in the length, serves only the short runs at the leaves.
    """
    if hi - lo <= _HORNER_DIGITS:
        acc = 0
        for d in digits[lo:hi]:
            acc = acc * q + d
        return acc
    mid = (lo + hi) // 2
    return _digits_int(digits, lo, mid, q) * q ** (hi - mid) + _digits_int(digits, mid, hi, q)


def _repeated_block(period):
    """The length of a shorter block that the period repeats, or 0 if it is minimal.

    A period of length n repeats a shorter block exactly when it repeats one
    of length n/r for some prime r dividing n, that is, when it equals its
    rotation by n/r; so only those rotations are tested, each by comparing
    two tuple slices.  The primes come from trial division of n, inline: it is
    far cheaper than the slices.
    """
    n = m = len(period)
    primes = []
    r = 2
    while r * r <= m:
        if m % r == 0:
            primes.append(r)
            while m % r == 0:
                m //= r
        r += 1
    if m > 1:
        primes.append(m)
    for r in primes:
        # for k dividing n, equal to the rotation by k iff equal to the shift by k
        k = n // r
        if period[k:] == period[:-k]:
            return k
    return 0


@dataclass(frozen=True)
class ExpansionQ:
    """A digit expansion: finite preperiod, then the period repeated forever.

    Terminating expansions carry period (0,), so every instance denotes an
    infinite digit string.  The period is minimal and the last preperiod digit
    differs from the last period digit (else the preperiod could shrink).
    """

    base: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        require("base", self.base, 2)
        if not self.period:
            raise PreconditionError("empty period; terminating expansions use period (0,)")
        require_digits(self.preperiod + self.period, self.base)
        k = _repeated_block(self.period)
        if k:
            raise PreconditionError(f"period {self.period} repeats a block of length {k}")
        if self.preperiod and self.preperiod[-1] == self.period[-1]:
            raise PreconditionError("last preperiod digit equals last period digit; preperiod not minimal")

    def value(self) -> Fraction:
        """The rational this expansion denotes."""
        q = self.base
        v, n = len(self.preperiod), len(self.period)
        head = _digits_int(self.preperiod, 0, v, q)
        rep = _digits_int(self.period, 0, n, q)
        return Fraction(head * (q**n - 1) + rep, q**v * (q**n - 1))

    def digit(self, i: int) -> int:
        """The i-th digit, i >= 1, by indexing rather than materializing."""
        require("i", i, 1)
        v = len(self.preperiod)
        if i <= v:
            return self.preperiod[i - 1]
        return self.period[(i - v - 1) % len(self.period)]

    def prefix(self, n: int) -> tuple[int, ...]:
        """The first n digits."""
        require("n", n, 0)
        v = len(self.preperiod)
        if n <= v:
            return self.preperiod[:n]
        reps = (n - v) // len(self.period) + 1
        return (self.preperiod + self.period * reps)[:n]

    def digits_used(self) -> frozenset[int]:
        return frozenset(self.preperiod) | frozenset(self.period)

    def is_terminating(self) -> bool:
        return self.period == (0,)

    def to_dict(self) -> dict:
        return {"base": self.base, "preperiod": list(self.preperiod), "period": list(self.period)}

    @classmethod
    def from_dict(cls, data: dict) -> "ExpansionQ":
        return cls(
            require_field(data, "base", int, "expansion"),
            tuple(require_field(data, "preperiod", list, "expansion")),
            tuple(require_field(data, "period", list, "expansion")),
        )


def _check_expansion_domain(x, q: int):
    require("q", q, 2)
    if not 0 <= x < 1:
        raise PreconditionError(f"x = {x} outside the expansion domain [0, 1)")


def expand(x, q: int) -> ExpansionQ:
    """Canonical greedy expansion of x in [0, 1), by long division.

    The preperiod length is the q-part exponent v of the denominator, taken
    from split_coprime_part; the period is walked from the remainder after
    those v digits until that remainder recurs, so its length is the
    multiplicative order of q modulo the coprime part.
    """
    _check_expansion_domain(x, q)
    _, _, v = split_coprime_part(x.denominator, q)
    pre, per = kernels.digit_cycle(x.numerator, x.denominator, q, v)
    return ExpansionQ(q, tuple(pre), tuple(per))


def digit_at(x, q: int, i: int) -> int:
    """Digit i (1-based) of the canonical expansion of x."""
    return expand(x, q).digit(i)


def digit_set(x, q: int) -> set[int]:
    """The set of digits occurring in the canonical expansion of x.

    Stops as soon as all q digits have been seen, so this stays cheap even
    when the period itself is astronomically long, and skips the leading
    zeros of a tiny x such as p**-n in a few bigint steps."""
    _check_expansion_domain(x, q)
    _, _, v = split_coprime_part(x.denominator, q)
    mask = kernels.digit_mask(x.numerator, x.denominator, q, v)
    return set(kernels.mask_digits(mask))


def blocks_present(x, q: int, m: int) -> set[tuple[int, ...]]:
    """All length-m digit blocks occurring in the canonical expansion of x.

    The preperiod plus m copies of the period cover every block phase."""
    require("m", m, 1)
    e = expand(x, q)
    digits = e.preperiod + e.period * m
    return {digits[i : i + m] for i in range(len(digits) - m + 1)}


def alternate_expansion(x, q: int) -> ExpansionQ | None:
    """The trailing-(q-1) representation of x, or None if x does not terminate.

    Defined for 0 < x < 1: the last nonzero digit is decremented and followed
    by (q-1) forever."""
    if not 0 < x < 1:
        raise PreconditionError(f"x = {x}; the alternate form exists for 0 < x < 1")
    e = expand(x, q)
    if not e.is_terminating():
        return None
    pre = e.preperiod
    return ExpansionQ(q, pre[:-1] + (pre[-1] - 1,), (q - 1,))


def is_finite_expansion(x, p: int) -> bool:
    """True iff x in [0, 1] has a terminating base-p expansion (denominator divides p**n)."""
    require("p", p, 2)
    if not 0 <= x <= 1:
        raise PreconditionError(f"x = {x} outside [0, 1]")
    t_hat, _, _ = split_coprime_part(x.denominator, p)
    return t_hat == 1


def shift_digits(x, q: int, n: int) -> Fraction:
    """q**n * x mod 1, computed exactly; n may be astronomically large.

    This is the n-step left shift of the digit string of x."""
    require("q", q, 2)
    require("n", n, 0)
    if x < 0:
        raise PreconditionError(f"x = {x} is negative")
    num, den = x.numerator, x.denominator
    return Fraction(num * pow(q, n, den) % den, den)
