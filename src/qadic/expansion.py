"""Eventually periodic base-q digit expansions of rationals in [0, 1)."""

from __future__ import annotations

from fractions import Fraction

from qadic import kernels
from qadic.rational import (
    PreconditionError,
    Record,
    factorize,
    require,
    require_digits,
    require_field,
    split_coprime_part,
)

__all__ = [
    "ExpansionQ",
    "expand",
    "digit_set",
    "alternate_expansion",
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
    two tuple slices.
    """
    n = len(period)
    for r, _ in factorize(n):
        # for k dividing n, equal to the rotation by k iff equal to the shift by k
        k = n // r
        if period[k:] == period[:-k]:
            return k
    return 0


class ExpansionQ(Record):
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


def digit_set(x, q: int) -> set[int]:
    """The set of digits occurring in the canonical expansion of x.

    Stops as soon as all q digits have been seen, so this stays cheap even
    when the period itself is astronomically long, and skips the leading
    zeros of a tiny x such as p**-n in a few bigint steps."""
    _check_expansion_domain(x, q)
    _, _, v = split_coprime_part(x.denominator, q)
    mask = kernels.digit_mask(x.numerator, x.denominator, q, v)
    return set(kernels.mask_digits(mask))


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


def shift_digits(x, q: int, n: int) -> Fraction:
    """q**n * x mod 1, computed exactly; n may be astronomically large.

    This is the n-step left shift of the digit string of x."""
    require("q", q, 2)
    require("n", n, 0)
    if x < 0:
        raise PreconditionError(f"x = {x} is negative")
    num, den = x.numerator, x.denominator
    return Fraction(num * pow(q, n, den) % den, den)
