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
        n = len(self.period)
        for k in range(1, n):
            if n % k == 0 and self.period == self.period[:k] * (n // k):
                raise PreconditionError(f"period {self.period} repeats a block of length {k}")
        if self.preperiod and self.preperiod[-1] == self.period[-1]:
            raise PreconditionError("last preperiod digit equals last period digit; preperiod not minimal")

    def value(self) -> Fraction:
        """The rational this expansion denotes."""
        q = self.base
        v, n = len(self.preperiod), len(self.period)
        head = 0
        for d in self.preperiod:
            head = head * q + d
        rep = 0
        for d in self.period:
            rep = rep * q + d
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
    """Canonical greedy expansion of x in [0, 1), by long division with cycle detection.

    The preperiod length always equals the q-part exponent of the denominator
    and the period length the multiplicative order of q modulo its coprime
    part; both come out of the remainder cycle here, not from that law.
    """
    _check_expansion_domain(x, q)
    pre, per = kernels.digit_cycle(x.numerator, x.denominator, q)
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
