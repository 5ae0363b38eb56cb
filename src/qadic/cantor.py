"""Restricted-digit Cantor sets: points of [0, 1] admitting an expansion using only digits from A.

Membership is existential, so a point with a disallowed canonical digit can
still belong via its trailing-(q-1) representation."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from qadic import kernels
from qadic.expansion import alternate_expansion
from qadic.rational import PreconditionError, parse_rational, require, require_digits, require_field, split_coprime_part

__all__ = ["Gap", "DigitCantorSet"]


@dataclass(frozen=True)
class Gap:
    """An open interval (left, right) of [0, 1] disjoint from the set."""

    left: Fraction
    right: Fraction

    def __post_init__(self):
        if not 0 <= self.left < self.right <= 1:
            raise PreconditionError(f"degenerate gap ({self.left}, {self.right})")

    @property
    def length(self) -> Fraction:
        return self.right - self.left

    def __contains__(self, x) -> bool:
        return self.left < x < self.right

    def to_dict(self) -> dict:
        return {"left": f"{self.left.numerator}/{self.left.denominator}",
                "right": f"{self.right.numerator}/{self.right.denominator}"}

    @classmethod
    def from_dict(cls, data: dict) -> "Gap":
        return cls(parse_rational(data.get("left")), parse_rational(data.get("right")))


@dataclass(frozen=True)
class DigitCantorSet:
    """K(q, A): x in [0, 1] whose base-q expansion can avoid every digit outside A.

    Needs q >= 3 and 1 < #A < q."""

    base: int
    digits: tuple[int, ...]

    def __post_init__(self):
        require("q", self.base, 3)
        digits = tuple(self.digits)
        require_digits(digits, self.base)
        object.__setattr__(self, "digits", tuple(sorted(set(digits))))
        if not 1 < len(self.digits) < self.base:
            raise PreconditionError(
                f"digit set {self.digits} has {len(self.digits)} elements; need 1 < #A < q = {self.base}"
            )

    @cached_property
    def digit_mask(self) -> int:
        return kernels.mask_of(self.digits)

    @cached_property
    def min_point(self) -> Fraction:
        """Smallest member: the value with every digit equal to min(A)."""
        return Fraction(self.digits[0], self.base - 1)

    @cached_property
    def max_point(self) -> Fraction:
        """Largest member: the value with every digit equal to max(A)."""
        return Fraction(self.digits[-1], self.base - 1)

    @cached_property
    def largest_gap(self) -> Gap:
        """The longest connected component of (0, 1) minus the set.

        Candidates are the two boundary gaps and the first-level gap between
        each pair of consecutive allowed digits; deeper gaps are 1/q-scaled
        copies of these and never longer.  Ties go to the first candidate in
        the order: left boundary gap (0, min), right boundary gap (max, 1),
        then the inner gaps from left to right.  So K(5, {0, 1, 3}) gives
        (3/4, 1), not the equally long (7/20, 3/5).  Certificates are checked
        against this gap, so the rule is part of their format."""
        q = self.base
        candidates = []
        if self.min_point > 0:
            candidates.append(Gap(Fraction(0), self.min_point))
        if self.max_point < 1:
            candidates.append(Gap(self.max_point, Fraction(1)))
        for a, b in zip(self.digits, self.digits[1:]):
            left = Fraction(a, q) + self.max_point / q
            right = Fraction(b, q) + self.min_point / q
            if left < right:
                candidates.append(Gap(left, right))
        return max(candidates, key=lambda g: g.length)

    def contains(self, x) -> bool:
        """Exact membership test for x in [0, 1].

        Scans the canonical digits with early exit; if they terminate and
        fail, falls back to the alternate (trailing-(q-1)) expansion."""
        if not 0 <= x <= 1:
            raise PreconditionError(f"x = {x} outside [0, 1]")
        if x == 0:
            return 0 in self.digits
        if x == 1:
            return self.base - 1 in self.digits
        num, den = x.numerator, x.denominator
        t_hat, _, v = split_coprime_part(den, self.base)
        if kernels.scan_allowed(num, den, self.base, self.digit_mask, v):
            return True
        if t_hat == 1 and self.base - 1 in self.digits:
            return alternate_expansion(x, self.base).digits_used() <= set(self.digits)
        return False

    def to_dict(self) -> dict:
        return {"base": self.base, "digits": list(self.digits)}

    @classmethod
    def from_dict(cls, data: dict) -> "DigitCantorSet":
        return cls(
            require_field(data, "base", int, "digit set"),
            tuple(require_field(data, "digits", list, "digit set")),
        )
