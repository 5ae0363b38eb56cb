"""Restricted-digit Cantor sets: points of [0, 1] admitting an expansion using only digits from A.

Membership is existential, so a point with a disallowed canonical digit can
still belong via its trailing-(q-1) representation; a point that ends in
base q is decided on the integer digits of both its forms at once
(`kernels.terminating_allowed`).  The scans of the scaled points
alpha*ratio**k and alpha / prod(p_j**k_j) come in two steps.  The
membership walk (`_line_members`) yields one flag per point of a geometric
line; for a ratio 1/t it carries the line once alpha's numerator has
stopped cancelling against t**k, whatever t shares with q: through
`kernels.terminating_powers` when every point ends in base q, else through
`kernels.scan_powers`.  geometric_members and lattice_members read the
members straight from those flags, for JSON `enumerate` and `bound`.  The
second step (`_line_rows`) puts a value on each flag, and only
geometric_rows and lattice_rows, the rows of CSV tables and of the library,
run it."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property

from qadic import _par, kernels
from qadic.rational import (
    MAX_POINTS,
    PreconditionError,
    Record,
    _require_points,
    modulus_list,
    parse_rational,
    require,
    require_digits,
    require_rational,
    shown,
    split_coprime_part,
)

__all__ = ["Gap", "DigitCantorSet", "geometric_rows", "geometric_members", "lattice_rows", "lattice_members"]


class Gap(Record):
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


class DigitCantorSet(Record):
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
    def allowed(self) -> frozenset[int]:
        """The digits of A as a set, for the membership walks."""
        return frozenset(self.digits)

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
        """Exact membership test for x in [0, 1], an int or a Fraction.

        A point whose denominator divides q**v, v minimal, is m / q**v, and
        `kernels.terminating_allowed` tests the v digits of m for its
        canonical form and those of m - 1 for its trailing-(q-1) form in one
        walk of integer digits, with early exit; no expansion is built.  Any
        other point has one expansion, whose digits `kernels.scan_allowed`
        scans against the set `allowed` with early exit; a member whose
        period is longer than MAX_DIGITS digits raises PreconditionError."""
        x = require_rational("x", x)
        if not 0 <= x <= 1:
            raise PreconditionError(f"x = {shown(x)} outside [0, 1]")
        if x == 0:
            return 0 in self.digits
        if x == 1:
            return self.base - 1 in self.digits
        num, den = x.numerator, x.denominator
        t_hat, _, v = split_coprime_part(den, self.base)
        if t_hat == 1:
            return kernels.terminating_allowed(num * (self.base**v // den), v, self.base, self.allowed)
        return kernels.scan_allowed(num, den, self.base, self.allowed, v)


def _check_scale(alpha, ratio=None, k_max=0) -> tuple[Fraction, Fraction | None]:
    """alpha and ratio as Fractions, with alpha > 0 and 0 < ratio < 1 (ratio None skips it).

    With a ratio, the scan of k = 0..k_max is capped before it starts: more
    than MAX_POINTS points, or more than MAX_SCAN_BITS bits summed over the
    powers t**k of the ratio's denominator t, raise PreconditionError."""
    alpha = require_rational("alpha", alpha)
    if alpha <= 0:
        raise PreconditionError(f"alpha = {shown(alpha)}; need alpha > 0")
    if ratio is not None:
        ratio = require_rational("ratio", ratio)
        if not 0 < ratio < 1:
            raise PreconditionError(f"ratio = {shown(ratio)}; need 0 < ratio < 1")
        require("k_max", k_max, 0)
        bits = ratio.denominator.bit_length() * k_max * (k_max + 1) // 2
        # a k_max that fails the point cap goes unprinted: it may pass the int-to-str limit
        scan = f"the scan of k = 0..{k_max}" if k_max < MAX_POINTS else "the scan of k = 0..k_max"
        _require_points(scan, k_max + 1, bits)
    return alpha, ratio


def _line_members(start: Fraction, ratio: Fraction, K: DigitCantorSet, count: int) -> list[bool]:
    """Membership flags of start*ratio**k for k = 0..count-1, uncapped.

    When the ratio is 1/t and start = s/d, the point k is (s/g_k) /
    (d * t**k / g_k) in lowest terms, with g_k = gcd(s, t**k).  Once s/g_k
    is prime to t, g_k no longer changes, and the points from there on are
    one row s' / (D * t**i) with s' prime to t.  The row is carried from k0,
    the first k >= 0 whose point is below 1 and whose numerator s/g_k is
    prime to t, given the exact preperiod length of the point k0, in one of
    two ways, whatever t shares with q:
    - a row that ends in base q (d and t both divide a power of q):
      `kernels.terminating_powers` steps each point's preperiod length v and
      c = q**v / (D * t**i), and decides the point by the integer digits of
      s' * c;
    - any other row, from the first such k whose reduced denominator also
      has a part prime to q (d_hat * t_hat**k > g_hat, the hats marking the
      parts prime to q), so that no trailing-(q-1) form applies:
      `kernels.scan_powers` carries the remainder after each point's leading
      zeros to the next k.
    Every other point (those before k0, and every point of a ratio whose
    numerator is above 1) is built and goes through `contains` on its own.
    No value of the carried points is built."""

    def member(k):
        value = start * ratio**k
        return value <= 1 and K.contains(value)

    s, d, t, q = start.numerator, start.denominator, ratio.denominator, K.base
    if ratio.numerator > 1:
        return _par.pmap(member, list(range(count)))
    d_hat, t_hat = split_coprime_part(d, q)[0], split_coprime_part(t, q)[0]
    ends = d_hat == t_hat == 1
    # k0: the point s / (d * t**k0) below 1, g = gcd(s, t**k0) settled, and,
    # unless the row ends in base q, a part prime to q in its reduced
    # denominator, d_hat * t_hat**k0 / g_hat
    k0, power, power_hat = 0, 1, 1
    while k0 < count:
        g = math.gcd(s, power)
        if s < d * power and math.gcd(s // g, t) == 1 and (ends or d_hat * power_hat > math.gcd(s, power_hat)):
            break
        k0, power, power_hat = k0 + 1, power * t, power_hat * t_hat
    flags = _par.pmap(member, list(range(min(k0, count))))
    if k0 < count:
        den = d * power // g
        carry = kernels.terminating_powers if ends else kernels.scan_powers
        flags += carry(s // g, den, t, q, K.allowed, split_coprime_part(den, q)[2], count - k0)
    return flags


def _line_rows(start: Fraction, ratio: Fraction, K: DigitCantorSet, count: int) -> list[tuple[int, Fraction, bool]]:
    """Rows (k, start*ratio**k, member) for k = 0..count-1, uncapped: the
    flags of `_line_members`, each with its value, built as the one before
    times ratio.  Only the callers that print values come here."""
    rows, value = [], start
    for k, member in enumerate(_line_members(start, ratio, K, count)):
        rows.append((k, value, member))
        value *= ratio
    return rows


def geometric_rows(alpha, ratio, K: DigitCantorSet, k_max: int) -> list[tuple[int, Fraction, bool]]:
    """Evaluate alpha*ratio**k for k = 0..k_max; rows of (k, value, member).

    Capped before any point is built (`_check_scale`).  A ratio 1/t, whatever
    t shares with q, takes a carried walk (`_line_members`) from the first
    k >= 0 whose point is below 1 and whose numerator s / gcd(s, t**k) is
    prime to t: `kernels.terminating_powers` when the row ends in base q,
    else `kernels.scan_powers` once the reduced denominator also has a part
    prime to q; `_line_rows` puts a value on each flag, for CSV tables and
    the library."""
    alpha, ratio = _check_scale(alpha, ratio, k_max)
    return _line_rows(alpha, ratio, K, k_max + 1)


def geometric_members(alpha, ratio, K: DigitCantorSet, k_max: int) -> list[int]:
    """The k in 0..k_max with alpha*ratio**k in K, in increasing order.

    The flags of geometric_rows, under the same cap, with no value built."""
    alpha, ratio = _check_scale(alpha, ratio, k_max)
    return [k for k, member in enumerate(_line_members(alpha, ratio, K, k_max + 1)) if member]


def _lattice_lines(alpha, primes, K: DigitCantorSet, box: int):
    """The lines of the lattice alpha / prod(p_j**k_j) over [0, box]^l.

    More than MAX_POINTS points, or more than MAX_SCAN_BITS bits summed over
    the products prod(p_j**k_j), raise PreconditionError before the first
    line.  Lines run along the carried index j, the last whose modulus is
    prime to q, so that no line ends in base q (else the last index, whose
    lines may end in base q; `_line_members` carries those too): for each
    tuple of the other indices,
    the line start * p_j**-k_j, k_j = 0..box, with start = alpha /
    prod(p_i**k_i), i != j.  Yields (start, 1/p_j, slots, before, after) per
    line: slots[k_j] is the lexicographic slot of the line's point k_j, and
    before + (k_j,) + after its index tuple."""
    alpha, _ = _check_scale(alpha)
    primes = modulus_list(primes)
    require("box", box, 0)
    points = (min(box, MAX_POINTS) + 1) ** len(primes)
    # each k_j takes every value in [0, box] equally often, box / 2 on average
    _require_points("box", points, points * box * sum(p.bit_length() for p in primes) // 2)
    j = max((i for i, p in enumerate(primes) if math.gcd(p, K.base) == 1), default=len(primes) - 1)
    others, ratio, n = primes[:j] + primes[j + 1:], Fraction(1, primes[j]), box + 1
    # a line's k_j = 0 point has lexicographic slot head * n * stride + tail,
    # for the line's index head * stride + tail among the lines; k_j adds k_j * stride
    stride = n ** (len(primes) - 1 - j)
    for line, rest in enumerate(itertools.product(range(n), repeat=len(others))):
        head, tail = divmod(line, stride)
        slot = head * n * stride + tail
        start = alpha / math.prod(p**k for p, k in zip(others, rest))
        yield start, ratio, range(slot, slot + n * stride, stride), rest[:j], rest[j:]


def lattice_rows(alpha, primes, K: DigitCantorSet, box: int) -> list[tuple[tuple[int, ...], Fraction, bool]]:
    """Evaluate alpha / prod(p_j**k_j) over [0, box]^l in lexicographic order.

    Capped before any point is built, and scanned one line at a time
    (`_lattice_lines`): each line's rows come from `_line_rows` and go to
    their lexicographic slots."""
    placed = {}
    for start, ratio, slots, before, after in _lattice_lines(alpha, primes, K, box):
        for slot, (k, value, member) in zip(slots, _line_rows(start, ratio, K, len(slots))):
            placed[slot] = (before + (k,) + after, value, member)
    return [placed[slot] for slot in range(len(placed))]


def lattice_members(alpha, primes, K: DigitCantorSet, box: int) -> list[tuple[int, ...]]:
    """The tuples of [0, box]^l with alpha / prod(p_j**k_j) in K, in lexicographic order.

    The flags of lattice_rows, line by line from `_line_members`, under the
    same caps, with no value built; the member tuples are sorted at the end."""
    found = []
    for start, ratio, slots, before, after in _lattice_lines(alpha, primes, K, box):
        flags = _line_members(start, ratio, K, len(slots))
        found += [before + (k,) + after for k, member in enumerate(flags) if member]
    return sorted(found)
