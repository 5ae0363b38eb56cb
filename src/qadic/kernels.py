"""The digit loops, in pure Python; arbitrary precision, and every period
walk capped at rational.MAX_DIGITS digits (fewer in a base past 64 bits).

digit_cycle, scan_allowed and digit_mask all walk the long division of
num/den (0 <= num < den) in the given base: the preperiod, whose length the
caller passes (the v of split_coprime_part), then one period, until the
remainder returns to the one after the preperiod; none keeps a table of
remainders.  Digit sets are Python sets, in any base: scan_allowed tests
each digit against the allowed set, and digit_mask returns the set it met.
scan_allowed and digit_mask first skip the leading zero digits in a few
bigint steps (skip_zeros), so a tiny value such as p**-n costs nothing per
leading zero.  scan_powers tests a whole row num / (den * t**i), the points
alpha * t**-k of a geometric scan or of one line of a lattice, whatever t
shares with base: it carries the remainder after one point's leading zeros
to the next point, a few factors of base further on, steps each point's
exact preperiod length from the one before, and runs scan_allowed's walk
from there; when 0 is not an allowed digit it stops at the first point with
a leading zero.
digit_mask may draw its period digits from a budget that several walks
share (period_steps), as the digit cells of one CSV table do.
Integers only: no float enters any bound.
"""

from __future__ import annotations

import math
from functools import lru_cache

from qadic.rational import MAX_DIGITS, PreconditionError, split_coprime_part


def backend() -> str:
    return "pure"


_PER_WORD = ", a digit of a base past 64 bits counting once per 64 bits"


def _period_cap(base):
    # the most period digits a walk takes: with a digit of a wide base counted
    # once per 64 bits, a base of thousands of bits costs about as much as 10
    return MAX_DIGITS // -(-base.bit_length() // 64)


def period_steps(base):
    """A budget of period digits in base: an iterator of the digits one walk
    may take, MAX_DIGITS counted as _period_cap counts them.  digit_mask
    takes one item per period digit, so walks handed the same iterator
    share the budget."""
    return iter(range(_period_cap(base)))


def digit_cycle(num, den, base, preperiod_len):
    """(preperiod, period) digit lists, both minimal; terminating values get period [0].

    num/den must be in lowest terms and preperiod_len must be exactly its
    preperiod length, the v of split_coprime_part(den, base).  The walk takes
    those digits, then walks the period until the remainder returns to the
    one after them.  If preperiod_len is too small that remainder is not on
    the cycle and the walk never meets it again; if it is too large the
    period comes out rotated.  A period longer than MAX_DIGITS digits raises
    PreconditionError.
    """
    pre = []
    r = num
    for _ in range(preperiod_len):
        r *= base
        d, r = divmod(r, den)
        pre.append(d)
    sentinel = r
    period = []
    for _ in range(_period_cap(base)):
        r *= base
        d, r = divmod(r, den)
        period.append(d)
        if r == sentinel:
            return pre, period
    raise PreconditionError(f"the period of the expansion is longer than MAX_DIGITS = {MAX_DIGITS} digits{_PER_WORD}")


# With L = (base**_LOG_POWER).bit_length(), base**_LOG_POWER < 2**L, so
# L / _LOG_POWER exceeds log2(base), by less than 1 / _LOG_POWER.
_LOG_POWER = 64


@lru_cache(maxsize=64)
def _log_bits(base):
    return (base**_LOG_POWER).bit_length()


def skip_zeros(num, den, base):
    """(z, num * base**z) for the largest z with num * base**z < den.

    z is the number of leading zero digits of num/den (0 < num < den), and
    num * base**z is the remainder after them: below den, it was never
    reduced.  Each round multiplies by the largest power of base that the bit
    lengths prove keeps the product below den, so the gap shrinks to a few
    bits in a few rounds; exact comparisons take the last steps.
    """
    log_bits = _log_bits(base)
    z, r = 0, num
    # r < 2**r.bit_length() and 2**(den.bit_length() - 1) <= den, so the
    # product stays below den when base**step < 2**gap, with gap the bit
    # length difference less 1; step <= gap * _LOG_POWER / L ensures that.
    while (step := (den.bit_length() - r.bit_length() - 1) * _LOG_POWER // log_bits) > 0:
        r *= base**step
        z += step
    while r * base < den:
        r *= base
        z += 1
    return z, r


def scan_allowed(num, den, base, allowed, preperiod_len):
    """True iff every digit of the expansion is in the set allowed.

    Walks the preperiod then exactly one period, stopping at the first digit
    outside allowed.  num/den must be in lowest terms and preperiod_len must
    be at least the true preperiod length, or the walk never meets its start
    again and raises PreconditionError after MAX_DIGITS period digits, as a
    longer period does.  When 0 is allowed and num * base < den (there is a
    leading zero), the leading zeros are skipped in one skip_zeros call: if
    there are z <= preperiod_len of them the walk goes on with the remaining
    preperiod_len - z digits, and otherwise the remainder after them already
    lies on the period cycle, so one period from it is walked.
    """
    r = num
    if num and 0 in allowed and num * base < den:
        z, r = skip_zeros(num, den, base)
        preperiod_len = max(preperiod_len - z, 0)
    for _ in range(preperiod_len):
        r *= base
        d, r = divmod(r, den)
        if d not in allowed:
            return False
    sentinel = r
    for _ in range(_period_cap(base)):
        r *= base
        d, r = divmod(r, den)
        if d not in allowed:
            return False
        if r == sentinel:
            return True
    raise PreconditionError(f"the period of the expansion is longer than MAX_DIGITS = {MAX_DIGITS} digits{_PER_WORD}")


def scan_powers(num, den, t, base, allowed, preperiod_len, count):
    """[scan_allowed(num, den * t**i, ...) for i in range(count)], in one pass.

    num/den must be in lowest terms with 0 < num < den and preperiod length
    preperiod_len, and gcd(num, t) = 1, so that every num / (den * t**i) is
    in lowest terms.  t may share primes with base: with T the part of t made
    of base's primes and c = base**v / (the part of the point's denominator
    made of them), the next point's preperiod length v grows by the least
    j >= 0 with T | c * base**j, and c becomes c * base**j / T; when T = 1, v
    stays.  The remainder after a point's z leading zeros, r = num * base**z,
    is below den * t**i; skip_zeros carries it on to the next point's, about
    log_base(t) digits further, so no point skips its zeros from num.  From
    r, scan_allowed walks the max(v - z, 0) preperiod digits left (the exact
    preperiod length of r / (den * t**i)) and one period, with early exit.
    When 0 is not allowed, a point with a leading zero is no member, and
    neither is any later, smaller point: they are listed False without being
    carried.
    """
    members = []
    T = split_coprime_part(t, base)[1]
    c = base**preperiod_len // math.gcd(den, base**preperiod_len) if T > 1 else 1
    z, r = skip_zeros(num, den, base)
    for i in range(count):
        if z and 0 not in allowed:
            return members + [False] * (count - i)
        members.append(scan_allowed(r, den, base, allowed, max(preperiod_len - z, 0)))
        den *= t
        if T > 1:
            while c % T:
                c *= base
                preperiod_len += 1
            c //= T
        step, r = skip_zeros(r, den, base)
        z += step
    return members


def digit_mask(num, den, base, preperiod_len, steps=None):
    """The set of the digits occurring in the expansion (named when it was a bitmask).

    Stops early once all `base` digits have been seen; otherwise walks the
    preperiod plus one full period.  The leading zeros are skipped in one
    skip_zeros call, which adds 0 if there is at least one, and the walk goes
    on from the remainder after them as in scan_allowed, stopping with
    PreconditionError after MAX_DIGITS period digits as scan_allowed does.
    steps, a budget from period_steps(base) that other walks may share,
    replaces this walk's own: each period digit takes one item from it, and
    the walk stops with PreconditionError once it runs out."""
    shared = steps is not None
    steps = steps if shared else period_steps(base)
    seen = set()
    r = num
    if num:
        z, r = skip_zeros(num, den, base)
        if z:
            seen.add(0)
        preperiod_len = max(preperiod_len - z, 0)
    for _ in range(preperiod_len):
        r *= base
        d, r = divmod(r, den)
        seen.add(d)
        if len(seen) == base:
            return seen
    sentinel = r
    for _ in steps:
        r *= base
        d, r = divmod(r, den)
        seen.add(d)
        if len(seen) == base or r == sentinel:
            return seen
    if shared:
        raise PreconditionError(f"the period walks sharing one budget take more than MAX_DIGITS = {MAX_DIGITS} digits in all{_PER_WORD}")
    raise PreconditionError(f"the period of the expansion is longer than MAX_DIGITS = {MAX_DIGITS} digits{_PER_WORD}")
