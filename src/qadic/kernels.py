"""The digit loops, in pure Python; arbitrary precision, no size limits.

digit_cycle, scan_allowed and digit_mask all walk the long division of
num/den (0 <= num < den) in the given base.
"""

from __future__ import annotations


def backend() -> str:
    return "pure"


def digit_cycle(num, den, base):
    """(preperiod, period) digit lists, both minimal; terminating values get period [0]."""
    seen = {}
    digits = []
    r = num
    while r not in seen:
        seen[r] = len(digits)
        r *= base
        d, r = divmod(r, den)
        digits.append(d)
    start = seen[r]
    return digits[:start], digits[start:]


def scan_allowed(num, den, base, mask, preperiod_len):
    """True iff every digit of the expansion has its bit set in mask.

    Walks the preperiod then exactly one period, stopping at the first digit
    outside the mask.  num/den must be in lowest terms and preperiod_len must
    be at least the true preperiod length, or the walk will not terminate.
    """
    r = num
    for _ in range(preperiod_len):
        r *= base
        d, r = divmod(r, den)
        if not (mask >> d) & 1:
            return False
    sentinel = r
    while True:
        r *= base
        d, r = divmod(r, den)
        if not (mask >> d) & 1:
            return False
        if r == sentinel:
            return True


def digit_mask(num, den, base, preperiod_len):
    """Bitmask of the digits occurring in the expansion.

    Stops early once all `base` digits have been seen; otherwise walks the
    preperiod plus one full period."""
    full = (1 << base) - 1
    mask = 0
    r = num
    for _ in range(preperiod_len):
        r *= base
        d, r = divmod(r, den)
        mask |= 1 << d
        if mask == full:
            return mask
    sentinel = r
    while True:
        r *= base
        d, r = divmod(r, den)
        mask |= 1 << d
        if mask == full or r == sentinel:
            return mask


def mask_of(digits) -> int:
    mask = 0
    for d in digits:
        mask |= 1 << d
    return mask


def mask_digits(mask: int) -> tuple[int, ...]:
    out = []
    d = 0
    while mask:
        if mask & 1:
            out.append(d)
        mask >>= 1
        d += 1
    return tuple(out)
