"""Bounded searches for the finitely many scaled values that stay in a digit
Cantor set, with certified tails attached where the exclusion pipeline applies.

Covers geometric families alpha*ratio**k, lattice families
alpha / (p_1**k_1 ... p_l**k_l), the intersection of denominator-restricted
rationals with a set, digit-onset scans, and two demonstration constructions.
"""

from __future__ import annotations

import math
from fractions import Fraction

from qadic.cantor import DigitCantorSet, _check_scale, geometric_members, geometric_rows, lattice_members, lattice_rows
from qadic.certificates import ExclusionBound, exclusion_bound
from qadic.expansion import ExpansionQ, digit_set, expand
from qadic.rational import (
    MAX_RESIDUES,
    PreconditionError,
    Record,
    format_rational,
    require,
    require_coprime,
    require_printable,
    require_residues,
    split_coprime_part,
)

__all__ = [
    "ExceptionalReport",
    "exceptional_geometric",
    "exceptional_lattice",
    "geometric_rows",
    "lattice_rows",
    "dp_intersection",
    "all_digits_onset",
    "euclid_witness",
    "mult_dependence",
]


class ExceptionalReport(Record):
    """Outcome of a bounded scan: who was a member, how far we looked, and
    whether anything is proven beyond the horizon.

    certified_tail, when present, is an exclusion bound covering every index
    (or index tuple) at or above its k_alpha; finiteness_guaranteed records
    whether the hypotheses that force a finite member set held at all."""

    parameters: dict
    members: tuple
    exhausted_bound: int
    certified_tail: ExclusionBound | None
    finiteness_guaranteed: bool

    def to_dict(self) -> dict:
        return {
            "parameters": self.parameters,
            "members": [list(m) if isinstance(m, tuple) else m for m in self.members],
            "exhausted_bound": self.exhausted_bound,
            "certified_tail": None if self.certified_tail is None else self.certified_tail.to_dict(),
            "finiteness_guaranteed": self.finiteness_guaranteed,
        }


def _certified_tail(alpha, K: DigitCantorSet, primes) -> ExclusionBound | None:
    """The exclusion bound of alpha / prod(p_j**k_j), or None when it cannot
    be computed within the caps (say, alpha's denominator is too hard to
    factor under MAX_RHO_STEPS): the scan's members stand without it."""
    try:
        return exclusion_bound(alpha, K, primes, scan_empirical=False)
    except PreconditionError:
        return None


def exceptional_geometric(alpha, ratio, K: DigitCantorSet, k_max: int) -> ExceptionalReport:
    """All k <= k_max with alpha*ratio**k in K, plus a certified tail when the
    ratio is 1/t with gcd(t, base) = 1.

    When every prime of the ratio's denominator divides the base the finite-set
    hypothesis fails (the set may be infinite) and the report says so.  A tail
    whose exclusion bound raises PreconditionError (a cap, such as factoring
    alpha's denominator under MAX_RHO_STEPS) is reported as None, with the
    members the scan found; `bound` still exits 2 on it."""
    members = tuple(geometric_members(alpha, ratio, K, k_max))
    t = ratio.denominator
    t_hat, _, _ = split_coprime_part(t, K.base)
    tail = None
    if ratio.numerator == 1 and math.gcd(t, K.base) == 1:
        tail = _certified_tail(alpha, K, (t,))
    parameters = {
        "alpha": format_rational(alpha),
        "ratio": format_rational(ratio),
        "base": K.base,
        "digits": list(K.digits),
        "k_max": k_max,
    }
    return ExceptionalReport(parameters, members, k_max, tail, t_hat > 1)


def exceptional_lattice(alpha, primes, K: DigitCantorSet, box: int) -> ExceptionalReport:
    """All tuples in [0, box]^l whose scaled value lies in K, with a certified
    tail covering [k_alpha, inf)^l when the moduli are coprime to the base.

    As in exceptional_geometric, a tail whose exclusion bound raises
    PreconditionError is reported as None, with the members."""
    members = tuple(lattice_members(alpha, primes, K, box))
    primes = tuple(primes)
    guaranteed = all(split_coprime_part(p, K.base)[0] > 1 for p in primes)
    tail = None
    if math.gcd(math.prod(primes), K.base) == 1:
        tail = _certified_tail(alpha, K, primes)
    parameters = {
        "alpha": format_rational(alpha),
        "primes": list(primes),
        "base": K.base,
        "digits": list(K.digits),
        "box": box,
    }
    return ExceptionalReport(parameters, members, box, tail, guaranteed)


# Fewest numerators a level-k cylinder holds in dp_intersection (when N
# allows): with fewer, a pass spends its time on slice overhead, not bytes.
_CYLINDER_MIN = 150


def _cylinder_pass(flags: bytearray, words: list[int], N: int, Q: int) -> int:
    """Descend log_q Q more digit levels in place; returns how many flags remain.

    Cylinder W takes the flags of the images Q*a - W*N of its numerators, a
    stride-Q slice.  Images rewritten earlier in the pass already hold their
    new flags, which can only be fewer, so reading in place is sound: a
    member's image is a member and keeps its flag, and a cleared flag is
    never set again."""
    flagged = 0
    for W in words:
        part = flags[-W * N % Q :: Q]
        start = -(-W * N // Q)
        flags[start : start + len(part)] = part
        flagged += part.count(1)
    return flagged


def dp_intersection(p: int, K: DigitCantorSet, exp_max: int) -> list[Fraction]:
    """All x with denominator dividing N = p**exp_max that lie in K, sorted by
    (denominator, numerator).  Every denominator dividing N is covered, since
    a/N reduces to it.

    Since gcd(p, q) = 1, a/N (0 <= a < N) has one base-q expansion, and its
    digits are the leading digits q*b // N along the orbit b = a, q*a,
    q**2*a, ... mod N.  So with Q = q**k the members are the largest set closed
    under a -> Q*a mod N inside the level-k cylinders [W/Q, (W+1)/Q) whose k
    digits all lie in A.  A descent over those cylinders finds that set in one
    bytearray(N) of flags, one per numerator:

    - Depth: k is the largest k >= 1 with q**(k+1) * _CYLINDER_MIN <= N, so
      each cylinder holds at least _CYLINDER_MIN numerators when N allows.
    - Start: flag the numerators of the (#A)**k cylinders with digits in A.
    - Pass: a numerator a of cylinder W moves to Q*a - W*N, so the cylinder's
      new flags are a stride-Q slice of the current ones, copied in place.
      After j passes every flagged a/N has its first (j+1)*k digits in A.
    - Passes stop at the first that clears at most (#A)**k + N // 64 flags:
      from there on a pass costs more than deciding the survivors one by one.
    - Finish: from each flagged a, follow a -> Q*a mod N.  A chain that comes
      back to a is a cycle of members; one that reaches an unflagged numerator
      holds none.

    Cost: a pass makes 2*(#A)**k slice copies, about (N/_CYLINDER_MIN)**d for
    the dimension d = log #A / log q, and moves at most N*(#A/q)**k bytes; the
    finish takes one step per surviving flag.  No `contains` call is made.
    Memory: the N flags and one cylinder's slice.  N is capped at
    MAX_RESIDUES.

    Cross-check: membership is constant on the orbits of a -> q*a mod N, so
    every member's successor must be a member, else RuntimeError."""
    require("p", p, 2)
    require_coprime(p, K.base, "p must be coprime to q")
    require("exp_max", exp_max, 0)
    # p**exp_max >= 2**exp_max, so a larger exponent is over the cap anyway
    N = require_residues("p**exp_max", p ** min(exp_max, MAX_RESIDUES.bit_length()))
    q = K.base
    k = 1
    while q ** (k + 1) * _CYLINDER_MIN <= N:
        k += 1
    Q = q**k
    words = [0]
    for _ in range(k):
        words = [W * q + d for W in words for d in K.digits]
    flags = bytearray(N)
    for W in words:
        lo, hi = -(-W * N // Q), -(-(W + 1) * N // Q)
        flags[lo:hi] = b"\x01" * (hi - lo)
    flagged = flags.count(1)
    while True:
        before, flagged = flagged, _cylinder_pass(flags, words, N, Q)
        if before - flagged <= len(words) + N // 64:
            break
    step = Q % N
    a = flags.find(1)
    while a >= 0:
        b = a
        while flags[b] == 1:  # 1: flagged, undecided; 2: on this chain or rejected
            flags[b] = 2
            b = b * step % N
        if b == a:  # the chain closed: its whole cycle stays flagged
            while flags[b] == 2:
                flags[b] = 3  # 3: member
                b = b * step % N
        a = flags.find(1, a + 1)
    found = []
    a = flags.find(3)
    while a >= 0:
        if flags[a * q % N] != 3:
            raise RuntimeError(f"internal: {a}/{N} is in K(q, A) but its shift {a * q % N}/{N} is not")
        found.append(Fraction(a, N))
        a = flags.find(3, a + 1)
    found.sort(key=lambda x: (x.denominator, x.numerator))
    return found


def all_digits_onset(alpha, ratio, q: int, k_max: int) -> int | None:
    """Least k* with digit_set(alpha*ratio**k, q) full for every k in [k*, k_max].

    None when the last scanned index still misses a digit (no onset shown
    within the bound).  Indices whose value exceeds or reaches 1 count as not
    full.  The scan is capped as in geometric_rows; each point is the one
    before times ratio."""
    require("q", q, 3)
    alpha, ratio = _check_scale(alpha, ratio, k_max)
    last_bad, value = -1, alpha
    for k in range(k_max + 1):
        if value >= 1 or len(digit_set(value, q)) < q:
            last_bad = k
        value *= ratio
    if last_bad == k_max:
        return None
    return last_bad + 1


def euclid_witness(q: int, k: int) -> tuple[Fraction, ExpansionQ, bool]:
    """x_k = q**k / (q**(k+1) - 1), its expansion, and the check that the
    expansion is purely periodic with period one 1 followed by k zeros.

    A denominator with more digits than the int-to-str limit, where one
    applies, could not be printed: it raises PreconditionError, before q**k
    is built where a lower bound shows it."""
    require("q", q, 3)
    require("k", k, 1)
    # q**(k+1) - 1 >= 2**((k+1) * (bits(q)-1) - 1)
    require_printable("euclid denominator q**(k+1) - 1", log2_floor=(k + 1) * (q.bit_length() - 1) - 1)
    den = q ** (k + 1) - 1
    require_printable("euclid denominator q**(k+1) - 1", den)
    x = Fraction(q**k, den)
    e = expand(x, q)
    ok = e.preperiod == () and e.period == (1,) + (0,) * k
    return x, e, ok


def mult_dependence(p: int, q: int) -> tuple[int, int] | None:
    """Minimal (a, b) with p**a == q**b, or None if no power coincidence exists.

    Existence is equivalent to log p / log q being rational.  Euclid's
    algorithm on (log p, log q) by exact division: of x = p**ax * q**bx and
    y = p**ay * q**by, the larger is divided by the smaller as long as it
    stays larger.  A remainder means no dependence; x == y gives
    p**(ax-ay) == q**(by-bx), primitive since the two exponent vectors stay a
    basis of Z**2.  Each run of divisions takes out the largest y**j with
    y**j < x and y**j | x by dividing by y, y**2, y**4, ... and then back
    down, so a power of y costs a logarithmic number of divisions."""
    require("p", p, 2)
    require("q", q, 2)
    x, ax, bx = p, 1, 0
    y, ay, by = q, 0, 1
    while x != y:
        if x < y:
            x, ax, bx, y, ay, by = y, ay, by, x, ax, bx
        powers = []  # y**(2**i) for each i whose division went through on the way up
        w = y
        while w < x:
            d, rest = divmod(x, w)
            if rest:
                break
            x = d
            powers.append(w)
            w *= w
        if not powers:
            return None
        j = (1 << len(powers)) - 1
        for i in reversed(range(len(powers))):
            d, rest = divmod(x, powers[i])
            if powers[i] < x and not rest:
                x = d
                j += 1 << i
        ax, bx = ax - j * ay, bx - j * by
    return abs(ax - ay), abs(by - bx)
