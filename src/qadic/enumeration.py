"""Bounded searches for the finitely many scaled values that stay in a digit
Cantor set, with certified tails attached where the exclusion pipeline applies.

Covers geometric families alpha*ratio**k, lattice families
alpha / (p_1**k_1 ... p_l**k_l), the intersection of denominator-restricted
rationals with a set, digit-onset scans, and two demonstration constructions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from qadic import _par
from qadic.cantor import DigitCantorSet
from qadic.certificates import ExclusionBound, exclusion_bound
from qadic.expansion import ExpansionQ, digit_set, expand
from qadic.orders import coset_decomposition, orbit_of
from qadic.rational import (
    PreconditionError,
    factorize,
    format_rational,
    integer_root,
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


@dataclass(frozen=True)
class ExceptionalReport:
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


def _check_scale(alpha: Fraction, ratio: Fraction | None):
    if alpha <= 0:
        raise PreconditionError(f"alpha = {alpha}; need alpha > 0")
    if ratio is not None and not 0 < ratio < 1:
        raise PreconditionError(f"ratio = {ratio}; need 0 < ratio < 1")


def _geo_point(args):
    alpha, ratio, base, digits, k = args
    value = alpha * ratio**k
    K = DigitCantorSet(base, digits)
    return k, value, value <= 1 and K.contains(value)


def _lattice_point(args):
    alpha, primes, base, digits, k_tuple = args
    value = alpha / math.prod(p**k for p, k in zip(primes, k_tuple))
    K = DigitCantorSet(base, digits)
    return k_tuple, value, value <= 1 and K.contains(value)


def geometric_rows(alpha, ratio, K: DigitCantorSet, k_max: int) -> list[tuple[int, Fraction, bool]]:
    """Evaluate alpha*ratio**k for k = 0..k_max; rows of (k, value, member)."""
    alpha, ratio = Fraction(alpha), Fraction(ratio)
    _check_scale(alpha, ratio)
    if k_max < 0:
        raise PreconditionError(f"k_max = {k_max}; need k_max >= 0")
    args = [(alpha, ratio, K.base, K.digits, k) for k in range(k_max + 1)]
    return _par.pmap(_geo_point, args)


def exceptional_geometric(alpha, ratio, K: DigitCantorSet, k_max: int) -> ExceptionalReport:
    """All k <= k_max with alpha*ratio**k in K, plus a certified tail when the
    ratio is 1/t with gcd(t, base) = 1.

    When every prime of the ratio's denominator divides the base the finite-set
    hypothesis fails (the set may be infinite) and the report says so."""
    alpha, ratio = Fraction(alpha), Fraction(ratio)
    rows = geometric_rows(alpha, ratio, K, k_max)
    members = tuple(k for k, _, member in rows if member)
    t = ratio.denominator
    t_hat, _, _ = split_coprime_part(t, K.base)
    tail = None
    if ratio.numerator == 1 and math.gcd(t, K.base) == 1:
        tail = exclusion_bound(alpha, K, (t,), scan_empirical=False)
    parameters = {
        "alpha": format_rational(alpha),
        "ratio": format_rational(ratio),
        "base": K.base,
        "digits": list(K.digits),
        "k_max": k_max,
    }
    return ExceptionalReport(parameters, members, k_max, tail, t_hat > 1)


def lattice_rows(alpha, primes, K: DigitCantorSet, box: int) -> list[tuple[tuple[int, ...], Fraction, bool]]:
    """Evaluate alpha / prod(p_j**k_j) over [0, box]^l in lexicographic order."""
    alpha = Fraction(alpha)
    _check_scale(alpha, None)
    primes = tuple(primes)
    if not primes or any(not isinstance(p, int) or p < 2 for p in primes):
        raise PreconditionError(f"modulus list {primes}; entries must be integers >= 2")
    if len(set(primes)) != len(primes):
        raise PreconditionError(f"repeated entries in modulus list {primes}")
    if box < 0:
        raise PreconditionError(f"box = {box}; need box >= 0")
    args = [
        (alpha, primes, K.base, K.digits, k_tuple)
        for k_tuple in itertools.product(range(box + 1), repeat=len(primes))
    ]
    return _par.pmap(_lattice_point, args)


def exceptional_lattice(alpha, primes, K: DigitCantorSet, box: int) -> ExceptionalReport:
    """All tuples in [0, box]^l whose scaled value lies in K, with a certified
    tail covering [k_alpha, inf)^l when the moduli are coprime to the base."""
    alpha = Fraction(alpha)
    rows = lattice_rows(alpha, primes, K, box)
    primes = tuple(primes)
    members = tuple(k_tuple for k_tuple, _, member in rows if member)
    guaranteed = all(split_coprime_part(p, K.base)[0] > 1 for p in primes)
    tail = None
    if math.gcd(math.prod(primes), K.base) == 1:
        tail = exclusion_bound(alpha, K, primes, scan_empirical=False)
    parameters = {
        "alpha": format_rational(alpha),
        "primes": list(primes),
        "base": K.base,
        "digits": list(K.digits),
        "box": box,
    }
    return ExceptionalReport(parameters, members, box, tail, guaranteed)


def dp_intersection(p: int, K: DigitCantorSet, exp_max: int) -> list[Fraction]:
    """All x with denominator dividing p**exp_max that lie in K.

    Membership is constant on each multiplicative orbit of the base modulo the
    denominator, so only one numerator per orbit is tested; positive orbits
    are then expanded in full.  0 (the denominator-1 cell) is a member exactly
    when 0 is an allowed digit."""
    if p < 2:
        raise PreconditionError(f"p = {p}; need p >= 2")
    g = math.gcd(p, K.base)
    if g != 1:
        raise PreconditionError(f"gcd(p, q) = gcd({p}, {K.base}) = {g}, not 1")
    if exp_max < 0:
        raise PreconditionError(f"exp_max = {exp_max}; need exp_max >= 0")
    factors = factorize(p)
    found = []
    ranges = [range(exp_max * e + 1) for _, e in factors]
    for c_tuple in itertools.product(*ranges):
        t = math.prod(r**c for (r, _), c in zip(factors, c_tuple))
        if t == 1:
            if 0 in K.digits:
                found.append(Fraction(0))
            continue
        cosets = coset_decomposition(t, K.base)
        for rep in cosets.representatives:
            if K.contains(Fraction(rep, t)):
                found.extend(Fraction(a, t) for a in orbit_of(rep, K.base, t))
    found.sort(key=lambda x: (x.denominator, x.numerator))
    return found


def all_digits_onset(alpha, ratio, q: int, k_max: int) -> int | None:
    """Least k* with digit_set(alpha*ratio**k, q) full for every k in [k*, k_max].

    None when the last scanned index still misses a digit (no onset shown
    within the bound).  Indices whose value exceeds or reaches 1 count as not
    full."""
    if q < 3:
        raise PreconditionError(f"q = {q}; need q >= 3")
    alpha, ratio = Fraction(alpha), Fraction(ratio)
    _check_scale(alpha, ratio)
    if k_max < 0:
        raise PreconditionError(f"k_max = {k_max}; need k_max >= 0")
    every = set(range(q))
    last_bad = -1
    for k in range(k_max + 1):
        value = alpha * ratio**k
        if value >= 1 or digit_set(value, q) != every:
            last_bad = k
    if last_bad == k_max:
        return None
    return last_bad + 1


def euclid_witness(q: int, k: int) -> tuple[Fraction, ExpansionQ, bool]:
    """x_k = q**k / (q**(k+1) - 1), its expansion, and the check that the
    expansion is purely periodic with period one 1 followed by k zeros."""
    if q < 3:
        raise PreconditionError(f"q = {q}; need q >= 3")
    if k < 1:
        raise PreconditionError(f"k = {k}; need k >= 1")
    x = Fraction(q**k, q ** (k + 1) - 1)
    e = expand(x, q)
    ok = e.preperiod == () and e.period == (1,) + (0,) * k
    return x, e, ok


def _primitive_power(n: int) -> tuple[int, int]:
    """Smallest base m with n = m**e, e maximal."""
    for e in range(n.bit_length(), 1, -1):
        m = integer_root(n, e)
        if m**e == n:
            return m, e
    return n, 1


def mult_dependence(p: int, q: int) -> tuple[int, int] | None:
    """Minimal (a, b) with p**a == q**b, or None if no power coincidence exists.

    Existence is equivalent to log p / log q being rational."""
    if p < 2 or q < 2:
        raise PreconditionError(f"(p, q) = ({p}, {q}); need both >= 2")
    base_p, e_p = _primitive_power(p)
    base_q, e_q = _primitive_power(q)
    if base_p != base_q:
        return None
    g = math.gcd(e_p, e_q)
    return e_q // g, e_p // g
