"""Machine-checkable exclusion evidence for values alpha / (p_1^{k_1} ... p_l^{k_l}).

Three layers: a congruence witness (an exponent n with
q**n = 1 + b*t*prod(p_j**k_j) modulo t*prod(p_j**(k_j+h))), an exclusion bound
k_alpha past which all such values avoid a digit Cantor set, and a certificate
pinning one value to a shift exponent whose orbit point lands in the set's
largest gap.  Certificates are self-contained: a verifier only needs the value,
the base, the digit set and the exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from qadic.cantor import DigitCantorSet, Gap
from qadic.expansion import shift_digits
from qadic.rational import (
    PreconditionError,
    euler_phi,
    factorize,
    format_rational,
    modulus_list,
    parse_natural,
    parse_rational,
    require,
    require_coprime,
    require_digits,
)

__all__ = [
    "CongruenceWitness",
    "congruence_witness",
    "ExclusionBound",
    "exclusion_bound",
    "ExclusionCertificate",
    "make_certificate",
    "verify_certificate",
    "certificate_from_dict",
]


@lru_cache(maxsize=512, typed=True)
def _witness_base(q: int, t: int, primes: tuple[int, ...], h: int):
    """Shared data behind every witness for (q, t, primes, h).

    Writes q**n0 - 1 = a * t * prod(p_j**r_j) with every r_j >= h+1 and no p_j
    dividing a, entirely through modular arithmetic (q**n0 itself is never
    materialized), and returns (b, k0, r_list, n0) where b = a mod (prod p)^h.
    The callers check primes with modulus_list before the lookup: the cache
    key would equate an entry 3.0 with 3.
    """
    require("q", q, 2)
    require("t", t, 1)
    require("h", h, 1)
    P = math.prod(primes)
    require_coprime(q, t * P, "q must be coprime to t times the moduli")
    n0 = euler_phi(t * P ** (h + 1))
    support = {p: dict(factorize(p)) for p in primes}
    t_val = {r: 0 for p in primes for r in support[p]}
    for r in t_val:
        m = t
        while m % r == 0:
            m //= r
            t_val[r] += 1
    p_val = {r: sum(support[p].get(r, 0) for p in primes) for r in t_val}
    avail = {}
    for r in t_val:
        e = t_val[r] + (h + 1) * p_val[r]
        while pow(q, n0, r ** (e + 1)) == 1:
            e += 1
        avail[r] = e - t_val[r]
    r_list = [0] * len(primes)
    for j, p in enumerate(primes):
        reserved = {r: (h + 1) * sum(support[p2].get(r, 0) for p2 in primes[j + 1 :]) for r in support[p]}
        r_j = min((avail[r] - reserved[r]) // e for r, e in support[p].items())
        r_list[j] = r_j
        for r, e in support[p].items():
            avail[r] -= r_j * e
    changed = True
    while changed:
        changed = False
        for j in reversed(range(len(primes))):
            vj = support[primes[j]]
            while all(avail[r] >= e for r, e in vj.items()):
                r_list[j] += 1
                for r, e in vj.items():
                    avail[r] -= e
                changed = True
    for j, p in enumerate(primes):
        if r_list[j] < h + 1:
            raise RuntimeError(f"internal: exponent r_{j} = {r_list[j]} below h+1 for modulus {p}")
        if all(avail[r] >= e for r, e in support[p].items()):
            raise RuntimeError(f"internal: cofactor still divisible by modulus {p}")
    D = t * math.prod(p ** r for p, r in zip(primes, r_list))
    Ph = P**h
    z = pow(q, n0, D * Ph) - 1
    if z % D != 0:
        raise RuntimeError("internal: extracted exponents do not divide q**n0 - 1")
    b = z // D % Ph
    if b < 1 or any(b % p == 0 for p in primes):
        raise RuntimeError(f"internal: bad witness residue b = {b}")
    k0 = max(r_list) + 1
    return b, k0, tuple(r_list), n0


@dataclass(frozen=True)
class CongruenceWitness:
    """An exponent realizing q**n = 1 + b*t*prod(p^k) mod t*prod(p^(k+h)).

    base_exponents are the r_j of the seed congruence; the exponent scales by
    p_i for each unit added to k_i."""

    q: int
    t: int
    primes: tuple[int, ...]
    h: int
    b: int
    k0: int
    k_tuple: tuple[int, ...]
    exponent: int
    base_exponents: tuple[int, ...]
    seed_exponent: int

    def modulus(self) -> int:
        return self.t * math.prod(p ** (k + self.h) for p, k in zip(self.primes, self.k_tuple))

    def target(self) -> int:
        lifted = 1 + self.b * self.t * math.prod(p**k for p, k in zip(self.primes, self.k_tuple))
        return lifted % self.modulus()

    def check(self) -> bool:
        """Re-run the defining congruence by modular exponentiation."""
        return pow(self.q, self.exponent, self.modulus()) == self.target()

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "t": self.t,
            "primes": list(self.primes),
            "h": self.h,
            "b": self.b,
            "k0": self.k0,
            "k_tuple": list(self.k_tuple),
            "exponent": str(self.exponent),
        }


def congruence_witness(q: int, t: int, primes, h: int, k_tuple) -> CongruenceWitness:
    """Construct and verify the witness for the given exponent tuple.

    Every k_j must reach the internal threshold k0 (reported in the error if
    not); the congruence is rechecked by modular exponentiation before returning."""
    primes = modulus_list(primes)
    k_tuple = tuple(k_tuple)
    if len(k_tuple) != len(primes):
        raise PreconditionError(f"k_tuple has {len(k_tuple)} entries for {len(primes)} moduli")
    b, k0, r_list, n0 = _witness_base(q, t, primes, h)
    if any(k < k0 for k in k_tuple):
        raise PreconditionError(f"k_tuple {list(k_tuple)} below the stabilization threshold k0 = {k0}")
    exponent = n0 * math.prod(p ** (k - r) for p, k, r in zip(primes, k_tuple, r_list))
    witness = CongruenceWitness(q, t, primes, h, b, k0, k_tuple, exponent, r_list, n0)
    if not witness.check():
        raise RuntimeError("internal: constructed witness fails its congruence")
    return witness


def _reduce_value(alpha: Fraction, q: int, P: int) -> tuple[int, int, int]:
    """Minimal r making the numerator coprime to P and the denominator to q.

    Returns (r, s_hat, t_hat) with alpha * q**r / P**r = s_hat / t_hat in
    lowest terms."""
    s, t = alpha.numerator, alpha.denominator
    r = 0
    while True:
        s_red = s // math.gcd(s, P**r)
        t_red = t // math.gcd(t, q**r)
        if math.gcd(s_red, P) == 1 and math.gcd(t_red, q) == 1:
            break
        r += 1
    if r == 0:
        return 0, s, t
    reduced = alpha * Fraction(q**r, P**r)
    return r, reduced.numerator, reduced.denominator


@dataclass(frozen=True)
class ExclusionBound:
    """Everything the exclusion argument produced for alpha and its moduli.

    For all k_j >= k_alpha the value alpha / prod(p_j**k_j) lies outside the
    set; empirical_k is the threshold direct search found along the diagonal,
    which may be smaller than the guaranteed k_alpha."""

    alpha: Fraction
    cantor: DigitCantorSet
    primes: tuple[int, ...]
    h: int
    gap: Gap
    b: int
    k0: int
    b_hat: int
    p_hat: int
    m: int
    k_alpha: int
    reduction_r: int
    empirical_k: int | None

    def to_dict(self) -> dict:
        return {
            "alpha": format_rational(self.alpha),
            "base": self.cantor.base,
            "digits": list(self.cantor.digits),
            "primes": list(self.primes),
            "h": self.h,
            "gap": self.gap.to_dict(),
            "b": self.b,
            "k0": self.k0,
            "b_hat": self.b_hat,
            "p_hat": self.p_hat,
            "m": self.m,
            "k_alpha": self.k_alpha,
            "reduction_r": self.reduction_r,
            "empirical_k": self.empirical_k,
        }


def exclusion_bound(alpha, K: DigitCantorSet, primes, scan_empirical: bool = True) -> ExclusionBound:
    """Run the exclusion pipeline and return the guaranteed threshold k_alpha.

    Steps: reduce alpha until its numerator is coprime to the moduli and its
    denominator to the base; take the largest gap (x, y) of length g; choose
    minimal h with 2**h > 1/g; split the witness residue b into b_hat/p_hat;
    choose the smallest m with x < m/p_hat < y; then the minimal k_alpha with
    k_alpha >= k0 + 2h whose tail drops below y - m/p_hat."""
    primes = modulus_list(primes)
    q = K.base
    P = math.prod(primes)
    require_coprime(q, P, "q must be coprime to the moduli")
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise PreconditionError(f"alpha = {alpha}; need alpha > 0")
    r, s_hat, t_hat = _reduce_value(alpha, q, P)
    gap = K.largest_gap
    g = gap.length
    h = 1
    while (1 << h) * g.numerator <= g.denominator:
        h += 1
    b, k0, _, _ = _witness_base(q, t_hat, primes, h)
    shared = math.gcd(b, P**h)
    b_hat = b // shared
    p_hat = P**h // shared
    if p_hat * g.numerator <= g.denominator:
        raise RuntimeError(f"internal: 1/p_hat = 1/{p_hat} does not fit inside the gap")
    m = gap.left.numerator * p_hat // gap.left.denominator + 1
    if not gap.left < Fraction(m, p_hat) < gap.right:
        raise RuntimeError(f"internal: no multiple of 1/{p_hat} strictly inside the gap")
    limit = gap.right - Fraction(m, p_hat)
    k = k0 + 2 * h
    while Fraction(s_hat, t_hat * P**k) >= limit:
        k += 1
    k_alpha = k + r
    empirical_k = None
    if scan_empirical:
        last = -1
        for kk in range(k_alpha + 1):
            value = alpha / P**kk
            if value <= 1 and K.contains(value):
                last = kk
        empirical_k = last + 1
    return ExclusionBound(alpha, K, primes, h, gap, b, k0, b_hat, p_hat, m, k_alpha, r, empirical_k)


@dataclass(frozen=True)
class ExclusionCertificate:
    """A checkable proof that value is outside K(base, digits).

    The claim: base**exponent * value mod 1 lies strictly inside the largest
    gap of the set.  Shifting preserves membership, so the value cannot be a
    member; a verifier recomputes everything from these fields alone."""

    value: Fraction
    base: int
    digits: tuple[int, ...]
    exponent: int
    residue: Fraction
    gap: Gap

    def to_dict(self) -> dict:
        return {
            "value": format_rational(self.value),
            "base": self.base,
            "digits": list(self.digits),
            "exponent": str(self.exponent),
            "residue": format_rational(self.residue),
            "gap": self.gap.to_dict(),
        }


def _field(data: dict, key: str, kind: type):
    value = data.get(key)
    if type(value) is not kind:
        raise PreconditionError(f"certificate field {key!r} = {value!r}; need a JSON {kind.__name__}")
    return value


def certificate_from_dict(data: dict) -> ExclusionCertificate:
    """Rebuild a certificate from its JSON form; the schema is strict.

    base must be an int (not a bool, float or string), digits a strictly
    increasing list of ints in [0, base), value and residue "s/t" strings,
    exponent a string of decimal digits, and gap an object whose left and
    right are "s/t" strings.  Anything else raises PreconditionError."""
    if not isinstance(data, dict):
        raise PreconditionError(f"certificate must be a JSON object, not {type(data).__name__}")
    base = _field(data, "base", int)
    digits = tuple(_field(data, "digits", list))
    require_digits(digits, base)
    if any(a >= b for a, b in zip(digits, digits[1:])):
        raise PreconditionError(f"certificate digits {list(digits)} are not strictly increasing")
    return ExclusionCertificate(
        value=Fraction(parse_rational(_field(data, "value", str))),
        base=base,
        digits=digits,
        exponent=parse_natural(data.get("exponent"), "exponent"),
        residue=Fraction(parse_rational(_field(data, "residue", str))),
        gap=Gap.from_dict(_field(data, "gap", dict)),
    )


def make_certificate(alpha, K: DigitCantorSet, primes, k_tuple, bound: ExclusionBound | None = None) -> ExclusionCertificate:
    """Certificate that alpha / prod(p_j**k_j) is outside K, for k_j >= k_alpha.

    Uses the witness for the h-shifted exponents and the modular inverse that
    steers the shifted orbit point onto m/p_hat inside the gap; the exponent
    may be astronomically large, but only its residue behavior matters."""
    primes = modulus_list(primes)
    k_tuple = tuple(k_tuple)
    if len(k_tuple) != len(primes):
        raise PreconditionError(f"k_tuple has {len(k_tuple)} entries for {len(primes)} moduli")
    if bound is None:
        bound = exclusion_bound(alpha, K, primes, scan_empirical=False)
    if any(k < bound.k_alpha for k in k_tuple):
        raise PreconditionError(f"k_tuple {list(k_tuple)} below the certified bound k_alpha = {bound.k_alpha}")
    q = K.base
    P = math.prod(primes)
    r = bound.reduction_r
    h = bound.h
    _, s_hat, t_hat = _reduce_value(Fraction(alpha), q, P)
    b, k0, r_list, n0 = _witness_base(q, t_hat, primes, h)
    n = n0 * math.prod(p ** (k - r - h - rj) for p, k, rj in zip(primes, k_tuple, r_list))
    i_m = bound.m * pow(s_hat * bound.b_hat, -1, bound.p_hat) % bound.p_hat
    if i_m == 0:
        raise RuntimeError("internal: shift index collapsed to zero")
    exponent = r + i_m * n
    value = Fraction(alpha) / math.prod(p**k for p, k in zip(primes, k_tuple))
    residue = shift_digits(value, q, exponent)
    expected = Fraction(s_hat, t_hat * math.prod(p ** (k - r) for p, k in zip(primes, k_tuple))) + Fraction(
        bound.m, bound.p_hat
    )
    if residue != expected or residue not in bound.gap:
        raise RuntimeError("internal: certificate residue missed the gap; pipeline defect")
    return ExclusionCertificate(value, q, K.digits, exponent, residue, bound.gap)


def verify_certificate(cert) -> bool:
    """True iff the residue recomputed from (value, exponent) lies strictly in the
    largest gap recomputed from (base, digits).

    Malformed input (anything that raises PreconditionError) returns False;
    any other exception is a fault and propagates.  A True answer is a sound
    proof that value is not in the set."""
    try:
        if not isinstance(cert, ExclusionCertificate):
            cert = certificate_from_dict(cert)
        K = DigitCantorSet(cert.base, cert.digits)
        residue = shift_digits(cert.value, cert.base, cert.exponent)
        return residue in K.largest_gap
    except PreconditionError:
        return False
