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
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from qadic.cantor import DigitCantorSet, Gap, _check_scale, geometric_members
from qadic.rational import (
    SMALL_PRIMES,
    PreconditionError,
    Record,
    euler_phi,
    factorize,
    format_rational,
    modulus_list,
    parse_natural,
    parse_rational,
    require,
    require_coprime,
    require_digits,
    require_field,
    require_printable,
    require_rational,
    shown,
    split_coprime_part,
    valuation,
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

    Writes q**n0 - 1 = a * t * prod(p_j**r_j) with no p_j dividing a, entirely
    through modular arithmetic (q**n0 itself is never materialized), and
    returns (b, k0, r_list, n0) where b = a mod (prod p)^h.  Every modulus
    holds h+1 copies of itself; each prime r of the moduli is lifted once to
    find the surplus of v_r(q**n0 - 1) past v_r(t * (prod p)**(h+1)), which
    the moduli then take in the order given, each as many whole copies of
    itself as are left.  Of moduli sharing a prime, the earlier gets the excess.
    The callers check primes with modulus_list before the lookup: the cache
    key would equate an entry 3.0 with 3.  Raises PreconditionError before
    anything is built when bits(t * P**(h+1)) * bits(t * P**(2h+1)),
    estimated from bits(t) and log2(P) rounded up to a multiple of 1/64,
    passes MAX_POWER_COST: about the cost of the power q**n0, n0 =
    phi(t * P**(h+1)), modulo t * P**(2h+1) or more.
    """
    require("q", q, 2)
    require("t", t, 1)
    require("h", h, 1)
    P = math.prod(primes)
    # p_bits = bits(c**64) for c = ceil(P / 2**shift), as kernels._log_bits: p_bits / 64 > log2(P)
    shift = max(P.bit_length() - 64, 0)
    p_bits = 64 * shift + ((-(-P >> shift)) ** 64).bit_length()
    e_bits = t.bit_length() + (h + 1) * p_bits // 64
    m_bits = e_bits + h * p_bits // 64
    if e_bits * m_bits > MAX_POWER_COST:
        raise PreconditionError(f"bits(exponent) * bits(modulus) of the witness base = {shown(e_bits)} * "
                                f"{shown(m_bits)} exceeds MAX_POWER_COST = {MAX_POWER_COST}")
    require_coprime(q, t * P, "q must be coprime to t times the moduli")
    n0 = euler_phi(t * P ** (h + 1))
    support = {p: dict(factorize(p)) for p in primes}
    surplus = {}
    for r in {r for p in primes for r in support[p]}:
        e = base = valuation(t, r) + (h + 1) * valuation(P, r)
        while pow(q, n0, r ** (e + 1)) == 1:
            e += 1
        surplus[r] = e - base
    r_list = []
    for p in primes:
        take = min(surplus[r] // e for r, e in support[p].items())
        r_list.append(h + 1 + take)
        for r, e in support[p].items():
            surplus[r] -= take * e
    for p in primes:
        if all(surplus[r] >= e for r, e in support[p].items()):
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


class CongruenceWitness(Record):
    """An exponent realizing q**n = 1 + b*t*prod(p^k) mod t*prod(p^(k+h)).

    The exponent scales by p_i for each unit added to k_i."""

    q: int
    t: int
    primes: tuple[int, ...]
    h: int
    b: int
    k0: int
    k_tuple: tuple[int, ...]
    exponent: int

    def modulus(self) -> int:
        return self.t * math.prod(p ** (k + self.h) for p, k in zip(self.primes, self.k_tuple))

    def target(self) -> int:
        lifted = 1 + self.b * self.t * math.prod(p**k for p, k in zip(self.primes, self.k_tuple))
        return lifted % self.modulus()

    def check(self) -> bool:
        """Re-run the defining congruence by modular exponentiation, split by
        the primes of the moduli; a power past MAX_POWER_COST raises
        PreconditionError before it is taken (`_power_by_parts`)."""
        exponents = [k + self.h for k in self.k_tuple]
        return _power_by_parts(self.q, self.exponent, self.modulus(), self.t, self.primes, exponents) == self.target()

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
    not), and the exponent must be printable (`require_printable`); the
    congruence is rechecked by modular exponentiation before returning, and
    a recheck whose power passes MAX_POWER_COST (`CongruenceWitness.check`)
    raises PreconditionError before it is taken."""
    primes = modulus_list(primes)
    k_tuple = tuple(k_tuple)
    b, k0, r_list, n0 = _witness_base(q, t, primes, h)
    if any(k < k0 for k in k_tuple):
        raise PreconditionError(f"k_tuple {list(k_tuple)} below the stabilization threshold k0 = {k0}")
    exponent = _witness_exponent("witness exponent", primes, k_tuple, r_list, n0)
    witness = CongruenceWitness(q, t, primes, h, b, k0, k_tuple, exponent)
    if not witness.check():
        raise RuntimeError("internal: constructed witness fails its congruence")
    return witness


def _witness_exponent(what: str, primes, k_tuple, r_list, n0: int) -> int:
    """n0 * prod(p_j**(k_j - r_j)), for one k_j per modulus; PreconditionError
    naming what if it is past the int-to-str limit (`require_printable`),
    raised before it is built where a lower bound shows it."""
    if len(k_tuple) != len(primes):
        raise PreconditionError(f"k_tuple has {len(k_tuple)} entries for {len(primes)} moduli")
    # p**(k - r) >= 2**((k - r) * (bits(p) - 1)), and n0 >= 1
    log2_floor = sum((k - r) * (p.bit_length() - 1) for p, k, r in zip(primes, k_tuple, r_list))
    require_printable(what, log2_floor=log2_floor)
    exponent = n0 * math.prod(p ** (k - r) for p, k, r in zip(primes, k_tuple, r_list))
    require_printable(what, exponent)
    return exponent


def _reduce_value(alpha: Fraction, q: int, P: int) -> tuple[int, int, int]:
    """Minimal r making the numerator coprime to P and the denominator to q.

    Returns (r, s_hat, t_hat) with alpha * q**r / P**r = s_hat / t_hat in
    lowest terms.  Since gcd(s, t) = 1 and gcd(q, P) = 1, P**r can only
    cancel against s and q**r only against t, so r is the larger of the two
    minimal exponents split_coprime_part finds."""
    r = max(split_coprime_part(alpha.numerator, P)[2], split_coprime_part(alpha.denominator, q)[2])
    reduced = alpha * Fraction(q**r, P**r)
    return r, reduced.numerator, reduced.denominator


class ExclusionBound(Record):
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
    k_alpha >= k0 + 2h whose tail drops below y - m/p_hat.  The empirical
    scan of alpha / P**k for k = 0..k_alpha is geometric_members with the
    ratio 1/P, capped (MAX_POINTS, MAX_SCAN_BITS) before it starts: member
    flags only, no value built."""
    primes = modulus_list(primes)
    q = K.base
    P = math.prod(primes)
    require_coprime(q, P, "q must be coprime to the moduli")
    alpha, _ = _check_scale(alpha)
    r, s_hat, t_hat = _reduce_value(alpha, q, P)
    gap = K.largest_gap
    g = gap.length
    h = (g.denominator // g.numerator).bit_length()  # least h with 2**h > floor(1/g), so 2**h > 1/g
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
    # while s_hat / (t_hat * P**k) >= limit, compared in integers
    tail, target = t_hat * limit.numerator * P**k, s_hat * limit.denominator
    while tail <= target:
        tail *= P
        k += 1
    k_alpha = k + r
    empirical_k = None
    if scan_empirical:
        members = geometric_members(alpha, Fraction(1, P), K, k_alpha)
        empirical_k = members[-1] + 1 if members else 0
    return ExclusionBound(alpha, K, primes, h, gap, b, k0, b_hat, p_hat, m, k_alpha, r, empirical_k)


class ExclusionCertificate(Record):
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


def certificate_from_dict(data: dict) -> ExclusionCertificate:
    """Rebuild a certificate from its JSON form; the schema is strict.

    base must be an int (not a bool, float or string), digits a strictly
    increasing list of ints in [0, base), value and residue "s/t" strings,
    exponent a string of decimal digits, and gap an object whose left and
    right are "s/t" strings.  Anything else raises PreconditionError."""
    base = require_field(data, "base", int, "certificate")
    digits = tuple(require_field(data, "digits", list, "certificate"))
    require_digits(digits, base)
    if any(a >= b for a, b in zip(digits, digits[1:])):
        raise PreconditionError(f"certificate digits {list(digits)} are not strictly increasing")
    return ExclusionCertificate(
        value=parse_rational(require_field(data, "value", str, "certificate")),
        base=base,
        digits=digits,
        exponent=parse_natural(data.get("exponent"), "exponent"),
        residue=parse_rational(require_field(data, "residue", str, "certificate")),
        gap=Gap.from_dict(require_field(data, "gap", dict, "certificate")),
    )


# Below this many bits a prime-power part of a denominator does not earn its
# own modular power (certifier and verifier alike).
_CRT_MIN_BITS = 256


def _horner(coeffs, x: int, r: int, t: int, prec: int) -> int:
    """sum(c * x**i for i, c in enumerate(coeffs)) mod r**prec, for v_r(x) >= t.

    The terms from i on sum to x**i times the running value after coefficient
    i, so that value is needed only mod r**(prec - i*t).  It is kept mod
    r**(prec - min(i, top)*t), top = min(n, prec // t), which never has a
    negative exponent."""
    n = len(coeffs) - 1
    top = min(n, prec // t)
    mod, step = r ** (prec - top * t), r**t
    acc = 0
    for i in range(n, -1, -1):
        acc = (acc * x + coeffs[i]) % mod
        if i <= top:
            mod *= step
    return acc


def _pow_prime_power(q: int, e: int, r: int, v: int) -> int:
    """pow(q, e, r**v) for a prime r < 2**10 not dividing q, by r-adic log and exp.

    u = q**d is 1 mod r**t0 (d = r - 1 and t0 = 1; for r = 2, d = 2 and
    t0 = 3).  Write e mod phi(r**v) = a + d*(E0 + r**s*E1) with a < d and
    E0 < r**s.  Then q**e = q**a * u**E0 * exp(E1 * log w) for w = u**(r**s),
    and w - 1 has valuation at least t = t0 + s: Brent's argument reduction
    (J. ACM 23, 1976) carried to the r-adic numbers (Caruso, arXiv:1701.06794).
    Both series stop at the same index n, since the terms x**i/i and y**i/i!
    past it have valuation at least i*t - v_r(i!) >= i*t - (i-1)/(r-1) >= v.
    Each series is a Horner sum over the integer common denominator n!,
    taken mod r**(v + v_r(n!)), divided exactly by r**v_r(n!) and multiplied
    by the inverse of the rest of n!.  s = isqrt(v // bits(r)) balances the
    about 2*s*bits(r) steps of the two powers of u against the about 2*v/t
    series steps: for a 3000-bit part about 250 modular products, where pow
    takes about 3600."""
    m = r**v
    d, t0 = (2, 3) if r == 2 else (r - 1, 1)
    E, a = divmod(e % (m // r * (r - 1)), d)
    s = math.isqrt(v // r.bit_length())
    E1, E0 = divmod(E, r**s)
    u = pow(q, d, m)
    head = pow(q, a, m) * pow(u, E0, m) % m
    x = pow(u, r**s, m) - 1
    if x == 0 or E1 == 0:
        return head
    # x is not 0 mod r**v, so t <= v_r(x) < v
    t = t0 + s
    n = max(-(-(v * (r - 1) - 1) // (t * (r - 1) - 1)) - 1, 0)
    D = math.factorial(n)
    k = valuation(D, r)
    unit = pow(D // r**k, -1, m)
    log_w = _horner([0] + [D // i if i % 2 else -(D // i) for i in range(1, n + 1)], x, r, t, v + k)
    y = E1 * (log_w // r**k * unit) % m
    falling = list(accumulate(range(n, 0, -1), operator.mul, initial=1))[::-1]  # n!/i! at index i
    return head * (_horner(falling, y, r, t, v + k) // r**k * unit) % m


def _power_by_parts(q: int, e: int, den: int, t: int, primes, exponents) -> int:
    """pow(q, e, den), for a den whose part prime to q is t * prod(p_j**k_j),
    k_j the exponents; past MAX_POWER_COST by the verifier's rule
    (`_den_parts`) it raises PreconditionError before any power.  Each part
    r**v of den above _CRT_MIN_BITS bits, r in SMALL_PRIMES dividing a modulus
    but not q, is powered by _pow_prime_power, the rest of den by pow with e
    itself, and the residues are joined by CRT."""
    if e.bit_length() * den.bit_length() > MAX_POWER_COST:  # else no rest of den can pass it
        _den_parts(q, e, den)
    parts = []
    for r in SMALL_PRIMES:
        if q % r and any(p % r == 0 for p in primes):
            v = valuation(t, r) + sum(k * valuation(p, r) for p, k in zip(primes, exponents))
            if (r**v).bit_length() > _CRT_MIN_BITS:
                parts.append((r, v))
    modulus = den // math.prod(r**v for r, v in parts)
    x = pow(q, e, modulus)
    for r, v in parts:
        m = r**v
        x += modulus * ((_pow_prime_power(q, e, r, v) - x) * pow(modulus, -1, m) % m)
        modulus *= m
    return x


def make_certificate(alpha, K: DigitCantorSet, primes, k_tuple) -> ExclusionCertificate:
    """Certificate that alpha / prod(p_j**k_j) is outside K, for k_j >= k_alpha.

    Uses the witness for the h-shifted exponents and the modular inverse that
    steers the shifted orbit point onto m/p_hat inside the gap; the exponent
    may be astronomically large, but only its residue behavior matters.  An
    exponent past the int-to-str limit raises PreconditionError
    (`require_printable`), before it is built where a lower bound shows it.
    The power that shifts the value splits its denominator by the primes of
    the moduli (`_power_by_parts`), and raises PreconditionError before it
    is taken where the verifier would pass MAX_POWER_COST, so every
    certificate made here can be verified."""
    alpha = require_rational("alpha", alpha)
    primes = modulus_list(primes)
    k_tuple = tuple(k_tuple)
    bound = exclusion_bound(alpha, K, primes, scan_empirical=False)
    if any(k < bound.k_alpha for k in k_tuple):
        raise PreconditionError(f"k_tuple {list(k_tuple)} below the certified bound k_alpha = {bound.k_alpha}")
    q = K.base
    P = math.prod(primes)
    r = bound.reduction_r
    _, s_hat, t_hat = _reduce_value(alpha, q, P)
    _, _, r_list, n0 = _witness_base(q, t_hat, primes, bound.h)
    # exponent = r + i_m * n >= n, the witness exponent of the h-shifted tuple
    n = _witness_exponent("certificate exponent", primes, [k - r - bound.h for k in k_tuple], r_list, n0)
    i_m = bound.m * pow(s_hat * bound.b_hat, -1, bound.p_hat) % bound.p_hat
    if i_m == 0:
        raise RuntimeError("internal: shift index collapsed to zero")
    exponent = r + i_m * n
    require_printable("certificate exponent", exponent)
    value = alpha / math.prod(p**k for p, k in zip(primes, k_tuple))
    # value = s_hat / (t_hat * q**r * prod(p_j**(k_j - r))) with s_hat coprime
    # to every p_j, so each prime f of the moduli divides its denominator
    # v_f(t_hat) + sum_j (k_j - r) * v_f(p_j) times
    num, den = value.numerator, value.denominator
    residue = Fraction(num * _power_by_parts(q, exponent, den, t_hat, primes, [k - r for k in k_tuple]) % den, den)
    expected = Fraction(s_hat, t_hat * math.prod(p ** (k - r) for p, k in zip(primes, k_tuple))) + Fraction(
        bound.m, bound.p_hat
    )
    if residue != expected or residue not in bound.gap:
        raise RuntimeError("internal: certificate residue missed the gap; pipeline defect")
    return ExclusionCertificate(value, q, K.digits, exponent, residue, bound.gap)


# The cap on bits(e) * bits(rest of den) in a certificate's modular power, on
# both sides (`_den_parts`): pow takes about a second at the cap, while the
# benchmark's certificates stay below 2.3e5.
MAX_POWER_COST = 4 * 10**7


def _den_parts(q: int, e: int, den: int) -> tuple[int, list[tuple[int, int]]]:
    """(rest, [(part, phi(part))]): the verifier's split of den, from den alone.

    Each prime r below 2**10 that divides den but not q gives the exact part
    r**v of den as gcd(den, r**E), for a power r**E past den; the parts above
    _CRT_MIN_BITS bits are listed, none when den itself is no larger.  The
    rest may hold any primes: nothing is factored.  Raises PreconditionError
    when bits(e) * bits(rest) passes MAX_POWER_COST."""
    rest, parts = den, []
    if den.bit_length() > _CRT_MIN_BITS:
        for r in SMALL_PRIMES:
            if den % r == 0 and q % r:
                part = math.gcd(den, r ** (den.bit_length() // (r.bit_length() - 1) + 1))
                if part.bit_length() > _CRT_MIN_BITS:
                    parts.append((part, part // r * (r - 1)))
                    rest //= part
    if e.bit_length() * rest.bit_length() > MAX_POWER_COST:
        raise PreconditionError(f"bits(exponent) * bits(unsplit modulus) = {e.bit_length()} * "
                                f"{rest.bit_length()} exceeds MAX_POWER_COST = {MAX_POWER_COST}")
    return rest, parts


def _power_mod_den(q: int, e: int, den: int) -> int:
    """pow(q, e, den), split by CRT from den alone; the verifier's own code.

    Each part of den (`_den_parts`) is powered with e reduced mod its phi,
    the rest of den with e itself, and the results are joined by CRT; with
    no parts, this is one pow over den."""
    modulus, parts = _den_parts(q, e, den)
    x = pow(q, e, modulus)
    for part, phi in parts:
        x += modulus * ((pow(q, e % phi, part) - x) * pow(modulus, -1, part) % part)
        modulus *= part
    return x


def verify_certificate(cert) -> bool:
    """True iff the residue recomputed from (value, exponent) lies strictly in the
    largest gap recomputed from (base, digits).

    The residue is a modular power computed here (`_power_mod_den`), not by
    the certifier's (`_power_by_parts`).  Malformed input (anything that raises
    PreconditionError while the certificate is read, or a negative value)
    returns False.  A power past MAX_POWER_COST raises PreconditionError: the
    certificate may be sound, but checking it costs too much.  Any other
    exception is a fault and propagates.  A True answer is a sound proof that
    value is not in the set."""
    try:
        if not isinstance(cert, ExclusionCertificate):
            cert = certificate_from_dict(cert)
        K = DigitCantorSet(cert.base, cert.digits)
        require("exponent", cert.exponent, 0)
    except PreconditionError:
        return False
    if cert.value < 0:
        return False
    num, den = cert.value.numerator, cert.value.denominator
    return Fraction(num * _power_mod_den(cert.base, cert.exponent, den) % den, den) in K.largest_gap
