"""Independent checks of every job's output; no code shared with qadic.

Each check takes the job's params and its output text and returns None when
the output is right, or a one-line reason when it is wrong.  The runner calls
them after the timed loop.  Orders are checked against sympy; digits and
membership by plain long division (dp by a vectorised cycle walk); certificates by recomputing the residue
with this module's own `pow` and a largest gap derived from level-2
cylinders rather than from the gap formula.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from itertools import product

import numpy
import sympy


def _q(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _coprime_part(t: int, q: int) -> int:
    g = math.gcd(t, q)
    while g > 1:
        t //= g
        g = math.gcd(t, q)
    return t


# ---------------------------------------------------------------- digits


def _leading_zeros(num: int, den: int, q: int) -> int:
    """The z with num*q**z < den <= num*q**(z+1): the zero digits in front of
    num/den, found from logarithms and settled by exact comparisons."""
    z = max(0, int((math.log2(den) - math.log2(num)) / math.log2(q)) - 1)
    while num * q ** (z + 1) < den:
        z += 1
    return z


def member(x: Fraction, q: int, allowed) -> bool:
    """x in K(q, A) for 0 <= x <= 1: long division with a seen-remainder set;
    a terminating value that fails gets one retry in trailing-(q-1) form.
    The leading zeros of a tiny x are stepped over in one power."""
    allowed = set(allowed)
    if x == 1:
        return q - 1 in allowed
    if x == 0:
        return 0 in allowed
    num, den = x.numerator, x.denominator
    z = _leading_zeros(num, den, q)
    clean = z == 0 or 0 in allowed
    r, seen = num * q**z, set()
    while clean and r and r not in seen:
        seen.add(r)
        d, r = divmod(r * q, den)
        clean = d in allowed
    # a terminating expansion continues with zeros forever
    if clean and (r != 0 or 0 in allowed):
        return True
    if _coprime_part(den, q) > 1:
        return False
    digits, r = [], num
    while r:
        d, r = divmod(r * q, den)
        digits.append(d)
    return set(digits[:-1]) | {digits[-1] - 1, q - 1} <= allowed


def expansion(x: Fraction, q: int) -> tuple[list[int], list[int]]:
    """(preperiod, period) of the greedy expansion of x in [0, 1)."""
    num, den = x.numerator, x.denominator
    pos, digits, r = {}, [], num
    while r not in pos:
        pos[r] = len(digits)
        d, r = divmod(r * q, den)
        digits.append(d)
    return digits[: pos[r]], digits[pos[r] :]


def digit_set(x: Fraction, q: int) -> set[int]:
    """Digits of the greedy expansion of 0 < x < 1, stopping once all q appear."""
    z = _leading_zeros(x.numerator, x.denominator, q)
    found, seen_r, r = {0} if z else set(), set(), x.numerator * q**z
    while r not in seen_r and len(found) < q:
        seen_r.add(r)
        d, r = divmod(r * q, x.denominator)
        found.add(d)
    return found


def largest_gaps(q: int, A) -> list[tuple[Fraction, Fraction]]:
    """Every longest open interval of (0, 1) missing K(q, A), left to right.

    K lies in the union of the level-2 cylinders [w + lo, w + hi] with w a
    two-digit word over A; the largest gaps of K are already gaps between
    consecutive cylinders (deeper gaps are copies scaled by 1/q**2).  More
    than one can be longest: K(5, {0,1,3}) has (7/20, 3/5) and (3/4, 1)."""
    A = sorted(A)
    lo, hi = Fraction(A[0], q - 1), Fraction(A[-1], q - 1)
    cells = sorted(Fraction(a * q + b, q * q) for a, b in product(A, A))
    edges = [(Fraction(0), Fraction(0))] + [(w + lo / q**2, w + hi / q**2) for w in cells] + [(Fraction(1), Fraction(1))]
    gaps = [(right, left) for (_, right), (left, _) in zip(edges, edges[1:]) if left > right]
    longest = max(b - a for a, b in gaps)
    return [g for g in gaps if g[1] - g[0] == longest]


def _gap_ok(gap: dict, q: int, A) -> str | None:
    """A reported gap must be one of the longest gaps of K(q, A).  Which one
    is reported on a tie is not checked (see README, known defects)."""
    got = (_q(gap["left"]), _q(gap["right"]))
    expected = largest_gaps(q, A)
    return None if got in expected else f"gap {gap} is not a largest gap {expected}"


def shift_residue(value: Fraction, q: int, n: int) -> Fraction:
    """frac(q**n * value), by one modular power."""
    s, t = value.numerator, value.denominator
    return Fraction(s * pow(q, n, t) % t, t)


# ---------------------------------------------------------------- scan


def _tail_ok(tail, alpha, q, A, primes, members_max) -> str | None:
    if tail["alpha"] != _fmt(alpha) or tail["base"] != q or tail["digits"] != sorted(A) or tail["primes"] != primes:
        return "parameters do not echo the input"
    if err := _gap_ok(tail["gap"], q, A):
        return err
    if members_max is not None and tail["k_alpha"] <= members_max:
        return f"member index {members_max} at or past k_alpha {tail['k_alpha']}"
    return None


def check_geometric(p: dict, out: str) -> str | None:
    alpha, ratio, q, A, k_max = _q(p["alpha"]), _q(p["ratio"]), p["q"], p["A"], p["k_max"]
    values = [alpha * ratio**k for k in range(k_max + 1)]
    flags = [v <= 1 and member(v, q, A) for v in values]
    if p["format"] == "csv":
        return _check_rows(out, [str(k) for k in range(k_max + 1)], values, flags, q)
    doc = json.loads(out)
    members = [k for k, f in enumerate(flags) if f]
    if doc["members"] != members:
        return f"members {doc['members']} != {members}"
    if doc["exhausted_bound"] != k_max:
        return "exhausted_bound != k_max"
    t = ratio.denominator
    if doc["finiteness_guaranteed"] != (_coprime_part(t, q) > 1):
        return "finiteness_guaranteed flag wrong"
    has_tail = ratio.numerator == 1 and math.gcd(t, q) == 1
    if (doc["certified_tail"] is not None) != has_tail:
        return "certified_tail presence wrong"
    if has_tail:
        return _tail_ok(doc["certified_tail"], alpha, q, A, [t], max(members, default=None))
    return None


def check_lattice(p: dict, out: str) -> str | None:
    alpha, q, A, primes, box = _q(p["alpha"]), p["q"], p["A"], p["primes"], p["box"]
    tuples = list(product(range(box + 1), repeat=len(primes)))
    values = [alpha / math.prod(pr**k for pr, k in zip(primes, kt)) for kt in tuples]
    flags = [v <= 1 and member(v, q, A) for v in values]
    if p["format"] == "csv":
        return _check_rows(out, [" ".join(map(str, kt)) for kt in tuples], values, flags, q)
    doc = json.loads(out)
    members = [list(kt) for kt, f in zip(tuples, flags) if f]
    if doc["members"] != members:
        return f"members {doc['members']} != {members}"
    if doc["finiteness_guaranteed"] != all(_coprime_part(pr, q) > 1 for pr in primes):
        return "finiteness_guaranteed flag wrong"
    has_tail = math.gcd(math.prod(primes), q) == 1
    if (doc["certified_tail"] is not None) != has_tail:
        return "certified_tail presence wrong"
    if has_tail:
        # the tail covers tuples whose every index is at least k_alpha
        top = max((min(m) for m in members), default=None)
        return _tail_ok(doc["certified_tail"], alpha, q, A, primes, top)
    return None


def _check_rows(out: str, indices, values, flags, q) -> str | None:
    rows = list(csv.reader(io.StringIO(out)))
    if rows[0] != ["index", "value", "member", "digit_set"]:
        return f"csv header {rows[0]}"
    if len(rows) - 1 != len(values):
        return f"{len(rows) - 1} csv rows for {len(values)} values"
    for row, idx, v, f in zip(rows[1:], indices, values, flags):
        cell = "" if v >= 1 else " ".join(map(str, sorted(digit_set(v, q))))
        if row != [idx, _fmt(v), "true" if f else "false", cell]:
            return f"csv row {row} != {[idx, _fmt(v), f, cell]}"
    return None


# ---------------------------------------------------------------- orders


def dp_members(N: int, q: int, A) -> list[Fraction]:
    """Every r/N in K(q, A), gcd(N, q) = 1.  Multiplication by q permutes the
    residues mod N, so r/N is a member iff the digit floor(q*x/N) is allowed
    at every x on the cycle of r.  good[r] is and-ed along 1, 2, 4, ... steps
    of the cycle until the span covers the longest possible cycle."""
    r = numpy.arange(N, dtype=numpy.int64)
    allowed = numpy.zeros(q, dtype=bool)
    allowed[list(A)] = True
    good = allowed[r * q // N]
    step = r * q % N
    span = 1
    while span < N:
        good &= good[step]
        step = step[step]
        span *= 2
    return sorted((Fraction(int(x), N) for x in numpy.flatnonzero(good)), key=lambda x: (x.denominator, x.numerator))


def check_dp(p: dict, out: str) -> str | None:
    expected = [_fmt(x) for x in dp_members(p["p"] ** p["e"], p["q"], p["A"])]
    got = json.loads(out)["members"]
    return None if got == expected else f"members {got[:6]}... != {expected[:6]}..."


def check_cosets(p: dict, out: str) -> str | None:
    m, q = p["m"], p["q"]
    doc = json.loads(out)
    order = sympy.n_order(q, m)
    phi = math.prod((r - 1) * r ** (e - 1) for r, e in sympy.factorint(m).items())
    reps = doc["representatives"]
    if (doc["modulus"], doc["generator"], doc["orbit_size"]) != (m, q, order):
        return f"header {doc['modulus'], doc['generator'], doc['orbit_size']} != {(m, q, order)}"
    if len(reps) * order != phi or reps != sorted(set(reps)):
        return f"{len(reps)} sorted distinct representatives needed, phi = {phi}"
    for a in reps:
        if math.gcd(a, m) != 1:
            return f"representative {a} is not a unit"
        x = a * q % m
        while x != a:
            if x < a:
                return f"representative {a} is not the least of its orbit"
            x = x * q % m
    return None


def check_order(p: dict, out: str) -> str | None:
    """n is the order of a mod m iff n | phi(m), a**n = 1, and a**(n/r) != 1
    for each prime r | n.  phi(m) is factored through m's prime factors,
    given by the generator for 64-bit semiprimes, so sympy only factors
    numbers of 32 bits or fewer."""
    a, m = p["a"], p["m"]
    n = json.loads(out)["order"]
    factors = dict.fromkeys(p["factors"], 1) if "factors" in p else sympy.factorint(m)
    phi = math.prod((r - 1) * r ** (e - 1) for r, e in factors.items())
    phi_primes = {r for r, e in factors.items() if e > 1}
    for r in factors:
        phi_primes.update(sympy.factorint(r - 1))
    if n < 1 or phi % n or pow(a, n, m) != 1:
        return f"order {n}: not a divisor of phi(m) = {phi} with a**n = 1"
    smaller = [r for r in phi_primes if n % r == 0 and pow(a, n // r, m) == 1]
    return f"order {n} is not minimal: a**(n/{smaller[0]}) = 1" if smaller else None


def check_stabilize(p: dict, out: str) -> str | None:
    pr, q = p["p"], p["q"]
    order = sympy.n_order(q, pr * pr)
    z = q**order - 1
    k0 = 0
    while z % pr == 0:
        z //= pr
        k0 += 1
    expected = {"p": pr, "q": q, "k0": k0, "order": order, "b": z}
    got = json.loads(out)
    return None if got == expected else f"stabilization {got} != {expected}"


# ---------------------------------------------------------------- certify


def _min_h(gap) -> int:
    h = 1
    while (1 << h) * (gap[1] - gap[0]) <= 1:
        h += 1
    return h


def check_bound(p: dict, out: str) -> str | None:
    alpha, q, A, primes = _q(p["alpha"]), p["q"], p["A"], p["primes"]
    doc = json.loads(out)
    err = _tail_ok(doc, alpha, q, A, primes, None)
    if err:
        return err
    h = _min_h(largest_gaps(q, A)[0])
    if doc["h"] != h:
        return f"h {doc['h']} != {h}"
    P = math.prod(primes)
    k_alpha = doc["k_alpha"]
    hits = [k for k in range(k_alpha + 3) if alpha / P**k <= 1 and member(alpha / P**k, q, A)]
    if hits and hits[-1] >= k_alpha:
        return f"alpha/P**{hits[-1]} is a member past k_alpha = {k_alpha}"
    if doc["empirical_k"] != (hits[-1] + 1 if hits else 0):
        return f"empirical_k {doc['empirical_k']} != {hits[-1] + 1 if hits else 0}"
    return None


def check_certificate(p: dict, out: str) -> str | None:
    alpha, q, A, primes, ks = _q(p["alpha"]), p["q"], p["A"], p["primes"], p["k"]
    cert = json.loads(out)
    value = alpha / math.prod(pr**k for pr, k in zip(primes, ks))
    if cert["value"] != _fmt(value) or cert["base"] != q or cert["digits"] != sorted(A):
        return "certificate does not echo value, base and digits"
    if err := _gap_ok(cert["gap"], q, A):
        return err
    gap = (_q(cert["gap"]["left"]), _q(cert["gap"]["right"]))
    residue = shift_residue(value, q, int(cert["exponent"]))
    if cert["residue"] != _fmt(residue):
        return f"residue {cert['residue']} != {residue}"
    if not gap[0] < residue < gap[1]:
        return f"residue {residue} outside the gap {gap}"
    return None


def check_verify(p: dict, out: str) -> str | None:
    # the certificate is the output of this round's certify job in the same
    # slot, which check_certificate checks on its own
    return None if json.loads(out) == {"valid": True} else f"verify said {out.strip()}"


# ---------------------------------------------------------------- expand


def check_expand(p: dict, out: str) -> str | None:
    """p["value"] is what ExpansionQ.value() returned inside the job."""
    x, value = _q(p["x"]), p["value"]
    pre, per = expansion(x, p["q"])
    doc = json.loads(out)
    if doc != {"preperiod": pre, "period": per}:
        return f"digits differ (lengths {len(doc['preperiod'])}+{len(doc['period'])} vs {len(pre)}+{len(per)})"
    return None if value == x else f"value() {value} != {x}"


def check_member(p: dict, out: str) -> str | None:
    expected = member(_q(p["x"]), p["q"], p["A"])
    return None if json.loads(out) == {"member": expected} else f"member {out.strip()} != {expected}"


def check_euclid(p: dict, out: str) -> str | None:
    q, k = p["q"], p["k"]
    expected = {"x": f"{q**k}/{q ** (k + 1) - 1}", "preperiod": [], "period": [1] + [0] * k, "check": True}
    return None if json.loads(out) == expected else "euclid output differs"


CHECKS = {
    "geometric": check_geometric,
    "lattice": check_lattice,
    "dp": check_dp,
    "cosets": check_cosets,
    "order": check_order,
    "stabilize": check_stabilize,
    "bound": check_bound,
    "certify": check_certificate,
    "verify": check_verify,
    "expand": check_expand,
    "member": check_member,
    "euclid": check_euclid,
}
