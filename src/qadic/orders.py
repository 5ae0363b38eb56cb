"""Multiplicative orders, their stabilization along prime powers, and coset decompositions."""

from __future__ import annotations

import math

from qadic.rational import (
    PreconditionError,
    Record,
    euler_phi,
    factorize,
    is_prime,
    require,
    require_coprime,
    require_printable,
    require_residues,
    shown,
)

__all__ = [
    "mult_order",
    "OrderStabilization",
    "order_stabilization",
    "order_of_prime_power",
    "order_lcm",
    "CosetDecomposition",
    "coset_decomposition",
    "orbit_of",
]


def mult_order(a: int, m: int) -> int:
    """Least n >= 1 with a**n = 1 mod m; needs gcd(a, m) = 1.

    Starts from Euler phi and strips prime factors that keep the power at 1."""
    require("m", m, 1)
    require_coprime(a, m, "order undefined")
    if m == 1:
        return 1
    order = euler_phi(m)
    for p, _ in factorize(order):
        while order % p == 0 and pow(a, order // p, m) == 1:
            order //= p
    return order


class OrderStabilization(Record):
    """Exact data of the order of q along powers of the prime p.

    q**order == 1 + b * p**k0 with p not dividing b, and for k >= k0 the
    order modulo p**k is p**(k - k0) * order."""

    p: int
    q: int
    k0: int
    order: int
    b: int

    def to_dict(self) -> dict:
        return {"p": self.p, "q": self.q, "k0": self.k0, "order": self.order, "b": self.b}


def _stabilization(p: int, q: int) -> tuple[int, int]:
    """(k0, order): order = ord(q mod p**2), and p**k0 exactly divides q**order - 1.

    Modular powers only, so b = (q**order - 1) / p**k0 is never built."""
    if not is_prime(p):
        raise PreconditionError(f"p = {shown(p)} is not prime")
    require("q", q, 2)
    require_coprime(q, p, "stabilization undefined")
    d2 = mult_order(q, p * p)
    k0 = 2
    while pow(q, d2, p ** (k0 + 1)) == 1:
        k0 += 1
    return k0, d2


def order_stabilization(p: int, q: int) -> OrderStabilization:
    """Stabilization data for ord(q) modulo powers of the prime p.

    A b that could not be printed (`require_printable`) raises
    PreconditionError, before q**order is built when k0 shows it."""
    k0, d2 = _stabilization(p, q)
    # q**d2 >= 2**(d2*(bits(q)-1)) and p**k0 < 2**(k0*bits(p)), so the integer b >= 2**floor
    require_printable("stabilization b", log2_floor=d2 * (q.bit_length() - 1) - k0 * p.bit_length())
    b, rest = divmod(q**d2 - 1, p**k0)
    if rest or b % p == 0:
        raise RuntimeError(f"internal: p**{k0} is not the exact power of p in q**{d2} - 1 for p={p}, q={q}")
    require_printable("stabilization b", b)
    return OrderStabilization(p, q, k0, d2, b)


def order_of_prime_power(p: int, q: int, k: int) -> int:
    """ord of q modulo p**k, via the stabilization formula once k reaches k0."""
    require("k", k, 1)
    k0, d2 = _stabilization(p, q)
    return p ** (k - k0) * d2 if k >= k0 else mult_order(q, p**k)


def order_lcm(a: int, m1: int, m2: int) -> int:
    """ord of a modulo m1*m2 for coprime m1, m2, as the lcm of the parts."""
    require_coprime(m1, m2, "moduli must be coprime")
    n1 = mult_order(a, m1)
    n2 = mult_order(a, m2)
    return n1 // math.gcd(n1, n2) * n2


class CosetDecomposition(Record):
    """The units modulo `modulus` split into orbits of multiplication by `generator`.

    Representatives are the minimal elements of their orbits, listed in
    increasing order; every orbit has size orbit_size."""

    modulus: int
    generator: int
    orbit_size: int
    representatives: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "generator": self.generator,
            "orbit_size": self.orbit_size,
            "representatives": list(self.representatives),
        }


def coset_decomposition(m: int, q: int) -> CosetDecomposition:
    """Orbit decomposition of the units mod m under multiplication by q.

    Keeps one byte per residue mod m, so m is capped at MAX_RESIDUES: the
    multiples of each prime of m are flagged by one slice assignment, and
    each unflagged residue left, found by `bytearray.find`, starts a new
    orbit, walked and flagged one residue at a time."""
    require("m", m, 1)
    require_residues("m", m)
    require_coprime(q, m, "decomposition undefined")
    if m == 1:
        return CosetDecomposition(1, q, 1, (1,))
    order = mult_order(q, m)
    seen = bytearray(m)
    for p, _ in factorize(m):
        seen[::p] = b"\1" * len(range(0, m, p))
    reps = []
    a = seen.find(0)
    while a >= 0:
        reps.append(a)
        x = a
        steps = 0
        while not seen[x]:
            seen[x] = 1
            x = x * q % m
            steps += 1
        if steps != order:
            raise RuntimeError(f"internal: orbit of {a} mod {m} has size {steps}, expected {order}")
        a = seen.find(0, a + 1)
    if len(reps) * order != euler_phi(m):
        raise RuntimeError(f"internal: coset count mismatch for m={m}, q={q}")
    return CosetDecomposition(m, q, order, tuple(reps))


def orbit_of(a: int, q: int, m: int) -> list[int]:
    """The orbit of the unit a under multiplication by q mod m, starting at a."""
    require("m", m, 1)
    require_coprime(q, m, "orbit undefined")
    if m == 1:
        return [1]
    require_coprime(a, m, "not a unit")
    out = [a % m]
    x = a * q % m
    while x != out[0]:
        out.append(x)
        x = x * q % m
    return out

