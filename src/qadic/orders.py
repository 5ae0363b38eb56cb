"""Multiplicative orders, their stabilization along prime powers, and coset decompositions."""

from __future__ import annotations

import math
from dataclasses import dataclass

from qadic.rational import (
    PreconditionError,
    euler_phi,
    factorize,
    is_prime,
    modulus_list,
    require,
    require_coprime,
    require_residues,
    valuation,
)

__all__ = [
    "mult_order",
    "OrderStabilization",
    "order_stabilization",
    "order_of_prime_power",
    "order_lcm",
    "product_stabilization",
    "product_stabilization_minimal",
    "CosetDecomposition",
    "coset_decomposition",
    "orbit_of",
    "orbit_witness",
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


@dataclass(frozen=True)
class OrderStabilization:
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


def order_stabilization(p: int, q: int) -> OrderStabilization:
    """Stabilization data for ord(q) modulo powers of the prime p."""
    if not is_prime(p):
        raise PreconditionError(f"p = {p} is not prime")
    require("q", q, 2)
    require_coprime(q, p, "stabilization undefined")
    d2 = mult_order(q, p * p)
    z = q**d2 - 1
    k0 = valuation(z, p)
    b = z // p**k0
    if k0 < 2:
        raise RuntimeError(f"internal: stabilization exponent {k0} below 2 for p={p}, q={q}")
    return OrderStabilization(p, q, k0, d2, b)


def order_of_prime_power(p: int, q: int, k: int) -> int:
    """ord of q modulo p**k, via the stabilization formula once k reaches k0."""
    require("k", k, 1)
    stab = order_stabilization(p, q)
    if k >= stab.k0:
        return p ** (k - stab.k0) * stab.order
    return mult_order(q, p**k)


def order_lcm(a: int, m1: int, m2: int) -> int:
    """ord of a modulo m1*m2 for coprime m1, m2, as the lcm of the parts."""
    require_coprime(m1, m2, "moduli must be coprime")
    n1 = mult_order(a, m1)
    n2 = mult_order(a, m2)
    return n1 // math.gcd(n1, n2) * n2


def _distinct_primes(primes) -> tuple[int, ...]:
    # every entry is checked before any order is computed
    primes = modulus_list(primes)
    for p in primes:
        if not is_prime(p):
            raise PreconditionError(f"p = {p} is not prime")
    return primes


def _order_of_prime_vector(primes, q, ks, stabs) -> int:
    order = 1
    for p, k, stab in zip(primes, ks, stabs):
        part = p ** (k - stab.k0) * stab.order if k >= stab.k0 else mult_order(q, p**k)
        order = order // math.gcd(order, part) * part
    return order


def product_stabilization(primes, q: int) -> int:
    """The proof-grade exponent n0 past which orders along a multi-prime box scale exactly.

    For all k_i >= n0, ord(q mod prod p_i**k_i) equals
    prod p_i**(k_i - n0) * ord(q mod prod p_i**n0).  Returns the constant from
    the stabilization argument (max r-exponent plus max k0), which need not be
    minimal; the identity is verified internally on the {n0, n0+1} grid.
    """
    primes = _distinct_primes(primes)
    stabs = [order_stabilization(p, q) for p in primes]
    r_max = 0
    for j, stab in enumerate(stabs):
        for i, p in enumerate(primes):
            # cross valuations only: the p_j part of its own order grows with
            # k_j and is absorbed by the k0 threshold, not by the r matrix
            if i != j:
                r_max = max(r_max, valuation(stab.order, p))
    n0 = r_max + max(stab.k0 for stab in stabs)
    _verify_box_identity(primes, q, stabs, n0)
    return n0


def product_stabilization_minimal(primes, q: int) -> int:
    """Smallest exponent passing the same grid check as product_stabilization.

    Only the {n, n+1} grid is verified, so this is a search result, not a
    proof constant."""
    primes = _distinct_primes(primes)
    stabs = [order_stabilization(p, q) for p in primes]
    n = 1
    while True:
        try:
            _verify_box_identity(primes, q, stabs, n)
            return n
        except RuntimeError:
            n += 1


def _verify_box_identity(primes, q, stabs, n0):
    base = _order_of_prime_vector(primes, q, (n0,) * len(primes), stabs)
    for pick in range(1 << len(primes)):
        ks = tuple(n0 + (pick >> i & 1) for i in range(len(primes)))
        expected = base
        for p, k in zip(primes, ks):
            expected *= p ** (k - n0)
        if _order_of_prime_vector(primes, q, ks, stabs) != expected:
            raise RuntimeError(f"internal: box identity fails at exponents {ks} for primes {primes}, q={q}")


@dataclass(frozen=True)
class CosetDecomposition:
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


def orbit_witness(x: int, y: int, q: int, m: int) -> int | None:
    """Least n >= 1 with q**n * x = y mod m, or None if y is outside the orbit of x."""
    require("m", m, 1)
    require_coprime(q, m, "orbit undefined")
    if m == 1:
        return 1
    require_coprime(x, m, "x is not a unit")
    require_coprime(y, m, "y is not a unit")
    order = mult_order(q, m)
    cur = x % m
    target = y % m
    for n in range(1, order + 1):
        cur = cur * q % m
        if cur == target:
            return n
    return None
