import math
import time
from fractions import Fraction

import pytest

from qadic.cantor import DigitCantorSet
from qadic.orders import (
    CosetDecomposition,
    coset_decomposition,
    mult_order,
    orbit_of,
    order_lcm,
    order_of_prime_power,
    order_stabilization,
)
from qadic.rational import PreconditionError, euler_phi, factorize


def _brute_order(a, m):
    if m == 1:
        return 1
    n, acc = 1, a % m
    while acc != 1:
        acc = acc * a % m
        n += 1
    return n


def test_mult_order_frozen():
    assert mult_order(2, 7) == 3
    assert mult_order(1, 35) == 1
    assert mult_order(2, 9) == 6
    assert mult_order(5, 1) == 1
    with pytest.raises(PreconditionError):
        mult_order(6, 9)


# a bool used to be taken for 1, and a float to raise TypeError from math.gcd
NOT_INTEGERS = {
    "mult_order(True, 9)": lambda: mult_order(True, 9),
    "order_lcm(True, 9, 5)": lambda: order_lcm(True, 9, 5),
    "orbit_of(True, 3, 7)": lambda: orbit_of(True, 3, 7),
    "orbit_of(True, 3, 1)": lambda: orbit_of(True, 3, 1),
    "mult_order(2.0, 9)": lambda: mult_order(2.0, 9),
    "order_lcm(2.0, 9, 5)": lambda: order_lcm(2.0, 9, 5),
    "order_lcm(2, 9.0, 5)": lambda: order_lcm(2, 9.0, 5),
    "orbit_of(1.0, 3, 7)": lambda: orbit_of(1.0, 3, 7),
    "order_stabilization(7.0, 10)": lambda: order_stabilization(7.0, 10),
}


@pytest.mark.parametrize("call", NOT_INTEGERS.values(), ids=NOT_INTEGERS.keys())
def test_orders_refuse_bools_and_floats(call):
    with pytest.raises(PreconditionError, match=r"is not (an integer|prime)$"):
        call()


def test_mult_order_brute_force():
    for m in range(1, 300):
        for a in range(1, 20):
            if math.gcd(a, m) == 1:
                assert mult_order(a, m) == _brute_order(a, m)


def test_order_divisibility():
    for m in range(2, 301, 7):
        for a in (2, 3, 5, 7, 10):
            if math.gcd(a, m) != 1:
                continue
            d = mult_order(a, m)
            for n in range(1, 3 * euler_phi(m) + 1):
                assert (pow(a, n, m) == 1) == (n % d == 0)


def test_order_stabilization_frozen():
    s = order_stabilization(3, 2)
    assert (s.k0, s.order, s.b) == (2, 6, 7)
    s = order_stabilization(5, 2)
    assert (s.k0, s.order, s.b) == (2, 20, 41943)
    s = order_stabilization(7, 10)
    assert s.order == 42
    with pytest.raises(PreconditionError):
        order_stabilization(4, 3)
    with pytest.raises(PreconditionError):
        order_stabilization(3, 6)


def test_order_of_prime_power_frozen():
    assert order_of_prime_power(3, 2, 4) == 54
    assert order_of_prime_power(3, 2, 1) == 2
    assert order_of_prime_power(3, 2, 3) == 18


def test_orders_need_no_printable_b():
    # b for p=101, q=3 has 4815 digits, and ord(10 mod 999983**2) is near
    # 10**12: neither is built, so the int-to-str limit does not apply
    assert order_of_prime_power(101, 3, 3) == 101 * 10100
    _assert_exact_order(3, 101**3, 101 * 10100)
    start = time.perf_counter()
    n = order_of_prime_power(999983, 10, 3)
    assert time.perf_counter() - start < 1
    _assert_exact_order(10, 999983**3, n)


def _assert_exact_order(a, m, n):
    # defining property of the multiplicative order, checked with pow alone
    assert pow(a, n, m) == 1
    for r, _ in factorize(n):
        assert pow(a, n // r, m) != 1


def test_stabilization_law_sweep():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        for q in range(2, 51):
            if q % p == 0:
                continue
            stab = order_stabilization(p, q)
            for k in range(1, 7):
                m = p**k
                n = order_of_prime_power(p, q, k)
                if m <= 60_000:
                    assert n == _brute_order(q, m)
                else:
                    _assert_exact_order(q, m, n)
                if k >= stab.k0:
                    assert n == p ** (k - stab.k0) * stab.order


def test_order_lcm_frozen():
    assert order_lcm(2, 7, 9) == 6
    assert order_lcm(2, 3, 1) == 2
    assert order_lcm(10, 3, 7) == 6
    with pytest.raises(PreconditionError):
        order_lcm(2, 9, 3)


def test_order_lcm_composition():
    for m1 in range(1, 201, 13):
        for m2 in range(1, 201, 17):
            if math.gcd(m1, m2) != 1:
                continue
            for a in (2, 3, 7, 11, 19):
                if math.gcd(a, m1 * m2) == 1:
                    assert order_lcm(a, m1, m2) == mult_order(a, m1 * m2)


def test_coset_decomposition_frozen():
    c = coset_decomposition(8, 3)
    assert c.representatives == (1, 5)
    assert c.orbit_size == 2
    assert sorted(orbit_of(1, 3, 8)) == [1, 3]
    assert sorted(orbit_of(5, 3, 8)) == [5, 7]
    assert coset_decomposition(2, 3).representatives == (1,)
    assert coset_decomposition(7, 3).representatives == (1,)
    assert coset_decomposition(1, 5).representatives == (1,)
    with pytest.raises(PreconditionError):
        coset_decomposition(9, 3)
    with pytest.raises(PreconditionError, match="MAX_RESIDUES"):
        coset_decomposition(10**9 + 7, 10)


def _coset_gcd_walk(m, q):
    # one gcd per residue to skip the non-units, and a walk from each unit
    # not yet seen: the representatives and the common orbit size
    seen = bytearray(m)
    reps, sizes = [], set()
    for a in range(1, m):
        if seen[a] or math.gcd(a, m) != 1:
            continue
        reps.append(a)
        x, steps = a, 0
        while not seen[x]:
            seen[x] = 1
            x = x * q % m
            steps += 1
        sizes.add(steps)
    (size,) = sizes
    return size, tuple(reps)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 10])
def test_coset_decomposition_matches_gcd_walk(q):
    near = (99991, 100000, 100003, 100007)
    powers = (3**10, 7**6, 11**4, 13**4, 101**2, 2**16, 5**7)
    for m in [*range(2, 2001), *near, *powers]:
        if math.gcd(m, q) != 1:
            continue
        c = coset_decomposition(m, q)
        assert (c.orbit_size, c.representatives) == _coset_gcd_walk(m, q), m


def test_coset_counting():
    for q in (2, 3, 10):
        for m in range(1, 2001, 97):
            if math.gcd(m, q) != 1:
                continue
            c = coset_decomposition(m, q)
            assert len(c.representatives) * c.orbit_size == euler_phi(m)
            assert c.orbit_size == mult_order(q, m)
            assert c.representatives == tuple(sorted(c.representatives))
            assert all(r == min(orbit_of(r, q, m)) for r in c.representatives)


def test_coset_count_stabilization():
    # the number of orbits of units mod b*p^k settles once it first repeats
    for q, b, p in ((3, 2, 5), (2, 3, 7), (10, 1, 3), (3, 10, 13), (7, 4, 19)):
        counts = []
        for k in range(1, 8):
            m = b * p**k
            if m > 2_000_000:
                break
            counts.append(len(coset_decomposition(m, q).representatives))
        star = next(i for i in range(1, len(counts)) if counts[i] == counts[i - 1])
        plateau = counts[star - 1 : star + 3]
        assert len(plateau) == 4
        assert len(set(plateau)) == 1


def test_membership_orbit_constant():
    for q, digit_sets in ((3, ((0, 1), (0, 2))), (7, ((0, 1), (2, 4, 6)))):
        Ks = [DigitCantorSet(q, A) for A in digit_sets]
        for m in range(2, 501, 19):
            if math.gcd(m, q) != 1:
                continue
            c = coset_decomposition(m, q)
            for K in Ks:
                for rep in c.representatives:
                    values = {K.contains(Fraction(a, m)) for a in orbit_of(rep, q, m)}
                    assert len(values) == 1


def test_coset_dict_shape():
    c = coset_decomposition(8, 3)
    assert c.to_dict() == {"modulus": 8, "generator": 3, "orbit_size": 2, "representatives": [1, 5]}
    assert isinstance(c, CosetDecomposition)
