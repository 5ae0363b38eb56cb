import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from qadic import rational
from qadic.cantor import DigitCantorSet
from qadic.enumeration import (
    all_digits_onset,
    dp_intersection,
    euclid_witness,
    exceptional_geometric,
    exceptional_lattice,
    geometric_rows,
    lattice_rows,
    mult_dependence,
)
from qadic.rational import MAX_POINTS, MAX_SCAN_BITS, PreconditionError

K3_01 = DigitCantorSet(3, (0, 1))
K3_02 = DigitCantorSet(3, (0, 2))


def test_geometric_frozen_halving():
    report = exceptional_geometric(1, Fraction(1, 2), K3_01, 200)
    assert report.members == (1, 3)
    assert report.exhausted_bound == 200
    assert report.finiteness_guaranteed
    assert report.certified_tail is not None
    assert report.certified_tail.k_alpha == 9


def _oracle_member(x, q, allowed):
    # plain long division with a seen-remainder set; bails at the first bad
    # digit, so huge-period non-members cost only a few steps
    if x == 1:
        return q - 1 in allowed
    if x == 0:
        return 0 in allowed
    num, den = x.numerator, x.denominator
    t = den
    g = math.gcd(t, q)
    while g > 1:
        t //= g
        g = math.gcd(t, q)
    r, seen, clean = num, set(), True
    while r and r not in seen:
        seen.add(r)
        d, r = divmod(r * q, den)
        if d not in allowed:
            clean = False
            break
    if clean:
        return True
    if t > 1:
        return False
    digits, r = [], num
    while r:
        d, r = divmod(r * q, den)
        digits.append(d)
    alt = set(digits[:-1]) | {digits[-1] - 1, q - 1}
    return alt <= allowed


def test_geometric_oracle_agreement():
    configs = (
        (Fraction(1), Fraction(1, 2), K3_01, 120),
        (Fraction(3, 5), Fraction(1, 2), K3_02, 80),
        (Fraction(1), Fraction(1, 7), DigitCantorSet(5, (0, 2, 4)), 60),
        (Fraction(2), Fraction(1, 3), DigitCantorSet(10, (0, 5)), 60),
    )
    for alpha, ratio, K, k_max in configs:
        report = exceptional_geometric(alpha, ratio, K, k_max)
        allowed = set(K.digits)
        oracle = [
            k
            for k in range(k_max + 1)
            if (x := alpha * ratio**k) <= 1 and _oracle_member(x, K.base, allowed)
        ]
        assert list(report.members) == oracle


def test_geometric_hypothesis_violated():
    # 3^-k terminates in base 3 with digits {0,1}: every index is a member and
    # no finiteness claim is made
    report = exceptional_geometric(1, Fraction(1, 3), K3_01, 50)
    assert report.members == tuple(range(1, 51))
    assert not report.finiteness_guaranteed
    assert report.certified_tail is None


def test_geometric_rejections():
    with pytest.raises(PreconditionError):
        DigitCantorSet(3, (0, 1, 2))
    with pytest.raises(PreconditionError):
        exceptional_geometric(0, Fraction(1, 2), K3_01, 10)
    with pytest.raises(PreconditionError):
        exceptional_geometric(1, Fraction(3, 2), K3_01, 10)
    with pytest.raises(PreconditionError):
        exceptional_geometric(1, Fraction(1), K3_01, 10)
    with pytest.raises(PreconditionError):
        geometric_rows(1, Fraction(1, 2), K3_01, -1)


def test_lattice_matches_geometric_single_modulus():
    box = 60
    lattice = exceptional_lattice(1, (2,), K3_01, box)
    geometric = exceptional_geometric(1, Fraction(1, 2), K3_01, box)
    assert lattice.members == tuple((k,) for k in geometric.members)


def test_lattice_frozen_two_moduli():
    report = exceptional_lattice(1, (2, 5), K3_01, 8)
    assert report.members == ((1, 0), (2, 1), (3, 0), (4, 1))
    assert report.finiteness_guaranteed
    assert report.certified_tail is not None
    assert report.certified_tail.k_alpha == 11


def test_lattice_brute_oracle():
    for alpha, primes, K, box in (
        (Fraction(1), (2, 5), K3_01, 8),
        (Fraction(1, 7), (2,), K3_02, 30),
        (Fraction(1), (2, 7), DigitCantorSet(5, (0, 3)), 6),
    ):
        report = exceptional_lattice(alpha, primes, K, box)
        oracle = []
        for k_tuple in itertools.product(range(box + 1), repeat=len(primes)):
            den = math.prod(p**k for p, k in zip(primes, k_tuple))
            value = alpha / den
            if value <= 1 and K.contains(value):
                oracle.append(k_tuple)
        assert list(report.members) == oracle


def test_lattice_rejections():
    with pytest.raises(PreconditionError):
        exceptional_lattice(0, (2,), K3_01, 5)
    with pytest.raises(PreconditionError):
        exceptional_lattice(1, (2, 2), K3_01, 5)
    with pytest.raises(PreconditionError):
        exceptional_lattice(1, (), K3_01, 5)
    with pytest.raises(PreconditionError):
        exceptional_lattice(1, (1,), K3_01, 5)
    with pytest.raises(PreconditionError):
        lattice_rows(1, (2,), K3_01, -3)


def test_no_member_beyond_certified_tail():
    report = exceptional_geometric(1, Fraction(1, 2), K3_01, 200)
    cutoff = report.certified_tail.k_alpha
    assert all(k < cutoff for k in report.members)
    lattice = exceptional_lattice(1, (2, 5), K3_01, 8)
    cutoff = lattice.certified_tail.k_alpha
    assert all(min(kt) < cutoff for kt in lattice.members)


def test_lattice_flags_modulus_sharing_base():
    # 3 has no prime factor outside the base: the scan still runs but cannot
    # promise finiteness, and no tail is attached
    report = exceptional_lattice(1, (3,), K3_01, 20)
    assert report.members == tuple((k,) for k in range(1, 21))
    assert not report.finiteness_guaranteed
    assert report.certified_tail is None


def test_rows_shapes():
    rows = geometric_rows(Fraction(1, 2), Fraction(1, 3), K3_01, 7)
    assert [k for k, _, _ in rows] == list(range(8))
    assert rows[2][1] == Fraction(1, 18)
    rows = lattice_rows(1, (2, 3), DigitCantorSet(5, (0, 2)), 2)
    assert [kt for kt, _, _ in rows] == sorted(itertools.product(range(3), repeat=2))
    assert all(isinstance(v, Fraction) for _, v, _ in rows)


def test_report_serialization():
    report = exceptional_lattice(1, (2, 5), K3_01, 8)
    doc = report.to_dict()
    assert doc["members"] == [[1, 0], [2, 1], [3, 0], [4, 1]]
    assert doc["parameters"]["alpha"] == "1/1"
    assert doc["finiteness_guaranteed"] is True
    json.dumps(doc)


def test_dp_frozen():
    assert dp_intersection(2, K3_02, 6) == [
        Fraction(0),
        Fraction(1, 4),
        Fraction(3, 4),
    ]
    assert dp_intersection(2, K3_01, 6) == [
        Fraction(0),
        Fraction(1, 2),
        Fraction(1, 8),
        Fraction(3, 8),
    ]
    assert Fraction(0) not in dp_intersection(2, DigitCantorSet(3, (1, 2)), 4)
    assert dp_intersection(10, K3_01, 2) is not None
    with pytest.raises(PreconditionError):
        dp_intersection(3, K3_01, 4)
    with pytest.raises(PreconditionError):
        dp_intersection(1, K3_01, 4)
    with pytest.raises(PreconditionError, match="MAX_RESIDUES"):
        dp_intersection(31607, DigitCantorSet(10, (0, 1)), 2)
    with pytest.raises(PreconditionError, match="MAX_RESIDUES"):
        dp_intersection(2, K3_01, 10**9)


def _dp_unpruned(p, K, exp_max):
    # full scan over every numerator, no orbit reasoning at all
    den = p**exp_max
    hits = set()
    for num in range(den):
        x = Fraction(num, den)
        if K.contains(x):
            hits.add(x)
    return sorted(hits, key=lambda x: (x.denominator, x.numerator))


@pytest.mark.parametrize(
    "p, K, exp_max",
    [
        (2, K3_01, 6),
        (2, K3_02, 6),
        (2, DigitCantorSet(7, (0, 3, 5)), 4),
        (10, K3_02, 3),
        (5, DigitCantorSet(4, (0, 2)), 4),
        (6, DigitCantorSet(7, (1, 2)), 3),
        # #A = q - 1
        (2, DigitCantorSet(7, (0, 1, 2, 3, 4, 5)), 10),
        (3, DigitCantorSet(10, tuple(range(9))), 7),
        (11, DigitCantorSet(10, tuple(range(1, 10))), 3),
        # 0 not allowed: 0 is no member
        (2, DigitCantorSet(5, (1, 3, 4)), 9),
        (13, DigitCantorSet(3, (1, 2)), 3),
        # exp_max = 0: only the denominator 1
        (5, K3_01, 0),
        (5, DigitCantorSet(3, (1, 2)), 0),
        # p**exp_max < q: cylinders of at most one numerator
        (3, DigitCantorSet(10, tuple(range(9))), 1),
        (2, DigitCantorSet(7, (1, 3)), 2),
        # composite p, 130 members
        (10, DigitCantorSet(7, (0, 1, 3, 4, 5, 6)), 3),
        (21, DigitCantorSet(10, (0, 2, 5, 7)), 2),
        # 34 members, each on an orbit of period ord_67(10) = 33
        (67, DigitCantorSet(10, (0, 1, 2, 4, 5, 6, 7, 8, 9)), 2),
    ],
)
def test_dp_pruned_equals_unpruned(p, K, exp_max):
    assert dp_intersection(p, K, exp_max) == _dp_unpruned(p, K, exp_max)


def _dp_orbit_walk(p, K, exp_max):
    # one `contains` per orbit of a -> q*a mod p**exp_max, its verdict spread
    # over the whole orbit: O(p**exp_max) steps, independent of the cylinders
    q, den = K.base, p**exp_max
    found = [Fraction(0)] if 0 in K.digits else []
    seen = bytearray(den)
    for a in range(1, den):
        if seen[a]:
            continue
        member = K.contains(Fraction(a, den))
        b = a
        while not seen[b]:
            seen[b] = 1
            if member:
                found.append(Fraction(b, den))
            b = b * q % den
    return sorted(found, key=lambda x: (x.denominator, x.numerator))


@pytest.mark.parametrize("q", [3, 4, 5, 7, 10])
def test_dp_matches_orbit_walk_every_digit_count(q):
    # one seeded digit set of every size 2..q-1; 101**2 and 11**4 are near
    # 10**4 and coprime to every base here, deep enough for several passes
    rng = random.Random(q)
    for size in range(2, q):
        K = DigitCantorSet(q, tuple(rng.sample(range(q), size)))
        for p, exp_max in ((101, 2), (11, 4)):
            assert dp_intersection(p, K, exp_max) == _dp_orbit_walk(p, K, exp_max), (K, p)


def test_all_digits_onset_frozen():
    onset = all_digits_onset(1, Fraction(1, 2), 3, 100)
    assert onset == 4
    every = set(range(3))
    from qadic.expansion import digit_set

    for k in range(onset, 101):
        assert digit_set(Fraction(1, 2) ** k, 3) == every
    assert digit_set(Fraction(1, 2) ** (onset - 1), 3) != every


def test_all_digits_onset_absent_and_rejected():
    assert all_digits_onset(1, Fraction(1, 3), 3, 60) is None
    with pytest.raises(PreconditionError):
        all_digits_onset(1, Fraction(1, 2), 2, 10)
    with pytest.raises(PreconditionError):
        all_digits_onset(0, Fraction(1, 2), 3, 10)


def test_all_digits_onset_capped(monkeypatch):
    # the scan of geometric_rows, capped the same way: for ratio 1/2, 3162 is
    # the first k_max rejected (10,001,406 bits); uncapped, 6000 ran past 17 s
    start = time.perf_counter()
    for k_max in (3162, 6000):
        with pytest.raises(PreconditionError, match="MAX_SCAN_BITS"):
            all_digits_onset(1, Fraction(1, 2), 10, k_max)
    assert time.perf_counter() - start < 1
    monkeypatch.setattr(rational, "MAX_SCAN_BITS", 110)
    assert all_digits_onset(1, Fraction(1, 2), 3, 10) == 4  # 2 * 10 * 11 / 2 = 110 bits
    with pytest.raises(PreconditionError, match="MAX_SCAN_BITS = 110"):
        all_digits_onset(1, Fraction(1, 2), 3, 11)


def test_euclid_witness_frozen():
    x, e, ok = euclid_witness(3, 1)
    assert (x, e.period, ok) == (Fraction(3, 8), (1, 0), True)
    x, e, ok = euclid_witness(3, 2)
    assert (x, e.period, ok) == (Fraction(9, 26), (1, 0, 0), True)
    x, e, ok = euclid_witness(10, 1)
    assert (x, e.period, ok) == (Fraction(10, 99), (1, 0), True)
    with pytest.raises(PreconditionError):
        euclid_witness(2, 1)
    with pytest.raises(PreconditionError):
        euclid_witness(3, 0)


def test_euclid_witness_sweep():
    for q in range(3, 11):
        K = DigitCantorSet(q, (0, 1))
        for k in range(1, 11):
            x, e, ok = euclid_witness(q, k)
            assert ok
            assert x == Fraction(q**k, q ** (k + 1) - 1)
            assert e.preperiod == ()
            assert e.period == (1,) + (0,) * k
            assert K.contains(x)


def test_mult_dependence_frozen():
    assert mult_dependence(8, 4) == (2, 3)
    assert 8**2 == 4**3
    assert mult_dependence(7, 7) == (1, 1)
    assert mult_dependence(2, 3) is None
    assert mult_dependence(9, 3) == (1, 2)
    assert mult_dependence(3, 9) == (2, 1)
    assert mult_dependence(16, 2) == (1, 4)
    assert mult_dependence(12, 6) is None
    with pytest.raises(PreconditionError):
        mult_dependence(1, 3)


def test_mult_dependence_minimality():
    for p in range(2, 40):
        for q in range(2, 40):
            got = mult_dependence(p, q)
            brute = None
            for a in range(1, 13):
                for b in range(1, 13):
                    if p**a == q**b:
                        brute = (a, b)
                        break
                if brute:
                    break
            if brute is not None:
                assert got == brute
            elif got is not None:
                assert p ** got[0] == q ** got[1]


def _mult_dependence_one_division_a_step(p, q):
    """The previous mult_dependence, one exact division per unit of exponent: the oracle."""
    x, ax, bx = p, 1, 0
    y, ay, by = q, 0, 1
    while x != y:
        if x < y:
            x, ax, bx, y, ay, by = y, ay, by, x, ax, bx
        if x % y:
            return None
        x, ax, bx = x // y, ax - ay, bx - by
    return abs(ax - ay), abs(by - bx)


def test_mult_dependence_matches_one_division_a_step():
    for p in range(2, 700):
        for q in range(2, 700):
            assert mult_dependence(p, q) == _mult_dependence_one_division_a_step(p, q)
    rng = random.Random(7)
    for _ in range(2000):
        base = rng.randint(2, 40)
        p = base ** rng.randint(1, 80) * rng.choice([1, 1, 2, 3, base + 1])
        q = base ** rng.randint(1, 80) * rng.choice([1, 1, 5])
        assert mult_dependence(p, q) == _mult_dependence_one_division_a_step(p, q), (p, q)


def test_mult_dependence_on_powers_is_fast():
    # one division per unit of the exponent took 2.6 s on a 2-vCPU x86-64 host
    start = time.perf_counter()
    assert mult_dependence(2**100000, 2) == (1, 100000)
    assert time.perf_counter() - start < 0.1
    assert mult_dependence(3**70001, 3**20000) == (20000, 70001)
    assert mult_dependence(7**60000 * 2, 7) is None


def test_dependence_matches_all_indices_membership():
    # p a power of the base with digits {0,1}: every scaled index stays in K,
    # matching the existence of a power coincidence; an independent p gives a
    # finite list strictly below the certified cutoff
    for p in (3, 9, 27):
        assert mult_dependence(p, 3) is not None
        report = exceptional_geometric(1, Fraction(1, p), K3_01, 50)
        assert report.members == tuple(range(1, 51))
    assert mult_dependence(2, 3) is None
    report = exceptional_geometric(1, Fraction(1, 2), K3_01, 50)
    assert report.members == (1, 3)
    assert max(report.members) < report.certified_tail.k_alpha


def test_point_cap_before_allocation():
    # k_max + 1 and (box + 1)**l points are counted before any is listed
    assert MAX_POINTS == 10**5
    assert len(geometric_rows(1, Fraction(1, 2), K3_01, 0)) == 1
    for k_max in (MAX_POINTS, 10**9):
        with pytest.raises(PreconditionError, match="MAX_POINTS"):
            geometric_rows(1, Fraction(1, 2), K3_01, k_max)
        with pytest.raises(PreconditionError, match="MAX_POINTS"):
            exceptional_geometric(1, Fraction(1, 2), K3_01, k_max)
    # 316**2 = 99856 points fit, 317**2 = 100489 do not
    for box, primes in ((316, (2, 5)), (10**5, (2, 5)), (10**100, (2, 5, 7)), (MAX_POINTS, (2,))):
        with pytest.raises(PreconditionError, match="MAX_POINTS"):
            lattice_rows(1, primes, K3_01, box)
        with pytest.raises(PreconditionError, match="MAX_POINTS"):
            exceptional_lattice(1, primes, K3_01, box)


def test_scan_bit_cap_from_closed_forms(monkeypatch):
    # bits(t) * k_max * (k_max + 1) / 2 and (box + 1)**l * box / 2 * sum(bits(p_j)),
    # checked before any point is listed
    assert MAX_SCAN_BITS == 10**7
    with pytest.raises(PreconditionError, match="MAX_SCAN_BITS"):
        geometric_rows(1, Fraction(1, 2), K3_01, 3162)  # 10,001,406 bits
    with pytest.raises(PreconditionError, match="MAX_SCAN_BITS"):
        exceptional_lattice(1, (2, 3), K3_01, 171)  # 10,117,728 bits
    monkeypatch.setattr(rational, "MAX_SCAN_BITS", 110)
    assert len(geometric_rows(1, Fraction(1, 2), K3_01, 10)) == 11  # 2 * 10 * 11 / 2 = 110 bits
    assert len(geometric_rows(1, Fraction(2, 3), K3_01, 10)) == 11
    for ratio in (Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)):
        with pytest.raises(PreconditionError, match="MAX_SCAN_BITS = 110"):
            exceptional_geometric(1, ratio, K3_01, 11)  # 132 bits
    assert len(lattice_rows(1, (2, 3), K3_01, 3)) == 16  # 16 * 3 / 2 * 4 = 96 bits
    with pytest.raises(PreconditionError, match="MAX_SCAN_BITS = 110"):
        lattice_rows(1, (2, 3), K3_01, 4)  # 25 * 4 / 2 * 4 = 200 bits
    assert len(lattice_rows(1, (2,), K3_01, 10)) == 11  # 11 * 10 / 2 * 2 = 110 bits
    with pytest.raises(PreconditionError, match="MAX_SCAN_BITS = 110"):
        lattice_rows(1, (2,), K3_01, 11)  # 12 * 11 / 2 * 2 = 132 bits
