import json
import random
from fractions import Fraction

import pytest

from qadic.cantor import DigitCantorSet, Gap
from qadic.certificates import make_certificate, verify_certificate
from qadic.expansion import shift_digits
from qadic.rational import PreconditionError

K32_02 = DigitCantorSet(3, (0, 2))
K3_01 = DigitCantorSet(3, (0, 1))
K3_12 = DigitCantorSet(3, (1, 2))
K4_03 = DigitCantorSet(4, (0, 3))
K10_05 = DigitCantorSet(10, (0, 5))


def test_construction_guards():
    with pytest.raises(PreconditionError):
        DigitCantorSet(2, (0, 1))
    with pytest.raises(PreconditionError):
        DigitCantorSet(3, (0, 1, 2))
    with pytest.raises(PreconditionError):
        DigitCantorSet(3, (0,))
    with pytest.raises(PreconditionError):
        DigitCantorSet(3, (0, 3))
    # digits are checked before they are sorted, so mixed types are a
    # precondition error rather than a TypeError from the sort
    for base, digits in ((3, ("0", 1)), (3, (0, 1.0)), (3, (True, 0)), ("3", (0, 1)), (3.0, (0, 1))):
        with pytest.raises(PreconditionError):
            DigitCantorSet(base, digits)


def test_min_max_point_frozen():
    assert K32_02.min_point == 0
    assert K3_12.min_point == Fraction(1, 2)
    assert K4_03.min_point == 0
    assert K32_02.max_point == 1
    assert K3_01.max_point == Fraction(1, 2)
    assert K10_05.max_point == Fraction(5, 9)


def test_largest_gap_frozen():
    assert K32_02.largest_gap == Gap(Fraction(1, 3), Fraction(2, 3))
    assert K3_01.largest_gap == Gap(Fraction(1, 2), Fraction(1))
    assert K4_03.largest_gap == Gap(Fraction(1, 4), Fraction(3, 4))
    assert K32_02.largest_gap.length == Fraction(1, 3)
    assert K3_01.largest_gap.length == Fraction(1, 2)


def test_largest_gap_tie_rule_boundary_gaps_first():
    # K(4,{1,2}): boundary gaps (0,1/3) and (2/3,1) tie; the left one comes first
    K = DigitCantorSet(4, (1, 2))
    gap = K.largest_gap
    assert gap.left == 0 and gap.right == K.min_point
    # K(5,{0,1,3}): the right boundary gap (3/4, 1) and the inner gap
    # (7/20, 3/5) both have length 1/4; boundary gaps are tried first
    K = DigitCantorSet(5, (0, 1, 3))
    inner = Gap(Fraction(7, 20), Fraction(3, 5))
    assert K.largest_gap == Gap(Fraction(3, 4), Fraction(1))
    assert inner.length == K.largest_gap.length
    # certificates are written and checked against that gap
    cert = make_certificate(1, K, (2,), (15,))
    assert cert.residue == Fraction(28673, 32768)
    assert cert.gap == K.largest_gap
    assert cert.residue in K.largest_gap and cert.residue not in inner
    assert verify_certificate(json.loads(json.dumps(cert.to_dict())))


def test_contains_frozen():
    assert K3_01.contains(Fraction(1, 2))
    assert not K3_01.contains(Fraction(1, 4))
    assert K32_02.contains(Fraction(0))
    assert not K3_12.contains(Fraction(0))
    assert K32_02.contains(Fraction(1))
    assert not K3_01.contains(Fraction(1))
    with pytest.raises(PreconditionError):
        K3_01.contains(Fraction(3, 2))


def test_contains_uses_alternate_form():
    # 1/3 terminates as .1 base 3 but also reads .0(2); only the latter is
    # inside K(3,{0,2})
    assert K32_02.contains(Fraction(1, 3))
    assert K3_01.contains(Fraction(1, 3))
    # 2/3 = .2 = .1(2): the terminating form works for {0,2}, neither for {0,1}
    assert K32_02.contains(Fraction(2, 3))
    assert not K3_01.contains(Fraction(2, 3))


def _shift_in_gap(K, x, n):
    # the verifier's test: q**n * x mod 1 lies strictly inside the largest gap
    return shift_digits(x, K.base, n) in K.largest_gap


def test_shift_hits_gap_frozen():
    assert _shift_in_gap(K32_02, Fraction(1, 2), 0)
    assert not _shift_in_gap(K32_02, Fraction(1, 3), 0)
    assert _shift_in_gap(K3_01, Fraction(7, 8), 0)


def _sample(count, den_max, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        den = rng.randrange(2, den_max + 1)
        out.append(Fraction(rng.randrange(0, den + 1), den))
    return out


@pytest.mark.parametrize("K", [K32_02, K3_01, K4_03, DigitCantorSet(7, (1, 3, 5))])
def test_shift_into_gap_implies_exclusion(K):
    for x in _sample(200, 2000, 31):
        for n in range(21):
            if x < 1 and _shift_in_gap(K, x, n):
                assert not K.contains(x)
                break


@pytest.mark.parametrize("K", [K32_02, K3_01, K4_03])
def test_membership_shift_invariance(K):
    for x in _sample(400, 2000, 32):
        if x < 1 and K.contains(x):
            assert K.contains((x * K.base) % 1)


@pytest.mark.parametrize("K", [K32_02, K3_01, K4_03])
def test_gap_disjoint_from_set(K):
    gap = K.largest_gap
    for x in _sample(400, 2000, 33):
        if gap.left < x < gap.right:
            assert not K.contains(x)


def _enclosure_oracle(K, x, depth):
    """Membership by digit-string DFS: a string d_1..d_L over A keeps x in its
    cylinder iff the rescaled remainders q*y - d all stay within
    [min_point, max_point].  States are numerators over a fixed denominator,
    so the frontier is a small integer set."""
    q, den = K.base, x.denominator
    lo, hi = min(K.digits), max(K.digits)
    frontier = {x.numerator}
    for _ in range(depth):
        nxt = set()
        for num in frontier:
            for d in K.digits:
                n2 = num * q - d * den
                if lo * den <= n2 * (q - 1) <= hi * den:
                    nxt.add(n2)
        if not nxt:
            return False
        frontier = nxt
    return True


@pytest.mark.parametrize("K", [K32_02, K3_01, K3_12, K4_03, DigitCantorSet(5, (0, 2, 4))])
def test_contains_agrees_with_enclosure_oracle(K):
    rng = random.Random(34)
    values = [Fraction(n, d) for d in range(2, 121) for n in range(d + 1)]
    values += [Fraction(rng.randrange(0, d + 1), d) for d in (rng.randrange(121, 501) for _ in range(300))]
    for x in set(values):
        assert K.contains(x) == _enclosure_oracle(K, x, 30), x


def _finite_digit_string(x, q):
    """Base-q digits of a terminating value, at the minimal length."""
    length = 0
    while q**length % x.denominator != 0:
        length += 1
    scaled = x.numerator * (q**length // x.denominator)
    digits = [0] * length
    for i in range(length - 1, -1, -1):
        scaled, digits[i] = divmod(scaled, q)
    return digits


@pytest.mark.parametrize("K", [K32_02, K3_01, K4_03])
def test_dual_representation_completeness(K):
    q = K.base
    values = {Fraction(num, q**5) for num in range(1, q**5)}
    for x in values:
        digits = _finite_digit_string(x, q)
        assert digits[-1] != 0
        finite_ok = all(d in K.digits for d in digits)
        trailing_ok = (
            (q - 1) in K.digits
            and digits[-1] - 1 in K.digits
            and all(d in K.digits for d in digits[:-1])
        )
        assert K.contains(x) == (finite_ok or trailing_ok), x


def test_gap_dict_round_trip():
    gap = K32_02.largest_gap
    assert Gap.from_dict(gap.to_dict()) == gap
