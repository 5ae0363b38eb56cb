import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from qadic import cantor, cli, expansion, kernels
from qadic.cantor import DigitCantorSet, Gap, geometric_members, geometric_rows, lattice_members, lattice_rows
from qadic.certificates import exclusion_bound, make_certificate, verify_certificate
from qadic.enumeration import exceptional_geometric, exceptional_lattice
from qadic.expansion import alternate_expansion, expand, shift_digits
from qadic.rational import PreconditionError, split_coprime_part

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


def test_contains_builds_no_expansion(monkeypatch):
    # terminating points are decided on their integer digits: with
    # ExpansionQ broken, contains still answers for both forms
    def broken(self):
        raise RuntimeError("expansion built")

    monkeypatch.setattr(expansion.ExpansionQ, "__post_init__", broken)
    assert K32_02.contains(Fraction(1, 3)) and K32_02.contains(Fraction(2, 3))
    assert not K3_01.contains(Fraction(2, 3))
    assert K10_05.contains(Fraction(1, 2)) and K10_05.contains(Fraction(1, 20))
    assert not K10_05.contains(Fraction(1, 4))


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


def test_contains_matches_the_alternate_expansion_on_terminating_points():
    # expand and alternate_expansion stay the reference for the integer-digit
    # rule of kernels.terminating_allowed: every a / q**4 (so every a / q**v
    # with v <= 4) against every digit set of bases 3-5, and a seeded sample
    # of the pairs of bases 6 and 7
    rng = random.Random(26)
    for q in (3, 4, 5, 6, 7):
        sets = [DigitCantorSet(q, A) for size in range(2, q) for A in itertools.combinations(range(q), size)]
        points = [Fraction(a, q**4) for a in range(1, q**4)]
        forms = {x: (expand(x, q).digits_used(), alternate_expansion(x, q).digits_used()) for x in points}
        if q <= 5:
            pairs = itertools.product(points, sets)
        else:
            pairs = ((rng.choice(points), rng.choice(sets)) for _ in range(15_000))
        for x, K in pairs:
            canonical, alternate = forms[x]
            assert K.contains(x) == (canonical <= K.allowed or alternate <= K.allowed), (x, K)


def test_gap_dict_round_trip():
    gap = K32_02.largest_gap
    assert Gap.from_dict(gap.to_dict()) == gap


def _point_rows(alpha, ratio, K, k_max):
    # the per-point path: every alpha * ratio**k built and tested on its own
    return [(k, x, x <= 1 and K.contains(x)) for k in range(k_max + 1) for x in [alpha * ratio**k]]


def _planted(K, t, j, rng):
    # m = 0.WWW... in base q repeats an n-digit word W with digits in A, so m
    # is in K.  n is a multiple of the order of q mod t**j, so t**j divides
    # q**n - 1, and W is drawn until it also divides m's denominator, with
    # m's numerator prime to t: then alpha = m * t**j has a numerator prime
    # to t, and the carried scan meets m at k = j
    q, order = K.base, 1
    while pow(q, order, t**j) != 1:
        order += 1
    for n in range(order, 20 * order, order):
        for _ in range(20):
            m = Fraction(int("".join(str(rng.choice(K.digits)) for _ in range(n)), q), q**n - 1)
            if m < 1 and math.gcd(m.numerator, t) == 1 and m.denominator % t**j == 0:
                return m
    raise AssertionError(f"no planted member for K = {K}, t = {t}, j = {j}")


def _digit_sets(q, rng):
    # every size 2..q-1, each once with 0 allowed and once without
    for size in range(2, q):
        yield (0, *rng.sample(range(1, q), size - 1))
        yield tuple(rng.sample(range(1, q), size))


@pytest.fixture
def scan_powers_calls(monkeypatch):
    # each carried row must meet scan_powers' preconditions: a first point
    # num/den below 1 in lowest terms, whose den has a part prime to q (so no
    # trailing-(q-1) form applies) and the exact preperiod length it is given,
    # and num prime to t, so that every later point num / (den * t**i) is in
    # lowest terms as well; t may share primes with q
    calls = []
    scan_powers = kernels.scan_powers

    def counted(*args):
        num, den, t, base, _, preperiod_len, _ = args
        den_hat, _, v = split_coprime_part(den, base)
        assert 0 < num < den and math.gcd(num, den) == math.gcd(num, t) == 1, args
        assert den_hat > 1 and preperiod_len == v, args
        calls.append(args)
        return scan_powers(*args)

    monkeypatch.setattr(kernels, "scan_powers", counted)
    return calls


def _carried_cases(q):
    # ratio 1/t with gcd(t, q) = 1 and alpha's numerator prime to t, for
    # every digit-set size: (alpha, t, K, k_max, the planted row or None)
    rng = random.Random(q)
    ts = [t for t in range(2, 40) if math.gcd(t, q) == 1]
    for digits in _digit_sets(q, rng):
        K = DigitCantorSet(q, digits)
        t = rng.choice(ts)
        # alpha > 1 (the first points lie above 1), alpha = 1, and alpha < 1
        # with a q-part in its denominator (a preperiod)
        s = rng.choice([s for s in range(t, 8 * t * t) if math.gcd(s, t) == 1])
        d = rng.randrange(1, 20) * q ** rng.randrange(0, 3)
        for alpha in (Fraction(s, rng.randrange(1, 5)), Fraction(1), Fraction(1, d)):
            yield alpha, t, K, rng.randrange(5, 30), None
        # planted at k = j: m in K; c.m, one digit c in A before m's digits,
        # also in K, with a one-digit preperiod unless q cancels; and 0.0m, in
        # K only when 0 is in A
        j = rng.randrange(1, 3)
        m = _planted(K, t, j, rng)
        c = rng.choice(K.digits)
        for x, member in ((m, True), ((c + m) / q, True), (m / q, 0 in K.digits)):
            yield x * t**j, t, K, j + 10, (j, x, member)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 10])
def test_carried_rows_match_the_point_rows(q, scan_powers_calls):
    # the carried scan of kernels.scan_powers, against contains point by point
    for alpha, t, K, k_max, planted in _carried_cases(q):
        rows = geometric_rows(alpha, Fraction(1, t), K, k_max)
        assert rows == _point_rows(alpha, Fraction(1, t), K, k_max)
        if planted:
            assert rows[planted[0]] == planted
    assert len(scan_powers_calls) == 6 * 2 * (q - 2)


# a row that ends in base q (alpha's denominator and t both divide a power
# of q), carried by kernels.terminating_powers, and a ratio with numerator
# above 1, on the per-point path: neither calls scan_powers
_FALLBACK_CASES = (
    (Fraction(1, 4), Fraction(1, 2), DigitCantorSet(10, (0, 2, 5))),
    (Fraction(1), Fraction(2, 7), DigitCantorSet(5, (0, 1, 4))),
)


def test_carried_rows_fall_back_to_the_point_rows(scan_powers_calls):
    for alpha, ratio, K in _FALLBACK_CASES:
        rows = geometric_rows(alpha, ratio, K, 30)
        assert rows == _point_rows(alpha, ratio, K, 30)
    assert not scan_powers_calls


# t sharing a prime with q: (alpha, ratio, K, a carried member row, k0),
# carried from k0 on.  1/6 and 3/7 / 12 = 1/28 have denominators with a part
# prime to q, and 1/7 is carried from k = 0 although t = 2 divides a power of q
_SHARED_RATIO_ROWS = (
    (Fraction(1), Fraction(1, 6), DigitCantorSet(4, (0, 1, 3)), (2, Fraction(1, 36), True), 1),
    (Fraction(3, 7), Fraction(1, 12), DigitCantorSet(3, (0, 2)), (1, Fraction(1, 28), True), 1),
    (Fraction(1, 7), Fraction(1, 2), DigitCantorSet(10, (0, 1, 2, 4, 5, 7, 8)), (1, Fraction(1, 14), True), 0),
)


def test_shared_ratio_rows_are_carried(scan_powers_calls):
    for alpha, ratio, K, planted, k0 in _SHARED_RATIO_ROWS:
        scan_powers_calls.clear()
        rows = geometric_rows(alpha, ratio, K, 30)
        assert rows == _point_rows(alpha, ratio, K, 30)
        assert rows[planted[0]] == planted
        # one carried row, of the points k0..30
        assert [args[-1] for args in scan_powers_calls] == [31 - k0]
        _check_member_scans(alpha, ratio, K, 30)


# alpha's numerator sharing primes with t: (alpha, ratio, K, a planted row,
# k0), carried from k0 on.  49/4 plants 1/4 at k = 2 and 25/2 plants 1/2.
# 10/3 / 10 = 1/3 = 0.0(2) and 9/20 / 3**2 = 1/20 = 0.04(9) end in base q,
# as 2304/25 / 16**2 = 9/25 = 0.13(4) does in base 5: members only by their
# trailing-(q-1) form, so they stay on the per-point path and the carry
# starts one k later
_SHARED_CASES = (
    (Fraction(49, 4), Fraction(1, 7), DigitCantorSet(3, (0, 2)), (2, Fraction(1, 4), True), 2),
    (Fraction(10, 3), Fraction(1, 10), DigitCantorSet(3, (0, 2)), (1, Fraction(1, 3), True), 2),
    (Fraction(25, 2), Fraction(1, 5), DigitCantorSet(7, (0, 3, 6)), (2, Fraction(1, 2), True), 2),
    (Fraction(9, 20), Fraction(1, 3), DigitCantorSet(10, (0, 4, 9)), (2, Fraction(1, 20), True), 3),
    (Fraction(2304, 25), Fraction(1, 16), DigitCantorSet(5, (1, 2, 3, 4)), (2, Fraction(9, 25), True), 3),
)


def test_shared_numerator_rows_are_carried(scan_powers_calls):
    for alpha, ratio, K, planted, k0 in _SHARED_CASES:
        scan_powers_calls.clear()
        rows = geometric_rows(alpha, ratio, K, 30)
        assert rows == _point_rows(alpha, ratio, K, 30)
        assert rows[planted[0]] == planted
        # one carried row, of the points k0..30
        assert [args[-1] for args in scan_powers_calls] == [31 - k0]
        _check_member_scans(alpha, ratio, K, 30)
        point_rows = _lattice_point_rows(alpha, (ratio.denominator,), K, 30)
        _check_lattice_members(alpha, (ratio.denominator,), K, 30, point_rows)


def _shared_cases(q):
    # ratio 1/t with gcd(t, q) = 1, t composite or a prime power, and alpha's
    # numerator carrying each prime of t to a power 0-3, one at least to 1,
    # for every digit-set size: (alpha, t, K, k_max, the planted row or None)
    rng = random.Random(24 * q)
    ts = [t for t in (6, 10, 12, 15, 21, 9) if math.gcd(t, q) == 1]
    for digits in _digit_sets(q, rng):
        K = DigitCantorSet(q, digits)
        t = rng.choice(ts)
        primes = [p for p in (2, 3, 5, 7) if t % p == 0]
        powers = [rng.randrange(0, 4) for _ in primes]
        powers[rng.randrange(len(primes))] = rng.randrange(1, 4)
        shared = math.prod(p**e for p, e in zip(primes, powers))
        units = [u for u in range(1, 40) if math.gcd(u, t) == 1]
        # alpha > 1, and alpha < 1 with a q-part in its denominator, which
        # may fall below 1 before its numerator stops cancelling
        for alpha in (Fraction(rng.choice(units) * shared, rng.choice(units[:4])),
                      Fraction(shared, rng.choice(units[:10]) * q ** rng.randrange(1, 3))):
            yield alpha, t, K, rng.randrange(12, 30), None
        # planted at k = i + j, after the cancellation: m, c.m and 0.0m as
        # in _carried_cases, times t**(i + j), with j raised until alpha's
        # numerator shares a prime with t
        i, j = rng.randrange(1, 3), rng.randrange(1, 4)
        m = _planted(K, t, i, rng)
        while math.gcd((m * t ** (i + j)).numerator, t) == 1:
            j += 1
        c = rng.choice(K.digits)
        for x, member in ((m, True), ((c + m) / q, True), (m / q, 0 in K.digits)):
            yield x * t ** (i + j), t, K, i + j + 10, (i + j, x, member)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 10])
def test_shared_numerator_rows_match_the_point_rows(q, scan_powers_calls):
    # carried from where alpha's numerator stops cancelling, against contains
    # point by point; every case reaches its k0 within k_max
    cases = list(_shared_cases(q))
    for alpha, t, K, k_max, planted in cases:
        assert math.gcd(alpha.numerator, t) > 1
        rows = geometric_rows(alpha, Fraction(1, t), K, k_max)
        assert rows == _point_rows(alpha, Fraction(1, t), K, k_max)
        if planted:
            assert rows[planted[0]] == planted
    assert len(scan_powers_calls) == len(cases)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 10])
def test_shared_numerator_member_scans_match_the_point_rows(q):
    # the member scans, and lattice lines along t, whose starts carry t's
    # primes in their numerators, beside a modulus that does not divide t
    for alpha, t, K, k_max, _ in _shared_cases(q):
        _check_member_scans(alpha, Fraction(1, t), K, k_max)
        other = min(p for p in (2, 3, 5, 7) if t % p)
        for primes, box in (((t,), k_max), ((other, t), 5)):
            point_rows = _lattice_point_rows(alpha, primes, K, box)
            assert lattice_rows(alpha, primes, K, box) == point_rows
            _check_lattice_members(alpha, primes, K, box, point_rows)


def test_shared_numerator_rows_fuzz(scan_powers_calls):
    # seeded cases of the numerators the carry meets: s = a * t**j *
    # gcd(t, b)**i cancels t's primes over the first ks, d's q-part gives a
    # preperiod, and any digit set of q in {3, 4, 5, 6, 7, 10, 12}
    rng = random.Random(24)
    for _ in range(2000):
        q = rng.choice((3, 4, 5, 6, 7, 10, 12))
        t = rng.choice([t for t in range(2, 60) if math.gcd(t, q) == 1])
        s = rng.randrange(1, 50) * t ** rng.randrange(0, 4) * math.gcd(t, rng.randrange(2, 60)) ** rng.randrange(0, 4)
        d = rng.randrange(1, 30) * q ** rng.randrange(0, 3)
        K = DigitCantorSet(q, rng.sample(range(q), rng.randrange(2, q)))
        alpha, ratio, k_max = Fraction(s, d), Fraction(1, t), rng.randrange(1, 12)
        assert geometric_rows(alpha, ratio, K, k_max) == _point_rows(alpha, ratio, K, k_max), (alpha, t, K, k_max)
    assert len(scan_powers_calls) > 1000


def _shared_planted(K, ts, rng):
    # m = 0.WWW... in base q, a member with a denominator prime to q above 1,
    # drawn with a t of ts until m, c.m and 0.0m all have numerators prime to
    # t: each is then the settled, carried point wherever a line puts it (a
    # K whose digits are all even takes an odd t).  A K whose digits all
    # share a prime with every t, as K(9, {3, 6}), keeps the last draw, met
    # on the per-point part of its line.  t and the rows (x, member) of the
    # three, as in _carried_cases
    q, drawn = K.base, None
    for t in rng.sample(ts, len(ts)):
        for _ in range(50):
            n = rng.randrange(1, 7)
            m = Fraction(sum(rng.choice(K.digits) * q**i for i in range(n)), q**n - 1)
            c = rng.choice(K.digits)
            if 0 < m < 1:
                drawn = t, ((m, True), ((c + m) / q, True), (m / q, 0 in K.digits))
                if all(math.gcd(x.numerator, t) == 1 for x, _ in drawn[1]):
                    return drawn
    return drawn


def _shared_ratio_cases(q):
    # ratio 1/t with t sharing a prime with q, dividing a power of q or not,
    # for every digit-set size: (alpha, t, K, k_max, the planted row or
    # None).  alpha > 1, alpha = 1 (a row that ends in base q when t divides
    # a power of q), alpha < 1 with a q-part in its denominator, and a
    # numerator carrying t's primes
    rng = random.Random(25 * q)
    ts = [t for t in range(2, 40) if math.gcd(t, q) > 1]
    for digits in _digit_sets(q, rng):
        K = DigitCantorSet(q, digits)
        t = rng.choice(ts)
        units = [u for u in range(1, 40) if math.gcd(u, t) == 1]
        d = rng.choice(units) * q ** rng.randrange(0, 3)
        for alpha in (Fraction(rng.randrange(t, 8 * t * t), rng.randrange(1, 5)), Fraction(1),
                      Fraction(rng.choice(units), d), Fraction(t ** rng.randrange(1, 4) * rng.choice(units), d)):
            yield alpha, t, K, rng.randrange(12, 30), None
        # planted at k = j >= 0: alpha = x * t**j
        j = rng.randrange(0, 3)
        t, rows = _shared_planted(K, ts, rng)
        for x, member in rows:
            yield x * t**j, t, K, j + 10, (j, x, member)


@pytest.mark.parametrize("q", [4, 6, 9, 10, 12])
def test_shared_ratio_rows_match_the_point_rows(q, scan_powers_calls):
    # carried once the numerator has stopped cancelling, against contains
    # point by point; a row that ends in base q goes to terminating_powers
    for alpha, t, K, k_max, planted in _shared_ratio_cases(q):
        scan_powers_calls.clear()
        rows = geometric_rows(alpha, Fraction(1, t), K, k_max)
        assert rows == _point_rows(alpha, Fraction(1, t), K, k_max)
        assert len(scan_powers_calls) == (0 if _ends_in_base_q(alpha, t, q) else 1), (alpha, t, K)
        if planted:
            assert rows[planted[0]] == planted


@pytest.mark.parametrize("q", [4, 6, 9, 10, 12])
def test_shared_ratio_member_scans_match_the_point_rows(q):
    # the member scans, and lattice lines along t, alone and beside a
    # modulus that shares a prime with q (the line is along the last one)
    other = {4: 2, 6: 3, 9: 3, 10: 5, 12: 2}[q]
    for alpha, t, K, k_max, _ in _shared_ratio_cases(q):
        _check_member_scans(alpha, Fraction(1, t), K, k_max)
        for primes, box in (((t,), k_max), ((other, t) if other != t else (t,), 5)):
            point_rows = _lattice_point_rows(alpha, primes, K, box)
            assert lattice_rows(alpha, primes, K, box) == point_rows
            _check_lattice_members(alpha, primes, K, box, point_rows)


def test_shared_ratio_rows_fuzz(scan_powers_calls):
    # seeded rows of a t sharing a prime with q: s = a * t**j * gcd(t, b)**i
    # cancels t's primes over the first ks, d's q-part gives a preperiod, and
    # any digit set of q in {4, 6, 8, 9, 10, 12, 18}
    rng = random.Random(25)
    for _ in range(2000):
        q = rng.choice((4, 6, 8, 9, 10, 12, 18))
        t = rng.choice([t for t in range(2, 60) if math.gcd(t, q) > 1])
        s = rng.randrange(1, 50) * t ** rng.randrange(0, 4) * math.gcd(t, rng.randrange(2, 60)) ** rng.randrange(0, 4)
        d = rng.randrange(1, 30) * q ** rng.randrange(0, 3)
        K = DigitCantorSet(q, rng.sample(range(q), rng.randrange(2, q)))
        alpha, ratio, k_max = Fraction(s, d), Fraction(1, t), rng.randrange(1, 12)
        assert geometric_rows(alpha, ratio, K, k_max) == _point_rows(alpha, ratio, K, k_max), (alpha, t, K, k_max)
    assert len(scan_powers_calls) > 1000


def _flagged(rows):
    return tuple(index for index, _, member in rows if member)


def _check_member_scans(alpha, ratio, K, k_max):
    # JSON enumerate's members and bound's empirical_k, read from the flags
    # alone, against contains point by point; bound scans to its own k_alpha.
    # The report keeps its members when its certified tail hits a cap, but
    # bound factors alpha's denominator under MAX_RHO_STEPS, so a planted
    # alpha whose denominator passes 64 bits skips the bound check
    members = _flagged(_point_rows(alpha, ratio, K, k_max))
    assert tuple(geometric_members(alpha, ratio, K, k_max)) == members
    assert exceptional_geometric(alpha, ratio, K, k_max).members == members
    if alpha.denominator >= 2**64:
        return
    t = ratio.denominator
    if ratio.numerator == 1 and math.gcd(t, K.base) == 1:
        bound = exclusion_bound(alpha, K, (t,))
        flagged = _flagged(_point_rows(alpha, ratio, K, bound.k_alpha))
        assert bound.empirical_k == (flagged[-1] + 1 if flagged else 0)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 10])
def test_member_scans_match_the_point_rows(q):
    for alpha, t, K, k_max, _ in _carried_cases(q):
        _check_member_scans(alpha, Fraction(1, t), K, k_max)


def test_member_scans_fall_back_to_the_point_rows():
    for alpha, ratio, K in _FALLBACK_CASES:
        _check_member_scans(alpha, ratio, K, 30)


def _check_lattice_members(alpha, primes, K, box, point_rows):
    # JSON enumerate's members, read from the flags alone, against contains
    # point by point, whatever the size of alpha's denominator
    members = _flagged(point_rows)
    assert tuple(lattice_members(alpha, primes, K, box)) == members
    assert exceptional_lattice(alpha, primes, K, box).members == members


def _lattice_point_rows(alpha, primes, K, box):
    # the per-point path: every alpha / prod(p_j**k_j) built and tested on its own
    return [(kt, x, x <= 1 and K.contains(x)) for kt in itertools.product(range(box + 1), repeat=len(primes))
            for x in [alpha / math.prod(p**k for p, k in zip(primes, kt))]]


@pytest.mark.parametrize("q", [3, 4, 5, 7, 10])
def test_lattice_rows_match_the_point_rows(q, scan_powers_calls):
    # lines along the last modulus prime to q, carried by kernels.scan_powers
    # once the line's start numerator stops cancelling, against contains
    # point by point; the modulus sharing a prime with q first, in the
    # middle and last, and q's own prime alone
    rng = random.Random(q)
    shared = min(p for p in (2, 3, 5, 7) if q % p == 0)
    coprime = [p for p in (2, 3, 5, 7, 11, 13) if q % p]
    for digits in _digit_sets(q, rng):
        K = DigitCantorSet(q, digits)
        a, b = rng.sample(coprime, 2)
        for primes, box in (((a,), 12), ((shared,), 12), ((a, b), 7), ((shared, a), 7), ((a, shared), 7),
                            ((shared, a, b), 3), ((a, shared, b), 3), ((a, b, shared), 3)):
            c = ([p for p in primes if q % p] or primes)[-1]
            # planted at k_c = j, the other k_i 0: a carried line meets m there
            j = rng.randrange(1, 3)
            m = _planted(K, c, j, rng) if q % c else K.max_point
            d = rng.randrange(1, 20) * q ** rng.randrange(0, 3)
            alphas = [m * c**j, Fraction(1), Fraction(1, d), Fraction(rng.randrange(2, 200), rng.randrange(1, 5))]
            before = len(scan_powers_calls)
            for alpha in alphas:
                point_rows = _lattice_point_rows(alpha, primes, K, box)
                assert lattice_rows(alpha, primes, K, box) == point_rows
                _check_lattice_members(alpha, primes, K, box, point_rows)
            assert (tuple(j if p == c else 0 for p in primes), m, True) in lattice_rows(m * c**j, primes, K, box)
            assert (len(scan_powers_calls) > before) == any(not _ends_in_base_q(alpha, c, q) for alpha in alphas)
            # a numerator sharing the carried modulus: its lines are carried
            # once the numerator stops cancelling, unless no modulus is prime
            # to q; box 0 is the point alpha alone
            before = len(scan_powers_calls)
            dens = [d for d in range(1, 60) if d % c]
            alphas = (Fraction(c**2 * rng.randrange(1, 9), rng.choice(dens)),
                      Fraction(c, rng.choice(dens) * q ** rng.randrange(1, 3)))
            for alpha in alphas:
                point_rows = _lattice_point_rows(alpha, primes, K, box)
                assert lattice_rows(alpha, primes, K, box) == point_rows
                _check_lattice_members(alpha, primes, K, box, point_rows)
            assert (len(scan_powers_calls) > before) == any(not _ends_in_base_q(alpha, c, q) for alpha in alphas)
            assert lattice_rows(m, primes, K, 0) == [((0,) * len(primes), m, True)]


def _ends_in_base_q(alpha, t, q):
    # alpha / t**k terminates in base q for every k: no point has a part
    # prime to q in its denominator
    return split_coprime_part(alpha.denominator * t, q)[0] == 1


def test_lattice_rows_with_no_modulus_prime_to_q(scan_powers_calls):
    # q = 10 and moduli 2, 5: lines along the last index.  Terminating
    # points, some members only by their trailing-9 form, go to
    # terminating_powers; 3/7 and 2/9 have a part prime to q, and each of
    # their 10 lines is carried by scan_powers
    K = DigitCantorSet(10, (0, 1, 2, 5, 9))
    for alpha in (Fraction(1), Fraction(1, 4), Fraction(3, 7), Fraction(25, 2), Fraction(2, 9)):
        scan_powers_calls.clear()
        point_rows = _lattice_point_rows(alpha, (2, 5), K, 9)
        assert lattice_rows(alpha, (2, 5), K, 9) == point_rows
        assert len(scan_powers_calls) == (0 if _ends_in_base_q(alpha, 5, 10) else 10)
        _check_lattice_members(alpha, (2, 5), K, 9, point_rows)


def _terminating_member(K, rng):
    # a member m / q**v whose digits are drawn from A: by its own v digits,
    # ending in a nonzero digit, when 0 is in A (and q - 1 is not, or by a
    # coin); else by its trailing-(q-1) form, m - 1's v digits drawn from A
    # and ending below q - 1.  None when neither 0 nor q - 1 is in A
    q, digits, v = K.base, K.digits, rng.randrange(1, 7)
    zero, top = 0 in digits, q - 1 in digits
    if not (zero or top):
        return None
    canonical = zero and (not top or rng.random() < 0.5)
    last = rng.choice([d for d in digits if d != (0 if canonical else q - 1)])
    m = sum(rng.choice(digits) * q**i for i in range(1, v)) + last + (0 if canonical else 1)
    return Fraction(m, q**v), canonical


@pytest.fixture
def terminating_powers_calls(monkeypatch):
    # each row that ends in base q must meet terminating_powers'
    # preconditions: den and t dividing powers of q, a first point num/den
    # below 1 in lowest terms with num prime to t, and its exact preperiod
    calls = []
    terminating_powers = kernels.terminating_powers

    def counted(*args):
        num, den, t, base, _, preperiod_len, _ = args
        den_hat, _, v = split_coprime_part(den, base)
        assert 0 < num < den and math.gcd(num, den) == math.gcd(num, t) == 1, args
        assert den_hat == split_coprime_part(t, base)[0] == 1 and preperiod_len == v, args
        calls.append(args)
        return terminating_powers(*args)

    monkeypatch.setattr(kernels, "terminating_powers", counted)
    return calls


def test_terminating_rows_fuzz(scan_powers_calls, terminating_powers_calls):
    # seeded rows that end in base q against contains point by point: alpha
    # = s/d with s carrying t's primes and d dividing a power of q, or a
    # planted member m / q**v times t**j, met at k = j by either form; with
    # the lattice of q's primes now and then
    rng = random.Random(26)
    planted = {True: 0, False: 0}
    for case in range(1500):
        q = rng.choice((3, 4, 6, 8, 9, 10, 12))
        ts = [t for t in range(2, 40) if split_coprime_part(t, q)[0] == 1]
        t = rng.choice(ts)
        K = DigitCantorSet(q, rng.sample(range(q), rng.randrange(2, q)))
        k_max = rng.randrange(1, 16)
        member = _terminating_member(K, rng) if rng.random() < 0.5 else None
        if member:
            j = rng.randrange(0, k_max + 1)
            alpha = member[0] * t**j
        else:
            alpha = Fraction(rng.randrange(1, 50) * t ** rng.randrange(0, 3), rng.choice(ts) ** rng.randrange(0, 3))
        assert _ends_in_base_q(alpha, t, q)
        rows = geometric_rows(alpha, Fraction(1, t), K, k_max)
        assert rows == _point_rows(alpha, Fraction(1, t), K, k_max), (alpha, t, K, k_max)
        if member:
            assert rows[j] == (j, member[0], True)
            planted[member[1]] += 1
        if case % 10 == 0:
            primes = tuple(p for p in (2, 3, 5) if q % p == 0)
            point_rows = _lattice_point_rows(alpha, primes, K, 6)
            assert lattice_rows(alpha, primes, K, 6) == point_rows
            _check_lattice_members(alpha, primes, K, 6, point_rows)
    assert not scan_powers_calls
    assert len(terminating_powers_calls) > 1000 and min(planted.values()) > 100, planted


@pytest.fixture
def contains_calls(monkeypatch):
    calls = []
    contains = DigitCantorSet.contains
    monkeypatch.setattr(DigitCantorSet, "contains", lambda K, x: calls.append(x) or contains(K, x))
    return calls


def test_terminating_rows_send_only_the_points_before_k0_to_contains(contains_calls, terminating_powers_calls):
    # a row that ends in base q tests on its own only its points up to 1
    # before k0, the first point below 1 whose numerator is prime to t: the
    # point 1 of alpha = t**j and the points of a numerator still sharing
    # t's primes.  The rest goes to terminating_powers in one call
    rng = random.Random(2603)
    cases = [(Fraction(8), 2, 10), (Fraction(1), 2, 10), (Fraction(4, 5), 2, 10), (Fraction(12, 5), 2, 10),
             (Fraction(96, 5), 2, 10), (Fraction(27, 4), 6, 12), (Fraction(1, 3), 3, 9)]
    for _ in range(200):
        q = rng.choice((4, 6, 10, 12))
        t = rng.choice([t for t in range(2, 30) if split_coprime_part(t, q)[0] == 1])
        cases.append((Fraction(rng.randrange(1, 20) * t ** rng.randrange(0, 3), q ** rng.randrange(0, 2)), t, q))
    carried = 0
    for alpha, t, q in cases:
        K = DigitCantorSet(q, (0, 1, q - 1))
        points = [alpha / t**k for k in range(21)]
        k0 = next((k for k, x in enumerate(points) if x < 1 and math.gcd(x.numerator, t) == 1), 21)
        contains_calls.clear()
        terminating_powers_calls.clear()
        flags = geometric_members(alpha, Fraction(1, t), K, 20)
        assert contains_calls == [x for x in points[:k0] if x <= 1], (alpha, t, q)
        assert [args[-1] for args in terminating_powers_calls] == ([21 - k0] if k0 < 21 else [])
        assert flags == [k for k, x in enumerate(points) if x <= 1 and K.contains(x)]
        carried += k0 < 21
    assert carried > 150


def test_member_scans_build_no_values(monkeypatch, capsys):
    # JSON enumerate and bound read the flags alone: with the step that puts
    # values on them broken, they still answer, and only CSV reaches it
    def broken(*args):
        raise RuntimeError("values built")

    monkeypatch.setattr(cantor, "_line_rows", broken)
    K = DigitCantorSet(3, (0, 2))
    _check_member_scans(Fraction(1), Fraction(1, 2), K, 20)
    _check_lattice_members(Fraction(1), (2, 7), K, 5, _lattice_point_rows(Fraction(1), (2, 7), K, 5))
    for scan in (["--ratio", "1/2", "--k-max", "20"], ["--primes", "2,7", "--box", "5"]):
        argv = ["enumerate", "--alpha", "1", "--q", "3", "--A", "0,2", *scan]
        assert cli.main(argv) == 0
        assert cli.main(argv + ["--format", "csv"]) == 1
        assert "values built" in capsys.readouterr().err


def test_scan_powers_stops_at_a_leading_zero_without_0(monkeypatch):
    # with 0 not allowed, the first point with a leading zero ends the
    # carried walk; its rows equal scan_allowed on every point, and
    # skip_zeros runs once per point up to that one
    skip_zeros = kernels.skip_zeros
    calls = []
    monkeypatch.setattr(kernels, "skip_zeros", lambda *args: calls.append(args) or skip_zeros(*args))
    rng = random.Random(7)
    for q, digits, t in ((3, (1, 2), 2), (5, (1, 3), 7), (10, (1, 4, 7), 3), (7, (2, 3, 5, 6), 4), (4, (0, 1, 3), 5)):
        allowed = frozenset(digits)
        for _ in range(20):
            den = rng.randrange(2, 200) * rng.choice([1, q, q * q])
            num = rng.randrange(1, den)
            g = math.gcd(num, den)
            num, den = num // g, den // g
            if math.gcd(num, t) > 1:
                continue
            _, _, v = split_coprime_part(den, q)
            calls.clear()
            assert kernels.scan_powers(num, den, t, q, allowed, v, 30) == [
                kernels.scan_allowed(num, den * t**i, q, allowed, v) for i in range(30)]
            if 0 not in allowed:
                first_zero = next(i for i in range(30) if num * q < den * t**i)
                assert len(calls) == first_zero + 1


def test_carried_walk_period_cap(monkeypatch):
    # 1/7 in base 10 has a 6-digit period, all in A: the carried walk lists it
    # at a cap of 6 digits and refuses it at 5, as scan_allowed does
    K = DigitCantorSet(10, (0, 1, 2, 4, 5, 7, 8))
    monkeypatch.setattr(kernels, "MAX_DIGITS", 6)
    assert geometric_rows(1, Fraction(1, 7), K, 1) == [(0, 1, False), (1, Fraction(1, 7), True)]
    monkeypatch.setattr(kernels, "MAX_DIGITS", 5)
    with pytest.raises(PreconditionError, match="MAX_DIGITS = 5"):
        geometric_rows(1, Fraction(1, 7), K, 1)
