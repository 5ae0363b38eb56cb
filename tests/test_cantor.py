import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from qadic import cantor, cli, kernels
from qadic.cantor import DigitCantorSet, Gap, geometric_members, geometric_rows, lattice_members, lattice_rows
from qadic.certificates import exclusion_bound, make_certificate, verify_certificate
from qadic.enumeration import exceptional_geometric, exceptional_lattice
from qadic.expansion import shift_digits
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
    calls = []
    scan_powers = kernels.scan_powers

    def counted(*args):
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


# t sharing a prime with q, alpha's numerator sharing one with t, and a
# ratio with numerator above 1 take the per-point path; 49/4 plants 1/4 at k = 2
_FALLBACK_CASES = (
    (Fraction(1, 4), Fraction(1, 2), DigitCantorSet(10, (0, 2, 5))),
    (Fraction(1), Fraction(1, 6), DigitCantorSet(4, (0, 1, 3))),
    (Fraction(3, 7), Fraction(1, 12), DigitCantorSet(3, (0, 2))),
    (Fraction(49, 4), Fraction(1, 7), DigitCantorSet(3, (0, 2))),
    (Fraction(10, 3), Fraction(1, 10), DigitCantorSet(3, (0, 2))),
    (Fraction(25, 2), Fraction(1, 5), DigitCantorSet(7, (0, 3, 6))),
    (Fraction(1), Fraction(2, 7), DigitCantorSet(5, (0, 1, 4))),
)


def test_carried_rows_fall_back_to_the_point_rows(scan_powers_calls):
    for alpha, ratio, K in _FALLBACK_CASES:
        rows = geometric_rows(alpha, ratio, K, 30)
        assert rows == _point_rows(alpha, ratio, K, 30)
    assert geometric_rows(Fraction(49, 4), Fraction(1, 7), DigitCantorSet(3, (0, 2)), 3)[2][2]
    assert not scan_powers_calls


def _flagged(rows):
    return tuple(index for index, _, member in rows if member)


def _check_member_scans(alpha, ratio, K, k_max):
    # JSON enumerate's members and bound's empirical_k, read from the flags
    # alone, against contains point by point; bound scans to its own k_alpha.
    # The certified tail factors alpha's denominator under MAX_RHO_STEPS, so
    # a planted alpha whose denominator passes 64 bits has its members
    # checked on geometric_members, the scan the report reads them from
    members = _flagged(_point_rows(alpha, ratio, K, k_max))
    assert tuple(geometric_members(alpha, ratio, K, k_max)) == members
    if alpha.denominator >= 2**64:
        return
    assert exceptional_geometric(alpha, ratio, K, k_max).members == members
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
    # point by point; a planted alpha past 64 bits as in _check_member_scans
    members = _flagged(point_rows)
    assert tuple(lattice_members(alpha, primes, K, box)) == members
    if alpha.denominator < 2**64:
        assert exceptional_lattice(alpha, primes, K, box).members == members


def _lattice_point_rows(alpha, primes, K, box):
    # the per-point path: every alpha / prod(p_j**k_j) built and tested on its own
    return [(kt, x, x <= 1 and K.contains(x)) for kt in itertools.product(range(box + 1), repeat=len(primes))
            for x in [alpha / math.prod(p**k for p, k in zip(primes, kt))]]


@pytest.mark.parametrize("q", [3, 4, 5, 7, 10])
def test_lattice_rows_match_the_point_rows(q, scan_powers_calls):
    # lines along the last modulus prime to q, carried by kernels.scan_powers
    # where the line's start has a numerator prime to it, against contains
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
            assert (len(scan_powers_calls) > before) == (q % c != 0)
            # a numerator sharing the carried modulus (unless q cancels it) keeps
            # every line on the per-point path; box 0 is the point alpha alone
            before = len(scan_powers_calls)
            dens = [d for d in range(1, 60) if d % c]
            for alpha in (Fraction(c**2 * rng.randrange(1, 9), rng.choice(dens)),
                          Fraction(c, rng.choice(dens) * q ** rng.randrange(1, 3))):
                point_rows = _lattice_point_rows(alpha, primes, K, box)
                assert lattice_rows(alpha, primes, K, box) == point_rows
                _check_lattice_members(alpha, primes, K, box, point_rows)
            assert len(scan_powers_calls) == before
            assert lattice_rows(m, primes, K, 0) == [((0,) * len(primes), m, True)]


def test_lattice_rows_with_no_modulus_prime_to_q(scan_powers_calls):
    # q = 10 and moduli 2, 5: terminating points, some members only by their
    # trailing-9 form; lines along the last index, all per point
    K = DigitCantorSet(10, (0, 1, 2, 5, 9))
    for alpha in (Fraction(1), Fraction(1, 4), Fraction(3, 7), Fraction(25, 2)):
        point_rows = _lattice_point_rows(alpha, (2, 5), K, 9)
        assert lattice_rows(alpha, (2, 5), K, 9) == point_rows
        _check_lattice_members(alpha, (2, 5), K, 9, point_rows)
    assert not scan_powers_calls


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
