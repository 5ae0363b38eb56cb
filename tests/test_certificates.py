import importlib
import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import qadic.certificates
from qadic.cantor import DigitCantorSet, Gap
from qadic.certificates import (
    _CRT_MIN_BITS,
    MAX_POWER_COST,
    CongruenceWitness,
    _pow_prime_power,
    _power_by_parts,
    _power_mod_den,
    _witness_base,
    ExclusionCertificate,
    certificate_from_dict,
    congruence_witness,
    exclusion_bound,
    make_certificate,
    verify_certificate,
)
from qadic.cli import main
from qadic.rational import SMALL_PRIMES, PreconditionError, parse_rational

K3_01 = DigitCantorSet(3, (0, 1))
K3_02 = DigitCantorSet(3, (0, 2))


def _replace(record, **changes):
    """A copy of a frozen record with some fields changed, built through its constructor."""
    fields = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**fields, **changes})


def test_witness_frozen():
    w = congruence_witness(2, 1, (3,), 1, (3,))
    assert (w.b, w.k0, w.exponent) == (1, 3, 18)
    assert w.check()
    assert pow(2, 18, 81) == 1 + 1 * 1 * 27


def test_witness_rejects_shared_factor():
    with pytest.raises(PreconditionError, match="gcd"):
        congruence_witness(10, 1, (5,), 1, (3,))
    with pytest.raises(PreconditionError, match="gcd"):
        congruence_witness(3, 6, (5,), 1, (3,))


def test_witness_threshold_diagnostic():
    with pytest.raises(PreconditionError, match="k0 = 5"):
        congruence_witness(3, 1, (2,), 2, (4,))
    # the threshold named in the diagnostic is accepted
    assert congruence_witness(3, 1, (2,), 2, (5,)).check()


def test_witness_composite_moduli():
    w = congruence_witness(3, 1, (4,), 1, (3,))
    assert (w.b, w.k0, w.exponent) == (2, 3, 32)
    assert w.check()
    w = congruence_witness(5, 1, (6,), 1, (3,))
    assert (w.b, w.k0, w.exponent) == (4, 3, 72)
    assert w.check()
    # overlapping moduli share the prime 2; the witness still holds exactly
    w = congruence_witness(3, 5, (2, 10), 1, (6, 6))
    assert w.check()
    assert all(w.b % p != 0 for p in w.primes)
    # moduli sharing primes: h+1 copies each, then the surplus in list order
    for q, t, primes, h, r_list, b, k0, exponent in (
        (3, 5, (2, 10), 1, (5, 2), 1, 6, 16000000),
        (7, 1, (4, 6), 2, (4, 3), 338, 5, 663552),
        (13, 9, (10, 4), 1, (2, 4), 39, 5, 15360000),
        (43, 1, (2, 4, 8), 1, (3, 2, 2), 35, 4, 4194304),
        (7, 25, (6, 12, 18), 3, (4, 4, 4), 1764942496, 5, 24374389600419840),
    ):
        assert _witness_base(q, t, primes, h)[2] == r_list
        w = congruence_witness(q, t, primes, h, (k0,) * len(primes))
        assert (w.b, w.k0, w.exponent) == (b, k0, exponent)
        assert w.check()


def test_witness_check_by_parts(monkeypatch):
    # the modulus 5 * 2**(k1 + k2 + 2h) * 5**(k2 + h) has two parts past
    # _CRT_MIN_BITS, each checked by the kernel; a tampered exponent fails
    calls = []

    def spy(q, e, r, v):
        calls.append((r, v))
        return _pow_prime_power(q, e, r, v)

    w = congruence_witness(3, 5, (2, 10), 1, (200, 200))
    monkeypatch.setattr(qadic.certificates, "_pow_prime_power", spy)
    assert w.check()
    assert sorted(calls) == [(2, 402), (5, 202)]
    assert not _replace(w, exponent=w.exponent + 1).check()
    assert not _replace(w, exponent=w.exponent + w.exponent // 3).check()


def test_witness_check_with_q_sharing_a_prime_of_the_modulus():
    # r = 2 and r = 3 divide both q and the modulus, so their parts are not
    # the kernel's to power; pow over the modulus gives the target, 0
    for w in (
        CongruenceWitness(2, 1, (2,), 300, 2**300 - 1, 1, (0,), 8192),
        CongruenceWitness(6, 1, (3,), 200, 3**200 - 1, 1, (0,), 10 * 3**10),
    ):
        assert pow(w.q, w.exponent, w.modulus()) == w.target() == 0
        assert w.check()
        assert not _replace(w, exponent=1).check()


def test_witness_soundness_sweep():
    count = 0
    for q, t, primes, h in (
        (2, 1, (3,), 1),
        (2, 3, (5,), 2),
        (3, 1, (2,), 1),
        (3, 4, (5, 7), 1),
        (10, 1, (3,), 2),
        (10, 7, (3, 13), 1),
        (3, 5, (11,), 2),
        (2, 5, (7, 11), 1),
    ):
        k0 = congruence_witness(q, t, primes, h, (20,) * len(primes)).k0
        for spread in range(4):
            k_tuple = tuple(k0 + (spread + i) % 4 for i in range(len(primes)))
            w = congruence_witness(q, t, primes, h, k_tuple)
            assert w.check()
            assert 1 <= w.b < (w.modulus() // t) and all(w.b % p for p in primes)
            count += 1
    assert count >= 30


def test_exclusion_bound_frozen():
    bd = exclusion_bound(1, K3_02, (2,))
    assert bd.gap == Gap(Fraction(1, 3), Fraction(2, 3))
    assert (bd.h, bd.k0, bd.b_hat, bd.p_hat, bd.m) == (2, 5, 1, 4, 2)
    assert (bd.k_alpha, bd.reduction_r, bd.empirical_k) == (9, 0, 3)
    bd = exclusion_bound(1, K3_01, (2,))
    assert (bd.h, bd.p_hat, bd.m, bd.k_alpha, bd.empirical_k) == (2, 4, 3, 9, 4)
    # r > 0: 9 = 3**2 against q = 3; then 12 against 6 and 25 against 5, both needing 2
    bd = exclusion_bound(Fraction(4, 9), K3_01, (2,))
    assert (bd.reduction_r, bd.h, bd.k_alpha, bd.empirical_k) == (2, 2, 11, 6)
    bd = exclusion_bound(Fraction(12, 25), DigitCantorSet(5, (0, 2, 4)), (6,), scan_empirical=False)
    assert (bd.reduction_r, bd.h, bd.k_alpha) == (2, 3, 13)


def test_exclusion_bound_rejects_modulus_sharing_base():
    with pytest.raises(PreconditionError, match="gcd"):
        exclusion_bound(1, K3_02, (3,))
    with pytest.raises(PreconditionError, match="gcd"):
        exclusion_bound(1, K3_01, (6,))


def test_exclusion_bound_geometry():
    for K, primes, alpha in (
        (K3_01, (2,), 1),
        (K3_02, (2,), 1),
        (K3_01, (2, 5), 1),
        (K3_02, (5,), Fraction(3, 7)),
        (DigitCantorSet(7, (1, 2, 3)), (2,), 1),
    ):
        bd = exclusion_bound(alpha, K, primes, scan_empirical=False)
        g = bd.gap.length
        assert 2**bd.h * g > 1 >= 2 ** (bd.h - 1) * g
        assert bd.gap.left < Fraction(bd.m, bd.p_hat) < bd.gap.right
        assert bd.k_alpha >= bd.k0 + 2 * bd.h + bd.reduction_r


def test_exclusion_bound_search_on_a_large_numerator():
    # alpha = 10**4000 - 1 (r = 0) needs 13290 - k0 - 2h steps of the k
    # search, which took about 3 s when each step built a Fraction
    alpha = 10**4000 - 1
    start = time.perf_counter()
    bd = exclusion_bound(alpha, K3_01, (2,), scan_empirical=False)
    assert time.perf_counter() - start < 1
    assert (bd.reduction_r, bd.k_alpha) == (0, 13290)
    limit = bd.gap.right - Fraction(bd.m, bd.p_hat)
    assert Fraction(alpha, 2**13290) < limit <= Fraction(alpha, 2**13289)
    # the empirical scan to that k_alpha is the ratio-1/2 scan of geometric_rows, capped before it starts
    with pytest.raises(PreconditionError, match=r"^the scan of k = 0\.\.13290 gives denominators of 176637390 bits"):
        exclusion_bound(alpha, K3_01, (2,))
    assert time.perf_counter() - start < 1


def test_certificate_frozen():
    cert = make_certificate(1, K3_02, (2,), (9,))
    assert cert.exponent == 64
    assert cert.residue == Fraction(257, 512)
    assert cert.value == Fraction(1, 512)
    cert = make_certificate(1, K3_01, (2,), (9,))
    assert cert.exponent == 96
    assert cert.residue == Fraction(385, 512)


def test_certificate_reduction_branch():
    # alpha = 1/6 has base factor 3 in the denominator; one shift removes it
    bd = exclusion_bound(Fraction(1, 6), K3_02, (2,))
    assert (bd.reduction_r, bd.k_alpha, bd.empirical_k) == (1, 10, 2)
    cert = make_certificate(Fraction(1, 6), K3_02, (2,), (10,))
    assert cert.exponent == 257
    assert cert.residue == Fraction(1025, 2048)
    assert verify_certificate(cert)


def test_certificate_below_bound_rejected():
    bd = exclusion_bound(1, K3_01, (2,))
    with pytest.raises(PreconditionError, match="k_alpha"):
        make_certificate(1, K3_01, (2,), (bd.k_alpha - 1,))


def test_certificate_soundness_bulk():
    # every generated certificate verifies and the direct scan agrees
    count = 0
    cases = []
    for K in (K3_01, K3_02):
        cases += [(K, (2,), Fraction(1)), (K, (2,), Fraction(5, 7)), (K, (2, 5), Fraction(1))]
    cases += [
        (DigitCantorSet(7, (0, 2, 4)), (2,), Fraction(1)),
        (DigitCantorSet(7, (1, 3)), (5,), Fraction(2, 3)),
        (DigitCantorSet(4, (0, 2)), (5,), Fraction(1)),
        (DigitCantorSet(5, (0, 3)), (2,), Fraction(7, 11)),
        (DigitCantorSet(3, (1, 2)), (2,), Fraction(1, 6)),
    ]
    for K, primes, alpha in cases:
        bd = exclusion_bound(alpha, K, primes, scan_empirical=False)
        for extra in range(20 // len(primes)):
            k_tuple = tuple(bd.k_alpha + (extra + i * 3) % 17 for i in range(len(primes)))
            cert = make_certificate(alpha, K, primes, k_tuple)
            assert verify_certificate(cert)
            assert not K.contains(cert.value)
            count += 1
    assert count >= 200


def test_monotone_coverage_from_returned_fields():
    for K in (K3_01, K3_02):
        bd = exclusion_bound(1, K, (2,))
        for k in range(bd.k_alpha, bd.k_alpha + 21):
            value = Fraction(1, 2**k)
            assert not K.contains(value)
            cert = make_certificate(1, K, (2,), (k,))
            assert verify_certificate(cert)


def test_huge_exponent_discipline():
    cert = make_certificate(1, K3_02, (2,), (500,))
    assert cert.exponent > 10**100
    assert verify_certificate(cert)
    assert verify_certificate(json.loads(json.dumps(cert.to_dict())))


def test_verify_rejects_tampered_exponent():
    # small perturbations can soundly stay inside the gap (the shifted orbit
    # point sits deep in it), so the deltas here are ones that provably escape
    cert = make_certificate(1, K3_01, (2,), (12,))
    tampered = _replace(cert, exponent=cert.exponent + 1)
    assert not verify_certificate(tampered)
    tampered = _replace(cert, exponent=0)
    assert not verify_certificate(tampered)
    cert = make_certificate(1, K3_02, (2,), (9,))
    tampered = _replace(cert, exponent=cert.exponent + 5)
    assert not verify_certificate(tampered)


def test_verify_rejects_member_value():
    # no exponent can certify a value that really is in the set
    member = Fraction(1, 2)
    assert K3_01.contains(member)
    good = make_certificate(1, K3_01, (2,), (9,))
    for exponent in (0, 1, 5, 96, 10**6 + 3):
        fake = ExclusionCertificate(member, 3, (0, 1), exponent, good.residue, good.gap)
        assert not verify_certificate(fake)


def test_verify_total_on_malformed():
    cert = make_certificate(1, K3_01, (2,), (9,))
    data = cert.to_dict()
    assert verify_certificate(data)
    for mutate in (
        lambda d: d.pop("exponent"),
        lambda d: d.update(exponent="0.5e9"),
        lambda d: d.update(exponent="-3"),
        lambda d: d.update(value="1.5"),
        lambda d: d.update(base=2),
        lambda d: d.update(digits=[0, 1, 2]),
        lambda d: d.update(value="9/8"),
        # the strict schema: none of these is coerced into a valid certificate
        lambda d: d.update(base=3.9),
        lambda d: d.update(base="3"),
        lambda d: d.update(base=True),
        lambda d: d.update(digits=[0, 1.7]),
        lambda d: d.update(digits=[1, 0, 0]),
        lambda d: d.update(digits=["0", "1"]),
        lambda d: d.update(digits=[False, True]),
        lambda d: d.update(value=1),
        lambda d: d.update(residue=None),
        lambda d: d.update(exponent=12),
        lambda d: d.update(exponent="1_2"),
        lambda d: d.update(exponent="9" * 5000),
        lambda d: d.update(gap="(1/2, 1/1)"),
        lambda d: d.update(gap={"left": 0, "right": "1/1"}),
    ):
        broken = dict(data)
        mutate(broken)
        assert not verify_certificate(broken)
    for junk in ({}, {"junk": 1}, None, [data], "cert"):
        assert not verify_certificate(junk)


def test_verify_propagates_internal_faults(monkeypatch):
    data = make_certificate(1, K3_01, (2,), (9,)).to_dict()

    def planted(*args):
        raise RuntimeError("planted fault")

    monkeypatch.setattr("qadic.certificates.DigitCantorSet", planted)
    with pytest.raises(RuntimeError, match="planted fault"):
        verify_certificate(data)


def test_verify_shares_no_shift_code_with_the_certifier(monkeypatch):
    good = make_certificate(1, K3_01, (2,), (9,)).to_dict()
    tampered = dict(good, exponent=str(int(good["exponent"]) + 1))
    cert = make_certificate(1, K3_02, (2,), (9,))

    def planted(*args):
        raise RuntimeError("planted fault")

    monkeypatch.setattr("qadic.expansion.shift_digits", planted)
    # two primes whose parts of the denominator, 2**300 and 5**300, both
    # exceed the split threshold: the certifier powers them by its kernel
    split = make_certificate(1, K3_02, (2, 5), (300, 300))
    assert split.value.denominator == 2**300 * 5**300
    split_tampered = _replace(split, exponent=split.exponent + 1)
    monkeypatch.setattr("qadic.certificates._power_by_parts", planted)
    monkeypatch.setattr("qadic.certificates._pow_prime_power", planted)
    assert verify_certificate(good)
    assert not verify_certificate(tampered)
    assert verify_certificate(cert)
    assert verify_certificate(split)
    assert verify_certificate(split.to_dict())
    assert not verify_certificate(split_tampered)
    # a negative value or exponent, which no JSON certificate can carry; with
    # the gap (1/3, 2/3), the residue of each would land inside it
    assert not verify_certificate(_replace(cert, value=-cert.value))
    assert not verify_certificate(_replace(cert, exponent=-1))


def _random_modulus(rng, q, n_parts, part_bits):
    """(den, cofactor, prime_powers): n_parts prime powers r**v of about
    part_bits bits each, one of them sharing a prime with q now and then,
    times a tiny cofactor coprime to them."""
    primes = rng.sample([2, 3, 5, 7, 11, 13, 997, 1009, 2**61 - 1], n_parts)
    if rng.random() < 0.3:
        primes[0] = min(r for r in (2, 3, 5, 7) if q % r == 0)
        primes = list(dict.fromkeys(primes))
    prime_powers = [(r, max(1, part_bits // (r.bit_length() - 1) - rng.randint(0, 2))) for r in primes]
    cofactor = rng.choice([1, 3, 9, 35, 1013 * 1019, rng.randrange(1, 10**6)])
    while any(cofactor % r == 0 for r in primes):
        cofactor += 1
    return math.prod(r**v for r, v in prime_powers) * cofactor, cofactor, prime_powers


def test_split_power_matches_pow():
    rng = random.Random(12)
    for _ in range(200):
        q = rng.choice([2, 3, 4, 5, 6, 7, 10, 12])
        den, cofactor, prime_powers = _random_modulus(rng, q, rng.randint(1, 3), rng.randint(8, 600))
        e = rng.randrange(2 ** rng.randint(1, den.bit_length() + 64))
        expected = pow(q, e, den)
        assert _power_mod_den(q, e, den) == expected
        assert _power_by_parts(q, e, den, cofactor, *zip(*prime_powers)) == expected


def _kernel_cases(rng, r, v):
    """Exponents for _pow_prime_power at (r, v): 0, 1, one below r**s (the
    kernel's split, so no series runs), one past it, and one far above r**v."""
    s = math.isqrt(v // r.bit_length())
    return [0, 1, rng.randrange(r**s), r**s * rng.randrange(1, 2**32) + rng.randrange(r**s),
            rng.randrange(r ** (v + 40))]


def test_pow_prime_power_matches_pow():
    # every prime below 2**10, 2 and 3 weighted up, parts of 1 to 4000 bits
    # (test_pow_prime_power_large_parts goes to 14000); past 1500 bits pow
    # would take a second or more for the exponent far above r**v, so there
    # it is left out
    rng = random.Random(13)
    weighted = SMALL_PRIMES + (2, 3) * 40
    checked = 0
    for i in range(450):
        r = SMALL_PRIMES[i] if i < len(SMALL_PRIMES) else rng.choice(weighted)
        v = max(1, int(2 ** rng.uniform(0, math.log2(4000))) // r.bit_length())
        q = rng.randrange(2, 10**6)
        while q % r == 0:
            q += 1
        cases = _kernel_cases(rng, r, v)
        for e in cases if (r**v).bit_length() <= 1500 else cases[:-1]:
            assert _pow_prime_power(q, e, r, v) == pow(q, e, r**v), (q, e, r, v)
            checked += 1
    assert checked >= 2000


def test_pow_prime_power_large_parts():
    # parts of up to 3000 and 14000 bits; past 3000 bits the exponent far
    # above r**v would cost pow seconds, so there it stays below 2**32 * r**s
    rng = random.Random(14)
    for r, bits in ((2, 3000), (3, 3000), (7, 3000), (2, 14000), (3, 14000), (13, 14000), (1021, 14000)):
        v = bits // r.bit_length()
        cases = _kernel_cases(rng, r, v)
        for e in cases if bits <= 3000 else cases[:-1]:
            assert _pow_prime_power(5, e, r, v) == pow(5, e, r**v), (e, r, v)


def test_pow_prime_power_deeper_start():
    # u = q**d lies deeper in 1 + r*Z_r than the kernel assumes: 10**2 - 1 =
    # 99 has 3**2, and 3**5 = 1 mod 121, so 3**10 - 1 has 11**2
    rng = random.Random(15)
    for q, r in ((10, 3), (3, 11)):
        for v in (1, 2, 3, 4, 7, 50, 300, 1000):
            for e in _kernel_cases(rng, r, v) + [5, 10, 121, r**v, r ** (v - 1) * (r - 1)]:
                assert _pow_prime_power(q, e, r, v) == pow(q, e, r**v), (q, e, r, v)


def test_split_threshold(monkeypatch):
    # 2**255 and 5**110 have _CRT_MIN_BITS = 256 bits, 2**256 and 5**111
    # more: one part past it splits den on both sides, and with none each
    # side makes one pow over den
    assert _CRT_MIN_BITS == 256
    moduli = []

    def spy_pow(base, exponent, modulus):
        moduli.append(modulus)
        return pow(base, exponent, modulus)

    monkeypatch.setattr(qadic.certificates, "pow", spy_pow, raising=False)
    e = 3**1000 + 1
    for v2, v5 in itertools.product((255, 256), (0, 110, 111)):
        for cofactor in (1, 3 * 1013):
            den = 2**v2 * 5**v5 * cofactor
            expected = pow(3, e, den)
            single = v2 == 255 and v5 <= 110
            for power in (
                lambda: _power_mod_den(3, e, den),
                lambda: _power_by_parts(3, e, den, cofactor, (2, 5), (v2, v5)),
            ):
                moduli.clear()
                assert power() == expected
                assert (moduli == [den]) == single


def _single_power_verdict(cert):
    """The verifier's answer by one modular power over the whole denominator."""
    num, den = cert.value.numerator, cert.value.denominator
    return Fraction(num * pow(cert.base, cert.exponent, den) % den, den) in cert.gap


def test_benchmark_pool_certificates_verify_as_by_one_power(monkeypatch):
    # the certify jobs of the benchmark's first rounds, seeds 1-3, with their
    # k raised to k_alpha as the runner does; a tampered exponent too
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    jobs = importlib.import_module("jobs")
    checked = split = 0
    for seed in (1, 2, 3):
        rounds = jobs.rounds("certify", seed)
        for _ in range(2):
            for job in next(rounds):
                if job.kind != "certify":
                    continue
                p = job.params
                alpha, K, primes = parse_rational(p["alpha"]), DigitCantorSet(p["q"], tuple(p["A"])), p["primes"]
                k_alpha = exclusion_bound(alpha, K, primes, scan_empirical=False).k_alpha
                cert = make_certificate(alpha, K, primes, [max(k_alpha, k) for k in p["k"]])
                assert verify_certificate(cert) and _single_power_verdict(cert)
                tampered = _replace(cert, exponent=cert.exponent + 1)
                assert verify_certificate(tampered) == _single_power_verdict(tampered)
                checked += 1
                parts = [math.gcd(cert.value.denominator, r**5000) for r in primes]
                split += len(parts) == 2 and min(parts).bit_length() > _CRT_MIN_BITS
    assert checked >= 20 and split >= 2


def _factor_by_division(n, primes):
    """[(r, v)] with r**v exactly dividing n, for n made of the given primes."""
    out = []
    for r in primes:
        v = 0
        while n % r == 0:
            n //= r
            v += 1
        if v:
            out.append((r, v))
    assert n == 1
    return out


def test_verify_crafted_4300_digit_denominator_fast():
    # den has 4300 digits, all from primes below 2**10: one part of about
    # 330 bits for each prime from 5 to 181, and parts r**1 above.  The
    # exponent, a multiple of every phi(r**v), fixes the value, so the
    # residue of the true certificate is the value itself
    primes = [r for r in range(5, 1024) if all(r % d for d in range(2, r))]
    den = math.prod(r ** (330 // r.bit_length()) for r in primes[:40])
    for r in primes[40:]:
        if den * r < 10**4300:
            den *= r
    while den * 5 < 10**4300:
        den *= 5
    assert 10**4299 <= den < 10**4300
    exponent = math.lcm(*(r ** (v - 1) * (r - 1) for r, v in _factor_by_division(den, primes)))
    value = Fraction(2 * den // 5 + 1, den)
    assert value.denominator == den and exponent < 10**4300
    cert = ExclusionCertificate(value, 3, (0, 2), exponent, value, K3_02.largest_gap)
    for claim, expected in ((cert, True), (_replace(cert, exponent=exponent + 1), False)):
        start = time.perf_counter()
        assert verify_certificate(claim.to_dict()) is expected
        assert time.perf_counter() - start < 1


# certify --alpha 1/1 --q 3 --A 0,1 --primes 1000003 --k k: den = 1000003**k
# has no prime below 2**10, so pow raises q to the whole exponent over all of
# it; k = 300 costs 5978 * 5980 bits, k = 700 costs 13951 * 13953
def _certify_big_prime(k, *extra):
    return ["certify", "--alpha", "1/1", "--q", "3", "--A", "0,1", "--primes", "1000003", "--k", str(k), *extra]


def test_power_cost_cap_keeps_k300_and_refuses_k700(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    assert main(_certify_big_prime(300, "--out", str(cert))) == 0
    assert main(["verify", "--cert", str(cert)]) == 0
    assert json.loads(capsys.readouterr().out) == {"valid": True}
    start = time.perf_counter()
    assert main(_certify_big_prime(700)) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == "" and "MAX_POWER_COST" in captured.err


def test_verify_of_a_crafted_costly_certificate_exits_2(capsys, tmp_path):
    # the k = 700 certificate the certifier refuses, written by hand: the
    # verifier refuses it by the cap, and does not call it invalid
    data = {"value": f"1/{1000003**700}", "base": 3, "digits": [0, 1], "exponent": str(3**8802 + 5),
            "residue": "3/4", "gap": K3_01.largest_gap.to_dict()}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    start = time.perf_counter()
    assert main(["verify", "--cert", str(path)]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == "" and "MAX_POWER_COST" in captured.err


def test_power_cost_cap_on_a_prime_denominator():
    # 1477! + 1 is a 4042-digit prime: nothing splits off it
    den = math.factorial(1477) + 1
    value = Fraction(1, den)
    cert = ExclusionCertificate(value, 3, (0, 2), 10**4000, value, K3_02.largest_gap)
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="MAX_POWER_COST"):
        verify_certificate(cert.to_dict())
    assert time.perf_counter() - start < 1
    # within the cap, the same denominator is checked
    assert isinstance(verify_certificate(_replace(cert, exponent=2**500)), bool)


def test_certifier_refuses_what_the_verifier_refuses(monkeypatch):
    # k = 318 is the first k past the cap on this input; made with the cap
    # lifted, its certificate is refused by the verifier
    with pytest.raises(PreconditionError, match="MAX_POWER_COST"):
        make_certificate(1, K3_01, (1000003,), (318,))
    monkeypatch.setattr(qadic.certificates, "MAX_POWER_COST", 10**9)
    cert = make_certificate(1, K3_01, (1000003,), (318,))
    monkeypatch.setattr(qadic.certificates, "MAX_POWER_COST", MAX_POWER_COST)
    with pytest.raises(PreconditionError, match="MAX_POWER_COST"):
        verify_certificate(cert)


# witness --q 3 --t 1 --primes 1000003 --h 1 --k k: the check's modulus
# 1000003**(k+1) has no prime below 2**10, so pow raises q to the whole
# exponent over all of it; k = 316 costs 6299 * 6319 bits, k = 700 costs
# 13953 * 13973, and the check took 6.8 s before the cap; --primes 2 --k
# 14000 is past the cap too, but 2**14002 splits off whole, and it still
# runs (test_cli.test_witness_and_certify_at_the_exponent_edge)
def _witness_big_prime(k):
    return ["witness", "--q", "3", "--t", "1", "--primes", "1000003", "--h", "1", "--k", str(k)]


def test_witness_power_cost_cap_keeps_k316_and_refuses_k317(capsys):
    assert main(_witness_big_prime(316)) == 0
    assert json.loads(capsys.readouterr().out)["k_tuple"] == [316]
    for k in (317, 700):
        start = time.perf_counter()
        assert main(_witness_big_prime(k)) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == "" and "MAX_POWER_COST" in captured.err
        assert "denominator" not in captured.err


def test_hand_built_witness_check_is_capped():
    # the k = 700 witness that congruence_witness refuses, built by hand:
    # check() applies the cap itself, where it took about 6 s before
    b, k0, r_list, n0 = _witness_base(3, 1, (1000003,), 1)
    witness = CongruenceWitness(3, 1, (1000003,), 1, b, k0, (700,), n0 * 1000003 ** (700 - r_list[0]))
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="MAX_POWER_COST"):
        witness.check()
    assert time.perf_counter() - start < 1


def test_witness_inputs_checked_on_a_cache_hit():
    # the witness cache is warm for these values; equal values of another
    # type must still be rejected, not served from the cache
    congruence_witness(2, 1, (3,), 1, (3,))
    for q, t, primes, h in ((2.0, 1, (3,), 1), (2, True, (3,), 1), (2, 1, (3.0,), 1), (2, 1, (3,), True)):
        with pytest.raises(PreconditionError):
            congruence_witness(q, t, primes, h, (3,))


def test_certificate_exponent_past_int_str_limit_rejected(int_str_limit):
    # at a limit of 640 digits, k = 2100 gives a 632-digit exponent and
    # k = 2200 a 662-digit one, which could not be written out
    int_str_limit(640)
    cert = make_certificate(1, K3_01, (2,), (2100,))
    assert len(cert.to_dict()["exponent"]) == 632
    with pytest.raises(PreconditionError, match="more than 640 decimal digits"):
        make_certificate(1, K3_01, (2,), (2200,))


def test_certificate_dict_round_trip():
    cert = make_certificate(1, K3_02, (2,), (11,))
    data = json.loads(json.dumps(cert.to_dict()))
    back = certificate_from_dict(data)
    assert back == cert
    assert isinstance(data["exponent"], str)
    assert isinstance(data["value"], str)


def test_witness_dict_fields():
    w = congruence_witness(2, 1, (3,), 1, (3,))
    d = w.to_dict()
    assert d["exponent"] == "18"
    assert d["primes"] == [3] and d["k_tuple"] == [3]
    assert isinstance(w, CongruenceWitness)
