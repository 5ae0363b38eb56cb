import dataclasses
import json
import sys
from fractions import Fraction

import pytest

from qadic.cantor import DigitCantorSet, Gap
from qadic.certificates import (
    CongruenceWitness,
    _witness_base,
    ExclusionCertificate,
    certificate_from_dict,
    congruence_witness,
    exclusion_bound,
    make_certificate,
    verify_certificate,
)
from qadic.rational import PreconditionError

K3_01 = DigitCantorSet(3, (0, 1))
K3_02 = DigitCantorSet(3, (0, 2))


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
    tampered = dataclasses.replace(cert, exponent=cert.exponent + 1)
    assert not verify_certificate(tampered)
    tampered = dataclasses.replace(cert, exponent=0)
    assert not verify_certificate(tampered)
    cert = make_certificate(1, K3_02, (2,), (9,))
    tampered = dataclasses.replace(cert, exponent=cert.exponent + 5)
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

    monkeypatch.setattr("qadic.certificates.shift_digits", planted)
    monkeypatch.setattr("qadic.expansion.shift_digits", planted)
    assert verify_certificate(good)
    assert not verify_certificate(tampered)
    assert verify_certificate(cert)
    # a negative value or exponent, which no JSON certificate can carry; with
    # the gap (1/3, 2/3), the residue of each would land inside it
    assert not verify_certificate(dataclasses.replace(cert, value=-cert.value))
    assert not verify_certificate(dataclasses.replace(cert, exponent=-1))


def test_witness_inputs_checked_on_a_cache_hit():
    # the witness cache is warm for these values; equal values of another
    # type must still be rejected, not served from the cache
    congruence_witness(2, 1, (3,), 1, (3,))
    for q, t, primes, h in ((2.0, 1, (3,), 1), (2, True, (3,), 1), (2, 1, (3.0,), 1), (2, 1, (3,), True)):
        with pytest.raises(PreconditionError):
            congruence_witness(q, t, primes, h, (3,))


def test_certificate_exponent_past_int_str_limit_rejected():
    # at a limit of 640 digits, k = 2100 gives a 632-digit exponent and
    # k = 2200 a 662-digit one, which could not be written out
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        cert = make_certificate(1, K3_01, (2,), (2100,))
        assert len(cert.to_dict()["exponent"]) == 632
        with pytest.raises(PreconditionError, match="more than 640 decimal digits"):
            make_certificate(1, K3_01, (2,), (2200,))
    finally:
        sys.set_int_max_str_digits(old)


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
