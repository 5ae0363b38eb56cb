"""The nine result classes on `rational.Record` behave as the frozen
dataclasses they replace: construction, validation, immutability, equality,
hashing, pickling, copying and the repr; and importing qadic loads no
`dataclasses` (nor what it pulls in) but every qadic module."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qadic.cantor import DigitCantorSet, Gap
from qadic.certificates import congruence_witness, exclusion_bound, make_certificate
from qadic.enumeration import exceptional_geometric
from qadic.expansion import ExpansionQ, expand
from qadic.orders import coset_decomposition, order_stabilization
from qadic.rational import PreconditionError, Record

SRC = Path(__file__).resolve().parents[1] / "src"


def _samples():
    K = DigitCantorSet(3, (1, 0))
    return {
        "Gap": Gap(Fraction(1, 3), Fraction(2, 3)),
        "DigitCantorSet": K,
        "ExpansionQ": expand(Fraction(1, 7), 3),
        "CongruenceWitness": congruence_witness(3, 1, (2,), 2, (5,)),
        "ExclusionBound": exclusion_bound(Fraction(1), K, (2,)),
        "ExclusionCertificate": make_certificate(Fraction(1), K, (2,), (12,)),
        "ExceptionalReport": exceptional_geometric(Fraction(1), Fraction(1, 2), K, 3),
        "OrderStabilization": order_stabilization(5, 7),
        "CosetDecomposition": coset_decomposition(7, 2),
    }


SAMPLES = _samples()
NAMES = list(SAMPLES)

# Field names and reprs as the dataclass versions (commit 8969484) gave them.
FIELDS = {
    "Gap": ("left", "right"),
    "DigitCantorSet": ("base", "digits"),
    "ExpansionQ": ("base", "preperiod", "period"),
    "CongruenceWitness": ("q", "t", "primes", "h", "b", "k0", "k_tuple", "exponent"),
    "ExclusionBound": ("alpha", "cantor", "primes", "h", "gap", "b", "k0", "b_hat", "p_hat", "m", "k_alpha",
                       "reduction_r", "empirical_k"),
    "ExclusionCertificate": ("value", "base", "digits", "exponent", "residue", "gap"),
    "ExceptionalReport": ("parameters", "members", "exhausted_bound", "certified_tail", "finiteness_guaranteed"),
    "OrderStabilization": ("p", "q", "k0", "order", "b"),
    "CosetDecomposition": ("modulus", "generator", "orbit_size", "representatives"),
}
_BOUND = (
    "ExclusionBound(alpha=Fraction(1, 1), cantor=DigitCantorSet(base=3, digits=(0, 1)), primes=(2,), h=2, "
    "gap=Gap(left=Fraction(1, 2), right=Fraction(1, 1)), b=1, k0=5, b_hat=1, p_hat=4, m=3, k_alpha=9, "
    "reduction_r=0, empirical_k={})"
)
REPRS = {
    "Gap": "Gap(left=Fraction(1, 3), right=Fraction(2, 3))",
    "DigitCantorSet": "DigitCantorSet(base=3, digits=(0, 1))",
    "ExpansionQ": "ExpansionQ(base=3, preperiod=(), period=(0, 1, 0, 2, 1, 2))",
    "CongruenceWitness": "CongruenceWitness(q=3, t=1, primes=(2,), h=2, b=1, k0=5, k_tuple=(5,), exponent=8)",
    "ExclusionBound": _BOUND.format(4),
    "ExclusionCertificate": (
        "ExclusionCertificate(value=Fraction(1, 4096), base=3, digits=(0, 1), exponent=768, "
        "residue=Fraction(3073, 4096), gap=Gap(left=Fraction(1, 2), right=Fraction(1, 1)))"
    ),
    "ExceptionalReport": (
        "ExceptionalReport(parameters={'alpha': '1/1', 'ratio': '1/2', 'base': 3, 'digits': [0, 1], 'k_max': 3}, "
        f"members=(1, 3), exhausted_bound=3, certified_tail={_BOUND.format(None)}, finiteness_guaranteed=True)"
    ),
    "OrderStabilization": "OrderStabilization(p=5, q=7, k0=2, order=4, b=96)",
    "CosetDecomposition": "CosetDecomposition(modulus=7, generator=2, orbit_size=3, representatives=(1, 3))",
}


def _values(record):
    return [getattr(record, name) for name in record._fields]


@pytest.mark.parametrize("name", NAMES)
def test_fields_and_repr_as_the_dataclasses_gave_them(name):
    record = SAMPLES[name]
    assert type(record).__name__ == name and isinstance(record, Record)
    assert record._fields == FIELDS[name]
    assert repr(record) == REPRS[name]


@pytest.mark.parametrize("name", NAMES)
def test_construction_by_position_and_keyword(name):
    record = SAMPLES[name]
    cls, fields, values = type(record), record._fields, _values(record)
    by_keyword = dict(zip(fields, values))
    assert cls(*values) == record
    assert cls(**by_keyword) == record
    assert cls(**dict(reversed(by_keyword.items()))) == record
    assert cls(values[0], **dict(zip(fields[1:], values[1:]))) == record
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, extra=1)
    with pytest.raises(TypeError):
        cls(*values[:-1], **{fields[0]: values[0], fields[-1]: values[-1]})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Gap(Fraction(1, 2), Fraction(1, 2)), "degenerate gap"),
        (lambda: Gap(right=Fraction(1, 3), left=Fraction(2, 3)), "degenerate gap"),
        (lambda: Gap(Fraction(0), Fraction(3, 2)), "degenerate gap"),
        (lambda: ExpansionQ(3, (), ()), "empty period"),
        (lambda: ExpansionQ(base=3, preperiod=(1,), period=()), "empty period"),
        (lambda: ExpansionQ(3, (), (1, 2, 1, 2)), "repeats a block of length 2"),
        (lambda: ExpansionQ(3, (), (1, 1)), "repeats a block of length 1"),
        (lambda: ExpansionQ(3, (2,), (1, 2)), "preperiod not minimal"),
        (lambda: ExpansionQ(3, (), (3,)), "out of range for base 3"),
        (lambda: DigitCantorSet(3, ("0", 1)), "out of range for base 3"),
        (lambda: DigitCantorSet(base=3, digits=(0, 1, 2)), r"need 1 < #A < q = 3"),
        (lambda: DigitCantorSet(2, (0,)), "need q >= 3"),
    ],
)
def test_post_init_errors_unchanged(build, message):
    with pytest.raises(PreconditionError, match=message):
        build()


def test_post_init_is_looked_up_at_call_time(monkeypatch):
    # a tracer rebinds ExpansionQ.__post_init__ on the class; construction must reach it
    calls = []
    original = ExpansionQ.__post_init__

    def traced(self):
        calls.append(self.period)
        return original(self)

    monkeypatch.setattr(ExpansionQ, "__post_init__", traced)
    expand(Fraction(1, 7), 3)
    ExpansionQ(base=10, preperiod=(), period=(3,))
    assert calls == [(0, 1, 0, 2, 1, 2), (3,)]


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_raise(name):
    record = SAMPLES[name]
    before = repr(record)
    for field in record._fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert repr(record) == before


@pytest.mark.parametrize("name", NAMES)
def test_eq_and_hash_by_exact_class_and_fields(name):
    record = SAMPLES[name]
    cls, values = type(record), _values(record)
    twin = cls(*values)
    assert twin == record and not twin != record and twin is not record
    assert record != tuple(values) and record != None  # noqa: E711
    if name == "ExceptionalReport":  # its parameters are a dict, as with the dataclass
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(twin) == hash(record) == hash(tuple(values))
    # the same fields and values on another class, or on a subclass, are unequal
    other = type("Other", (Record,), {"__annotations__": dict.fromkeys(record._fields, "object")})
    sub = type("Sub", (cls,), {})
    assert other(*values) != record and record != other(*values)
    assert sub(*values) != record and record != sub(*values)
    assert repr(sub(*values)).startswith("Sub(")


def test_unequal_records_of_one_class():
    assert Gap(Fraction(1, 3), Fraction(2, 3)) != Gap(Fraction(1, 3), Fraction(3, 4))
    assert DigitCantorSet(3, (0, 1)) != DigitCantorSet(3, (0, 2))
    assert len({DigitCantorSet(3, (1, 0)), DigitCantorSet(3, (0, 1)), DigitCantorSet(3, (0, 2))}) == 2


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_copy_round_trips(name):
    record = SAMPLES[name]
    copies = [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(record), copy.deepcopy(record)]
    for twin in copies:
        assert type(twin) is type(record)
        assert twin == record and repr(twin) == repr(record)
        with pytest.raises(AttributeError):
            setattr(twin, record._fields[0], None)


def test_digit_cantor_set_cached_properties():
    K = DigitCantorSet(3, (1, 0, 1))
    assert K.digits == (0, 1)  # normalised in __post_init__ by object.__setattr__
    assert (K.allowed, K.min_point, K.max_point) == ({0, 1}, Fraction(0), Fraction(1, 2))
    gap = K.largest_gap
    assert gap == Gap(Fraction(1, 2), Fraction(1)) and K.largest_gap is gap
    assert {"allowed", "min_point", "max_point", "largest_gap"} <= set(vars(K))
    # the cached values take no part in equality, hashing or the repr
    fresh = DigitCantorSet(3, (0, 1))
    assert K == fresh and hash(K) == hash(fresh) and repr(K) == repr(fresh)
    twin = pickle.loads(pickle.dumps(K))
    assert twin == K and twin.largest_gap == gap
    K5 = DigitCantorSet(5, (3, 0, 1))
    assert K5.largest_gap == Gap(Fraction(3, 4), Fraction(1))


def test_import_loads_no_dataclasses_and_every_module():
    # a fresh interpreter, isolated from the environment and site-packages;
    # -B because -I also drops PYTHONDONTWRITEBYTECODE, and src gets no bytecode
    code = "import sys; sys.path.insert(0, sys.argv[1]); import qadic, qadic.cli; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code, str(SRC)], capture_output=True, text=True,
                          check=True, timeout=60)
    loaded = set(proc.stdout.split())
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    modules = ("rational", "kernels", "expansion", "cantor", "certificates", "enumeration", "orders")
    assert {f"qadic.{m}" for m in modules} <= loaded
