"""Exact arithmetic for q-adic expansions, restricted-digit Cantor sets, and
machine-checkable exclusion certificates."""

from qadic.cantor import DigitCantorSet, Gap
from qadic.certificates import (
    CongruenceWitness,
    ExclusionBound,
    ExclusionCertificate,
    certificate_from_dict,
    congruence_witness,
    exclusion_bound,
    make_certificate,
    verify_certificate,
)
from qadic.enumeration import (
    ExceptionalReport,
    all_digits_onset,
    dp_intersection,
    euclid_witness,
    exceptional_geometric,
    exceptional_lattice,
    mult_dependence,
)
from qadic.expansion import (
    ExpansionQ,
    alternate_expansion,
    digit_set,
    expand,
    shift_digits,
)
from qadic.orders import (
    CosetDecomposition,
    OrderStabilization,
    coset_decomposition,
    mult_order,
    orbit_of,
    order_lcm,
    order_of_prime_power,
    order_stabilization,
    product_stabilization,
)
from qadic.rational import (
    PreconditionError,
    euler_phi,
    factorize,
    format_rational,
    is_prime,
    parse_rational,
    split_coprime_part,
)

__version__ = "0.1.0"

__all__ = [
    "DigitCantorSet",
    "Gap",
    "CongruenceWitness",
    "ExclusionBound",
    "ExclusionCertificate",
    "certificate_from_dict",
    "congruence_witness",
    "exclusion_bound",
    "make_certificate",
    "verify_certificate",
    "ExceptionalReport",
    "all_digits_onset",
    "dp_intersection",
    "euclid_witness",
    "exceptional_geometric",
    "exceptional_lattice",
    "mult_dependence",
    "ExpansionQ",
    "alternate_expansion",
    "digit_set",
    "expand",
    "shift_digits",
    "CosetDecomposition",
    "OrderStabilization",
    "coset_decomposition",
    "mult_order",
    "orbit_of",
    "order_lcm",
    "order_of_prime_power",
    "order_stabilization",
    "product_stabilization",
    "PreconditionError",
    "euler_phi",
    "factorize",
    "format_rational",
    "is_prime",
    "parse_rational",
    "split_coprime_part",
    "__version__",
]
