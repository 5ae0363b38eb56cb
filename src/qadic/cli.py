"""Command line surface: every operation behind one subcommand, exact output only.

JSON is the canonical format (CSV for enumeration tables); every numeric field
is an exact integer or an "s/t" string, never a float.  Exit codes: 0 success,
2 precondition violation (diagnostic names the failed hypothesis), 1 internal
error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from qadic import enumeration, kernels
from qadic.cantor import DigitCantorSet
from qadic.certificates import congruence_witness, exclusion_bound, make_certificate, verify_certificate
from qadic.expansion import digit_set, expand
from qadic.orders import coset_decomposition, mult_order, order_stabilization
from qadic.rational import PreconditionError, factorize, format_rational, parse_natural, parse_rational, valuation

__all__ = ["main"]


def _int_list_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(parse_natural(tok.strip()) for tok in text.split(","))
    except PreconditionError as exc:
        raise PreconditionError(f"malformed integer list {text!r}: {exc}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later one.

    A process that runs main many times pays for the 14 subparsers once.
    parse_args keeps no state between calls: each returns a fresh Namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write output to this path instead of stdout")
    common.add_argument("--format", choices=["json", "csv"], default="json")
    common.add_argument("--emit-config", action="store_true", help="print the parsed run configuration and exit")

    parser = argparse.ArgumentParser(prog="qadic", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("expand", parents=[common], help="canonical base-q expansion of a rational")
    p.add_argument("--x", required=True)
    p.add_argument("--q", required=True, type=int)

    p = sub.add_parser("member", parents=[common], help="membership of x in K(q, A)")
    p.add_argument("--x", required=True)
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--A", required=True)

    p = sub.add_parser("gap", parents=[common], help="largest gap of K(q, A)")
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--A", required=True)

    p = sub.add_parser("order", parents=[common], help="multiplicative order of a modulo m")
    p.add_argument("--a", required=True, type=int)
    p.add_argument("--m", required=True, type=int)

    p = sub.add_parser("stabilize", parents=[common], help="order stabilization data for q modulo powers of p")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--q", required=True, type=int)

    p = sub.add_parser("cosets", parents=[common], help="orbits of multiplication by q on units modulo m")
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--q", required=True, type=int)

    p = sub.add_parser("witness", parents=[common], help="congruence witness exponent for q, t, moduli, h")
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--t", required=True, type=int)
    p.add_argument("--primes", required=True)
    p.add_argument("--h", required=True, type=int)
    p.add_argument("--k", required=True, help="comma-separated exponent tuple")

    p = sub.add_parser("bound", parents=[common], help="exclusion bound k_alpha for alpha over the moduli")
    p.add_argument("--alpha", required=True)
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--A", required=True)
    p.add_argument("--primes", required=True)

    p = sub.add_parser("certify", parents=[common], help="non-membership certificate for alpha / prod(p^k)")
    p.add_argument("--alpha", required=True)
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--A", required=True)
    p.add_argument("--primes", required=True)
    p.add_argument("--k", required=True, help="comma-separated exponent tuple")

    p = sub.add_parser("verify", parents=[common], help="check a certificate file")
    p.add_argument("--cert", required=True, help="path to a certificate JSON file")

    p = sub.add_parser("enumerate", parents=[common], help="scan alpha*ratio**k or alpha/prod(p^k) for members")
    p.add_argument("--alpha", required=True)
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--A", required=True)
    p.add_argument("--ratio")
    p.add_argument("--k-max", type=int, dest="k_max")
    p.add_argument("--primes")
    p.add_argument("--box", type=int)

    p = sub.add_parser("dp", parents=[common], help="members of K(q, A) with denominator dividing p^exp_max")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--A", required=True)
    p.add_argument("--exp-max", required=True, type=int, dest="exp_max")

    p = sub.add_parser("euclid", parents=[common], help="the witness q^k/(q^(k+1)-1) and its expansion")
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--k", required=True, type=int)

    p = sub.add_parser("deps", parents=[common], help="multiplicative dependence of p and q")
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--q", required=True, type=int)

    return parser


def _config_doc(ns: argparse.Namespace) -> dict:
    doc = {"subcommand": ns.subcommand}
    for key in sorted(vars(ns)):
        if key in ("subcommand", "emit_config"):
            continue
        value = getattr(ns, key)
        if value is not None:
            doc[key] = value
    return doc


# Indented json.dumps runs the pure-Python encoder.  The C encoder with this
# separator writes a list's items as the indented form does at depth 1; it
# gets _SLICE items at a time, so no chunk list of a whole long list is built.
_encode_items = json.JSONEncoder(separators=(",\n    ", ": ")).encode
_SLICE = 2048
_SCALARS = frozenset((str, int, bool, type(None)))


def _json_text(doc) -> str:
    """json.dumps(doc, indent=2) + "\\n", byte for byte.

    A dict with str keys whose values are scalars (None, bool, int, str) or
    lists of scalars is rendered here; any other shape, floats and int
    subclasses other than bool included, goes to json.dumps."""
    if type(doc) is not dict or not all(
        type(key) is str and (type(value) in _SCALARS or type(value) is list and _SCALARS.issuperset(map(type, value)))
        for key, value in doc.items()
    ):
        return json.dumps(doc, indent=2) + "\n"
    fields = []
    for key, value in doc.items():
        if type(value) is list and value:
            slices = (_encode_items(value[i:i + _SLICE])[1:-1] for i in range(0, len(value), _SLICE))
            fields.append(f"{json.dumps(key)}: [\n    " + ",\n    ".join(slices) + "\n  ]")
        else:
            fields.append(f"{json.dumps(key)}: {json.dumps(value)}")
    return "{\n  " + ",\n  ".join(fields) + "\n}\n" if fields else "{}\n"


def _csv_table(rows, q: int) -> str:
    """An enumeration table: one CSV row per (index, value, member), with the
    digits of the value's base-q expansion, left empty for a value >= 1.

    The digit cells' period walks share one budget (`kernels.period_steps`):
    past MAX_DIGITS period digits in all, the table raises PreconditionError."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "value", "member", "digit_set"])
    steps = kernels.period_steps(q)
    for index, value, member in rows:
        digits = "" if value >= 1 else " ".join(str(d) for d in sorted(digit_set(value, q, steps)))
        writer.writerow((index, format_rational(value), json.dumps(member), digits))
    return buf.getvalue()


def _enumerate_doc(ns) -> tuple[dict | None, str | None]:
    K = DigitCantorSet(ns.q, _int_list_arg(ns.A))
    alpha = parse_rational(ns.alpha)
    geometric = ns.ratio is not None
    lattice = ns.primes is not None
    if geometric == lattice:
        raise PreconditionError("need exactly one of --ratio (with --k-max) or --primes (with --box)")
    if geometric:
        if ns.k_max is None:
            raise PreconditionError("--ratio requires --k-max")
        ratio = parse_rational(ns.ratio)
        if ns.format == "csv":
            return None, _csv_table(enumeration.geometric_rows(alpha, ratio, K, ns.k_max), ns.q)
        return enumeration.exceptional_geometric(alpha, ratio, K, ns.k_max).to_dict(), None
    if ns.box is None:
        raise PreconditionError("--primes requires --box")
    primes = _int_list_arg(ns.primes)
    if ns.format == "csv":
        rows = enumeration.lattice_rows(alpha, primes, K, ns.box)
        return None, _csv_table(((" ".join(map(str, kt)), v, m) for kt, v, m in rows), ns.q)
    return enumeration.exceptional_lattice(alpha, primes, K, ns.box).to_dict(), None


def _dp_doc(ns) -> tuple[dict | None, str | None]:
    K = DigitCantorSet(ns.q, _int_list_arg(ns.A))
    members = enumeration.dp_intersection(ns.p, K, ns.exp_max)
    if ns.format == "csv":
        primes = [r for r, _ in factorize(ns.p)]
        rows = ((" ".join(str(valuation(x.denominator, r)) for r in primes), x, True) for x in members)
        return None, _csv_table(rows, ns.q)
    return {"members": [format_rational(x) for x in members]}, None


def _dispatch(ns: argparse.Namespace) -> tuple[dict | None, str | None]:
    """Returns (json_doc, raw_text); exactly one is set."""
    cmd = ns.subcommand
    if cmd == "expand":
        e = expand(parse_rational(ns.x), ns.q)
        return {"preperiod": list(e.preperiod), "period": list(e.period)}, None
    if cmd == "member":
        K = DigitCantorSet(ns.q, _int_list_arg(ns.A))
        x = parse_rational(ns.x)
        return {"member": K.contains(x)}, None
    if cmd == "gap":
        K = DigitCantorSet(ns.q, _int_list_arg(ns.A))
        gap = K.largest_gap
        return {"left": format_rational(gap.left), "right": format_rational(gap.right), "length": format_rational(gap.length)}, None
    if cmd == "order":
        return {"order": mult_order(ns.a, ns.m)}, None
    if cmd == "stabilize":
        return order_stabilization(ns.p, ns.q).to_dict(), None
    if cmd == "cosets":
        return coset_decomposition(ns.m, ns.q).to_dict(), None
    if cmd == "witness":
        w = congruence_witness(ns.q, ns.t, _int_list_arg(ns.primes), ns.h, _int_list_arg(ns.k))
        return w.to_dict(), None
    if cmd == "bound":
        K = DigitCantorSet(ns.q, _int_list_arg(ns.A))
        return exclusion_bound(parse_rational(ns.alpha), K, _int_list_arg(ns.primes)).to_dict(), None
    if cmd == "certify":
        K = DigitCantorSet(ns.q, _int_list_arg(ns.A))
        cert = make_certificate(parse_rational(ns.alpha), K, _int_list_arg(ns.primes), _int_list_arg(ns.k))
        return cert.to_dict(), None
    if cmd == "verify":
        try:
            with open(ns.cert, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise PreconditionError(f"cannot read certificate file {ns.cert!r}: {exc}") from None
        except ValueError:  # not JSON, not UTF-8, or an integer past the conversion limit
            return {"valid": False}, None
        return {"valid": verify_certificate(data)}, None
    if cmd == "enumerate":
        return _enumerate_doc(ns)
    if cmd == "dp":
        return _dp_doc(ns)
    if cmd == "euclid":
        x, e, ok = enumeration.euclid_witness(ns.q, ns.k)
        return {"x": format_rational(x), "preperiod": list(e.preperiod), "period": list(e.period), "check": ok}, None
    if cmd == "deps":
        result = enumeration.mult_dependence(ns.p, ns.q)
        if result is None:
            return {"dependent": False, "a": None, "b": None}, None
        return {"dependent": True, "a": result[0], "b": result[1]}, None
    raise PreconditionError(f"unknown subcommand {cmd!r}")


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.format == "csv" and ns.subcommand not in ("enumerate", "dp"):
            raise PreconditionError("csv format is only available for enumeration tables")
        if ns.emit_config:
            _emit(_json_text(_config_doc(ns)), ns.out)
            return 0
        doc, text = _dispatch(ns)
        if text is None:
            text = _json_text(doc)
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _emit(text, ns.out)
    return 0
