"""Per-layer spans around qadic's public functions, installed from outside.

`Tracer.install()` replaces each traced function at every place it is bound
(module globals in every loaded `qadic.*` module, or the class attribute for
methods) with a wrapper that times the call and counts what it returns.
`Tracer.remove()` puts every original back and checks that none is missed.
Spans are aggregated in memory while jobs run; `metrics()` reads them out at
the end of the run.

Self time is a span's duration minus the spans of traced calls inside it.
Inclusive time counts only the outermost call of a name, so a function that
reaches itself through another traced one is not counted twice.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

import qadic.cantor
import qadic.expansion


def _true(args, result):
    return 1 if result else 0


# (span name, owner, attribute, counters).  An owner given as a string is a
# module; a class means a method.  Each counter sums f(args, result) over the
# calls; "true" becomes a fraction of calls and "den_bits" a mean per call.
TRACED = [
    ("kernels.scan_allowed", "qadic.kernels", "scan_allowed",
     {"den_bits": lambda a, r: a[1].bit_length(), "true": _true}),
    ("kernels.digit_cycle", "qadic.kernels", "digit_cycle", {"digits": lambda a, r: len(r[0]) + len(r[1])}),
    ("kernels.digit_mask", "qadic.kernels", "digit_mask", {}),
    ("expansion.expand", "qadic.expansion", "expand", {}),
    ("expansion.value", qadic.expansion.ExpansionQ, "value", {}),
    ("expansion.validate", qadic.expansion.ExpansionQ, "__post_init__", {}),
    ("expansion.shift_digits", "qadic.expansion", "shift_digits", {}),
    ("expansion.digit_set", "qadic.expansion", "digit_set", {}),
    ("cantor.contains", qadic.cantor.DigitCantorSet, "contains", {"true": _true}),
    ("orders.mult_order", "qadic.orders", "mult_order", {}),
    ("orders.coset_decomposition", "qadic.orders", "coset_decomposition", {"residues": lambda a, r: a[0]}),
    ("orders.orbit_of", "qadic.orders", "orbit_of", {}),
    ("orders.order_stabilization", "qadic.orders", "order_stabilization", {}),
    ("rational.factorize", "qadic.rational", "factorize", {}),
    ("rational.euler_phi", "qadic.rational", "euler_phi", {}),
    ("rational.split_coprime_part", "qadic.rational", "split_coprime_part", {}),
    ("rational.is_prime", "qadic.rational", "is_prime", {}),
    ("certificates.exclusion_bound", "qadic.certificates", "exclusion_bound", {}),
    ("certificates.make_certificate", "qadic.certificates", "make_certificate", {}),
    ("certificates.verify_certificate", "qadic.certificates", "verify_certificate", {"true": _true}),
    ("enumeration.exceptional_geometric", "qadic.enumeration", "exceptional_geometric", {}),
    ("enumeration.exceptional_lattice", "qadic.enumeration", "exceptional_lattice", {}),
    ("enumeration.dp_intersection", "qadic.enumeration", "dp_intersection", {}),
    ("enumeration.par", "qadic._par", "pmap", {"items": lambda a, r: len(a[1])}),
    ("cli.main", "qadic.cli", "main", {}),
]

LAYERS = ("kernels", "expansion", "cantor", "orders", "rational", "certificates", "enumeration", "cli")


def _qadic_modules():
    return [m for name, m in list(sys.modules.items()) if name == "qadic" or name.startswith("qadic.")]


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Installs the wrappers, collects the spans, and restores the originals."""

    def __init__(self):
        self.stats = {name: Stat(counts=dict.fromkeys(counters, 0)) for name, _, _, counters in TRACED}
        self.raised = {layer: 0 for layer in LAYERS}
        self._stack = []  # [child time] per open span
        self._depth = {name: 0 for name, *_ in TRACED}
        self._patched = []  # (holder, attribute, original)

    def _wrap(self, name, fn, counters):
        stat = self.stats[name]
        layer = name.split(".")[0]
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        def traced(*args, **kwargs):
            depth[name] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[layer] += 1
                raise
            finally:
                dur = clock() - start
                child = stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1] += dur
                stat.calls += 1
                stat.self_s += dur - child
                if depth[name] == 0:
                    stat.s += dur
            for key, count in counters.items():
                stat.counts[key] += count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = _qadic_modules()
        for name, owner, attr, counters in TRACED:
            if isinstance(owner, str):
                original = vars(sys.modules[owner])[attr]
                # every module that bound the function, under any name
                sites = [(m, key) for m in modules for key, value in vars(m).items() if value is original]
            else:
                original = vars(owner)[attr]
                sites = [(owner, attr)]
            wrapper = self._wrap(name, original, counters)
            for holder, key in sites:
                setattr(holder, key, wrapper)
                self._patched.append((holder, key, original))

    def remove(self):
        wrappers = [getattr(holder, key) for holder, key, _ in self._patched]
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()
        for module in _qadic_modules():
            for key, value in vars(module).items():
                if any(value is w for w in wrappers):
                    raise RuntimeError(f"traced wrapper left in {module.__name__}.{key}")

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        out = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        for name, stat in self.stats.items():
            put(f"{name}.calls", stat.calls, "count")
            put(f"{name}.s", stat.s, "s")
            put(f"{name}.self_s", stat.self_s, "s")
            per_call = (lambda total: total / stat.calls) if stat.calls else (lambda total: 0.0)
            for key, total in stat.counts.items():
                if key == "true":
                    put(f"{name}.true_frac", per_call(total), "frac")
                elif key == "den_bits":
                    put(f"{name}.den_bits", per_call(total), "bits")
                else:
                    put(f"{name}.{key}", total, "count")
        for layer, count in self.raised.items():
            put(f"{layer}.raised", count, "count")
        return out
