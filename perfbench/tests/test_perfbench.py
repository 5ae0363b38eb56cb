"""Tests of the benchmark itself: python3 -m pytest -q perfbench/tests"""

import json
import os
import re
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import jobs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

import qadic.cli  # noqa: E402
import qadic.orders  # noqa: E402
import qadic.rational  # noqa: E402


def _first_rounds(workload, seed, n=3):
    it = jobs.rounds(workload, seed)
    return [[(j.kind, j.argv, j.params) for j in next(it)] for _ in range(n)]


def test_generator_is_deterministic_per_seed():
    for workload in jobs.WORKLOADS:
        assert _first_rounds(workload, 7) == _first_rounds(workload, 7)
        assert _first_rounds(workload, 7) != _first_rounds(workload, 8)


def test_every_round_has_the_same_slots():
    for workload in jobs.WORKLOADS:
        kinds = [[kind for kind, _, _ in rnd] for rnd in _first_rounds(workload, 3, 6)]
        if workload == "certify":
            # 3, 4 or 5 certify jobs, each followed later by its verify
            assert all(k[0] == "bound" and k.count("certify") == k.count("verify") in (3, 4, 5) for k in kinds)
        else:
            assert all(k == kinds[0] for k in kinds)


def _record(store, argv, kind, params):
    rec = run.run_job(jobs.Job(kind, tuple(argv), params), {}, store)
    assert rec.error is None
    return rec


def _tampered(store, rec, text):
    return run.Record(rec.kind, rec.argv, rec.params, rec.latency, None, text, store)


def test_planted_wrong_answers_are_counted_as_failures(tmp_path):
    with run.OutputStore(str(tmp_path / "outputs.bin")) as store:
        member = _record(store, ["member", "--x", "1/4", "--q", "3", "--A", "0,2"], "member",
                         {"x": "1/4", "q": 3, "A": [0, 2]})
        order = _record(store, ["order", "--a", "3", "--m", "1000003"], "order", {"a": 3, "m": 1000003})
        assert json.loads(store.get(member.where)) == {"member": True}
        flipped = _tampered(store, member, json.dumps({"member": False}))
        true_order = json.loads(store.get(order.where))["order"]
        wrong = _tampered(store, order, json.dumps({"order": true_order + 1}))
        records = [member, order, flipped, wrong]
        verdicts = run.check(records, store)
    assert verdicts[:2] == [None, None]
    assert all(v is not None for v in verdicts[2:])
    metrics = run.end_to_end([0.01] * 100, verdicts * 25, 30 * 1024, 0.05)
    assert list(metrics) == list(run.END_TO_END)
    assert metrics["ok_frac"][0] == 0.5


def test_failed_job_is_a_failure_not_a_crash(tmp_path):
    with run.OutputStore(str(tmp_path / "outputs.bin")) as store:
        rec = run.run_job(jobs.Job("order", ("order", "--a", "2", "--m", "4"), {"a": 2, "m": 4}), {}, store)
        assert rec.error is not None and rec.error.startswith("exit code 2")
        assert run.check([rec], store) == [rec.error]


def test_oracles_on_known_values():
    assert oracles.member(Fraction(1, 4), 3, {0, 2})
    assert oracles.member(Fraction(2, 3), 3, {1, 2})  # only as 0.1222...
    assert not oracles.member(Fraction(1, 2), 3, {0, 2})
    assert not oracles.member(Fraction(1, 3), 3, {1, 2})  # 0.1000... and 0.0222... both fail
    assert oracles.largest_gaps(3, [0, 2]) == [(Fraction(1, 3), Fraction(2, 3))]
    assert oracles.largest_gaps(5, [0, 1, 3]) == [(Fraction(7, 20), Fraction(3, 5)), (Fraction(3, 4), Fraction(1))]
    assert oracles.expansion(Fraction(1, 6), 10) == ([1], [6])
    assert oracles.dp_members(7, 3, [0, 2]) == [Fraction(0)]


def test_tracer_patches_every_binding_site_and_restores_it():
    originals = {
        "factorize": qadic.rational.factorize,
        "mult_order": qadic.orders.mult_order,
        "main": qadic.cli.main,
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module in [m for n, m in sys.modules.items() if n.startswith("qadic")]:
            for value in vars(module).values():
                assert all(value is not fn for fn in originals.values())
        assert qadic.orders.factorize is not originals["factorize"]
    finally:
        tracer.remove()
    assert qadic.orders.factorize is originals["factorize"]
    assert qadic.cli.mult_order is originals["mult_order"]
    assert qadic.cli.main is originals["main"]


def test_metric_names_are_well_formed_and_declared():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared_e2e = [m["name"] for m in spec["end_to_end"]]
    declared_layer = [m["name"] for m in spec["per_layer"]]
    assert declared_e2e == list(run.END_TO_END)
    assert declared_layer == list(run.PER_LAYER)
    for name in declared_e2e + declared_layer:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert {w["name"] for w in spec["workloads"]} == set(jobs.WORKLOADS)
