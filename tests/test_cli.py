import contextlib
import csv
import io
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from qadic import kernels
from qadic.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_proc(*args):
    return subprocess.run([sys.executable, "-m", "qadic", *args], capture_output=True, text=True)


def test_expand_example(capsys):
    code, out, _ = run_cli(capsys, "expand", "--x", "1/8", "--q", "3")
    assert code == 0
    assert json.loads(out) == {"preperiod": [], "period": [0, 1]}


def test_order_example(capsys):
    code, out, _ = run_cli(capsys, "order", "--a", "2", "--m", "9")
    assert code == 0
    assert json.loads(out) == {"order": 6}


def test_member_and_gap(capsys):
    code, out, _ = run_cli(capsys, "member", "--x", "1/2", "--q", "3", "--A", "0,1")
    assert code == 0
    assert json.loads(out) == {"member": True}
    code, out, _ = run_cli(capsys, "gap", "--q", "3", "--A", "0,1")
    assert code == 0
    assert json.loads(out) == {"left": "1/2", "right": "1/1", "length": "1/2"}


def test_deps_and_euclid(capsys):
    code, out, _ = run_cli(capsys, "deps", "--p", "8", "--q", "4")
    assert json.loads(out) == {"dependent": True, "a": 2, "b": 3}
    code, out, _ = run_cli(capsys, "deps", "--p", "2", "--q", "3")
    assert json.loads(out) == {"dependent": False, "a": None, "b": None}
    code, out, _ = run_cli(capsys, "euclid", "--q", "3", "--k", "1")
    doc = json.loads(out)
    assert (doc["x"], doc["period"], doc["check"]) == ("3/8", [1, 0], True)


def test_deps_fails_fast(capsys):
    # a search for perfect powers took 24-45 s on 4000-digit inputs;
    # Euclid's algorithm by exact division stops at the first remainder
    for p, q, expected in (
        (10**4000 + 1, 10**3999 + 7, {"dependent": False, "a": None, "b": None}),
        (3**8000, 3**4001, {"dependent": True, "a": 4001, "b": 8000}),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "deps", "--p", str(p), "--q", str(q))
        assert time.perf_counter() - start < 1
        assert (code, json.loads(out), err) == (0, expected, "")


def test_witness_exponent_past_int_str_limit_fails_fast(capsys):
    # n0 * 2**(k - r) with k = 20000 has over 6000 digits; it used to be
    # built and powered for 18 s before rendering failed with exit 1
    for k in ("20000", "1000000000"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "witness", "--q", "3", "--t", "1", "--primes", "2", "--h", "2", "--k", k)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert "witness exponent has more than 4300 decimal digits" in err


def test_certify_exponent_past_int_str_limit_fails_fast(capsys):
    for k in ("20000", "1000000000"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "certify", "--alpha", "1", "--q", "3", "--A", "0,1", "--primes", "2", "--k", k)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert "certificate exponent has more than 4300 decimal digits" in err


def test_euclid_at_the_int_str_limit(capsys, int_str_limit):
    # 3**9012 - 1 has 4300 digits and 3**9013 - 1 has 4301; 10**4300 - 1
    # has 4300; the check comes before q**k is built
    for q, k, code_expected in (("3", "9000", 0), ("3", "9011", 0), ("3", "9012", 2), ("10", "4299", 0),
                                ("10", "4300", 2), ("10", "5000", 2), ("10", "1000000000", 2)):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "euclid", "--q", q, "--k", k)
        assert time.perf_counter() - start < 1
        assert code == code_expected
        if code == 2:
            assert out == "" and "denominator q**(k+1) - 1 has more than 4300 decimal digits" in err
        else:
            assert json.loads(out)["check"] is True
    int_str_limit(0)
    code, out, _ = run_cli(capsys, "euclid", "--q", "3", "--k", "9012")
    assert code == 0 and len(json.loads(out)["x"].split("/")[1]) == 4301


def test_certify_verify_round_trip(tmp_path):
    cert_path = tmp_path / "cert.json"
    result = run_proc(
        "certify", "--alpha", "1/1", "--q", "3", "--A", "0,1",
        "--primes", "2", "--k", "12", "--out", str(cert_path),
    )
    assert result.returncode == 0, result.stderr
    data = json.loads(cert_path.read_text())
    assert data["value"] == "1/4096"
    result = run_proc("verify", "--cert", str(cert_path))
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"valid": True}


def test_verify_tampered_and_malformed(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys, "certify", "--alpha", "1/1", "--q", "3", "--A", "0,1",
        "--primes", "2", "--k", "12",
    )
    assert code == 0
    data = json.loads(out)
    data["exponent"] = str(int(data["exponent"]) + 1)
    cert_path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "verify", "--cert", str(cert_path))
    assert code == 0
    assert json.loads(out) == {"valid": False}

    cert_path.write_text("{this is not json")
    code, out, _ = run_cli(capsys, "verify", "--cert", str(cert_path))
    assert code == 0
    assert json.loads(out) == {"valid": False}

    code, _, err = run_cli(capsys, "verify", "--cert", str(tmp_path / "absent.json"))
    assert code == 2
    assert err.startswith("precondition violated:")


def test_precondition_exit_code(capsys):
    code, _, err = run_cli(capsys, "order", "--a", "6", "--m", "9")
    assert code == 2
    assert err.startswith("precondition violated:")
    assert "gcd" in err


def test_unknown_subcommand_exits_two():
    result = run_proc("frobnicate", "--x", "1")
    assert result.returncode == 2


def test_internal_error_exit_code(capsys, monkeypatch):
    import qadic.cli as cli_mod

    def boom(a, m):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli_mod, "mult_order", boom)
    code, _, err = run_cli(capsys, "order", "--a", "2", "--m", "9")
    assert code == 1
    assert err.startswith("internal error: RuntimeError")


def test_unprintable_stabilization_fails_fast(capsys, tmp_path):
    # b for p=101, q=3 has more than 4300 digits, past the int-to-str limit of
    # json.dumps; for p=999983 and q=10 or 2, ord(q mod p**2) is above 10**11,
    # and the error comes before q**ord is built
    out_path = tmp_path / "stab.json"
    for p, q in (("101", "3"), ("999983", "10"), ("999983", "2")):
        for extra in ((), ("--out", str(out_path))):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "stabilize", "--p", p, "--q", q, *extra)
            assert time.perf_counter() - start < 1
            assert code == 2
            assert out == ""
            assert err.startswith("precondition violated:") and "int-to-str limit" in err
            assert err.count("\n") == 1
    assert not out_path.exists()


def test_stabilization_without_int_str_limit(capsys, int_str_limit):
    # with the limit disabled, b for p=101, q=3 prints in full
    int_str_limit(0)
    code, out, _ = run_cli(capsys, "stabilize", "--p", "101", "--q", "3")
    data = json.loads(out)
    assert code == 0
    assert (data["k0"], data["order"]) == (2, 10100)
    assert data["b"] * 101**2 == 3**10100 - 1


def test_no_int_str_limit_falls_back_to_a_cap(capsys, int_str_limit):
    # with the limit disabled, q**ord for p=999983 would have about 10**12
    # digits, and the exponents of witness and certify grow with k; past
    # MAX_PRINT_DIGITS = 10**4 digits each exits 2 before the number is built
    int_str_limit(0)
    for argv, what in (
        (("stabilize", "--p", "999983", "--q", "10"), "stabilization b"),
        (("stabilize", "--p", "999983", "--q", "2"), "stabilization b"),
        (("witness", "--q", "3", "--t", "1", "--primes", "2", "--h", "2", "--k", "40000"), "witness exponent"),
        (("witness", "--q", "3", "--t", "1", "--primes", "2", "--h", "2", "--k", "1000000000"),
         "witness exponent"),
        (("certify", "--alpha", "1", "--q", "3", "--A", "0,1", "--primes", "2", "--k", "40000"),
         "certificate exponent"),
        (("euclid", "--q", "10", "--k", "10000"), "euclid denominator q**(k+1) - 1"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert f"{what} has more than 10000 decimal digits, MAX_PRINT_DIGITS" in err
    code, out, _ = run_cli(capsys, "euclid", "--q", "10", "--k", "9998")
    assert code == 0 and len(json.loads(out)["x"].split("/")[1]) == 9999


def test_csv_limited_to_tables(capsys):
    code, _, err = run_cli(capsys, "expand", "--x", "1/8", "--q", "3", "--format", "csv")
    assert code == 2
    assert "csv" in err


def test_enumerate_flag_validation(capsys):
    base = ["enumerate", "--alpha", "1/1", "--q", "3", "--A", "0,1"]
    code, _, err = run_cli(capsys, *base, "--ratio", "1/2", "--k-max", "5", "--primes", "2", "--box", "5")
    assert code == 2
    code, _, _ = run_cli(capsys, *base)
    assert code == 2
    code, _, err = run_cli(capsys, *base, "--ratio", "1/2")
    assert code == 2
    assert "--k-max" in err


def test_enumerate_json_document(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--alpha", "1/1", "--q", "3", "--A", "0,1",
        "--ratio", "1/2", "--k-max", "12",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["members"] == [1, 3]
    assert doc["finiteness_guaranteed"] is True
    assert doc["certified_tail"]["k_alpha"] == 9
    assert doc["parameters"]["ratio"] == "1/2"


def test_enumerate_members_survive_an_uncomputable_tail(capsys):
    # the certified tail factors alpha's denominator under MAX_RHO_STEPS.
    # 1/(p1 * p2) has a 220-bit semiprime denominator, and 98 / (3**151 - 1)
    # a 206-bit cofactor; the latter meets 2 / (3**151 - 1) = 0.(0...02) at
    # k = 2.  JSON reports the members of the CSV rows with certified_tail
    # null, and bound still exits 2 on it
    p1, p2 = 649037107316853453566312041164889, 1298074214633706907132624082372929
    for alpha, scan, members, indices in ((f"1/{p1 * p2}", ("--ratio", "1/7", "--k-max", "12"), [], []),
                                          (f"98/{3**151 - 1}", ("--ratio", "1/7", "--k-max", "12"), [2], ["2"]),
                                          (f"98/{3**151 - 1}", ("--primes", "7", "--box", "12"), [[2]], ["2"])):
        argv = ("enumerate", "--alpha", alpha, "--q", "3", "--A", "0,2", *scan)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["certified_tail"] is None and doc["members"] == members
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        assert [row["index"] for row in csv.DictReader(io.StringIO(out)) if row["member"] == "true"] == indices
    code, out, err = run_cli(capsys, "bound", "--alpha", f"98/{3**151 - 1}", "--q", "3", "--A", "0,2", "--primes", "7")
    assert code == 2 and out == "" and "MAX_RHO_STEPS" in err


def test_enumerate_csv_frozen(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--alpha", "1/1", "--q", "3", "--A", "0,1",
        "--ratio", "1/2", "--k-max", "4", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == [
        "index,value,member,digit_set",
        "0,1/1,false,",
        "1,1/2,true,1",
        "2,1/4,false,0 2",
        "3,1/8,true,0 1",
        "4,1/16,false,0 1 2",
    ]


def test_lattice_csv_tuple_index(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--alpha", "1/1", "--q", "3", "--A", "0,1",
        "--primes", "2,5", "--box", "1", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,value,member,digit_set"
    assert lines[1] == "0 0,1/1,false,"
    assert lines[2] == "0 1,1/5,false,0 1 2"
    assert lines[3] == "1 0,1/2,true,1"
    assert lines[4] == "1 1,1/10,false,0 2"


def test_dp_csv_frozen(capsys):
    code, out, _ = run_cli(
        capsys, "dp", "--p", "2", "--q", "3", "--A", "0,2",
        "--exp-max", "6", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == [
        "index,value,member,digit_set",
        "0,0/1,true,0",
        "2,1/4,true,0 2",
        "2,3/4,true,0 2",
    ]


def test_dp_json(capsys):
    code, out, _ = run_cli(capsys, "dp", "--p", "2", "--q", "3", "--A", "0,1", "--exp-max", "6")
    assert json.loads(out) == {"members": ["0/1", "1/2", "1/8", "3/8"]}
    code, _, err = run_cli(capsys, "dp", "--p", "3", "--q", "3", "--A", "0,1", "--exp-max", "4")
    assert code == 2
    assert "gcd" in err


def test_byte_identical_reruns(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "enumerate", "--alpha", "2/7", "--q", "5", "--A", "0,2,4",
            "--ratio", "1/3", "--k-max", "40",
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


_FLOAT_PATTERNS = (re.compile(r"[0-9]\.[0-9]"), re.compile(r"[0-9][eE][+-][0-9]"))


def test_no_floating_point_formatting(capsys):
    commands = (
        ("gap", "--q", "10", "--A", "0,3,7"),
        ("stabilize", "--p", "5", "--q", "2"),
        ("witness", "--q", "2", "--t", "1", "--primes", "3", "--h", "1", "--k", "3"),
        ("bound", "--alpha", "1/1", "--q", "3", "--A", "0,2", "--primes", "2"),
        ("certify", "--alpha", "1/1", "--q", "3", "--A", "0,2", "--primes", "2", "--k", "9"),
        ("enumerate", "--alpha", "1/1", "--q", "3", "--A", "0,1", "--ratio", "1/2",
         "--k-max", "30", "--format", "csv"),
        ("cosets", "--m", "8", "--q", "3"),
    )
    for command in commands:
        code, out, _ = run_cli(capsys, *command)
        assert code == 0
        for pattern in _FLOAT_PATTERNS:
            assert not pattern.search(out), (command, pattern.pattern)


def test_emit_config(capsys):
    code, out, _ = run_cli(capsys, "expand", "--x", "1/8", "--q", "3", "--emit-config")
    assert code == 0
    assert json.loads(out) == {"subcommand": "expand", "format": "json", "q": 3, "x": "1/8"}


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "order", "--a", "2", "--m", "9", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == {"order": 6}


_ENUM = ("enumerate", "--alpha", "3/7", "--q", "5", "--A", "0,1,3", "--ratio", "1/11", "--k-max", "6")


@pytest.mark.parametrize(
    "calls",
    [
        [("order", "--a", "2"), ("order", "--a", "2", "--m", "9")],
        [(*_ENUM, "--format", "csv"), _ENUM],
        [("expand", "--x", "1/8", "--q", "3", "--emit-config"), ("expand", "--x", "1/8", "--q", "3")],
        [("order", "--a", "2", "--m", "9", "--out", "{out}"), ("order", "--a", "2", "--m", "9")],
    ],
    ids=["usage-error", "csv-then-json", "emit-config", "out-then-stdout"],
)
def test_repeated_calls_match_fresh_processes(calls, tmp_path, capsys):
    # main reuses one parser per process; no call may see state left by another
    target = tmp_path / "out.json"
    calls = [[str(target) if a == "{out}" else a for a in argv] for argv in calls]
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        written = target.read_text() if target.exists() else None
        target.unlink(missing_ok=True)
        in_process.append((code, capsys.readouterr().out, written))
    for argv, expected in zip(calls, in_process):
        result = run_proc(*argv)
        written = target.read_text() if target.exists() else None
        target.unlink(missing_ok=True)
        assert (result.returncode, result.stdout, written) == expected, argv


def test_certify_unprintable_exponent_fails_fast(capsys):
    # the exponent has about 4800 digits, past the default limit of 4300;
    # the error comes before the shift, which would take seconds
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "certify", "--alpha", "1/1", "--q", "3", "--A", "0,1", "--primes", "2", "--k", "16000"
    )
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("precondition violated:") and "int-to-str limit" in err


def test_witness_and_certify_at_the_exponent_edge(capsys):
    # an exponent just under 4300 digits over a 14000-bit power of 2, one
    # part, so no CRT split: one pow took about 7 s, the 2-adic kernel well
    # under 1 s; the witness rechecks its congruence, the certifier its residue
    for argv, key in (
        (("witness", "--q", "3", "--t", "1", "--primes", "2", "--h", "2", "--k", "14000"), "exponent"),
        (("certify", "--alpha", "1", "--q", "3", "--A", "0,1", "--primes", "2", "--k", "14000"), "exponent"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        assert 4200 < len(json.loads(out)[key]) <= 4300


@pytest.mark.parametrize(
    "argv, cap",
    [
        (("expand", "--x", "1/1000000007", "--q", "10"), "MAX_DIGITS = 1000000"),
        (("expand", "--x", "1/10000019", "--q", "10"), "MAX_DIGITS = 1000000"),
        (("enumerate", "--alpha", "1", "--q", "3", "--A", "0,1", "--ratio", "1/2", "--k-max", "1000000000"),
         "MAX_POINTS = 100000"),
        (("enumerate", "--alpha", "1", "--q", "3", "--A", "0,1", "--primes", "2,5", "--box", "100000"),
         "MAX_POINTS = 100000"),
        (("enumerate", "--alpha", "1", "--q", "3", "--A", "0,1", "--ratio", "1/2", "--k-max", "90000"),
         "MAX_SCAN_BITS = 10000000"),
        (("enumerate", "--alpha", "1", "--q", "10", "--A", "0,1,2,3,4,5,6,7,8", "--primes", "2,5", "--box", "300"),
         "MAX_SCAN_BITS = 10000000"),
        (("bound", "--alpha", str(10**4000 - 1), "--q", "3", "--A", "0,1", "--primes", "2"),
         "MAX_SCAN_BITS = 10000000"),
        (("witness", "--q", "3", "--t", "1", "--primes", "5", "--h", "10000", "--k", "10005"),
         "MAX_POWER_COST = 40000000"),
        (("witness", "--q", "3", "--t", "1", "--primes", "5", "--h", str(2**64 + 1), "--k", str(2**64 + 6)),
         "MAX_POWER_COST = 40000000"),
        (("witness", "--q", "3", "--t", "1", "--primes", "5", "--h", "2230", "--k", "2235"),
         "MAX_POWER_COST = 40000000"),
        (("expand", "--x", "1/" + "9" * 300, "--q", "9" * 2000), "MAX_DIGITS = 1000000"),
        (("enumerate", "--alpha", "1/2", "--q", "9" * 2000, "--A", "0,2", "--ratio", "1/7", "--k-max", "7",
          "--format", "csv"), "MAX_DIGITS = 1000000"),
    ],
)
def test_input_sized_walks_fail_fast(capsys, argv, cap):
    # a period of up to 10**9 digits, or 10**9 and 10**10 points, each once
    # held in a list: no answer in 15 s, 70 MB of stdout, or a MemoryError;
    # or a period walk in a 2000-digit base, past 3 s and 100 MB before a
    # digit past 64 bits counted once per 64 bits against MAX_DIGITS;
    # or a legal number of points whose denominators sum to far past
    # MAX_SCAN_BITS, such as bound's scan to k_alpha = 13290, which took 4.6 s;
    # or a witness base whose phi(t * P**(h+1)) ran for more than 5 s at
    # h = 10000, and at h = 2**64 + 1 would build P**(h+1); at h = 2230 it
    # passed a cap that charged bits(P) - 1 < log2(P) per factor, and took 1.8 s
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("precondition violated:") and cap in err


def test_csv_digit_cells_share_one_max_digits_budget(capsys, monkeypatch):
    # 1/7, 1/14, 1/28 and 1/56 in base 10: each cell walks a 6-digit period
    # and never meets 6 or 9, so the table walks 24 period digits in all
    def table(alpha, k_max):
        return run_cli(capsys, "enumerate", "--alpha", alpha, "--q", "10", "--A", "0,1,2,4,5,7,8", "--ratio", "1/2",
                       "--k-max", str(k_max), "--format", "csv")

    code, out, err = table("1/7", 3)
    assert (code, err) == (0, "")
    monkeypatch.setattr(kernels, "MAX_DIGITS", 24)
    assert table("1/7", 3) == (0, out, "")
    monkeypatch.setattr(kernels, "MAX_DIGITS", 23)
    code, out, err = table("1/7", 3)
    assert (code, out) == (2, "") and "MAX_DIGITS = 23" in err
    for k in range(4):  # each row alone stays under the cap
        assert table(f"1/{7 * 2**k}", 0)[0] == 0


def test_csv_table_past_max_digits_in_all(capsys):
    # in base 2**32 + 1 the rows 1/7**6, 1/(2 * 7**6), 1/7**7 and 1/(2 * 7**7)
    # have periods of 100842 and 705894 digits, each under MAX_DIGITS: the
    # table walked all 1.6 million and printed 17 MB
    argv = ("enumerate", "--alpha", "1/117649", "--q", "4294967297", "--A", "0,2", "--primes", "2,7", "--box", "1",
            "--format", "csv")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("precondition violated:") and "MAX_DIGITS = 1000000 digits in all" in err


def test_witness_and_bound_at_large_sizes(capsys):
    # h = 1000 stays below MAX_POWER_COST; a 2000-digit base took 43 s in
    # bound's scan while skip_zeros computed base**64 on every call
    for argv in (
        ("witness", "--q", "3", "--t", "1", "--primes", "5", "--h", "1000", "--k", "1005"),
        ("bound", "--alpha", "2/3", "--q", "9" * 2000, "--A", "0,2", "--primes", "7"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        assert json.loads(out)


@pytest.mark.parametrize(
    "argv",
    [
        ("dp", "--p", "31607", "--q", "10", "--A", "0,1", "--exp-max", "2"),
        ("dp", "--p", "1000003", "--q", "10", "--A", "0,1", "--exp-max", "4"),
        ("dp", "--p", "2", "--q", "3", "--A", "0,1", "--exp-max", "1000000000"),
        ("cosets", "--m", "1000000007", "--q", "10"),
    ],
)
def test_residue_tables_fail_fast(capsys, argv):
    # each would allocate a byte per residue (10**9 and more) and walk them
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("precondition violated:") and "MAX_RESIDUES" in err


def test_factorization_budget_fails_fast(capsys):
    # 2**128 + 1 = 59649589127497217 * 5704689200685129054721: Brent's method
    # would need about 2 * 10**8 steps to find the smaller factor.  The
    # 3278-bit product of the Mersenne primes 2**61 - 1 and 2**3217 - 1 needs
    # about 2**30, each on 52 words.  Steps weighted by the square of the word
    # count stop each in about 0.15 s on a 2-vCPU x86-64 host; unweighted
    # steps took 1.4 s and 128 s.
    for a, m in ((2, 2**128 + 1), (3, (2**61 - 1) * (2**3217 - 1))):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "order", "--a", str(a), "--m", str(m))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err.startswith("precondition violated:") and "MAX_RHO_STEPS" in err


def test_console_script_installed(tmp_path):
    """The `qadic` entry point declared in pyproject.toml runs as a command.

    The wrapper is the one pip writes for a console script, built from this
    checkout's declaration, so the test neither needs an install nor picks up
    a `qadic` installed from elsewhere.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    spec = tomllib.loads(pyproject.read_text())["project"]["scripts"]["qadic"]
    module, _, func = spec.partition(":")
    wrapper = tmp_path / "qadic"
    wrapper.write_text(
        f"#!{sys.executable}\n"
        "import re\n"
        "import sys\n"
        f"from {module} import {func}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({func}())\n"
    )
    wrapper.chmod(0o755)
    env = dict(os.environ, PATH=os.pathsep.join([str(tmp_path), os.environ.get("PATH", "")]))

    result = subprocess.run(["qadic", "order", "--a", "2", "--m", "9"], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"order": 6}

    result = subprocess.run(["qadic", "expand", "--x", "0.5", "--q", "3"], capture_output=True, text=True, env=env)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("precondition violated:")


@pytest.mark.parametrize(
    "argv",
    [
        ("member", "--x", "1/2", "--q", "3", "--A", ",0,,1,"),
        ("member", "--x", "1/2", "--q", "3", "--A", ""),
        ("member", "--x", "1/2", "--q", "3", "--A", "0,+1"),
        ("member", "--x", "1/2", "--q", "3", "--A", "0,1_0"),
        ("bound", "--alpha", "1/1", "--q", "3", "--A", "0,1", "--primes", "2,,"),
        ("certify", "--alpha", "1/1", "--q", "3", "--A", "0,1", "--primes", "2", "--k", "9" * 5000),
    ],
)
def test_malformed_integer_list_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("precondition violated: malformed integer list")


def test_integer_list_tokens_may_carry_spaces(capsys):
    code, out, _ = run_cli(capsys, "member", "--x", "1/2", "--q", "3", "--A", " 0 , 1 ")
    assert code == 0
    assert json.loads(out) == {"member": True}


def test_verify_oversized_json_integer_is_invalid(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    cert_path.write_text('{"base": ' + "3" * 5000 + "}")
    code, out, _ = run_cli(capsys, "verify", "--cert", str(cert_path))
    assert code == 0
    assert json.loads(out) == {"valid": False}


def test_malformed_rational_rejected(capsys):
    code, _, err = run_cli(capsys, "expand", "--x", "0.5", "--q", "3")
    assert code == 2
    assert err.startswith("precondition violated:")
    code, _, _ = run_cli(capsys, "member", "--x", "1/2", "--q", "3", "--A", "0,x")
    assert code == 2


def _long_division(x, q):
    """(preperiod, period) of x in [0, 1) in base q, stepping a Fraction until it recurs."""
    seen, digits = {}, []
    while x not in seen:
        seen[x] = len(digits)
        digits.append(math.floor(x * q))
        x = x * q - digits[-1]
    return digits[:seen[x]], digits[seen[x]:]


def _in_cantor_set(x, q, A):
    """x in K(q, A), from the digits of x and, if x terminates, of its form ending in q - 1s."""
    if x >= 1:
        return x == 1 and q - 1 in A
    pre, per = _long_division(x, q)
    if set(pre + per) <= A:
        return True
    return per == [0] and bool(pre) and set(pre[:-1] + [pre[-1] - 1, q - 1]) <= A


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--alpha", "1/2", "--q", "1000000", "--A", "0,2", "--ratio", "1/7", "--k-max", "2",
         "--format", "csv"),
        ("enumerate", "--alpha", "1/2", "--q", "9" * 2000, "--A", "0,2", "--ratio", "1/7", "--k-max", "3",
         "--format", "csv"),
        ("dp", "--p", "7", "--q", str(2**70), "--A", "0,2", "--exp-max", "2", "--format", "csv"),
        ("member", "--x", "1/2", "--q", str(10**31), "--A", f"0,{10**30}"),
        ("enumerate", "--alpha", "1/3", "--q", str(10**31), "--A", f"0,{10**30}", "--ratio", "1/7", "--k-max", "5"),
    ],
)
def test_huge_bases_answer_fast(capsys, argv):
    # a digit set was an int bitmask of q bits: the first command took 21 s
    # shifting a 10**6-bit mask once per digit of each cell, the others
    # exited 1 with OverflowError building 1 << q or 1 << d for a digit d of A.
    # Every row, digit cell and member is checked against long division.
    opts = dict(zip(argv[1::2], argv[2::2]))
    q, A = int(opts["--q"]), set(map(int, opts["--A"].split(",")))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    if argv[0] == "member":
        assert json.loads(out) == {"member": _in_cantor_set(Fraction(opts["--x"]), q, A)}
        return
    if argv[0] == "dp":
        N = int(opts["--p"]) ** int(opts["--exp-max"])
        values = sorted({Fraction(a, N) for a in range(N)}, key=lambda x: (x.denominator, x.numerator))
        values = [x for x in values if _in_cantor_set(x, q, A)]
    else:
        alpha, ratio = Fraction(opts["--alpha"]), Fraction(opts["--ratio"])
        values = [alpha * ratio**k for k in range(int(opts["--k-max"]) + 1)]
    if "--format" not in opts:
        assert json.loads(out)["members"] == [k for k, x in enumerate(values) if _in_cantor_set(x, q, A)]
        return
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["index", "value", "member", "digit_set"]
    assert [Fraction(value) for _, value, _, _ in rows[1:]] == values
    for _, value, member, cell in rows[1:]:
        pre, per = _long_division(Fraction(value), q)
        assert cell == " ".join(map(str, sorted(set(pre + per))))
        assert json.loads(member) == _in_cantor_set(Fraction(value), q, A)


# The hostile-input sweep: seeded commands of every subcommand, each argument
# drawn from a sane pool or, one time in three, from a hostile one.  The
# bases include large ones, and a digit set may hold digits next to q.
SWEEP_COMMANDS = 400
_HOSTILE = ("0", "-1", "1/0", "True", "3.0", "", str(2**32 + 1), str(2**64 + 1), "1000003", "9" * 5001)
_INTS = ("1", "2", "3", "5", "7", "10", "12", "97")
_BASES = ("3", "4", "10", "16", str(2**64 + 1), str(10**6), "9" * 2000)
_RATIONALS = ("1/2", "2/3", "1/7", "49/4", "5/4", "10/3", "7" * 300 + "/" + "3" * 300, "1/" + "9" * 300)
_LISTS = ("2", "7", "2,7", "3,5", "0,1,3", "0,0,2", "0,,1", "0," + "9" * 5000)
_POOLS = {
    "a": _INTS, "m": _INTS, "p": _INTS, "t": _INTS, "h": _INTS, "k-max": _INTS, "box": _INTS, "exp-max": _INTS,
    "x": _RATIONALS, "alpha": _RATIONALS, "ratio": _RATIONALS, "q": _BASES, "primes": _LISTS,
    "k": ("1", "5", "40", "300", "2,9", "40,300"),
}
_SUBCOMMANDS = {
    "expand": ("x", "q"), "member": ("x", "q", "A"), "gap": ("q", "A"), "order": ("a", "m"),
    "stabilize": ("p", "q"), "cosets": ("m", "q"), "witness": ("q", "t", "primes", "h", "k"),
    "bound": ("alpha", "q", "A", "primes"), "certify": ("alpha", "q", "A", "primes", "k"),
    "enumerate": ("alpha", "q", "A"), "dp": ("p", "q", "A", "exp-max"), "euclid": ("q", "k"),
    "deps": ("p", "q"), "verify": ("cert",),
}


def _json_value(text):
    return int(text) if text.lstrip("-").isdigit() and len(text) < 4300 else text


def _certificate_text(rng):
    """A certificate's JSON with one field hostile, or one time in ten a hostile text."""
    if rng.random() < 0.1:
        return rng.choice(_HOSTILE)
    base = int(rng.choice(_BASES))
    doc = {"value": "1/7", "base": base, "digits": [0, base - 1], "exponent": "1", "residue": "1/7",
           "gap": {"left": "1/3", "right": "2/3"}}
    doc[rng.choice(sorted(doc))] = rng.choice([True, None, 3.0, [], {}, *map(_json_value, _HOSTILE + _LISTS)])
    return json.dumps(doc)


def _sweep_value(rng, field, argv, cert):
    if field == "cert":
        cert.write_text(_certificate_text(rng), encoding="utf-8")
        return str(cert)
    if rng.random() < 1 / 3:
        return rng.choice(_HOSTILE + _LISTS)
    if field == "A":
        q = _json_value(argv[argv.index("--q") + 1])
        q = q if type(q) is int else 10
        return rng.choice(("0,2", "0,1", "1,3", "0,1,5", f"0,{q - 1}", f"{q - 2},{q - 1}", f"1,{q - 1}", f"0,{q}"))
    return rng.choice(_POOLS[field])


def _sweep_command(rng, cert):
    subcommand = rng.choice(sorted(_SUBCOMMANDS))
    fields = _SUBCOMMANDS[subcommand]
    if subcommand == "enumerate":
        fields += ("ratio", "k-max") if rng.random() < 0.5 else ("primes", "box")
    argv = [subcommand]
    for field in fields:
        argv += [f"--{field}", _sweep_value(rng, field, argv, cert)]
    if subcommand in ("enumerate", "dp") and rng.random() < 1 / 3:
        argv += ["--format", "csv"]
    return argv


class _Overtime(BaseException):
    """Raised by SIGALRM; not an Exception, so main cannot turn it into exit 1."""


def _exit_code_within(argv, seconds):
    """main(argv)'s exit code, argparse's included, or "overtime" past the given seconds."""

    def overtime(signum, frame):
        raise _Overtime

    previous = signal.signal(signal.SIGALRM, overtime)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)
    except SystemExit as exc:
        return exc.code
    except _Overtime:
        return "overtime"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
def test_seeded_hostile_inputs_exit_0_or_2(tmp_path):
    # no input may crash (exit 1) or hang (past 3 s).  Its first runs found
    # period walks in a base of 2000 digits running on past 3 s with digit
    # sets of hundreds of MB, until a digit past 64 bits counted once per
    # 64 bits against MAX_DIGITS
    rng = random.Random(12)
    start = time.perf_counter()
    failures = []
    for _ in range(SWEEP_COMMANDS):
        argv = _sweep_command(rng, tmp_path / "cert.json")
        code = _exit_code_within(argv, 3)
        if code not in (0, 2):
            failures.append((code, [a if len(a) < 40 else f"<{len(a)} characters>" for a in argv]))
    assert failures == []
    assert time.perf_counter() - start < 5
