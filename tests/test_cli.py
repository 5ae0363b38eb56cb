import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

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
    ],
)
def test_input_sized_walks_fail_fast(capsys, argv, cap):
    # a period of up to 10**9 digits, or 10**9 and 10**10 points, each once
    # held in a list: no answer in 15 s, 70 MB of stdout, or a MemoryError;
    # or a legal number of points whose denominators sum to far past
    # MAX_SCAN_BITS, such as bound's scan to k_alpha = 13290, which took 4.6 s
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("precondition violated:") and cap in err


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
