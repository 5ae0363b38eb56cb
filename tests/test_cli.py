import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qadic.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_proc(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "qadic", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


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


def test_unprintable_result_is_internal_error(capsys, tmp_path):
    # b for p=101, q=3 has more than 4300 digits, past the int-to-str limit of json.dumps
    out_path = tmp_path / "stab.json"
    for extra in ((), ("--out", str(out_path))):
        code, out, err = run_cli(capsys, "stabilize", "--p", "101", "--q", "3", *extra)
        assert code == 1
        assert out == ""
        assert err.startswith("internal error: ValueError")
        assert err.count("\n") == 1
    assert not out_path.exists()


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


def test_parallel_output_matches_serial():
    args = (
        "enumerate", "--alpha", "1/1", "--q", "3", "--A", "0,1",
        "--primes", "2,5", "--box", "6", "--format", "csv",
    )
    serial = run_proc(*args, env_extra={"QADIC_THREADS": "0"})
    parallel = run_proc(*args, env_extra={"QADIC_THREADS": "3"})
    assert serial.returncode == parallel.returncode == 0
    assert serial.stdout == parallel.stdout


def test_thread_env_validation():
    for value in ("many", "-1", ""):
        result = run_proc(
            "enumerate", "--alpha", "1/1", "--q", "3", "--A", "0,1",
            "--ratio", "1/2", "--k-max", "5",
            env_extra={"QADIC_THREADS": value},
        )
        assert result.returncode == 2
        assert "QADIC_THREADS" in result.stderr


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
