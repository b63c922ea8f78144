import json

import pytest

from drqsim import cli, fock
from drqsim.cli import main
from drqsim.compiler import GATES

BELL = """\
system:
  qubits: q0 q1
  modes: m0 m1
  cutoff: 4
registers:
  D dual_rail m0 m1
  Q internal q0
ancillas:
  qubits: q1
program:
  h D
  cnot D Q
options:
  seed: 7
  shots: 10000
"""


@pytest.fixture
def bell_doc(tmp_path):
    path = tmp_path / "bell.drq"
    path.write_text(BELL)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compile_reports_pulses(bell_doc, capsys):
    code, out, _ = run_cli(capsys, "compile", bell_doc)
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "compile"
    assert report["preparation"]  # phonon loading pulses
    kinds = {p["kind"] for step in report["steps"] for p in step["pulses"]}
    assert kinds <= {"carrier", "rsb", "bs", "zbs", "qphase", "native_xx"}
    assert report["ancilla_manifest"]


def test_run_bell_histogram(bell_doc, capsys):
    code, out, _ = run_cli(capsys, "run", bell_doc)
    assert code == 0
    report = json.loads(out)
    hist = report["histogram"]
    assert sum(hist.values()) == 10000
    assert set(hist) <= {"00", "11"}
    assert report["leakage"] <= 1e-9


def test_run_deterministic_reports(bell_doc, capsys):
    _, out1, _ = run_cli(capsys, "run", bell_doc, "--seed", "21")
    _, out2, _ = run_cli(capsys, "run", bell_doc, "--seed", "21")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "run", bell_doc, "--seed", "22")
    assert out3 != out1


def test_run_report_file(bell_doc, tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "run", bell_doc, "--shots", "16",
                           "--report", str(target))
    assert code == 0
    assert json.loads(target.read_text()) == json.loads(out)


def test_verify_document(bell_doc, capsys):
    code, out, _ = run_cli(capsys, "verify", bell_doc)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert len(report["checks"]) == 2


def test_verify_builtin_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--builtin")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert [c["name"] for c in report["checks"]] == [
        "cbs-decomposition", "tnp-phase", "rzz-truth-table", "hybrid-cnot",
        "hybrid-rxx", "cswap", "su2-universality", "qnd-parity",
        "kcnot-toffoli"]
    assert all(c["equivalent"] for c in report["checks"])


def test_verify_builtin_honours_tol(capsys):
    # Every built-in check has an entry error above 1e-20.
    code, out, _ = run_cli(capsys, "verify", "--builtin", "--tol", "1e-20")
    report = json.loads(out)
    assert code == 1
    assert report["tolerance"] == 1e-20
    assert report["passed"] is False
    assert not any(c["equivalent"] for c in report["checks"])
    code, out, _ = run_cli(capsys, "verify", "--builtin")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_failure_exit_code(bell_doc, capsys):
    # An absurd tolerance turns machine noise into a verification failure.
    code, out, _ = run_cli(capsys, "verify", bell_doc, "--tol", "1e-18")
    assert code == 1
    report = json.loads(out)
    assert report["passed"] is False


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.drq"
    path.write_text(BELL.replace("h D", "FOO D"))
    code, _, err = run_cli(capsys, "compile", str(path))
    assert code == 2
    assert "unknown-gate" in err


def test_cutoff_validation_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.drq"
    path.write_text(BELL.replace("cutoff: 4", "cutoff: 2"))
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 2


def test_health_failure_exit_code(tmp_path, capsys):
    # Loss on an empty mode annihilates the state: numeric-health failure.
    path = tmp_path / "sick.drq"
    path.write_text("""\
system:
  qubits: q0
  modes: m0 m1
  cutoff: 4
registers:
  D dual_rail m0 m1
ancillas:
  qubits: q0
program:
  loss m1
""")
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 3


def test_midcircuit_parity_refused(tmp_path, capsys):
    text = BELL.replace("program:\n  h D\n  cnot D Q",
                        "program:\n  qndcheck D\n  h D")
    path = tmp_path / "mid.drq"
    path.write_text(text)
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 2
    code, out, _ = run_cli(capsys, "run", str(path), "--allow-midcircuit",
                           "--shots", "0")
    assert code == 0
    report = json.loads(out)
    assert report["parity_checks"][0]["parity"] == "odd"


def test_final_parity_check_allowed(tmp_path, capsys):
    text = BELL.replace("program:\n  h D\n  cnot D Q",
                        "program:\n  h D\n  qndcheck D")
    path = tmp_path / "fin.drq"
    path.write_text(text)
    code, out, _ = run_cli(capsys, "run", str(path), "--shots", "0")
    assert code == 0
    report = json.loads(out)
    assert report["parity_checks"][0]["parity"] == "odd"


def test_run_with_injected_loss_reports_leakage(tmp_path, capsys):
    text = BELL.replace("program:\n  h D\n  cnot D Q",
                        "program:\n  h D\n  loss m0")
    path = tmp_path / "loss.drq"
    path.write_text(text)
    code, out, _ = run_cli(capsys, "run", str(path), "--shots", "0")
    assert code == 0
    report = json.loads(out)
    assert report["leakage"] > 0.9


def test_toffoli_example_runs(capsys):
    code, out, _ = run_cli(capsys, "run", "circuits/toffoli.drq")
    assert code == 0
    report = json.loads(out)
    assert report["histogram"] == {"111": 100}


def test_run_reports_bell_amplitudes(bell_doc, capsys):
    code, out, _ = run_cli(capsys, "run", bell_doc, "--shots", "0")
    assert code == 0
    report = json.loads(out)
    amps = [complex(re, im) for re, im in report["logical_amplitudes"]]
    probs = [abs(a) ** 2 for a in amps]
    assert probs[0] == pytest.approx(0.5, abs=1e-9)
    assert probs[3] == pytest.approx(0.5, abs=1e-9)
    assert probs[1] + probs[2] <= 1e-12


def test_mcswap_document_gate(tmp_path, capsys):
    path = tmp_path / "mcswap.drq"
    path.write_text("""\
system:
  qubits: c1 c2 a1 a2
  modes: b2 com m0 m1 m2 m3
  cutoff: 3
registers:
  C1 internal c1
  C2 internal_aux c2 b2
  T1 dual_rail m0 m1
  T2 dual_rail m2 m3
ancillas:
  qubits: a1 a2
  com_mode: com
program:
  x C1
  x C2
  x T1
  mcswap C1 C2 T1 T2
options:
  shots: 50
""")
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0
    report = json.loads(out)
    # Both controls high: T1 and T2 swap, so |1,1,1,0> -> |1,1,0,1>.
    assert report["histogram"] == {"1101": 50}
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0


# --- one small document per unitary gate of the gate table ------------------

HYBRID_SYSTEM = """\
system:
  qubits: q0 a0
  modes: m0 m1 m2 m3
  cutoff: 3
registers:
  Q internal q0
  D1 dual_rail m0 m1
  D2 dual_rail m2 m3
ancillas:
  qubits: a0
"""

BUS_SYSTEM = """\
system:
  qubits: c1 c2 t a0 a1
  modes: c2aux taux com
  cutoff: 3
registers:
  C1 internal c1
  C2 internal_aux c2 c2aux
  T internal_aux t taux
ancillas:
  qubits: a0 a1
  com_mode: com
"""

MCSWAP_SYSTEM = """\
system:
  qubits: c1 c2 a1 a2
  modes: b2 com m0 m1 m2 m3
  cutoff: 3
registers:
  C1 internal c1
  C2 internal_aux c2 b2
  T1 dual_rail m0 m1
  T2 dual_rail m2 m3
ancillas:
  qubits: a1 a2
  com_mode: com
"""


def _single(name):
    angle = "pi*0.3 " if name.startswith("r") else ""
    return HYBRID_SYSTEM, [f"{name} {angle}Q", f"{name} {angle}D1"]


GATE_CASES = {
    **{name: _single(name)
       for name in ("x", "y", "z", "h", "s", "sdg", "rx", "ry", "rz")},
    "rzz": (HYBRID_SYSTEM, ["rzz pi*0.3 D1 D2"]),
    "rxx": (HYBRID_SYSTEM, ["rxx pi*0.3 Q D1"]),
    "xx": (HYBRID_SYSTEM, ["xx pi*0.3 D1 Q"]),
    "cnot": (HYBRID_SYSTEM, ["cnot Q D1", "cnot D2 Q"]),
    "cswap": (HYBRID_SYSTEM, ["cswap Q D1 D2"]),
    "kcnot": (BUS_SYSTEM, ["kcnot C1 C2 T"]),
    "mcx": (BUS_SYSTEM, ["mcx C1 C2 T"]),
    "mcswap": (MCSWAP_SYSTEM, ["mcswap C1 C2 T1 T2"]),
}

UNITARY_GATES = [name for name, spec in GATES.items() if spec.lower]


@pytest.mark.parametrize("name", UNITARY_GATES)
def test_every_unitary_gate_verifies_and_runs(name, tmp_path, capsys):
    system, lines = GATE_CASES[name]
    # A Hadamard on every operand first, so the gate acts on all branches.
    operands = dict.fromkeys(tok for line in lines
                             for tok in line.split()[1:]
                             if not tok.startswith("pi"))
    program = [f"h {op}" for op in operands] + lines
    path = tmp_path / f"{name}.drq"
    path.write_text(system + "program:\n"
                    + "".join(f"  {line}\n" for line in program))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 0, err
    report = json.loads(out)
    assert report["passed"] is True
    assert len(report["checks"]) == len(program)
    code, out, err = run_cli(capsys, "run", str(path), "--shots", "0")
    assert code == 0, err
    assert json.loads(out)["leakage"] <= 1e-9


def _one_ancilla(system):
    return system.replace("qubits: a0 a1\n", "qubits: a0\n").replace(
        "qubits: a1 a2\n", "qubits: a1\n")


# Documents that parse but do not lower: (system, gate line, message).
COMPILE_ERRORS = {
    "cnot-dual-dual": (HYBRID_SYSTEM, "cnot D1 D2",
                       "cnot between two dual-rail qubits is not lowered; "
                       "use rzz with single-qubit gates"),
    "rxx-dual-dual": (HYBRID_SYSTEM, "rxx pi*0.3 D1 D2",
                      "rxx between two dual-rail qubits is not lowered"),
    "rzz-internal": (HYBRID_SYSTEM, "rzz pi*0.3 Q D1",
                     "rzz operands must both be dual-rail"),
    "cswap-dual-control": (HYBRID_SYSTEM, "cswap D1 Q D2",
                           "cswap control must be a logical internal qubit"),
    "cswap-odd-targets": (MCSWAP_SYSTEM, "cswap C1 T1 T2 C2",
                          "cswap needs an even number (>= 2) of targets"),
    "cswap-internal-target": (MCSWAP_SYSTEM, "cswap C1 T1 C2",
                              "cswap targets must be dual-rail qubits"),
    "kcnot-no-aux": (MCSWAP_SYSTEM, "kcnot C2 C1 T1",
                     "'C1' must carry an auxiliary mode for kcnot"),
    "mcx-one-ancilla": (_one_ancilla(BUS_SYSTEM), "mcx C1 C2 T",
                        "multi_controlled: ancilla pool exhausted"),
    "mcswap-one-ancilla": (_one_ancilla(MCSWAP_SYSTEM), "mcswap C1 C2 T1 T2",
                           "multi_controlled: ancilla pool exhausted"),
}


@pytest.mark.parametrize("case", COMPILE_ERRORS)
def test_compile_error_names_the_gate(case, tmp_path, capsys):
    system, line, message = COMPILE_ERRORS[case]
    path = tmp_path / "bad.drq"
    path.write_text(system + f"program:\n  {line}\n")
    for command in ("compile", "run", "verify"):
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2, command
        assert out == ""
        assert err == f"error: gate 0 ({line.split()[0]}): {message}\n"


@pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--shots", "-5")])
def test_negative_seed_or_shots_flag_exit_code(bell_doc, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["run", bell_doc, flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("option", ["seed: -3", "shots: -1", "shots: 2.5"])
def test_bad_seed_or_shots_option_exit_code(tmp_path, capsys, option):
    path = tmp_path / "bad.drq"
    path.write_text(BELL.replace("  seed: 7\n  shots: 10000\n",
                                 f"  {option}\n"))
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert out == ""
    assert option.split(":")[0] in err


def test_huge_shots_flag_exit_code(bell_doc, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", bell_doc, "--shots", "100000000000000000000"])
    assert exc.value.code == 2
    assert str(2 ** 63 - 1) in capsys.readouterr().err


def test_huge_shots_option_exit_code(tmp_path, capsys):
    path = tmp_path / "huge.drq"
    path.write_text(BELL.replace("shots: 10000", "shots: 1e300"))
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert out == ""
    assert str(2 ** 63 - 1) in err


def test_repeated_operand_exit_code(tmp_path, capsys):
    with open("circuits/toffoli.drq", encoding="utf-8") as fh:
        text = fh.read().replace("kcnot C1 C2 T", "mcx C1 C2 C1")
    path = tmp_path / "repeat.drq"
    path.write_text(text)
    for command in ("compile", "run", "verify"):
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert "duplicate" in err


NO_ANCILLA = """\
system:
  qubits: q0
  modes: m0 m1
  cutoff: 4
registers:
  D dual_rail m0 m1
  Q internal q0
program:
  qndcheck D
"""


QNDCHECK_CASES = {
    "internal-target": (BELL.replace("cnot D Q", "qndcheck Q"),
                        "must be dual-rail"),
    "no-ancilla": (NO_ANCILLA, "needs an ancilla"),
}


@pytest.mark.parametrize("case", QNDCHECK_CASES)
def test_qndcheck_operands_checked_by_every_command(tmp_path, capsys, case):
    text, message = QNDCHECK_CASES[case]
    path = tmp_path / "qnd.drq"
    path.write_text(text)
    for command in ("compile", "run", "verify"):
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2, command
        assert out == ""
        assert message in err


def test_verify_honours_zero_tolerance(tmp_path, capsys):
    path = tmp_path / "tol0.drq"
    path.write_text(BELL + "  tolerance: 0\n")
    code, out, _ = run_cli(capsys, "verify", str(path))
    report = json.loads(out)
    assert report["tolerance"] == 0
    assert code == (0 if report["passed"] else 1)


@pytest.mark.parametrize("value", ["-1e-9", "1e999"])
def test_bad_tolerance_option_exit_code(tmp_path, capsys, value):
    path = tmp_path / "tol.drq"
    path.write_text(BELL + f"  tolerance: {value}\n")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert "number" in err


@pytest.mark.parametrize("value", ["-1e-9", "nan", "inf"])
def test_bad_tol_flag_exit_code(bell_doc, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", bell_doc, f"--tol={value}"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_oversized_state_exit_code(tmp_path, capsys):
    # 16 modes at cutoff 10 hold 2e16 amplitudes: compile never needs the
    # state, and run and verify evolve only the basis states it occupies.
    modes = " ".join(f"m{i}" for i in range(16))
    registers = "".join(f"  D{i} dual_rail m{2 * i} m{2 * i + 1}\n"
                        for i in range(8))
    path = tmp_path / "huge.drq"
    path.write_text(f"""\
system:
  qubits: a
  modes: {modes}
  cutoff: 10
registers:
{registers}ancillas:
  qubits: a
program:
  h D0
""")
    code, out, err = run_cli(capsys, "run", str(path), "--shots", "0")
    assert code == 0, err
    assert json.loads(out)["leakage"] <= 1e-9
    code, out, _ = run_cli(capsys, "compile", str(path))
    assert code == 0
    assert json.loads(out)["steps"][0]["gate"] == "h D0"
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 0, err
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == ["gate-0:h D0"]
    assert all(c["equivalent"] for c in checks)


def test_verify_past_int64_exit_code(tmp_path, capsys):
    # 20 modes at cutoff 10 hold 2e20 amplitudes, whose basis indices do
    # not fit in int64.
    modes = " ".join(f"m{i}" for i in range(20))
    path = tmp_path / "past64.drq"
    path.write_text(f"""\
system:
  qubits: a
  modes: {modes}
  cutoff: 10
registers:
  D0 dual_rail m0 m1
  D9 dual_rail m18 m19
ancillas:
  qubits: a
program:
  h D9
""")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 3
    assert err.startswith("numeric health failure: basis indices of "
                          "200000000000000000000 states do not fit in int64")


def test_verify_register_limit_exit_code(tmp_path, capsys):
    qubits = " ".join(f"q{i}" for i in range(9))
    registers = "".join(f"  Q{i} internal q{i}\n" for i in range(9))
    path = tmp_path / "nine.drq"
    path.write_text(f"""\
system:
  qubits: {qubits}
registers:
{registers}program:
  x Q0
  h Q8
""")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert "at most 8 logical qubits" in err
    code, out, _ = run_cli(capsys, "run", str(path), "--shots", "100")
    assert code == 0
    assert set(json.loads(out)["histogram"]) == {"100000000", "100000001"}


def test_health_failure_names_gate(bell_doc, capsys, monkeypatch):
    # A breach inside a gate is reported with the gate's index and text.
    check = cli.check_sentinel
    monkeypatch.setattr(cli, "check_sentinel",
                        lambda state: check(state, tol=-1.0))
    code, _, err = run_cli(capsys, "run", bell_doc, "--shots", "0")
    assert code == 3
    assert err.startswith("numeric health failure: gate 0 (h D): "
                          "sentinel Fock level populated")


@pytest.mark.parametrize("command", ["run", "verify"])
def test_oversized_pulse_matrix_exit_code(bell_doc, capsys, monkeypatch,
                                          command):
    # `h D` lowers to zbs pulses on (q, m0, m1): a 32 x 32 matrix at
    # cutoff 4, one entry past the limit set here.
    monkeypatch.setattr(fock, "MAX_STATE_DIM", 32 ** 2 - 1)
    code, out, err = run_cli(capsys, command, bell_doc)
    assert code == 3
    assert out == ""
    assert err.startswith("numeric health failure: ")
    assert "zbs pulse on ('q1', 'm0', 'm1') needs a 32 x 32 matrix" in err


def test_document_directory_exit_code(tmp_path, capsys):
    code, out, err = run_cli(capsys, "run", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {tmp_path}: ") and "Is a directory" in err


def test_document_not_utf8_exit_code(tmp_path, capsys):
    path = tmp_path / "latin1.drq"
    path.write_bytes(BELL.replace("h D", "h D  # é").encode("latin-1"))
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: ") and "utf-8" in err


def test_report_write_failure_exit_code(bell_doc, tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(capsys, "compile", bell_doc, "--report",
                             str(target))
    assert code == 2
    assert json.loads(out)["command"] == "compile"
    assert err.startswith(f"error: {target}: ") and "No such file" in err

