import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drqsim import cli, fock, pulses, verify
from drqsim.cli import main
from drqsim.compiler import GATES, lower
from drqsim.document import parse_circuit, serialize_circuit
from drqsim.errors import DocumentError
from drqsim.pulses import beamsplitter, carrier
from drqsim.suite import haar_unitary

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
    """Exit code, stdout and stderr of `main`, argparse's exit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
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


def test_haar_unitary_draws_like_scipy():
    # The su2-universality check draws with suite.haar_unitary; equal
    # draws keep its --builtin line what scipy.stats used to give.
    from scipy.stats import unitary_group
    ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(50):
        assert np.array_equal(haar_unitary(ours, 2),
                              unitary_group.rvs(2, random_state=theirs))


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
    assert err == ("error: gate 0 (qndcheck D): qndcheck before the end of "
                   "the program disturbs the modes; pass --allow-midcircuit "
                   "for idealized studies\n")
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


# A dense jump matrix at this cutoff would need 14.6 TiB.
HUGE_MODE = ("system:\n  qubits: q0\n  modes: m0\n  cutoff: 1000000\n"
             "registers:\n  Q internal q0\nprogram:\n  x Q\n  {} m0\n")
# The phonon that `gain com` puts on the bus leaves the first pool
# ancilla excited after the mcx ladder, so reading D out through it is a
# health failure.
BUS_GAIN = """\
system:
  qubits: c1 c2 t a0 a1 a2
  modes: b2 d0 d1 com
  cutoff: 4
registers:
  C1 internal c1
  C2 internal_aux c2 b2
  T internal t
  D dual_rail d0 d1
ancillas:
  qubits: a0 a1 a2
  com_mode: com
program:
  x C1
  x C2
  gain com
  mcx C1 C2 T
"""


@pytest.mark.parametrize("text, shots, code, err", [
    (HUGE_MODE.format("gain"), "0", 0, ""),
    (HUGE_MODE.format("loss"), "0", 3,
     "numeric health failure: gate 1 (loss m0): loss on 'm0' "
     "annihilates the state\n"),
    (BUS_GAIN, "10", 3,
     "numeric health failure: ancilla 'a0' is not in the ground state\n"),
], ids=["gain", "loss", "excited-readout-ancilla"])
def test_heating_jump_on_a_huge_mode(tmp_path, capsys, text, shots, code,
                                     err):
    path = tmp_path / "heat.drq"
    path.write_text(text)
    got, out, stderr = run_cli(capsys, "run", str(path), "--shots", shots)
    assert (got, stderr) == (code, err)
    if code == 0:
        assert json.loads(out)["leakage"] == 1.0


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
        assert err == f"error: gate 0 ({line}): {message}\n"


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


def test_seed_and_shots_options_past_float_precision(bell_doc, tmp_path,
                                                    capsys):
    # Both values round as floats (2**53 < shots < 2**63); the document
    # reads them exactly, as the flags do.
    seed, shots = "12345678901234567891", "9007199254740993"
    text = BELL.replace("seed: 7", f"seed: {seed}").replace(
        "shots: 10000", f"shots: {shots}")
    path = tmp_path / "big.drq"
    path.write_text(text)
    from_doc = run_cli(capsys, "run", str(path))
    from_flags = run_cli(capsys, "run", bell_doc, "--seed", seed,
                         "--shots", shots)
    assert from_doc == from_flags
    report = json.loads(from_doc[1])
    assert (report["seed"], report["shots"]) == (int(seed), int(shots))
    assert sum(report["histogram"].values()) == int(shots)
    assert serialize_circuit(parse_circuit(text)) == text


def test_seed_option_past_float_range(bell_doc, tmp_path, capsys):
    # float() of this seed overflows; the document reads it as an
    # integer, as the flag does.
    seed = "1" + "0" * 400
    path = tmp_path / "huge_seed.drq"
    path.write_text(BELL.replace("seed: 7", f"seed: {seed}"))
    from_doc = run_cli(capsys, "run", str(path), "--shots", "5")
    from_flag = run_cli(capsys, "run", bell_doc, "--seed", seed,
                        "--shots", "5")
    assert from_doc[0] == 0
    assert from_doc == from_flag


def test_seed_option_past_the_int_digit_limit_exit_code(tmp_path, capsys):
    # Python's int reads at most 4300 digits, and `--seed` refuses more.
    path = tmp_path / "digits.drq"
    path.write_text(BELL.replace("seed: 7", "seed: " + "1" * 5000))
    code, out, err = run_cli(capsys, "run", str(path))
    assert (code, out) == (2, "")
    assert err == "error: number (line 14): seed has too many digits\n"


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


@pytest.mark.parametrize("line,text,message", [
    (8, "D dual_rail q0 q1", "'D': subsystem 'q0' must be a mode"),
    (8, "D dual_rail m0 m0", "'D' reuses a subsystem"),
    (8, "D dual_rail m0",
     "arity (line 8): dual_rail takes 2 subsystems, got 1"),
    (13, "rx", "arity (line 13): rx takes 1 parameter(s)"),
    (13, "rx 0.1 0.2 D", "arity (line 13): rx: too many numeric parameters"),
    (4, "qubits: q0 q0", "duplicate (line 4): repeated qubit id"),
    (11, "com_mode: m9",
     "reference (line 0): com_mode 'm9' is not a declared mode"),
    (13, "loss q0", "reference (line 13): loss target 'q0' is not a mode"),
], ids=["rail-kind", "rail-reuse", "rail-arity", "param-missing",
        "param-extra", "qubit-repeat", "com-undeclared", "loss-qubit"])
def test_bell_line_diagnostic(tmp_path, capsys, line, text, message):
    with open("circuits/bell.drq", encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    lines[line - 1] = f"  {text}\n"
    path = tmp_path / "bad.drq"
    path.write_text("".join(lines))
    for command in ("compile", "run", "verify"):
        assert run_cli(capsys, command, str(path)) == (
            2, "", f"error: {message}\n"), command


@pytest.mark.parametrize("old,new,message", [
    ("m0", "1", "validation (line 3): mode id '1' reads as a number"),
    ("q1", "pi*2", "validation (line 2): qubit id 'pi*2' reads as a number"),
])
def test_numeric_subsystem_id_refused_at_its_system_line(
        tmp_path, capsys, old, new, message):
    # A program operand that reads as a number is taken for a parameter,
    # so `loss 1` could never name a mode `1`: the id itself is refused.
    path = tmp_path / "numeric.drq"
    path.write_text(BELL.replace(old, new).replace(
        "  cnot D Q\n", f"  cnot D Q\n  loss {new}\n"))
    for command in ("compile", "run", "verify"):
        assert run_cli(capsys, command, str(path)) == (
            2, "", f"error: {message}\n"), command


def test_document_without_subsystems_exit_code(tmp_path, capsys):
    path = tmp_path / "empty.drq"
    path.write_text("program:\n")
    for command in ("compile", "run", "verify"):
        assert run_cli(capsys, command, str(path)) == (
            2, "", "error: layout needs at least one subsystem\n"), command


def test_verify_needs_a_document_or_builtin(capsys):
    code, out, err = run_cli(capsys, "verify")
    assert (code, out) == (2, "")
    assert err.endswith(
        "drqsim: error: verify needs a document or --builtin\n")


NEGATIVE_ZERO = """\
system:
  qubits: q0
  modes: m0 m1 m2 m3
registers:
  D1 dual_rail m0 m1
  D2 dual_rail m2 m3
ancillas:
  qubits: q0
program:
  rzz -0 D1 D2
"""


def test_negative_zero_angle_survives_serialization(tmp_path, capsys):
    original = tmp_path / "original.drq"
    original.write_text(NEGATIVE_ZERO)
    written = tmp_path / "written.drq"
    written.write_text(serialize_circuit(parse_circuit(NEGATIVE_ZERO)))
    code, out, _ = run_cli(capsys, "compile", str(original))
    assert code == 0 and '"theta": -0.0' in out
    assert run_cli(capsys, "compile", str(written)) == (code, out, "")


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


@pytest.mark.parametrize("command,key,flag,value,want", [
    ("run", "seed", "--seed", "1e3", 0),
    ("run", "seed", "--seed", "5_000", 2),
    ("run", "seed", "--seed", "-1", 2),
    ("run", "seed", "--seed", "2.5", 2),
    ("run", "shots", "--shots", "1e2", 0),
    ("verify", "tolerance", "--tol", "pi*1e-9", 0),
    ("verify", "tolerance", "--tol", "nan", 2),
])
def test_flag_reads_like_its_option(tmp_path, capsys, command, key, flag,
                                    value, want):
    bare = BELL.replace("  seed: 7\n  shots: 10000\n", "")
    without = tmp_path / "bare.drq"
    without.write_text(bare)
    with_option = tmp_path / "option.drq"
    with_option.write_text(bare + f"  {key}: {value}\n")
    code, out, err = run_cli(capsys, command, str(with_option))
    flag_code, flag_out, flag_err = run_cli(capsys, command, str(without),
                                            f"{flag}={value}")
    assert (flag_code, flag_out) == (code, out)
    assert code == want
    if code:
        # The option's message, without its code and line.
        message = err.split("): ", 1)[1]
        assert flag_err.endswith(f"argument {flag}: {message}")


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


def test_run_without_registers_reads_the_empty_string(tmp_path, capsys):
    # No logical qubit: one codeword, the empty bit string, holds every
    # shot and the whole amplitude.
    path = tmp_path / "bare.drq"
    path.write_text("system:\n  qubits: q0\nprogram:\n")
    code, out, err = run_cli(capsys, "run", str(path), "--shots", "10")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["histogram"] == {"": 10}
    assert report["logical_amplitudes"] == [[1.0, 0.0]]


def _ghz_document(path, header, register, others):
    """`h` on `register`, then a `cnot` from it to each of `others`."""
    path.write_text(header + "program:\n  h " + register + "\n" + "".join(
        f"  cnot {register} {other}\n" for other in others))
    return str(path)


def _assert_ghz_counts(report, n, shots):
    """Only the all-zero and all-one strings of n bits, each within 6
    sigma of half the shots."""
    hist = report["histogram"]
    assert set(hist) == {"0" * n, "1" * n}
    assert sum(hist.values()) == shots
    for count in hist.values():
        assert abs(count - shots / 2) <= 6 * np.sqrt(shots / 4)


def _internal_ghz(tmp_path, n):
    """The GHZ document of n internal qubits, Q0 first."""
    qubits = [f"q{i}" for i in range(n)]
    return _ghz_document(
        tmp_path / f"qubits{n}.drq",
        "system:\n  qubits: " + " ".join(qubits) + "\nregisters:\n"
        + "".join(f"  Q{i} internal {q}\n" for i, q in enumerate(qubits)),
        "Q0", [f"Q{i}" for i in range(1, n)])


def test_register_past_the_dense_limit_runs(tmp_path, capsys):
    # 26 internal qubits have 2**26 codewords, past fock.MAX_STATE_DIM:
    # readout classifies the support rows and never builds them, and the
    # report leaves out the amplitudes past 64 codewords.
    path = _internal_ghz(tmp_path, 26)
    code, out, err = run_cli(capsys, "run", path, "--shots", "1000")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert "logical_amplitudes" not in report
    assert report["leakage"] <= 1e-9
    _assert_ghz_counts(report, 26, 1000)


def test_widest_register_reads_its_two_strings(tmp_path, capsys):
    # 63 internal qubits hold 2**63 basis states, the most that `run`
    # takes: its outcome codes reach 2**63 - 1, the int64 maximum, and
    # the GHZ state reads only its two 63-bit strings.  64 qubits exit 3.
    path = _internal_ghz(tmp_path, 63)
    code, out, err = run_cli(capsys, "run", path, "--shots", "1000")
    assert code == 0 and err == ""
    _assert_ghz_counts(json.loads(out), 63, 1000)
    path = _internal_ghz(tmp_path, 64)
    code, out, err = run_cli(capsys, "run", path, "--shots", "1000")
    assert code == 3 and out == "" and "do not fit in int64" in err


def test_verify_past_int64_exit_code(tmp_path, capsys):
    # 20 modes at cutoff 10 hold 2e20 amplitudes, whose basis indices do
    # not fit in int64, but `h D9` is evolved on its footprint alone:
    # m18, m19 and the ancilla, 200 states.
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
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 0, err
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == ["gate-0:h D9"]
    assert all(c["equivalent"] for c in checks)


@pytest.mark.parametrize("n", [13, 16])
def test_hybrid_register_past_int64_verifies(tmp_path, capsys, n):
    # n + n hybrid registers of 2^(5n+2) states, 2^67 and 2^82: no gate
    # touches more than two logical qubits, so each footprint fits.
    from test_support import hybrid_document
    path = tmp_path / "hybrid.drq"
    path.write_text(hybrid_document(n, 40, seed=6))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 0, err
    checks = json.loads(out)["checks"]
    assert len(checks) == 40
    assert all(c["equivalent"] for c in checks)


def test_verify_footprint_past_int64_exit_code(tmp_path, capsys,
                                              monkeypatch):
    # One dual-rail qubit and 63 pool ancillas: the footprint of any gate
    # on D holds 2^63 * 16 states, whose basis indices do not fit in
    # int64, and nothing is evolved.  The error names the first step
    # checked; `verify` does not check a heating jump.
    def evolved(*args, **kwargs):
        raise AssertionError("apply_pulses called")

    monkeypatch.setattr(verify, "apply_pulses", evolved)
    ancillas = " ".join(f"a{i}" for i in range(63))
    path = tmp_path / "pool63.drq"
    for program, named in [(["h D"], "gate 0 (h D)"),
                           (["gain m0", "x D", "h D", "x D"], "gate 1 (x D)")]:
        path.write_text(f"""\
system:
  qubits: {ancillas}
  modes: m0 m1
  cutoff: 4
registers:
  D dual_rail m0 m1
ancillas:
  qubits: {ancillas}
program:
""" + "".join(f"  {line}\n" for line in program))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 3 and out == ""
        assert err.startswith(f"numeric health failure: {named}: basis "
                              f"indices of {2 ** 67} states do not fit in "
                              "int64")


def test_verify_columns_past_int64_exit_code(tmp_path, capsys):
    # One dual-rail qubit and 59 pool ancillas: the footprint of `h D`
    # holds exactly 2^63 states, which fit in int64, but its 2 codeword
    # columns make 2^64 (column, state) pairs, which do not.
    ancillas = " ".join(f"a{i}" for i in range(59))
    path = tmp_path / "pool59.drq"
    path.write_text(f"""\
system:
  qubits: {ancillas}
  modes: m0 m1
  cutoff: 4
registers:
  D dual_rail m0 m1
ancillas:
  qubits: {ancillas}
program:
  h D
""")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 3 and out == ""
    assert err == (f"numeric health failure: gate 0 (h D): basis indices "
                   f"of 2 columns x {2 ** 63} states do not fit in int64 "
                   f"(the limit is {2 ** 63} states)\n")


def test_nine_qubit_register_verifies(tmp_path, capsys):
    # Each gate is checked on its own operands' codewords, whatever the
    # register's width.
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
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 0, err
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == ["gate-0:x Q0", "gate-1:h Q8"]
    assert all(c["equivalent"] for c in checks)
    code, out, _ = run_cli(capsys, "run", str(path), "--shots", "100")
    assert code == 0
    assert set(json.loads(out)["histogram"]) == {"100000000", "100000001"}


def test_ten_plus_ten_hybrid_register_verifies(tmp_path, capsys):
    # The paper's hybrid register at twenty logical qubits.  Imported
    # here: test_support imports this module through test_sparse_run.
    from test_support import hybrid_document
    path = tmp_path / "hybrid.drq"
    path.write_text(hybrid_document(10, 150, seed=23))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 0, err
    checks = json.loads(out)["checks"]
    assert len(checks) == 150
    assert all(c["equivalent"] for c in checks)


def _mcx_document(controls):
    """An mcx with `controls` controls, all but the first with an
    auxiliary mode, through the COM bus."""
    qubits = " ".join(f"c{i}" for i in range(1, controls + 1))
    modes = " ".join(f"b{i}" for i in range(2, controls + 1))
    registers = "".join(f"  C{i} internal_aux c{i} b{i}\n"
                        for i in range(2, controls + 1))
    operands = " ".join(f"C{i}" for i in range(1, controls + 1))
    return f"""\
system:
  qubits: {qubits} t a0 a1
  modes: {modes} com
  cutoff: 3
registers:
  C1 internal c1
{registers}  T internal t
ancillas:
  qubits: a0 a1
  com_mode: com
program:
  mcx {operands} T
"""


def test_verify_gate_operand_limit_exit_code(tmp_path, capsys, monkeypatch):
    # Thirteen operands span 8192 codewords, whose unitary holds more than
    # fock.MAX_STATE_DIM entries: the gate is refused as invalid input
    # before any column is evolved, that of an earlier gate included, and
    # named by its first step.
    def evolved(*args, **kwargs):
        raise AssertionError("program_unitaries called")

    monkeypatch.setattr(verify, "program_unitaries", evolved)
    operands = " ".join(f"C{i}" for i in range(1, 13))
    for first, text in [(0, _mcx_document(12)),
                        (1, _mcx_document(12).replace(
                            "program:\n", "program:\n  x T\n")
                         + f"  mcx {operands} T\n")]:
        path = tmp_path / "mcx12.drq"
        path.write_text(text)
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        assert out == ""
        assert err == (f"error: gate {first} (mcx {operands} T): verify "
                       "checks gates of at most 12 operands (logical "
                       "dimension 4096); this one has 13\n")


def test_verify_gate_at_operand_limit(tmp_path, capsys):
    path = tmp_path / "mcx7.drq"
    path.write_text(_mcx_document(7))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 0, err
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("controls", [8, 9])
def test_verify_gate_past_eight_operands(tmp_path, capsys, controls):
    # The codeword columns evolve as one sparse state, each holding only
    # the states it reaches, so a gate of 9 or 10 operands verifies.
    path = tmp_path / "mcx.drq"
    path.write_text(_mcx_document(controls))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 0, err
    report = json.loads(out)
    assert report["passed"] is True
    assert [c["name"] for c in report["checks"]] == [
        "gate-0:mcx " + " ".join(f"C{i}" for i in range(1, controls + 1))
        + " T"]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


# Pulses on a spectator of `x D1`.  On the spectator's level 0, which the
# operand-local columns give it, the beamsplitter acts as the identity:
# only the footprint check sees it.
STRAY_PULSES = {
    "carrier": carrier(np.pi, 0.0, "q0"),
    "beamsplitter": beamsplitter(np.pi, 0.0, "m2", "m3"),
}


@pytest.mark.parametrize("stray_pulse", STRAY_PULSES)
def test_stray_pulse_fails_the_check(stray_pulse, tmp_path, capsys,
                                     monkeypatch):
    spec = GATES["x"]

    def stray(register, params, operands):
        prog = spec.lower(register, params, operands)
        prog.add([STRAY_PULSES[stray_pulse]])
        return prog

    monkeypatch.setitem(GATES, "x", spec._replace(lower=stray))
    path = tmp_path / "stray.drq"
    path.write_text(HYBRID_SYSTEM + "program:\n  h Q\n  x D1\n")
    _, register = cli.build_system(parse_circuit(path.read_text()))
    (report,) = verify.check_gates(register, [stray(register, (), ("D1",))],
                                   [spec.ideal((), 1)], ["D1"], 1e-9)
    assert not report.equivalent
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 1, err
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["passed"] is False
    assert [(c["name"], c["equivalent"]) for c in report["checks"]] == [
        ("gate-0:h Q", True), ("gate-1:x D1", False)]


def test_health_failure_names_gate(bell_doc, capsys, monkeypatch):
    # A breach inside a gate is reported with the gate's index and text.
    monkeypatch.setattr(verify, "SENTINEL_TOL", -1.0)
    code, _, err = run_cli(capsys, "run", bell_doc, "--shots", "0")
    assert code == 3
    assert err.startswith("numeric health failure: gate 0 (h D): "
                          "sentinel Fock level populated")


def test_parity_check_norm_drift_names_the_gate(tmp_path, capsys,
                                                monkeypatch):
    # The parity circuit's pulses pass the same norm check as a gate's:
    # its first carrier, on the readout ancilla q1, scaled by 1.001.
    path = tmp_path / "drift.drq"
    path.write_text(BELL.replace("  cnot D Q\n", "  cnot D Q\n  qndcheck D\n"))
    first = verify.qnd_parity_sequence("q1", "m0", "m1")[0]
    unscaled = pulses.pulse_unitary
    monkeypatch.setattr(pulses, "pulse_unitary", lambda op, layout: (
        1.001 if op == first else 1.0) * unscaled(op, layout))
    code, out, err = run_cli(capsys, "run", str(path))
    assert code == 3 and out == ""
    assert re.fullmatch(r"numeric health failure: gate 2 \(qndcheck D\): "
                        r"norm drifted to 1\.00\d* at pulse 0 \(carrier\)\n",
                        err), err


@pytest.mark.parametrize("lines,named,norm", [
    (["rx pi*0.3 D", "rx pi*0.7 D", "cnot D Q"], "rx pi*0.3 D",
     np.sqrt((1 + 1.001 ** 2) / 2)),
    (["rx pi*0.7 D", "cnot D Q"], "rx pi*0.7 D", 1.001),
])
def test_verify_norm_drift_names_the_gate(tmp_path, capsys, monkeypatch,
                                          lines, named, norm):
    # `verify` walks a group's codeword columns through the loop `run`
    # uses, so a pulse matrix that is not unitary stops it after that
    # pulse, named by the group's first step: rx pi*0.7's one zbs, scaled
    # by 1.001, in a batch of its own or beside rx pi*0.3's, whose
    # columns share the batch's norm.
    path = tmp_path / "drift.drq"
    path.write_text(BELL.replace("  h D\n  cnot D Q\n", "".join(
        f"  {line}\n" for line in lines)))
    doc = parse_circuit(path.read_text())
    scaled, = next(step.program.ops for step in lower(
        cli.build_system(doc)[1], doc.program)
        if step.record.render() == "rx pi*0.7 D")
    unscaled = pulses.pulse_unitary
    monkeypatch.setattr(pulses, "pulse_unitary", lambda op, layout: (
        1.001 if op == scaled else 1.0) * unscaled(op, layout))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 3 and out == ""
    drift = re.fullmatch(
        rf"numeric health failure: gate 0 \({re.escape(named)}\): "
        r"norm drifted to (\S+) at pulse 0 \(zbs\)\n", err)
    assert drift and abs(float(drift[1]) - norm) <= 1e-12, err


def test_run_prints_a_zero_phase_as_zero(tmp_path, capsys, monkeypatch):
    # np.mod(-1e-17, 2 pi) is 2 pi itself; the report's ledger goes
    # through `compiler.mod_2pi`, as every compiled phase does.
    path = tmp_path / "parity.drq"
    path.write_text(BELL.replace("  h D\n  cnot D Q\n", "  qndcheck D\n"))
    loaded = cli.preparation

    def preparation(register):
        program = loaded(register)
        program.global_phase = -1e-17
        return program

    monkeypatch.setattr(cli, "preparation", preparation)
    code, out, _ = run_cli(capsys, "run", str(path), "--shots", "0")
    assert code == 0
    assert json.loads(out)["global_phase"] == 0.0


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


@pytest.mark.parametrize("command,report", [
    ("compile", False), ("run", False), ("verify", False), ("compile", True),
], ids=["compile", "run", "verify", "report"])
def test_empty_path_exit_code(bell_doc, capsys, command, report):
    # An empty path is a path: it fails to open, as a missing file does.
    argv = [command, bell_doc, "--report", ""] if report else [command, ""]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (2, "error: : No such file or directory\n")
    assert json.loads(out)["command"] == command if report else out == ""


@pytest.mark.parametrize("argv,want", [
    (["compile"], 0),
    # An absurd tolerance fails the check: the exit code stays 1.
    (["verify", "--tol", "1e-18"], 1),
], ids=["compile", "failed-verify"])
def test_closed_stdout_ends_quietly(bell_doc, tmp_path, argv, want):
    # The reader of the pipe is gone before the command starts (as with
    # `| head -1` once head has exited), so the first write fails.
    target = tmp_path / "r.json"
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "drqsim.cli", argv[0], bell_doc,
             *argv[1:], "--report", str(target)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr.decode() == ""
    assert proc.returncode == want
    assert json.loads(target.read_text())["command"] == argv[0]


ROOT = Path(__file__).resolve().parent.parent
CHECKED_IN = [path.read_text(encoding="utf-8") for path in sorted(
    [*ROOT.glob("circuits/*.drq"), *ROOT.glob("perfbench/inputs/*.drq")])]
# Each document also without its comment lines, so that most edits land
# on lines the parser reads.
SEED_DOCUMENTS = CHECKED_IN + ["".join(
    line for line in text.splitlines(keepends=True)
    if not line.startswith("#")) for text in CHECKED_IN]
# Every word of the checked-in documents, so a mutation can move a word
# into a section where it does not belong.
SEED_TOKENS = sorted({tok for text in SEED_DOCUMENTS for tok in text.split()})


@st.composite
def mutated_documents(draw):
    """A checked-in document after one to four random text edits."""
    text = draw(st.sampled_from(SEED_DOCUMENTS))
    odd_numbers = st.sampled_from([
        "pi*", "-pi", "pi*1e400", "1e999", "-1e999", "1e-400", "+.5", "0x10",
        "1_0", "\u0663", "nan", "inf", "-0"])
    junk = st.one_of(
        st.text(st.characters(codec="utf-8"), max_size=12),
        st.sampled_from(SEED_TOKENS),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.integers(-2 ** 70, 2 ** 70).map(str),
        st.sampled_from([":", "\n", "  ", "#", "pi", "*", "-"]),
        odd_numbers)
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(
            ["delete", "insert", "replace-word", "replace-number",
             "drop-line", "copy-line", "swap-lines"]))
        if edit in ("delete", "insert"):
            start = draw(st.integers(0, len(text)))
            end = start
            if edit == "delete":
                end = draw(st.integers(start, min(len(text), start + 40)))
            text = text[:start] + (draw(junk) if edit == "insert" else "") \
                + text[end:]
            continue
        if edit.startswith("replace"):
            # Odd pieces are the words; the spacing between them is kept.
            pieces = re.split(r"(\S+)", text)
            picks = range(1, len(pieces), 2)
            if edit == "replace-number":
                # A number the parser reads: not inside a comment.
                picks = [k for k in picks
                         if re.match(r"[-+]?(pi|\d|\.\d)", pieces[k])
                         and "#" not in "".join(pieces[:k]).rsplit("\n", 1)[-1]]
            if picks:
                pieces[draw(st.sampled_from(picks))] = draw(
                    st.one_of(odd_numbers, junk)
                    if edit == "replace-number" else junk)
            text = "".join(pieces)
            continue
        lines = text.split("\n")
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        if edit == "drop-line":
            del lines[i]
        elif edit == "copy-line":
            lines.insert(j, lines[i])
        else:
            lines[i], lines[j] = lines[j], lines[i]
        text = "\n".join(lines)
    return text


@settings(derandomize=True, deadline=None, max_examples=500)
@given(text=mutated_documents())
def test_mutated_documents_fail_only_as_documents(text, tmp_path_factory):
    """Fuzzed text raises only DocumentError, and `compile` maps any bad
    input to exit 2 with a one-line message, never a traceback; what it
    accepts gets a strict JSON report (no NaN or Infinity)."""
    try:
        parse_circuit(text)
    except DocumentError:
        pass
    path = tmp_path_factory.getbasetemp() / "fuzzed.drq"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["compile", str(path)])
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
        json.loads(out.getvalue(), parse_constant=_not_json)


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")
