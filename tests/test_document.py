import math

import pytest

from drqsim import DocumentError, parse_circuit, serialize_circuit
from drqsim.document import parse_number

MINIMAL = """
system:
  qubits: q0
  modes: m0 m1
  cutoff: 4
registers:
  D dual_rail m0 m1
ancillas:
  qubits: q0
program:
"""

BELL = """
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


def test_minimal_document():
    doc = parse_circuit(MINIMAL)
    assert doc.logical_ids() == ("D",)
    assert doc.cutoff == 4
    assert doc.program == ()


def test_bell_document():
    doc = parse_circuit(BELL)
    assert len(doc.registers) == 2
    assert len(doc.program) == 2
    assert doc.options["seed"] == 7
    assert doc.program[1].name == "cnot"
    assert doc.program[1].operands == ("D", "Q")


def test_unknown_gate_diagnostic():
    text = BELL.replace("h D", "FOO D")
    with pytest.raises(DocumentError) as err:
        parse_circuit(text)
    assert err.value.code == "unknown-gate"
    assert err.value.line > 0


def test_arity_diagnostic():
    text = BELL.replace("cnot D Q", "cnot D")
    with pytest.raises(DocumentError) as err:
        parse_circuit(text)
    assert err.value.code == "arity"


def test_reference_diagnostic():
    text = BELL.replace("cnot D Q", "cnot D Q2")
    with pytest.raises(DocumentError) as err:
        parse_circuit(text)
    assert err.value.code == "reference"


def test_duplicate_register_diagnostic():
    text = BELL.replace("Q internal q0", "D internal q0")
    with pytest.raises(DocumentError) as err:
        parse_circuit(text)
    assert err.value.code == "duplicate"


def test_bad_number_diagnostic():
    text = BELL.replace("h D", "rx twopi D")
    with pytest.raises(DocumentError) as err:
        parse_circuit(text)
    assert err.value.code in ("number", "arity")


def test_content_before_section():
    with pytest.raises(DocumentError) as err:
        parse_circuit("qubits: q0\n")
    assert err.value.code == "section"


def test_pi_numbers():
    assert parse_number("pi", 1) == pytest.approx(math.pi)
    assert parse_number("-pi", 1) == pytest.approx(-math.pi)
    assert parse_number("pi*0.5", 1) == pytest.approx(math.pi / 2)
    assert parse_number("-pi*0.25", 1) == pytest.approx(-math.pi / 4)
    assert parse_number("1.5e-3", 1) == pytest.approx(0.0015)


@pytest.mark.parametrize("token", ["1e999", "-1e999", "pi*1e999"])
def test_non_finite_number_diagnostic(token):
    with pytest.raises(DocumentError) as err:
        parse_number(token, 3)
    assert err.value.code == "number"
    with pytest.raises(DocumentError) as err:
        parse_circuit(BELL.replace("h D", f"rx {token} D"))
    assert err.value.code == "number"


def test_round_trip_is_lossless():
    doc = parse_circuit(BELL)
    text = serialize_circuit(doc)
    again = parse_circuit(text)
    assert again == doc
    # And serializing the reparse is byte-identical.
    assert serialize_circuit(again) == text


def test_round_trip_with_angles():
    text = BELL.replace("h D", "rx pi*0.5 D").replace("cnot D Q",
                                                      "rzz pi*0.25 D D")
    # rzz needs two distinct dual-rail ids; build a valid variant instead.
    text = """
system:
  qubits: q0
  modes: m0 m1 m2 m3
  cutoff: 4
registers:
  D1 dual_rail m0 m1
  D2 dual_rail m2 m3
ancillas:
  qubits: q0
program:
  rx pi*0.5 D1
  rzz pi*0.25 D1 D2
  rx 0.125 D2
"""
    doc = parse_circuit(text)
    assert doc.program[0].params[0] == pytest.approx(math.pi / 2)
    again = parse_circuit(serialize_circuit(doc))
    assert again == doc


def test_example_circuits_parse():
    for path in ("circuits/bell.drq", "circuits/toffoli.drq"):
        with open(path) as fh:
            doc = parse_circuit(fh.read())
        assert doc.program


@pytest.mark.parametrize("line", ["cnot D D", "mcx D Q D"])
def test_repeated_operand_diagnostic(line):
    text = BELL.replace("cnot D Q", line)
    with pytest.raises(DocumentError) as err:
        parse_circuit(text)
    assert err.value.code == "duplicate"
    assert err.value.line == 13
