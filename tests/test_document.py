import math

import pytest
from hypothesis import given, settings, strategies as st

from drqsim import DocumentError, parse_circuit, serialize_circuit
from drqsim.document import format_number, parse_number

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


@pytest.mark.parametrize("section,first,second", [
    ("system", "qubits: q0 q1", "qubits: q0"),
    ("system", "modes: m0 m1", "modes: m0 m1 m2"),
    ("system", "cutoff: 4", "cutoff: 9"),
    ("ancillas", "qubits: q1", "qubits: q0"),
    ("ancillas", "com_mode: m0", "com_mode: m1"),
    ("options", "seed: 1", "seed: 2"),
    ("options", "shots: 10", "shots: 20"),
    ("options", "tolerance: 1e-9", "tolerance: 1e-6"),
])
def test_repeated_key_diagnostic(section, first, second):
    # A repeated key is refused, not read as its last value.
    text = BELL.replace(f"{section}:\n",
                        f"{section}:\n  {first}\n  {second}\n")
    with pytest.raises(DocumentError) as err:
        parse_circuit(text)
    assert err.value.code == "duplicate"
    assert err.value.line == BELL.split("\n").index(f"{section}:") + 3


def test_numeric_logical_id_refused_at_its_register_line():
    # `x pi` would read the id as the gate's parameter.
    text = BELL.replace("Q internal q0", "pi internal q0")
    with pytest.raises(DocumentError) as err:
        parse_circuit(text)
    line = BELL.split("\n").index("  Q internal q0") + 1
    assert str(err.value) == (f"validation (line {line}): "
                              "logical id 'pi' reads as a number")


def test_integer_options_read_exactly():
    doc = parse_circuit(BELL.replace("seed: 7", "seed: 12345678901234567891")
                        .replace("shots: 10000", "shots: 1e3"))
    assert doc.options["seed"] == 12345678901234567891
    assert doc.options["shots"] == 1000


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


def test_angle_near_a_pi_multiple_keeps_its_value():
    # One ulp below pi*0.3: the pi form would read back as pi*0.3 itself.
    doc = parse_circuit(BELL.replace("h D", "rx 0.9424777960769378 D"))
    assert doc.program[0].render() == "rx 0.9424777960769378 D"
    again = parse_circuit(serialize_circuit(doc))
    assert again.program[0].params == (0.9424777960769378,)
    assert again == doc
    # Twelve significant digits would print pi*3.000000000001 as pi*3.
    doc = parse_circuit(BELL.replace("h D", "rx pi*3.000000000001 D"))
    assert doc.program[0].render() != "rx pi*3 D"
    assert parse_circuit(serialize_circuit(doc)) == doc
    # Exact multiples keep the pi form.
    doc = parse_circuit(BELL.replace("h D", "rx pi*0.3 D"))
    assert doc.program[0].render() == "rx pi*0.3 D"


def _pi_fraction_neighbour(k, j, steps):
    """`steps` ulps away from pi*k/10**j."""
    x = math.pi * k / 10 ** j
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(_pi_fraction_neighbour, st.integers(-10 ** 6, 10 ** 6),
              st.integers(0, 13), st.integers(-2, 2))))
def test_format_number_round_trips(x):
    assert parse_number(format_number(x), 1) == x


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
