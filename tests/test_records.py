"""drqsim's records: NamedTuples, copied with `_replace`.

A record refuses assignment, and `_replace` returns a new record of the
same type.  `GateRecord` leaves its diagnostic `line` out of equality
and hash, and `PhysicalOp` and `PulseParams` check their fields whether
built or copied.
"""
from unittest import mock

import numpy as np
import pytest

from drqsim import PulseError, verify
from drqsim.cli import build_system
from drqsim.compiler import GATES, AncillaUse, Step, lower
from drqsim.document import GateRecord, parse_circuit
from drqsim.encoding import RegisterEntry
from drqsim.fock import Subsystem
from drqsim.pulses import PhysicalOp, PulseParams, carrier, rsb, zbs
from drqsim.verify import EquivalenceReport, ProgramUnitary

from test_cli import BELL

RECORDS = {
    "Subsystem": Subsystem("q", "qubit", 2),
    "PhysicalOp": carrier(np.pi, 0.0, "q"),
    "PulseParams": PulseParams(0.1, 0.1, 1.0, 1.0, 10.0, 1e-3),
    "GateRecord": GateRecord("h", (), ("D",), 3),
    "CircuitDocument": parse_circuit(BELL),
    "RegisterEntry": RegisterEntry("D", "dual_rail", ("m0", "m1")),
    "AncillaUse": AncillaUse("su2:D", ("a0",)),
    "GateSpec": GATES["h"],
    "Step": Step(0, GateRecord("loss", (), ("m0",)), "error-injection"),
    "ProgramUnitary": ProgramUnitary(np.eye(2)),
    "EquivalenceReport": EquivalenceReport(True, 0.0, 0.0, name="h"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_assignment(name):
    record = RECORDS[name]
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", RECORDS)
def test_replace_copies_records(name):
    record = RECORDS[name]
    field = record._fields[-1]
    value = getattr(record, field)
    copy = record._replace(**{field: value})
    assert type(copy) is type(record) and copy is not record
    assert tuple(map(id, copy)) == tuple(map(id, record))
    other = record._replace(**{field: "changed"})
    assert getattr(other, field) == "changed"
    assert getattr(record, field) is value


def test_gate_record_equality_and_hash_ignore_line():
    a = GateRecord("rx", (0.5,), ("D",), 3)
    b = a._replace(line=9)
    assert a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1
    for change in ({"name": "ry"}, {"params": (0.25,)}, {"operands": ("Q",)}):
        other = a._replace(**change)
        assert a != other and not a == other


def test_equal_records_on_other_lines_share_one_program():
    _, register = build_system(parse_circuit(BELL))
    a, b = GateRecord("h", (), ("D",), 3), GateRecord("h", (), ("D",), 9)
    first, second = lower(register, [a, b])
    assert first.program is second.program
    with mock.patch.object(verify, "check_gates",
                           wraps=verify.check_gates) as spy:
        reports = verify.check_records(register, [a, b], 1e-9)
    assert spy.call_count == 1 and len(spy.call_args.args[1]) == 1
    assert [r.name for r in reports] == ["gate-0:h D", "gate-1:h D"]
    assert all(r.equivalent for r in reports)


BAD_OPS = {
    "kind": (rsb(np.pi, "q", "m0"), {"kind": "warp"}),
    "arity": (rsb(np.pi, "q", "m0"), {"targets": ("q",)}),
    "phase": (rsb(np.pi, "q", "m0"), {"phi": 0.5}),
    "modes": (zbs(np.pi / 2, 0.0, "q", "m0", "m1"),
              {"targets": ("q", "m0", "m0")}),
}


@pytest.mark.parametrize("change", BAD_OPS)
def test_physical_op_checks_its_fields_when_built_or_copied(change):
    op, bad = BAD_OPS[change]
    with pytest.raises(PulseError):
        PhysicalOp(**{**op._asdict(), **bad})
    with pytest.raises(PulseError):
        op._replace(**bad)


def test_pulse_params_check_duration_when_built_or_copied():
    params = RECORDS["PulseParams"]
    with pytest.raises(PulseError, match="non-negative"):
        PulseParams(*params[:5], -1.0)
    with pytest.raises(PulseError, match="non-negative"):
        params._replace(t=-1.0)
    assert params._replace(t=2.0).t == 2.0
