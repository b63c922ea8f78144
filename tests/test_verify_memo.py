"""`verify <doc>` checks each distinct gate record once per document.

A record lowers to the same pulses wherever it sits in the program, so a
step whose record (name, parameters, operands) repeats an earlier step's
reuses that step's report under its own name.  The report must equal a
loop that checks every step afresh, and every check of a well-formed
document must pass.
"""
import argparse
import json
from dataclasses import replace
from unittest import mock

from hypothesis import given, settings, strategies as st
import pytest

from drqsim import cli, verify
from drqsim.compiler import lower
from drqsim.document import parse_circuit
from drqsim.verify import check_gate, ideal_logical_gate

from test_sparse_run import DEEP_REGISTER, REGISTERS, documents

ARGS = argparse.Namespace(builtin=False, tol=None, cutoff=None)


def _fresh_checks(doc, tol=1e-9):
    """Every gate step checked on its own, with no reuse."""
    _, register = cli.build_system(doc)
    checks = []
    for step in lower(register, doc.program):
        if step.program is None:
            continue
        rec = step.record
        ideal = ideal_logical_gate(rec.name, rec.params, len(rec.operands))
        report = check_gate(register, step.program, ideal, rec.operands, tol)
        checks.append(replace(
            report, name=f"gate-{step.index}:{rec.render()}").to_dict())
    return checks


def _verify(text):
    """(parsed report, number of check_gate calls) of `cmd_verify`."""
    doc = parse_circuit(text)
    with mock.patch.object(verify, "check_gate", wraps=check_gate) as spy:
        report, code = cli.cmd_verify(doc, ARGS)
    assert code == (0 if report["passed"] else 1)
    return json.loads(json.dumps(report)), spy.call_count, doc


@st.composite
def repeating_documents(draw, register):
    header, _, program = draw(documents(register)).partition("program:\n")
    lines = program.splitlines()
    repeats = draw(st.lists(st.sampled_from(lines), max_size=len(lines))
                   if lines else st.just([]))
    return header + "program:\n" + "".join(
        f"{line}\n" for line in lines + repeats + lines)


@pytest.mark.parametrize("register", REGISTERS)
@settings(derandomize=True, deadline=None, max_examples=12)
@given(data=st.data())
def test_memo_matches_fresh_checks(register, data):
    report, calls, doc = _verify(data.draw(repeating_documents(register)))
    # `==` on parsed numbers: a reused -0.0 phase equals a fresh 0.0.
    assert report["checks"] == _fresh_checks(doc)
    assert report["passed"] is True
    assert calls == len(set(doc.program))


def test_repeated_gates_are_checked_once_each():
    header = DEEP_REGISTER.format(cutoff=4)
    lines = ["rx pi*0.3 D1", "rx pi*0.3 D2", "rx pi*0.31 D1"] * 2
    report, calls, doc = _verify(header + "program:\n" + "".join(
        f"  {line}\n" for line in lines))
    assert calls == 3
    assert [c["name"] for c in report["checks"]] == [
        f"gate-{i}:{line}" for i, line in enumerate(lines)]
    assert report["checks"] == _fresh_checks(doc)
    assert report["passed"] is True


@pytest.mark.parametrize("register", REGISTERS)
@settings(derandomize=True, deadline=None, max_examples=12)
@given(data=st.data())
def test_equal_records_lower_to_equal_pulses(register, data):
    # Every line of a drawn document appears at least twice.
    doc = parse_circuit(data.draw(repeating_documents(register)))
    first = {}
    for step in lower(cli.build_system(doc)[1], doc.program):
        ops = first.setdefault(step.record, step.program.ops)
        assert step.program.ops == ops
