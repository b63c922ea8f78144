"""`verify <doc>` checks each distinct gate record once per document.

A record lowers to the same pulses wherever it sits in the program, so a
step whose record (name, parameters, operands) repeats an earlier step's
reuses that step's report under its own name.  Distinct records on the
same operands whose pulses share their targets form one group, evolved
together by one `check_gates` call.  The report must equal a loop that
checks every step afresh with `check_gate`, and every check of a
well-formed document must pass.
"""
import argparse
import json
import math
from unittest import mock

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from drqsim import cli, fock, pulses, verify
from drqsim.compiler import lower
from drqsim.document import parse_circuit, serialize_circuit
from drqsim.pulses import carrier
from drqsim.suite import _hybrid_pair
from drqsim.verify import check_gates, ideal_logical_gate

from test_sparse_run import DEEP_REGISTER, REGISTERS, _deep_circuit, documents

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
        (report,) = check_gates(register, [step.program], [ideal],
                                rec.operands, tol)
        checks.append(report._replace(
            name=f"gate-{step.index}:{rec.render()}").to_dict())
    return checks


def _verify(text):
    """(parsed report, programs in each check_gates call) of `cmd_verify`."""
    doc = parse_circuit(text)
    with mock.patch.object(verify, "check_gates", wraps=check_gates) as spy:
        report, code = cli.cmd_verify(doc, ARGS)
    assert code == (0 if report["passed"] else 1)
    return (json.loads(json.dumps(report)),
            [len(call.args[1]) for call in spy.call_args_list], doc)


def _groups(doc):
    """Each (operands, targets of every pulse) group of the document's
    distinct records: {key: footprint register, targets, records}."""
    _, register = cli.build_system(doc)
    groups = {}
    for step in lower(register, doc.program):
        ops = step.program.ops
        key = (step.record.operands, tuple(op.targets for op in ops))
        local = register.footprint(step.record.operands)
        groups.setdefault(key, (local, key[1], set()))[2].add(step.record)
    return groups


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
    report, batches, doc = _verify(data.draw(repeating_documents(register)))
    # `==` on parsed numbers: a reused -0.0 phase equals a fresh 0.0.
    assert report["checks"] == _fresh_checks(doc)
    assert report["passed"] is True
    assert sum(batches) == len(set(doc.program))
    assert batches == [len(records) for *_, records in _groups(doc).values()]


@pytest.mark.parametrize("register", REGISTERS)
@settings(derandomize=True, deadline=None, max_examples=8)
@given(data=st.data())
def test_memo_matches_fresh_checks_in_small_batches(register, data):
    # At the most amplitudes one record's columns can hold, every state
    # of its footprint's layout in each (or at the largest pulse matrix,
    # which the limit also bounds), the group that meets it is evolved
    # one record at a time, and the others in fewer at once.
    doc = parse_circuit(data.draw(repeating_documents(register)))
    groups = _groups(doc)
    bounds = {key: local.layout.total_dim * local.logical_dim
              for key, (local, _, _) in groups.items()}
    layout = cli.build_system(doc)[0]
    limit = max([*bounds.values(), *(
        math.prod(layout.dim_of(sid) for sid in sids) ** 2
        for _, targets, _ in groups.values() for sids in targets)],
        default=1)
    report, batches, chunks = _verify_in_chunks(serialize_circuit(doc), limit)
    assert report["checks"] == _fresh_checks(doc)
    assert report["passed"] is True
    assert sum(size for size, _ in chunks) == sum(batches)
    assert all(size <= most for size, most in chunks)


def _verify_in_chunks(text, limit):
    """`_verify` with MAX_STATE_DIM at `limit`, and each evolution's
    (programs, most programs whose columns over every state of the
    evolution's layout fit in `limit`)."""
    evolve, chunks = verify.apply_pulses, []

    def spy(batch, *programs):
        # A batch enters with one row per codeword column and program.
        columns = len(batch.index) // len(programs)
        chunks.append((len(programs), max(
            1, limit // (batch.layout.total_dim * columns))))
        return evolve(batch, *programs)

    with mock.patch.object(fock, "MAX_STATE_DIM", limit), \
            mock.patch.object(verify, "apply_pulses", spy):
        report, batches, _ = _verify(text)
    return report, batches, chunks


def test_group_splits_at_the_block_limit():
    # An rx on Q is evolved on its footprint, q0 and the ancillas a0 and
    # a1: 8 states x 2 columns, and its carrier matrix has 4 entries.  At
    # a limit of 32 amplitudes its group of five records is evolved two
    # at a time.
    lines = [f"rx pi*0.{i} Q" for i in range(3, 8)]
    text = DEEP_REGISTER.format(cutoff=4) + "program:\n" + "".join(
        f"  {line}\n" for line in lines)
    report, batches, chunks = _verify_in_chunks(text, 32)
    assert batches == [5]
    assert chunks == [(2, 2), (2, 2), (1, 2)]
    assert report["checks"] == _fresh_checks(parse_circuit(text))


def test_repeated_gates_are_checked_once_each():
    header = DEEP_REGISTER.format(cutoff=4)
    lines = ["rx pi*0.3 D1", "rx pi*0.3 D2", "rx pi*0.31 D1"] * 2
    report, batches, doc = _verify(header + "program:\n" + "".join(
        f"  {line}\n" for line in lines))
    # The two rx on D1 share a group.
    assert batches == [2, 1]
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


def test_deep_document_evolves_each_group_once():
    doc = parse_circuit(_deep_circuit(7))
    groups = _groups(doc)
    with mock.patch.object(verify, "program_unitaries",
                           wraps=verify.program_unitaries) as spy:
        report, batches, _ = _verify(_deep_circuit(7))
    assert report["passed"] is True
    assert spy.call_count == len(groups) == len(batches)
    assert batches == [len(records) for *_, records in groups.values()]
    assert sum(batches) == len(set(doc.program)) < len(doc.program)
    assert len(groups) < len(set(doc.program))


def test_group_with_pruned_residues_matches_per_record_checks():
    # Around the second carrier on Q, the ancilla is flipped by 0 (every
    # excited row a residue, pruned), by pi (every ground row pruned) or
    # part way (both kept), so each record meets its own blocks of that
    # carrier, and BLAS rounds a product by its shape.
    register = _hybrid_pair()
    programs = [[carrier(0.9, 0.2, "q"), carrier(t, 0.0, "anc"),
                 carrier(0.7, 0.3, "q"), carrier(-t, 0.0, "anc")]
                for t in (0.0, 0.4, np.pi, 2.1, 0.0)]
    ideal = ideal_logical_gate("rx", (1.6,), 1)
    seen = []

    def kernel(index, amplitudes, layout, matrix, sids):
        # Each record's support as its own batch would label it: program
        # r's column j is label j * 5 + r here and label j alone.
        column, r = np.divmod(index // layout.total_dim, len(matrix))
        own = column * layout.total_dim + index % layout.total_dim
        seen.append([own[r == p] for p in range(len(matrix))])
        return fock.apply_matrix_support(index, amplitudes, layout, matrix,
                                         sids)

    with mock.patch.object(pulses, "apply_matrix_support", kernel):
        batched = check_gates(register, programs, [ideal] * 5, ["Q"], 1e-9)
    # The records' supports part after the flip.
    assert len({rows.tobytes() for rows in seen[2]}) == 3
    assert batched == [check_gates(register, [program], [ideal], ["Q"],
                                   1e-9)[0] for program in programs]
