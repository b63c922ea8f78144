"""The support holds only basis states with weight.

`fock.apply_matrix_support` drops every row at or below `fock.PRUNE_TOL`
in all its columns, so the rounding residues of pi-pulses and of
destructive interference (about 1e-17) never fill a state's support.
These tests watch the support after every pulse through a wrap of
`pulses.apply_pulse` (`conftest.probing`).
"""
import argparse
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drqsim.cli import build_system, cmd_run, main
from drqsim.compiler import PULSES, lower, preparation
from drqsim.document import parse_circuit
from drqsim.encoding import extract_logical_state
from drqsim.fock import PRUNE_TOL, ground_state
from drqsim.verify import (LEAKAGE_GUARD_TOL, outcome_distribution,
                           run_program)

from conftest import probing
from test_cli import _assert_ghz_counts, _ghz_document
from test_sparse_run import REGISTERS, ROOT, _perfbench, documents


def run_probed(text, probe):
    """`cmd_run`'s pulse steps of a unitary document, health checks
    included, with `probe` called after every pulse; the final state and
    the register."""
    doc = parse_circuit(text)
    layout, register = build_system(doc)
    with probing(probe):
        state = run_program(ground_state(layout), preparation(register))
        for step in lower(register, doc.program):
            assert step.kind == PULSES
            state = run_program(state, step.program, register=register)
    return state, register


def peak_support(text):
    peak = 0

    def probe(state):
        nonlocal peak
        peak = max(peak, len(state.index))

    run_probed(text, probe)
    return peak


@pytest.mark.parametrize("name,rows", [("wide_4dr.drq", 56),
                                       ("kcnot3.drq", 24)])
def test_peak_support_holds_only_significant_rows(name, rows):
    # Keeping every row that is not exactly zero, the peaks are 1 744 and
    # 192 rows; only 56 and 24 of them hold |a| > 1e-12.
    text = (ROOT / "perfbench" / "inputs" / name).read_text()
    assert peak_support(text) <= rows


def _every_row_significant(state):
    assert np.all(np.abs(state.values) > PRUNE_TOL)


@pytest.mark.parametrize("register", REGISTERS)
@settings(derandomize=True, deadline=None, max_examples=15)
@given(data=st.data())
def test_generated_documents_keep_every_row_above_tolerance(register, data):
    run_probed(data.draw(documents(register)), _every_row_significant)


def hybrid_document(n, gates, seed):
    """A seeded h/ry/cnot/rxx/rzz circuit on n internal plus n dual-rail
    qubits, with two ancillas at cutoff 4: the paper's hybrid register."""
    rng = np.random.default_rng(seed)
    internal = [f"Q{i}" for i in range(n)]
    dual = [f"D{i}" for i in range(n)]
    lines = [
        "system:",
        "  qubits: " + " ".join([f"q{i}" for i in range(n)] + ["a0", "a1"]),
        "  modes: " + " ".join(f"m{i}" for i in range(2 * n)),
        "  cutoff: 4",
        "registers:",
        *[f"  Q{i} internal q{i}" for i in range(n)],
        *[f"  D{i} dual_rail m{2 * i} m{2 * i + 1}" for i in range(n)],
        "ancillas:",
        "  qubits: a0 a1",
        "program:",
    ]
    for _ in range(gates):
        name = str(rng.choice(["h", "ry", "cnot", "rxx", "rzz"]))
        params = ([] if name in ("h", "cnot")
                  else [repr(float(rng.uniform(-np.pi, np.pi)))])
        if name in ("h", "ry"):
            operands = [rng.choice(internal + dual)]
        elif name == "rzz":  # lowered between dual-rail qubits only
            operands = list(rng.choice(dual, size=2, replace=False))
        else:  # cnot and rxx need an internal operand
            q = rng.choice(internal)
            operands = list(rng.permutation(
                [q, rng.choice([x for x in internal + dual if x != q])]))
        lines.append("  " + " ".join([name, *params, *map(str, operands)]))
    return "\n".join(lines) + "\n"


def test_ghz_twelve_plus_twelve_reads_out_in_little_memory(tmp_path, capsys):
    # A 24-qubit hybrid GHZ state holds two support rows.  Readout works
    # on those rows, where a table of its 2**24 codewords took a
    # tracemalloc peak of 657 MiB.
    header = hybrid_document(12, 0, 1).removesuffix("program:\n")
    others = [f"Q{i}" for i in range(1, 12)] + [f"D{i}" for i in range(12)]
    path = _ghz_document(tmp_path / "ghz12.drq", header, "Q0", others)
    tracemalloc.start()
    try:
        code = main(["run", path, "--shots", "1000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16 * 2 ** 20
    _assert_ghz_counts(json.loads(capsys.readouterr().out), 24, 1000)


def test_six_plus_six_hybrid_register_runs_to_the_logical_model():
    # 2^8 * 4^12 ~ 4.3e9 dims.  4 096 logical amplitudes, too many for
    # the run report, so they are read off the probed run's final state.
    ref = _perfbench("reference")
    text = hybrid_document(6, 20, seed=11)
    state, register = run_probed(text, _every_row_significant)
    logical = extract_logical_state(state, register)
    assert logical.leakage <= LEAKAGE_GUARD_TOL
    want = ref.logical_model(ref.read_circuit(text))
    assert ref.phase_error(logical.logical_amplitudes, want) <= 1e-8
    # Reading every logical qubit gives outcome k with chance |a_k|^2.
    codes, probs = outcome_distribution(
        state, register, [e.logical_id for e in register.entries])
    chances = np.zeros(register.logical_dim)
    chances[codes] = probs
    assert np.max(np.abs(chances - np.abs(want) ** 2)) <= 1e-10
    args = argparse.Namespace(seed=0, shots=0, allow_midcircuit=False)
    report, code = cmd_run(parse_circuit(text), args)
    assert code == 0
    assert report["leakage"] == logical.leakage
