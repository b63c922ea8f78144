"""Sparse `run` pinned to the dense oracle.

`run` evolves states on their support through `pulses.apply_pulses`.
Here every document is replayed step by step twice: through the
production functions `cli.cmd_run` uses, and on a dense total_dim vector
through `fock.apply_matrix_columns`.  After every step the states and
the health numbers (sentinel population, ancilla-reset defect, codeword
leakage) must agree to 1e-10.
"""
import argparse
import functools
import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drqsim.cli import build_system, cmd_compile, cmd_run
from drqsim.compiler import (
    ERROR_INJECTION,
    GATES,
    PARITY_CHECK,
    lower,
    preparation,
)
from drqsim.document import parse_circuit, serialize_circuit
from drqsim.encoding import extract_logical_state
from drqsim.errors import CompileError
from drqsim.fock import (
    annihilation_matrix,
    apply_matrix_columns,
    creation_matrix,
    ground_state,
)
from drqsim.pulses import carrier, pulse_matrix
from drqsim.verify import (
    LEAKAGE_GUARD_TOL,
    ancilla_reset_defect,
    inject_heating_error,
    qnd_parity_check,
    qnd_parity_sequence,
    run_program,
    sentinel_population,
)

from oracles import codeword_index
from test_cli import BELL, GATE_CASES, UNITARY_GATES

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-10


def _dense_population(dense, layout, sid, level):
    tensor = dense.reshape(layout.dims, order="F")
    sl = [slice(None)] * len(layout.dims)
    sl[layout.axis(sid)] = level
    return float(np.sum(np.abs(tensor[tuple(sl)]) ** 2))


def _dense_health(dense, register):
    """(sentinel population, ancilla-reset defect, leakage) of a dense state."""
    layout = register.layout
    sentinel = max([_dense_population(dense, layout, s.sid, s.dim - 1)
                    for s in layout.subsystems
                    if s.kind == "mode" and s.dim >= 4], default=0.0)
    resting = list(register.ancilla_qubits)
    if register.com_mode is not None:
        resting.append(register.com_mode)
    defect = max([1.0 - _dense_population(dense, layout, sid, 0)
                  for sid in resting], default=0.0)
    n = register.n_logical
    codewords = [codeword_index(register, [(b >> (n - 1 - i)) & 1
                                           for i in range(n)])
                 for b in range(2 ** n)]
    leakage = max(0.0, 1.0 - float(np.sum(np.abs(dense[codewords]) ** 2)))
    return sentinel, defect, leakage


def _dense_pulses(dense, layout, ops):
    for op in ops:
        dense = apply_matrix_columns(dense, layout, pulse_matrix(op, layout),
                                     op.targets)
    return dense


def _compare(state, dense, register):
    assert np.max(np.abs(state.amplitudes - dense)) <= TOL
    sentinel, defect, leakage = _dense_health(dense, register)
    assert abs(sentinel_population(state) - sentinel) <= TOL
    assert abs(ancilla_reset_defect(state, register) - defect) <= TOL
    assert abs(extract_logical_state(state, register).leakage
               - leakage) <= TOL


def replay(text, seed=0):
    """Replay `compiler.lower`'s steps of a document on both engines.

    The sparse side takes the steps of `cli.cmd_run`, health checks
    included, so a HealthError propagates.  Returns the number of steps.
    """
    doc = parse_circuit(text)
    layout, register = build_system(doc)
    prep = preparation(register)
    steps = lower(register, doc.program)
    state = run_program(ground_state(layout), prep)
    dense = np.zeros(layout.total_dim, dtype=complex)
    dense[0] = 1.0
    dense = _dense_pulses(dense, layout, prep.ops)
    _compare(state, dense, register)
    injected = False
    for step in steps:
        rec = step.record
        if step.kind == ERROR_INJECTION:
            mode = rec.operands[0]
            state = inject_heating_error(state, mode, rec.name)
            jump = (annihilation_matrix if rec.name == "loss"
                    else creation_matrix)(layout.dim_of(mode))
            dense = apply_matrix_columns(dense, layout, jump, (mode,))
            dense /= np.linalg.norm(dense)
            injected = True
        elif step.kind == PARITY_CHECK:
            anc = register.ancilla_qubits[0]
            rails = register.entry(rec.operands[0]).rails
            flag, state = qnd_parity_check(state, anc, *rails,
                                           rng_seed=seed + 17 * step.index)
            dense = _dense_pulses(dense, layout,
                                  qnd_parity_sequence(anc, *rails))
            p1 = _dense_population(dense, layout, anc, 1)
            draw = np.random.default_rng(seed + 17 * step.index).random()
            outcome = int(draw < p1)
            assert flag == ("odd" if outcome else "even")
            tensor = dense.reshape(layout.dims, order="F")
            sl = [slice(None)] * len(layout.dims)
            sl[layout.axis(anc)] = 1 - outcome
            tensor[tuple(sl)] = 0.0  # a view of dense
            dense /= np.linalg.norm(dense)
            if outcome:  # `qnd_parity_check` resets the sparse side
                dense = _dense_pulses(dense, layout,
                                      [carrier(np.pi, 0.0, anc)])
        else:
            state = run_program(state, step.program,
                                register=None if injected else register)
            dense = _dense_pulses(dense, layout, step.program.ops)
        _compare(state, dense, register)
    leakage = _dense_health(dense, register)[2]
    assert injected or leakage <= LEAKAGE_GUARD_TOL
    args = argparse.Namespace(cutoff=None, seed=seed, shots=0,
                              allow_midcircuit=False)
    report, code = cmd_run(doc, args)
    assert code == 0
    assert abs(report["leakage"] - leakage) <= TOL
    if "logical_amplitudes" in report:
        n = register.n_logical
        want = dense[[codeword_index(register, [(b >> (n - 1 - i)) & 1
                                                for i in range(n)])
                      for b in range(2 ** n)]]
        got = np.array([complex(*a) for a in report["logical_amplitudes"]])
        assert np.max(np.abs(got - want)) <= TOL
    return len(steps)


def _gate_document(name):
    system, lines = GATE_CASES[name]
    # A Hadamard on every operand first, so the gate acts on all branches.
    operands = dict.fromkeys(tok for line in lines
                             for tok in line.split()[1:]
                             if not tok.startswith("pi"))
    program = [f"h {op}" for op in operands] + lines
    return system + "program:\n" + "".join(f"  {line}\n" for line in program)


@functools.cache
def _perfbench(name):
    """A module of the benchmark directory, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


def _deep_circuit(seed):
    return _perfbench("workloads").deep_circuit(seed)


def _heated_bell(kind, rail):
    return BELL.replace("  cnot D Q\n",
                        f"  cnot D Q\n  {kind} {rail}\n  qndcheck D\n")


DOCUMENTS = {
    **{f"gate-{name}": (lambda name=name: _gate_document(name))
       for name in UNITARY_GATES},
    **{path.name: path.read_text
       for path in [*sorted((ROOT / "circuits").glob("*.drq")),
                    *sorted((ROOT / "perfbench" / "inputs").glob("*.drq"))]},
    **{f"deep-{seed}": (lambda seed=seed: _deep_circuit(seed))
       for seed in (1, 7, 12345)},
    **{f"bell-{kind}-{rail}": (lambda kind=kind, rail=rail:
                               _heated_bell(kind, rail))
       for kind in ("gain", "loss") for rail in ("m0", "m1")},
    # Healthy, so the flag reads odd and the flag qubit is reset.
    "bell-qndcheck": lambda: BELL.replace("  cnot D Q\n",
                                          "  cnot D Q\n  qndcheck D\n"),
}


@pytest.mark.parametrize("name", DOCUMENTS)
def test_sparse_run_matches_dense_replay(name):
    assert replay(DOCUMENTS[name]()) > 0


# --- generated documents -------------------------------------------------

DEEP_REGISTER = """\
system:
  qubits: q0 a0 a1
  modes: r0 r1 r2 r3
  cutoff: {cutoff}
registers:
  Q internal q0
  D1 dual_rail r0 r1
  D2 dual_rail r2 r3
ancillas:
  qubits: a0 a1
"""

BUS_REGISTER = """\
system:
  qubits: c1 t q8 q9
  modes: d0 d1 baux taux com
  cutoff: {cutoff}
registers:
  C1 internal c1
  C2 dual_rail_aux d0 d1 baux
  T internal_aux t taux
ancillas:
  qubits: q8 q9
  com_mode: com
"""

# The only register here with two dual-rail targets for mcswap: 11 664 dims.
SWAP_REGISTER = """\
system:
  qubits: c1 c2 a1 a2
  modes: b2 com m0 m1 m2 m3
  cutoff: {cutoff}
registers:
  C1 internal c1
  C2 internal_aux c2 b2
  T1 dual_rail m0 m1
  T2 dual_rail m2 m3
ancillas:
  qubits: a1 a2
  com_mode: com
"""

# (header, logical ids, cutoffs)
REGISTERS = {
    "deep": (DEEP_REGISTER, ("Q", "D1", "D2"), (3, 4)),
    "bus": (BUS_REGISTER, ("C1", "C2", "T"), (3,)),
    "swap": (SWAP_REGISTER, ("C1", "C2", "T1", "T2"), (3,)),
}


def _lowers(header, line):
    doc = parse_circuit(header + f"program:\n  {line}\n")
    try:
        lower(build_system(doc)[1], doc.program)
    except CompileError:
        return False
    return True


@functools.cache
def _lowering_operands(register, cutoff, name):
    """The operand tuples on which a `name` record lowers on a register."""
    header, ids, _ = REGISTERS[register]
    spec = GATES[name]
    line = " ".join([name, *["0.5"] * spec.n_params])
    most = min(spec.max_operands or len(ids), len(ids))
    return [operands for count in range(spec.min_operands, most + 1)
            for operands in itertools.permutations(ids, count)
            if _lowers(header.format(cutoff=cutoff),
                       " ".join([line, *operands]))]


@st.composite
def documents(draw, register):
    header, _, cutoffs = REGISTERS[register]
    cutoff = draw(st.sampled_from(cutoffs))
    lines = []
    for _ in range(draw(st.integers(1, 12))):
        name = draw(st.sampled_from(UNITARY_GATES))
        spec = GATES[name]
        params = [repr(draw(st.floats(-7.0, 7.0))) for _ in range(spec.n_params)]
        # A row that lowers on no operands of the register is dropped.
        choices = _lowering_operands(register, cutoff, name)
        if choices:
            lines.append(" ".join(
                [name, *params, *draw(st.sampled_from(choices))]))
    return (header.format(cutoff=cutoff) + "program:\n"
            + "".join(f"  {line}\n" for line in lines))


@pytest.mark.parametrize("register", REGISTERS)
@settings(derandomize=True, deadline=None, max_examples=25)
@given(data=st.data())
def test_generated_documents_run_sparse_like_dense(register, data):
    replay(data.draw(documents(register)))


@pytest.mark.parametrize("name", UNITARY_GATES)
def test_every_unitary_row_is_drawn_on_some_register(name):
    assert any(_lowering_operands(register, cutoffs[0], name)
               for register, (_, _, cutoffs) in REGISTERS.items())


@pytest.mark.parametrize("register", REGISTERS)
@settings(derandomize=True, deadline=None, max_examples=15)
@given(data=st.data())
def test_generated_documents_match_the_reference(register, data):
    """`compile`'s listing replayed by the reference pulse simulator gives
    `run`'s amplitudes and leakage; the amplitudes are the textbook
    logical state up to global phase; the document round-trips."""
    ref = _perfbench("reference")
    text = data.draw(documents(register))
    doc = parse_circuit(text)
    assert parse_circuit(serialize_circuit(doc)) == doc
    compiled, code = cmd_compile(doc, argparse.Namespace(cutoff=None))
    assert code == 0
    args = argparse.Namespace(cutoff=None, seed=0, shots=0,
                              allow_midcircuit=False)
    report, code = cmd_run(doc, args)
    assert code == 0
    circ = ref.read_circuit(text)
    sim = ref.PulseSim(circ)
    sim.replay(compiled, report)
    want = sim.logical_amplitudes()
    got = np.array([complex(*a) for a in report["logical_amplitudes"]])
    assert np.max(np.abs(got - want)) <= 1e-8
    leakage = max(0.0, 1.0 - float(np.sum(np.abs(want) ** 2)))
    assert abs(report["leakage"] - leakage) <= 1e-8
    assert ref.phase_error(got, ref.logical_model(circ)) <= 1e-8
