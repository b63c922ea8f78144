"""A command does each piece of its repeated gate work once.

- `compiler.lower` lowers each distinct record once per call;
- `pulses.pulse_matrix` builds each distinct (kind, theta, phi, target
  dims) once, whatever its targets and layout, and `apply_pulse` reads
  the memo's matrix in place;
- the health checks take all their populations in one reduction;
- `run` checks each unitary step's health once, at its exit.

Each is pinned to the form that does the work every time.
"""
import argparse
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drqsim import cli, compiler, pulses, verify
from drqsim.compiler import PULSES, lower, preparation
from drqsim.document import parse_circuit
from drqsim.encoding import define_register
from drqsim.errors import CompileError
from drqsim.fock import (
    HilbertLayout,
    StateVector,
    apply_matrix,
    apply_matrix_support,
    basis_state,
    create_layout,
    exp_hermitian,
    ground_state,
)
from drqsim.pulses import (
    beamsplitter,
    carrier,
    native_xx,
    pulse_matrix,
    qphase,
    rsb,
    zbs,
)
from drqsim.verify import (
    ancilla_reset_defect,
    run_program,
    sentinel_population,
)

from conftest import gate, probing, random_state
from oracles import pulse_generator
from test_sparse_run import (
    DEEP_REGISTER,
    REGISTERS,
    _deep_circuit,
    documents,
)
from test_verify_memo import repeating_documents

ARGS = argparse.Namespace(seed=5, shots=200,
                          allow_midcircuit=False, builtin=False, tol=None)


def _memo_key(rec):
    # The memo tells -0.0 from 0.0, as the compile listing does.
    return rec, repr(rec.params)


# --- lowering memo ---------------------------------------------------------

def _lower_afresh(register, records):
    """`lower` without its memo: every record in a call of its own."""
    steps = []
    for i, rec in enumerate(records):
        (step,) = lower(register, [rec])
        steps.append(step._replace(index=i))
    return steps


def _reports(doc):
    """The compile, run and verify reports of a document, as JSON text."""
    return [json.dumps(cmd(doc, ARGS))
            for cmd in (cli.cmd_compile, cli.cmd_run, cli.cmd_verify)]


@pytest.mark.parametrize("register", REGISTERS)
@settings(derandomize=True, deadline=None, max_examples=10)
@given(data=st.data())
def test_lower_compiles_each_distinct_record_once(register, data):
    doc = parse_circuit(data.draw(repeating_documents(register)))
    with mock.patch.object(compiler, "compile_gate",
                           wraps=compiler.compile_gate) as spy:
        steps = lower(cli.build_system(doc)[1], doc.program)
    assert spy.call_count == len({_memo_key(rec) for rec in doc.program})
    first = {}
    for step in steps:
        assert first.setdefault(_memo_key(step.record),
                                step.program) is step.program


@pytest.mark.parametrize("register", REGISTERS)
@settings(derandomize=True, deadline=None, max_examples=8)
@given(data=st.data())
def test_memo_reports_equal_fresh_lowering(register, data):
    doc = parse_circuit(data.draw(repeating_documents(register)))
    memo = _reports(doc)
    with mock.patch.object(cli, "lower", _lower_afresh):
        assert _reports(doc) == memo


def test_memo_tells_signed_zeros_apart():
    # `rx 0` and `rx -0` are equal records whose pulses print apart.
    lines = ["rx 0 D1", "rx -0 D1", "rz -0 Q", "rz 0 Q", "rzz 0 D1 D2",
             "rzz -0 D1 D2"]
    doc = parse_circuit(DEEP_REGISTER.format(cutoff=4) + "program:\n"
                        + "".join(f"  {line}\n" for line in lines))
    memo = _reports(doc)
    with mock.patch.object(cli, "lower", _lower_afresh):
        assert _reports(doc) == memo


def test_first_failing_record_is_named():
    layout = create_layout([("q", "qubit", 2), ("m0", "mode", 4),
                            ("m1", "mode", 4)])
    # No ancilla: a dual-rail Hadamard cannot lower.
    register = define_register(
        layout, [("Q", "internal", ("q",)), ("D", "dual_rail", ("m0", "m1"))])
    records = [gate("x", "Q"), gate("h", "D"), gate("x", "Q"), gate("h", "D")]
    with pytest.raises(CompileError, match=r"^gate 1 \(h D\): "):
        lower(register, records)


# --- pulse memo ------------------------------------------------------------

SPEC = [("q", "qubit", 2), ("q2", "qubit", 2), ("m0", "mode", 4),
        ("m1", "mode", 3)]


def _misses_hits():
    info = pulses._matrix.cache_info()
    return np.array([info.misses, info.hits])


def test_equal_pulses_build_once_per_layout():
    layout = create_layout(SPEC)
    start = _misses_hits()
    first = pulse_matrix(zbs(0.7, 0.3, "q", "m0", "m1"), layout)
    again = pulse_matrix(zbs(0.7, 0.3, "q", "m0", "m1"), layout)
    assert (_misses_hits() - start).tolist() == [1, 1]
    assert again is not first and again.tobytes() == first.tobytes()
    # Layouts compare by value, so a layout built from the same spec
    # hits the same entry.
    pulse_matrix(zbs(0.7, 0.3, "q", "m0", "m1"), create_layout(SPEC))
    assert (_misses_hits() - start).tolist() == [1, 2]


@pytest.mark.parametrize("op", [
    carrier(0.97, -1.2, "q"),
    rsb(1.41, "q", "m0"),
    beamsplitter(0.66, 2.1, "m0", "m1"),
    zbs(-0.58, 0.9, "q", "m0", "m1"),
    qphase(2.3, "q"),
    native_xx(0.77, "q", "q2"),
], ids=lambda op: op.kind)
def test_cached_pulse_matrix_is_a_fresh_build(op):
    layout = create_layout(SPEC)
    pulse_matrix(op, layout)
    start = _misses_hits()
    cached = pulse_matrix(op, layout)
    assert (_misses_hits() - start).tolist() == [0, 1]
    dims = tuple(layout.dim_of(sid) for sid in op.targets)
    fresh = pulses._matrix.__wrapped__(op.kind, op.theta, op.phi, dims)
    assert cached.tobytes() == fresh.tobytes()
    oracle = exp_hermitian(*pulse_generator(op, layout))
    assert np.max(np.abs(cached - oracle)) <= 1e-10


def test_pulses_past_the_row_cap_skip_the_memo():
    # The memo holds at most 64 matrices of MEMO_MAX_ROWS rows; this zbs
    # has 2 * 6 * 6 = 72 rows and is built on every call.
    layout = create_layout([("q", "qubit", 2), ("m0", "mode", 6),
                            ("m1", "mode", 6)])
    op = zbs(0.7, 0.3, "q", "m0", "m1")
    assert 72 > pulses.MEMO_MAX_ROWS
    start = _misses_hits()
    first = pulse_matrix(op, layout)
    again = pulse_matrix(op, layout)
    assert (_misses_hits() - start).tolist() == [0, 0]
    assert again is not first and again.tobytes() == first.tobytes()
    oracle = exp_hermitian(*pulse_generator(op, layout))
    assert np.max(np.abs(first - oracle)) <= 1e-10
    # `apply_pulse` does not touch the memo either.
    state = basis_state(layout, {"q": 1, "m0": 3})
    want = apply_matrix(state, first, op.targets).values.tobytes()
    info = pulses._matrix.cache_info()
    for _ in range(2):
        assert pulses.apply_pulse(state, op).values.tobytes() == want
    assert pulses._matrix.cache_info() == info


@pytest.mark.parametrize("op", [
    carrier(0.97, -1.2, "q"),
    rsb(1.41, "q", "m0"),
    zbs(-0.58, 0.9, "q", "m0", "m1"),
], ids=lambda op: op.kind)
def test_a_repeated_pulse_reads_its_targets_once(op):
    # The layout's entry for the targets holds their kinds and dims, so
    # only the first application reads the layout subsystem by subsystem.
    layout = create_layout(SPEC)
    state = random_state(layout, np.random.default_rng(3))
    with mock.patch.object(HilbertLayout, "kind_of", autospec=True,
                           side_effect=HilbertLayout.kind_of) as kind_of, \
            mock.patch.object(HilbertLayout, "dim_of", autospec=True,
                              side_effect=HilbertLayout.dim_of) as dim_of:
        state = pulses.apply_pulse(state, op)
        first = kind_of.call_count, dim_of.call_count
        for _ in range(20):
            state = pulses.apply_pulse(state, op)
        assert (kind_of.call_count, dim_of.call_count) == first


def test_one_angle_shares_an_entry_across_targets_and_layouts():
    # The matrix depends only on (kind, theta, phi, target dims): another
    # rail pair of equal dims, a layout of only the targets (as a gate's
    # footprint is) and the aux flag all hit the first call's entry.
    layout = create_layout(SPEC + [("m2", "mode", 4), ("m3", "mode", 3)])
    footprint = create_layout([("q", "qubit", 2), ("m0", "mode", 4),
                               ("m1", "mode", 3)])
    op = zbs(0.4321, -1.234, "q", "m0", "m1")
    start = _misses_hits()
    first = pulse_matrix(op, layout)
    assert (_misses_hits() - start).tolist() == [1, 0]
    for other, on in [(zbs(0.4321, -1.234, "q2", "m2", "m3"), layout),
                      (op, footprint), (op.with_aux_flag(), layout)]:
        assert pulse_matrix(other, on).tobytes() == first.tobytes()
    assert (_misses_hits() - start).tolist() == [1, 3]


def test_memo_hit_hands_the_kernel_the_memo_matrix(monkeypatch):
    layout = create_layout(SPEC)
    op = zbs(0.7, 0.3, "q", "m0", "m1")
    state = basis_state(layout, {"q": 1, "m0": 2, "m1": 1})
    pulses.apply_pulse(state, op)  # the miss that builds the entry
    memo = pulses._matrix(op.kind, op.theta, op.phi, (2, 4, 3))
    seen = []

    def kernel(index, amplitudes, layout, matrix, sids):
        seen.append(matrix)
        return apply_matrix_support(index, amplitudes, layout, matrix, sids)

    def forbidden(*args):
        raise AssertionError("called on a memo hit")

    with monkeypatch.context() as m:
        # The target check runs on every call; nothing is built.
        for name in ("pulse_matrix", "_build"):
            m.setattr(pulses, name, forbidden)
        m.setattr(pulses, "apply_matrix_support", kernel)
        out = pulses.apply_pulse(state, op)
    assert len(seen) == 1 and seen[0] is memo
    with pytest.raises(ValueError):
        memo[0, 0] = 0
    # `pulse_matrix` still hands its caller a writable copy.
    own = pulse_matrix(op, layout)
    assert own is not memo and own.flags.writeable
    assert own.tobytes() == memo.tobytes()
    fresh = apply_matrix(state, own, op.targets)
    assert out.index.tobytes() == fresh.index.tobytes()
    assert out.values.tobytes() == fresh.values.tobytes()


# --- health populations ----------------------------------------------------

@st.composite
def states_and_pairs(draw):
    """A state on a drawn share of a small layout's basis, and (sid,
    level) pairs to read, repeats included."""
    dims = draw(st.lists(st.sampled_from([2, 3, 4, 5]), min_size=1,
                         max_size=5))
    layout = create_layout([(f"s{i}", "qubit" if d == 2 else "mode", d)
                            for i, d in enumerate(dims)])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    index = np.flatnonzero(rng.random(layout.total_dim)
                           < draw(st.floats(0.0, 1.0)))
    values = rng.normal(size=len(index)) + 1j * rng.normal(size=len(index))
    state = StateVector(layout, index=index, values=values)
    pairs = draw(st.lists(st.sampled_from(
        [(s.sid, level) for s in layout.subsystems for level in range(s.dim)]),
        min_size=1, max_size=8))
    return state, pairs


def _masked_population(state, sid, level):
    return np.sum(np.abs(state.values[state.levels(sid) == level]) ** 2)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(drawn=states_and_pairs())
def test_populations_match_the_masked_sums(drawn):
    state, pairs = drawn
    got = state.populations(pairs)
    assert got.shape == (len(pairs),)
    for (sid, level), pop in zip(pairs, got):
        # Equal, not only close: readout branches on these sums.
        assert pop == _masked_population(state, sid, level)
        assert state.population(sid, level) == pop


def _sentinel_loop(state):
    worst = 0.0
    for sub in state.layout.subsystems:
        if sub.kind == "mode" and sub.dim >= 4:
            worst = max(worst, _masked_population(state, sub.sid, sub.dim - 1))
    return worst


def _ancilla_loop(state, register):
    worst = 0.0
    for sid in [*register.ancilla_qubits, register.com_mode]:
        if sid is not None:
            worst = max(worst, 1.0 - _masked_population(state, sid, 0))
    return worst


@st.composite
def health_states(draw):
    """A register with pool ancillas and a COM mode, and a random
    normalized state of 3 to 64 support rows that holds an excited
    ancilla, a COM mode above level 0 and, from cutoff 4, a populated
    sentinel."""
    cutoff = draw(st.integers(3, 5))
    layout = create_layout([("c", "qubit", 2), ("a0", "qubit", 2),
                            ("a1", "qubit", 2), ("d0", "mode", cutoff),
                            ("d1", "mode", cutoff), ("com", "mode", cutoff)])
    register = define_register(
        layout, [("C", "internal", ("c",)), ("D", "dual_rail", ("d0", "d1"))],
        ancilla_qubits=("a0", "a1"), com_mode="com")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    top = cutoff - 1
    marked = [layout.basis_index([0, 1, 0, 1, 0, 0]),
              layout.basis_index([0, 0, 0, 0, 1, 2]),
              layout.basis_index([1, 0, 0, top, 0, top])]
    n = draw(st.integers(len(marked), 64))
    others = np.setdiff1d(rng.choice(layout.total_dim, n, replace=False),
                          marked)
    index = np.union1d(marked, others[:n - len(marked)])
    values = rng.normal(size=len(index)) + 1j * rng.normal(size=len(index))
    values /= np.linalg.norm(values)
    return StateVector(layout, index=index, values=values), register


@settings(derandomize=True, deadline=None, max_examples=200)
@given(drawn=health_states())
def test_health_reductions_equal_their_loop_forms(drawn):
    # Past 8 rows numpy's pairwise sum and one reduction can round
    # apart, so the two forms agree to 1e-15, not exactly.
    state, register = drawn
    sentinel, defect = _sentinel_loop(state), _ancilla_loop(state, register)
    assert defect > 0 and (sentinel > 0) == (state.layout.dim_of("com") >= 4)
    assert abs(sentinel_population(state) - sentinel) <= 1e-15
    assert abs(ancilla_reset_defect(state, register) - defect) <= 1e-15


@pytest.mark.parametrize("register", REGISTERS)
@settings(derandomize=True, deadline=None, max_examples=10)
@given(data=st.data())
def test_health_numbers_equal_their_loop_forms(register, data):
    doc = parse_circuit(data.draw(documents(register)))
    layout, reg = cli.build_system(doc)
    probed = []

    def probe(state):
        assert abs(sentinel_population(state) - _sentinel_loop(state)) <= 1e-15
        assert abs(ancilla_reset_defect(state, reg)
                   - _ancilla_loop(state, reg)) <= 1e-15
        probed.append(state)

    with probing(probe):
        state = run_program(ground_state(layout), preparation(reg))
        for step in lower(reg, doc.program):
            state = run_program(state, step.program)
    assert probed


def test_health_numbers_without_sentinel_or_ancilla(rng):
    layout = create_layout([("q", "qubit", 2), ("m0", "mode", 3),
                            ("m1", "mode", 3)])
    register = define_register(
        layout, [("Q", "internal", ("q",)), ("D", "dual_rail", ("m0", "m1"))])
    state = random_state(layout, rng)
    assert sentinel_population(state) == 0.0
    assert ancilla_reset_defect(state, register) == 0.0


def test_run_checks_each_unitary_step_once(monkeypatch):
    # Each step starts from the state the step before it passed at exit.
    doc = parse_circuit(_deep_circuit(7))
    steps = lower(cli.build_system(doc)[1], doc.program)
    spies = {name: mock.Mock(wraps=getattr(verify, name))
             for name in ("ancilla_reset_defect", "check_sentinel")}
    for name, spy in spies.items():
        monkeypatch.setattr(verify, name, spy)
    _, code = cli.cmd_run(
        doc, argparse.Namespace(seed=3, shots=0, allow_midcircuit=False))
    assert code == 0
    assert len(steps) == 161 and all(s.kind == PULSES for s in steps)
    assert [spy.call_count for spy in spies.values()] == [161, 161]
