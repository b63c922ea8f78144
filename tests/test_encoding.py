import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drqsim import fock
from drqsim import (
    RegisterError,
    StateError,
    apply_pulses,
    basis_state,
    create_layout,
    define_register,
    extract_logical_state,
    LogicalRegister,
    ground_state,
    measure_dual_rail,
    prepare_dual_rail_zero,
)
from drqsim.cli import build_system
from drqsim.compiler import compile_gate
from drqsim.document import parse_circuit
from drqsim.encoding import SUBSYSTEM_KINDS
from drqsim.verify import inject_heating_error, run_program

from conftest import gate
from oracles import (
    codeword_index,
    codeword_table_extraction,
    dense_state,
    levels_of,
    logical_basis_state,
)
from test_sparse_run import REGISTERS


def test_logical_basis_state_rejects_oversized_register():
    layout = create_layout([(f"m{i}", "mode", 10) for i in range(16)])
    register = define_register(
        layout, [(f"D{i}", "dual_rail", (f"m{2 * i}", f"m{2 * i + 1}"))
                 for i in range(8)])
    state = logical_basis_state(register, [0] * 8)
    with pytest.raises(StateError, match="needs 160000000000000000 bytes"):
        state.amplitudes


def test_register_counts_logical_qubits(hybrid_system):
    _, register = hybrid_system
    assert register.n_logical == 2
    assert register.logical_dim == 4


def test_codeword_indices_built_once(hybrid_system):
    _, register = hybrid_system
    indices = register.codeword_indices
    assert indices.tolist() == [codeword_index(register, bits)
                                for bits in ((0, 0), (0, 1), (1, 0), (1, 1))]
    assert register.codeword_indices is indices
    with pytest.raises(ValueError):
        indices[0] = 0


def _codeword_loop(register):
    return [codeword_index(register, bits)
            for bits in itertools.product((0, 1), repeat=register.n_logical)]


@st.composite
def registers(draw, unclaimed=False):
    """Entries of every kind, in a drawn order, over a shuffled layout;
    with `unclaimed`, the layout also holds a mode `free` that no entry
    claims."""
    cutoff = draw(st.integers(3, 5))
    spec, entries = [("anc", "qubit", 2)], []
    if unclaimed:
        spec.append(("free", "mode", cutoff))
    for i, kind in enumerate(draw(st.lists(
            st.sampled_from(sorted(SUBSYSTEM_KINDS)), max_size=5))):
        # Each kind's subsystems: one qubit first for the internal kinds,
        # then modes.
        n_qubits = 1 if kind.startswith("internal") else 0
        physical = [f"s{i}_{j}" for j in range(len(SUBSYSTEM_KINDS[kind]))]
        spec += [(sid, "qubit", 2) if j < n_qubits else (sid, "mode", cutoff)
                 for j, sid in enumerate(physical)]
        entries.append((f"L{i}", kind, physical))
    layout = create_layout(draw(st.permutations(spec)))
    return define_register(layout, entries, ancilla_qubits=("anc",))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(register=registers())
def test_codeword_indices_match_the_codeword_loop(register):
    assert register.codeword_indices.tolist() == _codeword_loop(register)


def _bit_table(register):
    """The codeword indices as a (2**n, n) bit table, first registered
    qubit most significant, times each qubit's step."""
    n = register.n_logical
    base = codeword_index(register, [0] * n)
    steps = [codeword_index(register, [int(i == j) for j in range(n)]) - base
             for i in range(n)]
    bits = np.arange(2 ** n)[:, None] >> np.arange(n)[::-1] & 1
    return (base + bits @ np.array(steps, dtype=np.int64)).tolist()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(register=registers())
def test_codeword_indices_match_the_bit_table(register):
    assert register.codeword_indices.tolist() == _bit_table(register)


@pytest.mark.parametrize("name", REGISTERS)
def test_codeword_indices_of_the_document_registers(name):
    header, _, cutoffs = REGISTERS[name]
    for cutoff in cutoffs:
        doc = parse_circuit(header.format(cutoff=cutoff) + "program:\n")
        register = build_system(doc)[1]
        assert register.codeword_indices.tolist() == _codeword_loop(register)


def test_footprint_keeps_the_operands_pool_and_bus_in_layout_order():
    header, _, _ = REGISTERS["bus"]
    register = build_system(parse_circuit(
        header.format(cutoff=3) + "program:\n"))[1]
    local = register.footprint(["T", "C1"])
    assert [e.logical_id for e in local.entries] == ["T", "C1"]
    assert (local.ancilla_qubits, local.com_mode) == (
        register.ancilla_qubits, register.com_mode)
    want = set(local.claimed_subsystems())
    assert local.layout.subsystems == tuple(
        s for s in register.layout.subsystems if s.sid in want)
    # Each codeword keeps its levels on the footprint's subsystems.
    full = LogicalRegister(register.layout, local.entries,
                           register.ancilla_qubits, register.com_mode)
    for big, small in zip(full.codeword_indices, local.codeword_indices):
        levels = dict(zip(register.layout.ids,
                          levels_of(register.layout, int(big))))
        assert levels_of(local.layout, int(small)) == tuple(
            levels[sid] for sid in local.layout.ids)
    # One subsystem set, whatever the operands' order: another layout
    # object that places the targets alike, so the kernel's plan memo,
    # keyed on their dims and strides, serves both footprints.
    again = register.footprint(["C1", "T"]).layout
    sids = tuple(local.layout.ids[:2])
    assert again.targets(sids)[1:3] == local.layout.targets(sids)[1:3]
    index = np.sort(local.codeword_indices)
    amps = np.full((len(index), 1), 0.5, dtype=complex)
    block = local.layout.dims[0] * local.layout.dims[1]
    matrix = np.linalg.qr(np.random.default_rng(1).normal(
        size=(block, block)) + 0j)[0]
    fock._memo_plan.cache_clear()
    want = fock.apply_matrix_support(index, amps, local.layout, matrix, sids)
    got = fock.apply_matrix_support(index, amps, again, matrix, sids)
    info = fock._memo_plan.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_register_rejects_reuse():
    layout = create_layout([("m0", "mode", 4), ("m1", "mode", 4),
                            ("m2", "mode", 4)])
    with pytest.raises(RegisterError):
        define_register(layout, [("D1", "dual_rail", ("m0", "m1")),
                                 ("D2", "dual_rail", ("m1", "m2"))])


def test_register_rejects_missing_aux():
    layout = create_layout([("m0", "mode", 4), ("m1", "mode", 4)])
    with pytest.raises(RegisterError):
        define_register(layout, [("D", "dual_rail_aux", ("m0", "m1"))])


def test_register_rejects_ancilla_overlap():
    layout = create_layout([("q", "qubit", 2), ("m0", "mode", 4),
                            ("m1", "mode", 4)])
    with pytest.raises(RegisterError):
        define_register(layout, [("Q", "internal", ("q",))],
                        ancilla_qubits=("q",))


@st.composite
def leaky_states(draw):
    """A state on a drawn register whose rows are codewords and, each
    drawn or not, a codeword with one dual-rail rail at level 2, with an
    aux mode occupied, with the unclaimed mode occupied, and with the
    pool ancilla excited; magnitudes drawn or all tied."""
    register = draw(registers(unclaimed=True))
    layout, n = register.layout, register.n_logical
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    rails = [sid for e in register.entries if e.is_dual_rail
             for sid in e.rails]
    auxes = [e.aux_mode for e in register.entries if e.aux_mode]
    leaks = [(None, 0)] * draw(st.integers(1, 4))
    for sids, level in ((rails, 2), (auxes, 1), (["free"], 1), (["anc"], 1)):
        if sids and draw(st.booleans()):
            leaks.append((draw(st.sampled_from(sids)), level))
    rows = set()
    for sid, level in leaks:
        levels = list(levels_of(layout, codeword_index(register, draw(bits))))
        if sid is not None:
            levels[layout.axis(sid)] = level
        rows.add(layout.basis_index(levels))
    index = np.array(sorted(rows), dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mags = (np.ones(len(index)) if draw(st.booleans())
            else rng.uniform(0.1, 1.0, len(index)))
    values = mags * np.exp(1j * rng.uniform(-np.pi, np.pi, len(index)))
    return (fock.StateVector(layout, index=index,
                             values=values / np.linalg.norm(values)),
            register)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=leaky_states())
def test_extract_matches_the_codeword_table(case):
    state, register = case
    amps, leakage, phase = codeword_table_extraction(state, register)
    report = extract_logical_state(state, register)
    assert np.array_equal(report.logical_amplitudes, amps)
    assert abs(report.leakage - leakage) <= 1e-12
    assert abs(report.global_phase - phase) <= 1e-12


def test_extract_refuses_a_row_whose_levels_carry_into_a_codeword_index():
    # Strides m0: 1, m2: 3, m1: 9, m3: 27.  The leaked row m0 = m1 = 2
    # has index 20, which is also base + 2 * step(A) = 4 + 2 * 8: only its
    # bit of 2 tells it from a codeword.
    layout = create_layout([(m, "mode", 3) for m in ("m0", "m2", "m1", "m3")])
    register = define_register(layout, [("A", "dual_rail", ("m0", "m1")),
                                        ("B", "dual_rail", ("m2", "m3"))])
    good = codeword_index(register, [1, 0])
    leaked = layout.basis_index([2, 0, 2, 0])
    assert register.codeword_steps == (4, (8, 24)) and leaked == 4 + 2 * 8
    state = fock.StateVector(layout, index=np.array(sorted([good, leaked])),
                             values=np.full(2, 1 / np.sqrt(2), dtype=complex))
    report = extract_logical_state(state, register)
    assert report.leakage == pytest.approx(0.5, abs=1e-12)
    assert np.array_equal(report.logical_amplitudes,
                          codeword_table_extraction(state, register)[0])


def test_prepare_dual_rail_zero(hybrid_system):
    layout, register = hybrid_system
    ops, phase = prepare_dual_rail_zero(register, "D")
    state = apply_pulses(ground_state(layout), ops)
    idx = layout.basis_index([0, 0, 1, 0])  # q, anc, m0=1, m1=0
    assert abs(state.amplitudes[idx]) == pytest.approx(1.0, abs=1e-10)
    assert state.amplitudes[idx] == pytest.approx(np.exp(1j * phase),
                                                  abs=1e-10)
    assert state.population("anc", 0) == pytest.approx(1.0, abs=1e-12)


def test_prepare_twice_populates_second_fock_level(hybrid_system):
    layout, register = hybrid_system
    ops, _ = prepare_dual_rail_zero(register, "D")
    state = apply_pulses(apply_pulses(ground_state(layout), ops), ops)
    assert state.population("m0", 2) > 0.1


def test_measure_one_deterministic(hybrid_system):
    layout, register = hybrid_system
    state = logical_basis_state(register, [0, 1])  # Q=0, D=1
    bit, collapsed = measure_dual_rail(state, register, "D", 5)
    assert bit == 1
    assert collapsed.population("anc", 0) == pytest.approx(1.0, abs=1e-10)


def test_measure_zero_deterministic(hybrid_system):
    layout, register = hybrid_system
    state = logical_basis_state(register, [0, 0])
    bit, _ = measure_dual_rail(state, register, "D", 5)
    assert bit == 0


def test_measure_superposition_statistics(hybrid_system):
    layout, register = hybrid_system
    plus = (logical_basis_state(register, [0, 0]).amplitudes
            + logical_basis_state(register, [0, 1]).amplitudes) / np.sqrt(2)
    state = dense_state(layout, plus)
    rng = np.random.default_rng(99)
    ones = sum(measure_dual_rail(state, register, "D", rng)[0]
               for _ in range(10000))
    assert abs(ones - 5000) <= 3 * np.sqrt(10000 * 0.25)


def test_measure_requires_ground_ancilla(hybrid_system):
    layout, register = hybrid_system
    state = basis_state(layout, {"anc": 1, "m0": 1})
    with pytest.raises(StateError):
        measure_dual_rail(state, register, "D", 0)


@pytest.mark.parametrize("function", [prepare_dual_rail_zero,
                                      measure_dual_rail])
def test_encoding_takes_the_ancilla_from_its_register(function):
    assert not any("ancilla" in name for name in
                   inspect.signature(function).parameters)


def test_first_pool_ancilla_loads_and_reads():
    layout = create_layout([("a", "qubit", 2), ("b", "qubit", 2),
                            ("m0", "mode", 4), ("m1", "mode", 4)])
    register = define_register(layout, [("D", "dual_rail", ("m0", "m1"))],
                               ancilla_qubits=("a", "b"))
    ops, _ = prepare_dual_rail_zero(register, "D")
    assert [op.targets for op in ops] == [("a",), ("a", "m0")]
    # An excited `b` is left alone; an excited `a` is refused.
    state = basis_state(layout, {"b": 1, "m1": 1})
    bit, collapsed = measure_dual_rail(state, register, "D", 0)
    assert bit == 1
    assert collapsed.population("b", 1) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(StateError, match="ancilla 'a'"):
        measure_dual_rail(basis_state(layout, {"a": 1, "m1": 1}),
                          register, "D", 0)


def test_measure_leaves_disjoint_dual_rail(dual_pair_system):
    layout, register = dual_pair_system
    a = logical_basis_state(register, [0, 0]).amplitudes
    b = logical_basis_state(register, [1, 0]).amplitudes
    state = dense_state(layout, (a + 1j * b) / np.sqrt(2))
    before = extract_logical_state(state, register).logical_amplitudes
    bit, collapsed = measure_dual_rail(state, register, "D2", 3)
    assert bit == 0
    after = extract_logical_state(collapsed, register).logical_amplitudes
    # D1 amplitudes unchanged (D2 collapsed onto |0>).
    fid = abs(np.vdot(before, after))
    assert fid == pytest.approx(1.0, abs=1e-10)


def test_extract_codeword(hybrid_system):
    layout, register = hybrid_system
    state = logical_basis_state(register, [0, 0])
    report = extract_logical_state(state, register)
    assert report.logical_amplitudes[0] == pytest.approx(1.0)
    assert report.leakage == pytest.approx(0.0, abs=1e-12)


def test_extract_flags_phonon_loss(hybrid_system):
    layout, register = hybrid_system
    state = ground_state(layout)  # both rails empty: outside the code span
    report = extract_logical_state(state, register)
    assert report.leakage == pytest.approx(1.0)


def test_extract_superposition_stays_in_span(hybrid_system, rng):
    layout, register = hybrid_system
    amps = np.zeros(layout.total_dim, dtype=complex)
    coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
    coeffs /= np.linalg.norm(coeffs)
    for k, bits in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        amps[codeword_index(register, bits)] = coeffs[k]
    report = extract_logical_state(dense_state(layout, amps), register)
    assert report.leakage <= 1e-10
    assert np.allclose(report.logical_amplitudes, coeffs)


@pytest.mark.parametrize("nudged", [0, 1])
def test_global_phase_ignores_a_last_bit_tie_break(hybrid_system, nudged):
    # Two codewords of equal magnitude; one ulp more on either one must
    # not move the reported phase off the first in logical order.
    layout, register = hybrid_system
    mag = np.full(2, 1 / np.sqrt(2))
    mag[nudged] = np.nextafter(mag[nudged], 1.0)
    amps = np.zeros(layout.total_dim, dtype=complex)
    amps[[codeword_index(register, bits) for bits in [(0, 1), (1, 0)]]] = (
        mag * np.exp(1j * np.array([0.3, 1.2])))
    report = extract_logical_state(dense_state(layout, amps), register)
    assert np.argmax(np.abs(report.logical_amplitudes[1:3])) == nudged
    assert report.global_phase == pytest.approx(0.3, abs=1e-15)


def test_leakage_half_mix(hybrid_system):
    layout, register = hybrid_system
    good = logical_basis_state(register, [0, 0]).amplitudes
    bad = np.zeros_like(good)
    bad[layout.basis_index([0, 0, 0, 0])] = 1.0  # rails empty
    state = dense_state(layout, (good + bad) / np.sqrt(2))
    assert (extract_logical_state(state, register).leakage
            == pytest.approx(0.5, abs=1e-10))


def test_leakage_after_heating_error(hybrid_system):
    layout, register = hybrid_system
    state = logical_basis_state(register, [0, 0])
    lost = inject_heating_error(state, "m0", "loss")
    assert (extract_logical_state(lost, register).leakage
            == pytest.approx(1.0, abs=1e-10))


def test_prep_gate_measure_round_trip(hybrid_system):
    # Prepare |0>_D, apply a compiled Hadamard, measure: the empirical
    # one-frequency must match |<1|H|0>|^2 = 1/2.
    layout, register = hybrid_system
    ops, _ = prepare_dual_rail_zero(register, "D")
    state = apply_pulses(ground_state(layout), ops)
    prog = compile_gate(register, gate("h", "D"))
    state = run_program(state, prog)
    rng = np.random.default_rng(7)
    shots = 10000
    ones = sum(measure_dual_rail(state, register, "D", rng)[0]
               for _ in range(shots))
    assert abs(ones - shots / 2) <= 3 * np.sqrt(shots * 0.25)
