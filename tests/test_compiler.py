import math

import numpy as np
import pytest
from scipy.stats import unitary_group

from drqsim import CompileError, create_layout, define_register
from drqsim import compiler as comp
from drqsim.compiler import (
    CompiledProgram,
    _exchange_back_ops,
    _exchange_out_ops,
    compile_cnot,
    compile_cswap,
    compile_gate,
    compile_kcnot,
    compile_multi_controlled,
    compile_rxx,
    compile_rzz,
    compile_su2,
    xy_decompose,
)
from drqsim.verify import (
    ancilla_reset_defect,
    check_records,
    equivalent_up_to_phase,
    ideal_logical_gate,
    program_unitary,
    run_program,
)

from conftest import gate, random_state
from oracles import (compile_program, dense_state, logical_basis_state,
                     numpy_xy_decompose)


def rot(axis, theta):
    return comp.rotation_matrix(axis, theta)


# --- X-Y decomposition ---------------------------------------------------------

def _rebuilt(alpha, t1, t2, t3):
    return np.exp(1j * alpha) * rot("x", t1) @ rot("y", t2) @ rot("x", t3)


def test_xy_decompose_reconstructs(rng):
    for _ in range(50):
        u = unitary_group.rvs(2, random_state=rng)
        assert np.max(np.abs(_rebuilt(*xy_decompose(u)) - u)) <= 1e-12


def _straddling(which: str, scale: float, k: complex) -> np.ndarray:
    """k H w H for w = R_Y(gamma) R_Z(pi) = -i [[c, s], [s, -c]] with |w10|
    (which == "w10") or |w00| at `scale` * 1e-12.  Its ZYZ angles change
    with the branch taken, and written with exact zeros they come out
    the same on both routes."""
    small = scale * 1e-12
    big = math.sqrt(1 - small * small)
    c, s = (big, small) if which == "w10" else (small, big)
    w = np.array([[-1j * c, -1j * s], [-1j * s, 1j * c]])
    return k * (comp.HADAMARD @ w @ comp.HADAMARD)


def _oracle_cases():
    rng = np.random.default_rng(28)
    cases = {f"haar{i}": unitary_group.rvs(2, random_state=rng)
             for i in range(40)}
    cases.update({name: row.ideal((), 1) for name, row in comp.GATES.items()
                  if row.ideal is not None and row.max_operands == 1
                  and row.n_params == 0})
    cases.update({f"r{axis}({t:.4g})": rot(axis, t) for axis in "xyz"
                  for t in (0.0, np.pi, -np.pi, 2 * np.pi)})
    cases.update({f"{which}={scale}e-12*{k}": _straddling(which, scale, k)
                  for which in ("w10", "w00") for scale in (0.999, 1.001)
                  for k in (1, 1j)})
    return cases


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_xy_decompose_matches_numpy_oracle(name):
    u = ORACLE_CASES[name]
    got, want = xy_decompose(u), numpy_xy_decompose(u)
    for g, w in zip(got, want):
        assert abs(math.remainder(g - w, 2 * math.pi)) <= 1e-12
    assert np.max(np.abs(_rebuilt(*got) - _rebuilt(*want))) <= 1e-12


def test_straddling_inputs_sit_on_both_sides_of_the_threshold():
    for which, index in (("w10", (1, 0)), ("w00", (0, 0))):
        for scale in (0.999, 1.001):
            v = _straddling(which, scale, 1)
            w = comp.HADAMARD @ v @ comp.HADAMARD
            assert (abs(w[index]) < 1e-12) == (scale < 1)


def test_xy_decompose_rejects_non_unitary():
    for u in (np.diag([1, 2.0]), np.zeros((2, 2)), np.ones((2, 2)),
              2 * comp.HADAMARD):
        with pytest.raises(CompileError, match="matrix is not unitary"):
            xy_decompose(u)


# NaN and infinite parts, and a finite entry whose modulus overflows.
BAD_ENTRIES = [math.nan, math.inf, -math.inf, complex(0, math.nan),
               complex(math.inf, math.nan), complex(1.5e308, 1.5e308)]


@pytest.mark.parametrize("base", ["x", "h"])
@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("value", BAD_ENTRIES, ids=repr)
def test_xy_decompose_rejects_nonfinite_entries(value, position, base):
    u = np.array(comp.GATES[base].ideal((), 1))
    u.flat[position] = value
    with pytest.raises(CompileError, match="matrix is not unitary"):
        xy_decompose(u)


# --- single-qubit gates --------------------------------------------------------

def test_su2_identity_elides_all_pulses(hybrid_system):
    _, register = hybrid_system
    prog = compile_su2(register, np.eye(2), "D")
    assert prog.ops == []


@pytest.mark.parametrize("target", ["Q", "D"])
def test_su2_refuses_non_unitary_on_either_target(hybrid_system, target):
    _, register = hybrid_system
    with pytest.raises(CompileError, match=r"matrix is not unitary "
                       r"\(defect 3\.000e\+00\)"):
        compile_su2(register, np.diag([1, 2]), target)
    with pytest.raises(CompileError, match="matrix is not unitary"):
        compile_su2(register, np.zeros((2, 2)), target)


@pytest.mark.parametrize("target", ["Q", "D"])
@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_su2_refuses_nonfinite_on_either_target(hybrid_system, target,
                                                position, value):
    _, register = hybrid_system
    for u in (np.eye(2, dtype=complex), np.array(comp.PAULI_X)):
        u.flat[position] = value
        with pytest.raises(CompileError, match="matrix is not unitary"):
            compile_su2(register, u, target)


def test_su2_x_is_single_beamsplitter(hybrid_system):
    _, register = hybrid_system
    prog = compile_su2(register, comp.PAULI_X, "D")
    assert len(prog.ops) == 1
    op = prog.ops[0]
    assert op.kind == "zbs"
    assert op.theta == pytest.approx(np.pi / 2)
    assert op.phi == pytest.approx(np.pi)


@pytest.mark.parametrize("record,pulses", [
    (gate("y", "Q"), 1), (gate("y", "D"), 1),
    (gate("rx", 2 * np.pi, "Q"), 0), (gate("rx", 2 * np.pi, "D"), 0),
    (gate("ry", -2 * np.pi, "D"), 0),
], ids=["y-Q", "y-D", "rx2pi-Q", "rx2pi-D", "ry-2pi-D"])
def test_full_turns_fold_into_the_ledger(hybrid_system, record, pulses):
    # Y is e^{i pi/2} R_X(+-2 pi) R_Y(-pi).  A full turn is -I on the
    # logical subspace, a phase that the ledger carries, not a pulse.
    layout, register = hybrid_system
    prog = compile_gate(register, record)
    assert len(prog.ops) == pulses
    (report,) = check_records(register, [record], 1e-10)
    assert report.equivalent
    got = program_unitary(prog, layout, restrict=register)
    u = ideal_logical_gate(record.name, record.params, 1)
    ideal = (np.kron(u, np.eye(2)) if record.operands == ("Q",)
             else np.kron(np.eye(2), u))
    rep = equivalent_up_to_phase(got.matrix, ideal, 1e-10)
    # physical = e^{i ledger} * ideal, so the inferred phase is -ledger.
    assert np.exp(1j * rep.inferred_phase) == pytest.approx(
        np.exp(-1j * prog.global_phase), abs=1e-10)


def test_su2_dual_random_targets(hybrid_system, rng):
    layout, register = hybrid_system
    for _ in range(15):
        u = unitary_group.rvs(2, random_state=rng)
        prog = compile_su2(register, u, "D")
        got = program_unitary(prog, layout, restrict=register)
        ideal = np.kron(np.eye(2), u)
        rep = equivalent_up_to_phase(got.matrix, ideal, 1e-9, got.leakage_max)
        assert rep.equivalent


def test_su2_internal_diagonal_uses_qphase(hybrid_system):
    _, register = hybrid_system
    prog = compile_su2(register, rot("z", 0.7), "Q")
    assert [op.kind for op in prog.ops] == ["qphase"]
    assert prog.ops[0].theta == pytest.approx(-0.7)


def test_su2_internal_random(hybrid_system, rng):
    layout, register = hybrid_system
    for _ in range(15):
        u = unitary_group.rvs(2, random_state=rng)
        prog = compile_su2(register, u, "Q")
        got = program_unitary(prog, layout, restrict=register)
        ideal = np.kron(u, np.eye(2))
        rep = equivalent_up_to_phase(got.matrix, ideal, 1e-9, got.leakage_max)
        assert rep.equivalent


def test_su2_ledger_matches_inferred_phase(hybrid_system, rng):
    layout, register = hybrid_system
    u = unitary_group.rvs(2, random_state=rng)
    prog = compile_su2(register, u, "D")
    got = program_unitary(prog, layout, restrict=register)
    rep = equivalent_up_to_phase(got.matrix, np.kron(np.eye(2), u), 1e-9)
    # physical = e^{i ledger} * ideal, so the inferred phase is -ledger.
    assert np.exp(1j * rep.inferred_phase) == pytest.approx(
        np.exp(-1j * prog.global_phase), abs=1e-9)


# --- RZZ -----------------------------------------------------------------------

def test_rzz_fock_phases(dual_pair_system):
    import drqsim.fock as fock
    layout, register = dual_pair_system
    theta = 0.913
    prog = compile_rzz(register, theta, "D1", "D2")
    # (n, m) on the second rails: (0,0) -> e^{-i theta/2}, (1,0) -> e^{+i theta/2}
    for (n, m), want in [((0, 0), np.exp(-1j * theta / 2)),
                         ((1, 0), np.exp(1j * theta / 2))]:
        state = fock.basis_state(layout, {"m1": n, "m3": m})
        out = run_program(state, prog)
        idx = layout.basis_index([0, 0, n, 0, m])
        assert out.amplitudes[idx] == pytest.approx(want, abs=1e-10)


def test_rzz_logical_truth_table(dual_pair_system, rng):
    layout, register = dual_pair_system
    for _ in range(10):
        theta = rng.uniform(-2 * np.pi, 2 * np.pi)
        prog = compile_rzz(register, theta, "D1", "D2")
        got = program_unitary(prog, layout, restrict=register)
        rep = equivalent_up_to_phase(
            got.matrix, ideal_logical_gate("rzz", [theta], 2), 1e-9,
            got.leakage_max)
        assert rep.equivalent
        assert abs(np.exp(1j * rep.inferred_phase) - 1) <= 1e-9  # no phase


def _makhlin_invariants(u):
    """Local-equivalence invariants of a two-qubit gate."""
    magic = np.array([[1, 0, 0, 1j], [0, 1j, 1, 0],
                      [0, 1j, -1, 0], [1, 0, 0, -1j]]) / np.sqrt(2)
    m = magic.conj().T @ u @ magic
    mm = m.T @ m
    det = np.linalg.det(u)
    g1 = np.trace(mm) ** 2 / (16 * det)
    g2 = (np.trace(mm) ** 2 - np.trace(mm @ mm)) / (4 * det)
    return g1, g2


def test_rzz_half_pi_is_cnot_equivalent(dual_pair_system):
    # Canonical-invariant check: R_ZZ(pi/2) and CNOT share their Makhlin
    # invariants, so they match up to single-qubit gates.
    layout, register = dual_pair_system
    prog = compile_rzz(register, np.pi / 2, "D1", "D2")
    got = program_unitary(prog, layout, restrict=register).matrix
    g1, g2 = _makhlin_invariants(got)
    c1, c2 = _makhlin_invariants(ideal_logical_gate("cnot", [], 2))
    assert abs(g1 - c1) <= 1e-9
    assert abs(g2 - c2) <= 1e-9


# --- hybrid CNOT -----------------------------------------------------------------

def test_cnot_on_superposition_makes_bell(hybrid_system):
    layout, register = hybrid_system
    plus = compile_gate(register, gate("h", "Q"))
    cx = compile_cnot(register, "Q", "D")
    state = logical_basis_state(register, [0, 0])
    state = run_program(run_program(state, plus), cx)
    from drqsim import extract_logical_state
    report = extract_logical_state(state, register)
    amps = report.logical_amplitudes
    assert abs(abs(amps[0]) - 1 / np.sqrt(2)) <= 1e-10
    assert abs(abs(amps[3]) - 1 / np.sqrt(2)) <= 1e-10
    assert abs(amps[1]) <= 1e-10 and abs(amps[2]) <= 1e-10
    assert report.leakage <= 1e-10


def test_cnot_flips_target(hybrid_system):
    layout, register = hybrid_system
    cx = compile_cnot(register, "Q", "D")
    state = logical_basis_state(register, [1, 0])
    out = run_program(state, cx)
    from drqsim import extract_logical_state
    amps = extract_logical_state(out, register).logical_amplitudes
    assert abs(amps[3]) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("control,target", [("Q", "D"), ("D", "Q")])
def test_cnot_both_directions_phase(hybrid_system, control, target):
    layout, register = hybrid_system
    prog = compile_cnot(register, control, target)
    got = program_unitary(prog, layout, restrict=register)
    cnot = ideal_logical_gate("cnot", [], 2)
    if control == "D":
        perm = [0, 2, 1, 3]
        cnot = cnot[np.ix_(perm, perm)]
    rep = equivalent_up_to_phase(got.matrix, cnot, 1e-9, got.leakage_max)
    assert rep.equivalent
    assert np.exp(1j * rep.inferred_phase) == pytest.approx(
        np.exp(-1j * np.pi / 4), abs=1e-9)


def test_cnot_internal_native(rng):
    layout = create_layout([("a", "qubit", 2), ("b", "qubit", 2)])
    register = define_register(layout, [("A", "internal", ("a",)),
                                        ("B", "internal", ("b",))])
    prog = compile_cnot(register, "A", "B")
    got = program_unitary(prog, layout, restrict=register)
    rep = equivalent_up_to_phase(got.matrix, ideal_logical_gate("cnot", [], 2),
                                 1e-9, got.leakage_max)
    assert rep.equivalent
    assert [op.kind for op in prog.ops].count("native_xx") == 1


# --- hybrid RXX ------------------------------------------------------------------

def test_rxx_zero_angle_identity(hybrid_system):
    layout, register = hybrid_system
    prog = compile_rxx(register, 0.0, "Q", "D")
    got = program_unitary(prog, layout, restrict=register)
    rep = equivalent_up_to_phase(got.matrix, np.eye(4), 1e-9, got.leakage_max)
    assert rep.equivalent


def test_rxx_half_pi_on_00(hybrid_system):
    layout, register = hybrid_system
    prog = compile_rxx(register, np.pi / 2, "Q", "D")
    state = run_program(logical_basis_state(register, [0, 0]), prog)
    from drqsim import extract_logical_state
    amps = extract_logical_state(state, register).logical_amplitudes
    assert amps[0] == pytest.approx(1 / np.sqrt(2), abs=1e-10)
    assert amps[3] == pytest.approx(-1j / np.sqrt(2), abs=1e-10)


def test_rxx_random_angles(hybrid_system, rng):
    layout, register = hybrid_system
    for _ in range(20):
        theta = rng.uniform(-2 * np.pi, 2 * np.pi)
        prog = compile_rxx(register, theta, "Q", "D")
        assert prog.ancilla_manifest == []
        got = program_unitary(prog, layout, restrict=register)
        rep = equivalent_up_to_phase(
            got.matrix, ideal_logical_gate("rxx", [theta], 2), 1e-9,
            got.leakage_max)
        assert rep.equivalent


# --- CSWAP -----------------------------------------------------------------------

def _cswap_system(n_pairs, cutoff=3):
    mode_count = 4 * n_pairs
    layout = create_layout(
        [("q", "qubit", 2), ("anc", "qubit", 2)]
        + [(f"m{i}", "mode", cutoff) for i in range(mode_count)])
    entries = [("Q", "internal", ("q",))]
    for j in range(2 * n_pairs):
        entries.append((f"D{j + 1}", "dual_rail", (f"m{2 * j}", f"m{2 * j + 1}")))
    register = define_register(layout, entries, ancilla_qubits=("anc",))
    return layout, register


def test_cswap_swaps_on_excited_control():
    layout, register = _cswap_system(1)
    prog = compile_cswap(register, "Q", ["D1", "D2"])
    state = logical_basis_state(register, [1, 1, 0])
    out = run_program(state, prog)
    from drqsim import extract_logical_state
    amps = extract_logical_state(out, register).logical_amplitudes
    assert abs(amps[0b101]) == pytest.approx(1.0, abs=1e-10)
    # Ground branch untouched
    state = logical_basis_state(register, [0, 1, 0])
    out = run_program(state, prog)
    amps = extract_logical_state(out, register).logical_amplitudes
    # The e^{i pi/2} correction phase is global, so it shows up here too.
    assert abs(amps[0b010]) == pytest.approx(1.0, abs=1e-10)


def test_cswap_unitary_and_phase():
    layout, register = _cswap_system(1)
    prog = compile_cswap(register, "Q", ["D1", "D2"])
    got = program_unitary(prog, layout, restrict=register)
    rep = equivalent_up_to_phase(got.matrix, ideal_logical_gate("cswap", [], 3),
                                 1e-9, got.leakage_max)
    assert rep.equivalent
    assert np.exp(1j * rep.inferred_phase) == pytest.approx(
        np.exp(-1j * np.pi / 2), abs=1e-9)


def test_cswap_even_n_has_no_correction():
    layout, register = _cswap_system(2)
    prog = compile_cswap(register, "Q", ["D1", "D2", "D3", "D4"])
    assert all(op.kind != "qphase" for op in prog.ops)
    got = program_unitary(prog, layout, restrict=register)
    rep = equivalent_up_to_phase(got.matrix, ideal_logical_gate("cswap", [], 5),
                                 1e-9, got.leakage_max)
    assert rep.equivalent
    assert abs(np.exp(1j * rep.inferred_phase) - 1) <= 1e-9


def test_cswap_correction_iff_odd():
    for n_pairs, expect in [(1, True), (2, False)]:
        _, register = _cswap_system(n_pairs)
        targets = [f"D{j + 1}" for j in range(2 * n_pairs)]
        prog = compile_cswap(register, "Q", targets)
        assert any(op.kind == "qphase" for op in prog.ops) is expect


def test_cswap_rejects_overlap():
    _, register = _cswap_system(1)
    with pytest.raises(CompileError):
        compile_cswap(register, "Q", ["D1", "D1"])


# --- exchange ---------------------------------------------------------------------

def _exchange_state(layout, register, alpha, beta):
    a = logical_basis_state(register, [0, 0]).amplitudes  # Q=0, D=0
    b = logical_basis_state(register, [0, 1]).amplitudes
    return dense_state(layout, alpha * a + beta * b)


def _exchange(register, ops):
    """The bus ladder's exchange pulses between D's rails and qubit q."""
    prog = CompiledProgram()
    prog.add(*ops("q", *register.entry("D").rails, "anc"))
    return prog


def test_exchange_moves_rail_state_to_qubit(hybrid_system):
    layout, register = hybrid_system
    exchange = _exchange(register, _exchange_out_ops)
    alpha, beta = 0.6, 0.8
    state = _exchange_state(layout, register, alpha, beta)
    out = run_program(state, exchange)  # C1 C2 composite
    phase = np.exp(1j * exchange.global_phase)
    idx_down = layout.basis_index([0, 0, 1, 0])
    idx_up = layout.basis_index([1, 0, 1, 0])
    assert out.amplitudes[idx_down] == pytest.approx(alpha * phase, abs=1e-10)
    assert out.amplitudes[idx_up] == pytest.approx(beta * phase, abs=1e-10)
    assert abs(phase - 1j) <= 1e-12  # e^{i pi/2} per the construction


def test_exchange_basis_cases(hybrid_system):
    layout, register = hybrid_system
    exchange = _exchange(register, _exchange_out_ops)
    # alpha = 1: rails to |10>, qubit stays ground
    out = run_program(_exchange_state(layout, register, 1, 0), exchange)
    assert abs(out.amplitudes[layout.basis_index([0, 0, 1, 0])]) == pytest.approx(
        1.0, abs=1e-10)
    # beta = 1: qubit excited
    out = run_program(_exchange_state(layout, register, 0, 1), exchange)
    assert abs(out.amplitudes[layout.basis_index([1, 0, 1, 0])]) == pytest.approx(
        1.0, abs=1e-10)


def test_exchange_round_trip_is_identity_up_to_phase(hybrid_system, rng):
    layout, register = hybrid_system
    alpha = rng.normal() + 1j * rng.normal()
    beta = rng.normal() + 1j * rng.normal()
    norm = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    alpha, beta = alpha / norm, beta / norm
    state = _exchange_state(layout, register, alpha, beta)
    # C2 C1 after C1 C2
    out = run_program(state, _exchange(register, _exchange_out_ops))
    out = run_program(out, _exchange(register, _exchange_back_ops))
    fid = abs(np.vdot(state.amplitudes, out.amplitudes))
    assert fid == pytest.approx(1.0, abs=1e-9)


# --- K-CNOT -----------------------------------------------------------------------

def _kcnot_system(control_kinds, target_kind="internal_aux", cutoff=3):
    subs = [("anc1", "qubit", 2), ("anc2", "qubit", 2),
            ("com", "mode", cutoff)]
    entries = []
    qn = mn = 0
    for i, kind in enumerate([*control_kinds, target_kind]):
        name = f"C{i + 1}" if i < len(control_kinds) else "T"
        if kind == "internal":
            subs.append((f"q{qn}", "qubit", 2))
            entries.append((name, "internal", (f"q{qn}",)))
            qn += 1
        elif kind == "internal_aux":
            subs.append((f"q{qn}", "qubit", 2))
            subs.append((f"b{mn}", "mode", cutoff))
            entries.append((name, "internal_aux", (f"q{qn}", f"b{mn}")))
            qn += 1
            mn += 1
        elif kind == "dual_rail_aux":
            subs += [(f"d{mn}", "mode", cutoff), (f"d{mn + 1}", "mode", cutoff),
                     (f"b{mn}", "mode", cutoff)]
            entries.append((name, "dual_rail_aux",
                            (f"d{mn}", f"d{mn + 1}", f"b{mn}")))
            mn += 2
        else:
            raise ValueError(kind)
    layout = create_layout(subs)
    register = define_register(layout, entries,
                               ancilla_qubits=("anc1", "anc2"),
                               com_mode="com")
    return layout, register


def _truth_table_check(layout, register, prog, n, flip_rule):
    for basis in range(2 ** n):
        bits = [(basis >> (n - 1 - i)) & 1 for i in range(n)]
        state = logical_basis_state(register, bits)
        out = run_program(state, prog)
        want = flip_rule(bits)
        from drqsim import extract_logical_state
        report = extract_logical_state(out, register)
        idx = 0
        for b in want:
            idx = (idx << 1) | b
        assert abs(report.logical_amplitudes[idx]) ** 2 >= 1 - 1e-9
        assert ancilla_reset_defect(out, register) <= 1e-9


def _mcx_rule(bits):
    *controls, t = bits
    return [*controls, t ^ int(all(controls))]


def test_kcnot_two_internal_controls():
    layout, register = _kcnot_system(["internal", "internal_aux"])
    prog = compile_kcnot(register, ["C1", "C2"], "T")
    got = program_unitary(prog, layout, restrict=register)
    rep = equivalent_up_to_phase(got.matrix, ideal_logical_gate("kcnot", [], 3),
                                 1e-9, got.leakage_max)
    assert rep.equivalent


def test_kcnot_mixed_control_truth_table():
    layout, register = _kcnot_system(["internal", "dual_rail_aux"])
    prog = compile_kcnot(register, ["C1", "C2"], "T")
    _truth_table_check(layout, register, prog, 3, _mcx_rule)


def test_kcnot_dual_rail_first_control():
    layout, register = _kcnot_system(["dual_rail_aux", "internal_aux"])
    prog = compile_kcnot(register, ["C1", "C2"], "T")
    _truth_table_check(layout, register, prog, 3, _mcx_rule)


def test_kcnot_dual_rail_target():
    layout, register = _kcnot_system(["internal", "internal_aux"],
                                     target_kind="dual_rail_aux")
    prog = compile_kcnot(register, ["C1", "C2"], "T")
    _truth_table_check(layout, register, prog, 3, _mcx_rule)
    # Ledger integrity: the exchange wrapping contributes exactly the
    # recorded global phase.
    got = program_unitary(prog, layout, restrict=register)
    rep = equivalent_up_to_phase(got.matrix, ideal_logical_gate("kcnot", [], 3),
                                 1e-9, got.leakage_max)
    assert rep.equivalent
    assert np.exp(1j * rep.inferred_phase) == pytest.approx(
        np.exp(-1j * prog.global_phase), abs=1e-9)


def test_kcnot_op_count_linear():
    counts = {}
    for k in (2, 3, 4):
        kinds = ["internal"] + ["internal_aux"] * (k - 1)
        _, register = _kcnot_system(kinds)
        prog = compile_kcnot(register, [f"C{i + 1}" for i in range(k)], "T")
        counts[k] = len(prog.ops)
    slope = counts[3] - counts[2]
    assert counts[4] - counts[3] == slope
    # exact affine fit: count = a*k + b
    a = slope
    b = counts[2] - 2 * a
    assert all(counts[k] == a * k + b for k in (2, 3, 4))


def test_kcnot_requires_two_controls():
    _, register = _kcnot_system(["internal", "internal_aux"])
    with pytest.raises(CompileError):
        compile_kcnot(register, ["C1"], "T")


def test_kcnot_requires_aux_modes():
    layout, register = _kcnot_system(["internal", "internal"])
    with pytest.raises(CompileError, match="auxiliary mode"):
        compile_kcnot(register, ["C1", "C2"], "T")


def test_kcnot_requires_com():
    layout = create_layout([
        ("q0", "qubit", 2), ("q1", "qubit", 2), ("q2", "qubit", 2),
        ("anc", "qubit", 2), ("b1", "mode", 3), ("b2", "mode", 3)])
    register = define_register(
        layout,
        [("C1", "internal", ("q0",)), ("C2", "internal_aux", ("q1", "b1")),
         ("T", "internal_aux", ("q2", "b2"))],
        ancilla_qubits=("anc",))
    with pytest.raises(CompileError, match="COM"):
        compile_kcnot(register, ["C1", "C2"], "T")


def test_aux_transition_block_transformations():
    # The ZBS(-pi/4) B(-pi/4) pair reproduces the auxiliary sideband's
    # action on the zero/one-phonon bus blocks: the bus phonon moves into
    # the aux mode with -i iff the qubit is in the ground state, and two
    # applications give the -1 phase.
    from drqsim.compiler import _aux_rsb_pi
    from drqsim.fock import basis_state
    layout = create_layout([("q", "qubit", 2), ("anc", "qubit", 2),
                            ("b", "mode", 3), ("com", "mode", 3)])
    seq = _aux_rsb_pi("q", "b", "com", "anc")

    def levels(q, b, com):
        return {"q": q, "b": b, "com": com}

    cases = [
        # (input levels, expected levels, expected amplitude)
        (levels(0, 0, 1), (0, 0, 1, 0), -1j),   # |g>|0>_b|1>_com -> -i|g>|1>_b|0>_com
        (levels(0, 0, 0), (0, 0, 0, 0), 1.0),
        (levels(1, 0, 0), (1, 0, 0, 0), 1.0),
        (levels(1, 0, 1), (1, 0, 0, 1), 1.0),
    ]
    for start, want, amp_want in cases:
        state = basis_state(layout, start)
        out = run_program(state, seq)
        got = out.amplitudes[layout.basis_index(list(want))]
        assert got == pytest.approx(amp_want, abs=1e-12)

    # Double application restores the phonon with an overall -1.
    state = basis_state(layout, levels(0, 0, 1))
    out = run_program(run_program(state, seq), seq)
    got = out.amplitudes[layout.basis_index([0, 0, 0, 1])]
    assert got == pytest.approx(-1.0, abs=1e-12)


# --- multi-controlled gates ---------------------------------------------------------

def test_multi_controlled_cnot_is_toffoli():
    layout, register = _kcnot_system(["internal", "internal_aux"],
                                     target_kind="internal")
    prog = compile_multi_controlled(register, ["C1", "C2"], ["T"])
    got = program_unitary(prog, layout, restrict=register)
    rep = equivalent_up_to_phase(got.matrix, ideal_logical_gate("mcx", [], 3),
                                 1e-9, got.leakage_max)
    assert rep.equivalent


def test_multi_controlled_rsb_unitary_count():
    for k in (2, 3):
        kinds = ["internal"] + ["internal_aux"] * (k - 1)
        _, register = _kcnot_system(kinds, target_kind="internal")
        prog = compile_multi_controlled(register,
                                        [f"C{i + 1}" for i in range(k)],
                                        ["T"])
        assert prog.rsb_unitary_count() == 2 * k + 2


def test_multi_controlled_skips_inner_when_any_control_low():
    layout, register = _kcnot_system(["internal", "internal_aux"],
                                     target_kind="internal")
    prog = compile_multi_controlled(register, ["C1", "C2"], ["T"])
    for bits in ([0, 0, 1], [0, 1, 0], [1, 0, 1]):
        state = logical_basis_state(register, bits)
        out = run_program(state, prog)
        from drqsim import extract_logical_state
        report = extract_logical_state(out, register)
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        assert abs(report.logical_amplitudes[idx]) ** 2 >= 1 - 1e-9


def test_three_controlled_swap():
    # Fig-15-style gate: three controls, dual-rail swap targets, with the
    # paired-beamsplitter CSWAP as the inner gate.
    subs = [("anc1", "qubit", 2), ("anc2", "qubit", 2), ("com", "mode", 3),
            ("c1", "qubit", 2), ("c2", "qubit", 2), ("c3", "qubit", 2),
            ("b2", "mode", 3), ("b3", "mode", 3)]
    subs += [(f"m{i}", "mode", 3) for i in range(4)]
    layout = create_layout(subs)
    register = define_register(
        layout,
        [("C1", "internal", ("c1",)),
         ("C2", "internal_aux", ("c2", "b2")),
         ("C3", "internal_aux", ("c3", "b3")),
         ("T1", "dual_rail", ("m0", "m1")),
         ("T2", "dual_rail", ("m2", "m3"))],
        ancilla_qubits=("anc1", "anc2"), com_mode="com")
    prog = compile_multi_controlled(register, ["C1", "C2", "C3"],
                                    ["T1", "T2"])

    def rule(bits):
        c1, c2, c3, t1, t2 = bits
        if c1 and c2 and c3:
            t1, t2 = t2, t1
        return [c1, c2, c3, t1, t2]

    _truth_table_check(layout, register, prog, 5, rule)


# --- whole-circuit compilation --------------------------------------------------------

def test_compile_empty_program(hybrid_system):
    _, register = hybrid_system
    prog = compile_program([], register)
    assert prog.ops == []
    assert prog.global_phase == 0.0


def test_compile_bell_circuit(hybrid_system):
    layout, register = hybrid_system
    circuit = [gate("h", "D"), gate("cnot", "D", "Q")]
    prog = compile_program(circuit, register)
    state = run_program(logical_basis_state(register, [0, 0]), prog)
    from drqsim import extract_logical_state
    report = extract_logical_state(state, register)
    amps = report.logical_amplitudes
    assert abs(abs(amps[0]) - 1 / np.sqrt(2)) <= 1e-9
    assert abs(abs(amps[3]) - 1 / np.sqrt(2)) <= 1e-9
    assert report.leakage <= 1e-9


def test_compile_program_manifests_borrowings(dual_pair_system):
    _, register = dual_pair_system
    circuit = [gate("h", "D1"), gate("rzz", 0.4, "D1", "D2")]
    prog = compile_program(circuit, register)
    assert len(prog.ancilla_manifest) == 2
    assert all("anc" in use.qubits for use in prog.ancilla_manifest)


def test_compile_program_reports_gate_index_on_exhaustion():
    layout = create_layout([("m0", "mode", 4), ("m1", "mode", 4)])
    register = define_register(layout, [("D", "dual_rail", ("m0", "m1"))])
    with pytest.raises(CompileError, match="gate 0"):
        compile_program([gate("h", "D")], register)


@pytest.mark.parametrize("directive", [gate("loss", "m0"),
                                       gate("gain", "m1"),
                                       gate("qndcheck", "D")],
                         ids=lambda rec: rec.name)
def test_compile_program_refuses_directives(hybrid_system, directive):
    # Heating jumps and parity checks have no pulses to splice in.
    _, register = hybrid_system
    circuit = [gate("h", "D"), gate("cnot", "D", "Q"), directive]
    with pytest.raises(CompileError, match=(
            rf"^gate 2 \({directive.render()}\): {directive.name} is a "
            "directive, not a unitary gate$")):
        compile_program(circuit, register)


def test_compiled_gates_keep_codeword_span(hybrid_system, rng):
    # Logical closure: compiled gates map the code span to itself.
    layout, register = hybrid_system
    gates = [gate("h", "D"), gate("rx", 0.3, "Q"), gate("cnot", "Q", "D"),
             gate("rxx", 0.8, "Q", "D")]
    prog = compile_program(gates, register)
    coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
    coeffs /= np.linalg.norm(coeffs)
    amps = sum(c * logical_basis_state(register, [(k >> 1) & 1, k & 1]).amplitudes
               for k, c in enumerate(coeffs))
    from drqsim import extract_logical_state
    out = run_program(dense_state(layout, amps), prog)
    assert extract_logical_state(out, register).leakage <= 1e-9
    assert ancilla_reset_defect(out, register) <= 1e-9


@pytest.mark.parametrize("phase,wrapped", [
    (-1e-17, 0.0),   # np.mod gives 2 pi itself
    (0.0, 0.0),
    (-1e-15, float(np.mod(-1e-15, 2 * np.pi))),
    (2 * np.pi, 0.0),
    (7.0, 7.0 - 2 * np.pi),
])
def test_phase_mod_2pi_stays_below_2pi(phase, wrapped):
    assert comp.mod_2pi(phase) == wrapped
    assert CompiledProgram(global_phase=phase).phase_mod_2pi == wrapped
