"""Acceptance suite: one test per criterion, each printing a PASS line.

Runtime targets are asserted where stated; the whole module stays well
under the desk-scale budget.
"""
import time

import numpy as np
import pytest
from scipy.stats import unitary_group

from drqsim import (
    basis_state,
    create_layout,
    define_register,
    equivalent_up_to_phase,
    exp_hermitian,
    ground_state,
    inject_heating_error,
    measure_dual_rail,
    prepare_dual_rail_zero,
    program_unitary,
    qnd_parity_check,
    sample_counts,
)
from drqsim import compiler as comp
from drqsim.compiler import (
    compile_cnot,
    compile_cswap,
    compile_gate,
    compile_kcnot,
    compile_multi_controlled,
    compile_rxx,
    compile_rzz,
    compile_su2,
)
from drqsim.pulses import apply_pulses, cbs_factors
from drqsim.suite import cbs_generator
from drqsim.verify import (
    ancilla_reset_defect,
    ideal_logical_gate,
    run_program,
    sentinel_population,
)

from conftest import gate, probing
from oracles import compile_program, dense_state, logical_basis_state


def report(number, text):
    print(f"ACCEPTANCE {number:02d} PASS - {text}")


def bits_of(value, n):
    return [(value >> (n - 1 - i)) & 1 for i in range(n)]


# --- criterion 1 ---------------------------------------------------------------

def test_criterion_01_cbs_decomposition():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    layout = create_layout([("q", "qubit", 2), ("m0", "mode", 4),
                            ("m1", "mode", 4)])
    for _ in range(20):
        theta = rng.uniform(-np.pi, np.pi)
        phi = rng.uniform(-np.pi, np.pi)
        seq = cbs_factors(theta, phi, "q", "m0", "m1")
        built = program_unitary(seq, layout).matrix
        gen = cbs_generator(phi, 4)
        direct = exp_hermitian(gen, theta)
        assert np.max(np.abs(built - direct)) <= 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"CBS decomposition, 20 random draws ({elapsed:.2f}s)")


# --- criterion 2 ---------------------------------------------------------------

def test_criterion_02_tnp_phase():
    start = time.monotonic()
    rng = np.random.default_rng(102)
    layout = create_layout([("q", "qubit", 2), ("m0", "mode", 4),
                            ("m1", "mode", 4)])
    down = basis_state(layout, {})
    for _ in range(10):
        theta = rng.uniform(-np.pi, np.pi)
        seq = comp.tnp_sequence(theta, "q", "m0", "m1")
        for n in range(3):
            for m in range(3 - n):
                state = basis_state(layout, {"m0": n, "m1": m})
                out = apply_pulses(state, seq)
                want = np.exp(1j * ((-1) ** (n + m + 1)) * theta / 2)
                amp = out.amplitudes[layout.basis_index([0, n, m])]
                assert abs(amp - want) <= 1e-10
                assert out.population("q", 0) >= 1.0 - 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 2.0
    report(2, f"TNP phase on all pairs with n+m<=2, 10 angles ({elapsed:.2f}s)")


# --- criterion 3 ---------------------------------------------------------------

@pytest.fixture
def rzz_system():
    layout = create_layout(
        [("anc", "qubit", 2)] + [(f"m{i}", "mode", 4) for i in range(4)])
    register = define_register(
        layout,
        [("D1", "dual_rail", ("m0", "m1")),
         ("D2", "dual_rail", ("m2", "m3"))],
        ancilla_qubits=("anc",))
    return layout, register


def test_criterion_03_rzz_truth_table(rzz_system):
    layout, register = rzz_system
    rng = np.random.default_rng(103)
    for _ in range(10):
        theta = rng.uniform(-2 * np.pi, 2 * np.pi)
        prog = compile_rzz(register, theta, "D1", "D2")
        got = program_unitary(prog, layout, restrict=register).matrix
        ideal = np.diag(np.exp(-1j * theta / 2 * np.array([1, -1, -1, 1])))
        assert np.max(np.abs(got - ideal)) <= 1e-9
    report(3, "RZZ logical unitary is the stated diagonal, 10 angles")


# --- criterion 4 ---------------------------------------------------------------

def test_criterion_04_hybrid_cnot():
    layout = create_layout([("q", "qubit", 2), ("anc", "qubit", 2),
                            ("m0", "mode", 4), ("m1", "mode", 4)])
    register = define_register(
        layout,
        [("Q", "internal", ("q",)), ("D", "dual_rail", ("m0", "m1"))],
        ancilla_qubits=("anc",))
    cnot = ideal_logical_gate("cnot", [], 2)
    for control, target in (("Q", "D"), ("D", "Q")):
        prog = compile_cnot(register, control, target)
        got = program_unitary(prog, layout, restrict=register)
        ideal = cnot
        if control == "D":
            perm = [0, 2, 1, 3]
            ideal = cnot[np.ix_(perm, perm)]
        rep = equivalent_up_to_phase(got.matrix, ideal, 1e-9, got.leakage_max)
        assert rep.equivalent
        # physical = e^{i pi/4} * CNOT, so the inferred phase is -pi/4.
        assert abs(np.exp(1j * rep.inferred_phase)
                   - np.exp(-1j * np.pi / 4)) <= 1e-9
    report(4, "hybrid CNOT equals CNOT with global phase e^{i pi/4}, "
              "both directions")


# --- criterion 5 ---------------------------------------------------------------

def test_criterion_05_rxx_identity():
    layout = create_layout([("q", "qubit", 2), ("anc", "qubit", 2),
                            ("m0", "mode", 4), ("m1", "mode", 4)])
    register = define_register(
        layout,
        [("Q", "internal", ("q",)), ("D", "dual_rail", ("m0", "m1"))],
        ancilla_qubits=("anc",))
    rng = np.random.default_rng(105)
    for _ in range(20):
        theta = rng.uniform(-2 * np.pi, 2 * np.pi)
        prog = compile_rxx(register, theta, "Q", "D")
        assert prog.ancilla_manifest == []      # zero ancillas consumed
        assert all("anc" not in op.targets for op in prog.ops)
        got = program_unitary(prog, layout, restrict=register)
        rep = equivalent_up_to_phase(
            got.matrix, ideal_logical_gate("rxx", [theta], 2), 1e-9,
            got.leakage_max)
        assert rep.equivalent
    report(5, "RXX identity for 20 angles with zero ancillas")


# --- criterion 6 ---------------------------------------------------------------

def _cswap_register(n_pairs, cutoff=3):
    layout = create_layout(
        [("q", "qubit", 2), ("anc", "qubit", 2)]
        + [(f"m{i}", "mode", cutoff) for i in range(4 * n_pairs)])
    entries = [("Q", "internal", ("q",))]
    for j in range(2 * n_pairs):
        entries.append((f"D{j + 1}", "dual_rail",
                        (f"m{2 * j}", f"m{2 * j + 1}")))
    register = define_register(layout, entries, ancilla_qubits=("anc",))
    return layout, register


def test_criterion_06_cswap():
    layout, register = _cswap_register(1)
    prog = compile_cswap(register, "Q", ["D1", "D2"])
    assert any(op.kind == "qphase" for op in prog.ops)  # odd-N correction
    got = program_unitary(prog, layout, restrict=register)
    rep = equivalent_up_to_phase(got.matrix, ideal_logical_gate("cswap", [], 3),
                                 1e-9, got.leakage_max)
    assert rep.equivalent

    layout2, register2 = _cswap_register(2)
    prog2 = compile_cswap(register2, "Q", ["D1", "D2", "D3", "D4"])
    assert all(op.kind != "qphase" for op in prog2.ops)  # even N: none
    got2 = program_unitary(prog2, layout2, restrict=register2)
    rep2 = equivalent_up_to_phase(got2.matrix,
                                  ideal_logical_gate("cswap", [], 5), 1e-9,
                                  got2.leakage_max)
    assert rep2.equivalent
    report(6, "CSWAP: N=1 matches CSWAP, N=2 double swap without correction")


# --- criterion 7 ---------------------------------------------------------------

def _kcnot_register(control_kinds, target_kind="internal_aux", cutoff=3):
    subs = [("anc1", "qubit", 2), ("anc2", "qubit", 2), ("com", "mode", cutoff)]
    entries = []
    qn = mn = 0
    names = []
    for i, kind in enumerate([*control_kinds, target_kind]):
        name = f"C{i + 1}" if i < len(control_kinds) else "T"
        names.append(name)
        if kind == "internal":
            subs.append((f"q{qn}", "qubit", 2))
            entries.append((name, "internal", (f"q{qn}",)))
            qn += 1
        elif kind == "internal_aux":
            subs.append((f"q{qn}", "qubit", 2))
            subs.append((f"x{mn}", "mode", cutoff))
            entries.append((name, "internal_aux", (f"q{qn}", f"x{mn}")))
            qn += 1
            mn += 1
        elif kind == "dual_rail_aux":
            subs += [(f"x{mn}", "mode", cutoff), (f"x{mn + 1}", "mode", cutoff),
                     (f"x{mn + 2}", "mode", cutoff)]
            entries.append((name, "dual_rail_aux",
                            (f"x{mn}", f"x{mn + 1}", f"x{mn + 2}")))
            mn += 3
    layout = create_layout(subs)
    register = define_register(layout, entries, ancilla_qubits=("anc1", "anc2"),
                               com_mode="com")
    return layout, register


def _check_mcx_truth_table(layout, register, prog, n_qubits):
    com_leak = 0.0
    layout_com_axis = "com"
    for value in range(2 ** n_qubits):
        bits = bits_of(value, n_qubits)
        state = logical_basis_state(register, bits)
        probe_max = [0.0]

        def probe(st):
            dist = st.populations([(layout_com_axis, level) for level in
                                   range(st.layout.dim_of(layout_com_axis))])
            probe_max[0] = max(probe_max[0], float(np.sum(dist[2:])))

        with probing(probe):
            out = run_program(state, prog)
        com_leak = max(com_leak, probe_max[0])
        want = list(bits)
        want[-1] ^= int(all(bits[:-1]))
        idx = 0
        for b in want:
            idx = (idx << 1) | b
        from drqsim import extract_logical_state
        amps = extract_logical_state(out, register).logical_amplitudes
        assert abs(amps[idx]) ** 2 >= 1 - 1e-9
    assert com_leak <= 1e-12
    return com_leak


def test_criterion_07_kcnot():
    # K=2 all-internal
    layout, register = _kcnot_register(["internal", "internal_aux"])
    prog = compile_kcnot(register, ["C1", "C2"], "T")
    _check_mcx_truth_table(layout, register, prog, 3)

    # K=2 mixed internal / dual-rail
    layout, register = _kcnot_register(["internal", "dual_rail_aux"])
    prog = compile_kcnot(register, ["C1", "C2"], "T")
    _check_mcx_truth_table(layout, register, prog, 3)

    # K=3 mixed at cutoff 3, timed
    start = time.monotonic()
    layout, register = _kcnot_register(
        ["internal", "dual_rail_aux", "internal_aux"])
    prog = compile_kcnot(register, ["C1", "C2", "C3"], "T")
    _check_mcx_truth_table(layout, register, prog, 4)
    elapsed = time.monotonic() - start

    # Linear op count
    counts = {}
    for k in (2, 3, 4):
        kinds = ["internal"] + ["internal_aux"] * (k - 1)
        _, reg = _kcnot_register(kinds)
        counts[k] = len(compile_kcnot(reg, [f"C{i + 1}" for i in range(k)],
                                      "T").ops)
    a = counts[3] - counts[2]
    b = counts[2] - 2 * a
    assert all(counts[k] == a * k + b for k in (2, 3, 4))
    assert elapsed < 60.0
    report(7, f"K-CNOT truth tables (K=2, K=3 mixed in {elapsed:.1f}s), "
              f"COM stays below two phonons, op count {a}K+{b}")


# --- criterion 8 ---------------------------------------------------------------

def test_criterion_08_multi_controlled():
    for k in (2, 3):
        kinds = ["internal"] + ["internal_aux"] * (k - 1)
        _, register = _kcnot_register(kinds, target_kind="internal")
        prog = compile_multi_controlled(
            register, [f"C{i + 1}" for i in range(k)], ["T"])
        assert prog.rsb_unitary_count() == 2 * k + 2

    # Three-controlled SWAP on two dual-rail targets (inner paired-CBS CSWAP).
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
    assert prog.rsb_unitary_count() == 2 * 3 + 2
    from drqsim import extract_logical_state
    for value in range(32):
        bits = bits_of(value, 5)
        state = logical_basis_state(register, bits)
        out = run_program(state, prog)
        want = list(bits)
        if all(bits[:3]):
            want[3], want[4] = want[4], want[3]
        idx = 0
        for b in want:
            idx = (idx << 1) | b
        amps = extract_logical_state(out, register).logical_amplitudes
        assert abs(amps[idx]) ** 2 >= 1 - 1e-9
        assert ancilla_reset_defect(out, register) <= 1e-9
    report(8, "multi-controlled gate uses exactly 2K+2 sideband unitaries; "
              "three-controlled SWAP verified on all 32 basis states")


# --- criterion 9 ---------------------------------------------------------------

def test_criterion_09_qnd_parity():
    rng = np.random.default_rng(109)
    layout = create_layout([("q", "qubit", 2), ("m0", "mode", 4),
                            ("m1", "mode", 4)])
    for _ in range(100):
        parity = int(rng.integers(2))
        pairs = [(n, m) for n in range(4) for m in range(4)
                 if (n + m) % 2 == parity and n + m <= 3]
        coeffs = rng.normal(size=len(pairs)) + 1j * rng.normal(size=len(pairs))
        coeffs /= np.linalg.norm(coeffs)
        amps = np.zeros(layout.total_dim, dtype=complex)
        for (n, m), c in zip(pairs, coeffs):
            amps[layout.basis_index([0, n, m])] = c
        flag, post = qnd_parity_check(dense_state(layout, amps),
                                      "q", "m0", "m1", rng_seed=rng)
        assert flag == ("odd" if parity else "even")
        # Non-demolition: the modes are untouched, the flag back in ground.
        fid = sum(np.conj(c) * post.amplitudes[layout.basis_index([0, n, m])]
                  for (n, m), c in zip(pairs, coeffs))
        assert abs(abs(fid) - 1.0) <= 1e-10

    # Single loss or gain on either rail flips the flag to even.
    alpha, beta = 0.6, 0.8j
    amps = np.zeros(layout.total_dim, dtype=complex)
    amps[layout.basis_index([0, 1, 0])] = alpha
    amps[layout.basis_index([0, 0, 1])] = beta
    healthy = dense_state(layout, amps)
    for mode in ("m0", "m1"):
        for kind in ("loss", "gain"):
            broken = inject_heating_error(healthy, mode, kind)
            flag, _ = qnd_parity_check(broken, "q", "m0", "m1", rng_seed=rng)
            assert flag == "even"
    report(9, "QND parity: non-demolition on 100 random superpositions, "
              "loss/gain always flagged")


# --- criterion 10 ----------------------------------------------------------------

def test_criterion_10_su2_universality():
    layout = create_layout([("anc", "qubit", 2), ("m0", "mode", 4),
                            ("m1", "mode", 4)])
    register = define_register(layout, [("D", "dual_rail", ("m0", "m1"))],
                               ancilla_qubits=("anc",))
    rng = np.random.default_rng(110)
    for _ in range(50):
        u = unitary_group.rvs(2, random_state=rng)
        prog = compile_su2(register, u, "D")
        assert all(op.kind == "zbs" for op in prog.ops)
        got = program_unitary(prog, layout, restrict=register)
        rep = equivalent_up_to_phase(got.matrix, u, 1e-9, got.leakage_max)
        assert rep.equivalent
    report(10, "50 random SU(2) targets compile to beamsplitter sequences")


# --- criterion 11 ----------------------------------------------------------------

def test_criterion_11_ancilla_hygiene():
    rng = np.random.default_rng(111)

    def random_logical(register, layout):
        dim = register.logical_dim
        coeffs = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        coeffs /= np.linalg.norm(coeffs)
        amps = np.zeros(layout.total_dim, dtype=complex)
        for value, c in enumerate(coeffs):
            amps += c * logical_basis_state(
                register, bits_of(value, register.n_logical)).amplitudes
        return dense_state(layout, amps)

    worst_reset = 0.0
    worst_sentinel = 0.0

    # Hybrid register: single- and two-qubit constructions at cutoff 4.
    layout = create_layout([("q", "qubit", 2), ("anc", "qubit", 2),
                            ("m0", "mode", 4), ("m1", "mode", 4)])
    register = define_register(
        layout,
        [("Q", "internal", ("q",)), ("D", "dual_rail", ("m0", "m1"))],
        ancilla_qubits=("anc",))
    records = [gate("h", "D"), gate("rx", 0.37, "Q"), gate("ry", 1.1, "D"),
               gate("cnot", "Q", "D"), gate("cnot", "D", "Q"),
               gate("rxx", 0.81, "Q", "D")]
    for record in records:
        prog = compile_gate(register, record)
        out = run_program(random_logical(register, layout), prog)
        worst_reset = max(worst_reset, ancilla_reset_defect(out, register))
        worst_sentinel = max(worst_sentinel, sentinel_population(out))

    # RZZ on a dual-rail pair.
    layout2 = create_layout(
        [("anc", "qubit", 2)] + [(f"m{i}", "mode", 4) for i in range(4)])
    register2 = define_register(
        layout2,
        [("D1", "dual_rail", ("m0", "m1")),
         ("D2", "dual_rail", ("m2", "m3"))],
        ancilla_qubits=("anc",))
    prog = compile_gate(register2, gate("rzz", 0.53, "D1", "D2"))
    out = run_program(random_logical(register2, layout2), prog)
    worst_reset = max(worst_reset, ancilla_reset_defect(out, register2))
    worst_sentinel = max(worst_sentinel, sentinel_population(out))

    # CSWAP with an internal control.
    layout3, register3 = _cswap_register(1, cutoff=4)
    prog = compile_cswap(register3, "Q", ["D1", "D2"])
    out = run_program(random_logical(register3, layout3), prog)
    worst_reset = max(worst_reset, ancilla_reset_defect(out, register3))
    worst_sentinel = max(worst_sentinel, sentinel_population(out))

    # K-CNOT with a dual-rail control at cutoff 4 (sentinel live).
    layout4, register4 = _kcnot_register(["internal", "dual_rail_aux"],
                                         cutoff=4)
    prog = compile_kcnot(register4, ["C1", "C2"], "T")
    out = run_program(random_logical(register4, layout4), prog)
    worst_reset = max(worst_reset, ancilla_reset_defect(out, register4))
    worst_sentinel = max(worst_sentinel, sentinel_population(out))

    # Preparation and measurement restore their ancilla.
    state = ground_state(layout)
    ops, _ = prepare_dual_rail_zero(register, "D")
    state = run_program(state, ops)
    worst_reset = max(worst_reset, ancilla_reset_defect(state, register))
    _, collapsed = measure_dual_rail(state, register, "D", 4)
    worst_reset = max(worst_reset, ancilla_reset_defect(collapsed, register))

    assert worst_reset <= 1e-9
    assert worst_sentinel < 1e-12
    report(11, f"ancilla reset defect {worst_reset:.2e}, "
               f"sentinel population {worst_sentinel:.2e}")


# --- criterion 12 ----------------------------------------------------------------

def test_criterion_12_statistics():
    layout = create_layout([("q", "qubit", 2), ("anc", "qubit", 2),
                            ("m0", "mode", 4), ("m1", "mode", 4)])
    register = define_register(
        layout,
        [("Q", "internal", ("q",)), ("D", "dual_rail", ("m0", "m1"))],
        ancilla_qubits=("anc",))
    prog = compile_program([gate("h", "Q"), gate("cnot", "Q", "D")],
                           register)
    bell = run_program(logical_basis_state(register, [0, 0]), prog)

    shots = 10000
    counts = sample_counts(bell, register, ["Q", "D"], shots, seed=12)
    p_corr = (counts.get("00", 0) + counts.get("11", 0)) / shots
    # Analytic correlation probability is 1; 3 binomial sigmas of that is 0.
    from drqsim import extract_logical_state
    amps = extract_logical_state(bell, register).logical_amplitudes
    p_analytic = abs(amps[0]) ** 2 + abs(amps[3]) ** 2
    sigma = np.sqrt(p_analytic * (1 - p_analytic) / shots)
    assert abs(p_corr - p_analytic) <= 3 * sigma + 1e-12

    one_state = logical_basis_state(register, [0, 1])
    counts = sample_counts(one_state, register, ["D"], 500, seed=13)
    assert counts == {"1": 500}
    report(12, f"Bell correlations at {p_corr:.4f}, dual-rail |1> readout "
               "deterministic")
