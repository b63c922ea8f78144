from pathlib import Path

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from drqsim import (
    LogicalRegister,
    StateError,
    basis_state,
    create_layout,
    equivalent_up_to_phase,
    ground_state,
    inject_heating_error,
    program_unitary,
    qnd_parity_check,
    sample_counts,
)
from drqsim import compiler, pulses, suite, verify
from drqsim.cli import build_system
from drqsim.compiler import (
    CompiledProgram,
    compile_cnot,
    compile_gate,
    lower,
    preparation,
)
from drqsim.document import MAX_SHOTS, parse_circuit
from drqsim.encoding import measure_dual_rail
from drqsim.errors import HealthError, RegisterError
from drqsim.fock import apply_matrix_columns, measure_qubit_z
from drqsim.pulses import (
    beamsplitter,
    carrier,
    pulse_matrix,
    qphase,
    rsb,
    zbs,
)
from drqsim.verify import (
    check_gates,
    check_sentinel,
    ideal_logical_gate,
    run_program,
    sentinel_population,
)

from conftest import gate, random_state
from oracles import (
    codeword_index,
    dense_state,
    embed_logical_matrix,
    expm_unitary,
    logical_basis_state,
)
from test_cli import GATE_CASES, UNITARY_GATES
from test_sparse_run import REGISTERS, documents


@pytest.fixture
def qmm():
    return create_layout([("q", "qubit", 2), ("m0", "mode", 4),
                          ("m1", "mode", 4)])


def _embed_by_bit_loop(u_small, positions, n):
    """Reference embedding: one column at a time over the register bits."""
    k = len(positions)
    dim = 2 ** n
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n - 1 - i)) & 1 for i in range(n)]
        sub_in = 0
        for p in positions:
            sub_in = (sub_in << 1) | bits[p]
        for sub_out in range(2 ** k):
            amp = u_small[sub_out, sub_in]
            if amp == 0:
                continue
            new_bits = list(bits)
            for idx, p in enumerate(positions):
                new_bits[p] = (sub_out >> (k - 1 - idx)) & 1
            row = 0
            for b in new_bits:
                row = (row << 1) | b
            out[row, col] += amp
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_embed_logical_matrix_matches_bit_loop(n, rng):
    for k in range(1, min(n, 3) + 1):
        for _ in range(3):
            positions = [int(p) for p in rng.permutation(n)[:k]]
            u = (rng.normal(size=(2 ** k, 2 ** k))
                 + 1j * rng.normal(size=(2 ** k, 2 ** k)))
            assert np.array_equal(embed_logical_matrix(u, positions, n),
                                  _embed_by_bit_loop(u, positions, n))


def test_embed_cnot_reversed_positions():
    reversed_cnot = np.eye(4)[:, [0, 3, 2, 1]]
    got = embed_logical_matrix(ideal_logical_gate("cnot", [], 2), [1, 0], 2)
    assert np.array_equal(got, reversed_cnot)


# --- program_unitary ----------------------------------------------------------

def test_empty_program_is_identity(qmm):
    got = program_unitary([], qmm).matrix
    assert np.allclose(got, np.eye(qmm.total_dim))


def test_single_zbs_dual_path(qmm):
    ops = [zbs(0.7, 0.3, "q", "m0", "m1")]
    a = program_unitary(ops, qmm).matrix
    b = expm_unitary(ops, qmm).matrix
    assert np.max(np.abs(a - b)) <= 1e-10


def test_dual_path_long_program(rng):
    # 50 mixed pulses on a 512-dimensional space.
    layout = create_layout([("q1", "qubit", 2), ("q2", "qubit", 2),
                            ("ma", "mode", 4), ("mb", "mode", 4),
                            ("mc", "mode", 8)])
    assert layout.total_dim == 512
    ops = []
    for _ in range(10):
        ops.append(carrier(rng.uniform(-2, 2), rng.uniform(-3, 3), "q1"))
        ops.append(rsb(rng.uniform(-2, 2), "q2", "mc"))
        ops.append(beamsplitter(rng.uniform(-1, 1), rng.uniform(-3, 3),
                                "ma", "mb"))
        ops.append(zbs(rng.uniform(-1, 1), rng.uniform(-3, 3),
                       "q1", "mb", "mc"))
        ops.append(qphase(rng.uniform(-2, 2), "q2"))
    assert len(ops) == 50
    a = program_unitary(ops, layout).matrix
    b = expm_unitary(ops, layout).matrix
    assert np.max(np.abs(a - b)) <= 1e-10


def test_dual_path_kilodim(rng):
    layout = create_layout([("q1", "qubit", 2), ("q2", "qubit", 2),
                            ("ma", "mode", 4), ("mb", "mode", 4),
                            ("mc", "mode", 4), ("md", "mode", 4)])
    assert layout.total_dim == 1024
    ops = [zbs(0.3, 0.1, "q1", "ma", "mb"), rsb(1.2, "q2", "mc"),
           beamsplitter(0.8, -0.9, "mc", "md"), carrier(0.4, 0.2, "q1"),
           zbs(-0.5, 1.7, "q2", "mb", "md")]
    a = program_unitary(ops, layout).matrix
    b = expm_unitary(ops, layout).matrix
    assert np.max(np.abs(a - b)) <= 1e-10


def test_restricted_unitary_of_compiled_cnot(hybrid_system):
    layout, register = hybrid_system
    prog = compile_cnot(register, "Q", "D")
    got = program_unitary(prog, layout, restrict=register)
    rep = equivalent_up_to_phase(got.matrix, ideal_logical_gate("cnot", [], 2),
                                 1e-9, got.leakage_max)
    assert rep.equivalent


def _restricted_by_column(program, register):
    """Reference: each codeword column evolved alone as a dense vector."""
    n, dim = register.n_logical, register.logical_dim
    layout = register.layout
    indices = [codeword_index(
        register, [(b >> (n - 1 - i)) & 1 for i in range(n)])
        for b in range(dim)]
    mats = [(pulse_matrix(op, layout), op.targets) for op in program.ops]
    matrix = np.zeros((dim, dim), dtype=complex)
    leakage_max = 0.0
    for col in range(dim):
        dense = np.zeros(layout.total_dim, dtype=complex)
        dense[indices[col]] = 1.0
        for mat, targets in mats:
            dense = apply_matrix_columns(dense, layout, mat, targets)
        column = dense[indices]
        matrix[:, col] = column
        leakage_max = max(leakage_max,
                          1.0 - float(np.sum(np.abs(column) ** 2)))
    return matrix, leakage_max


def _gate_documents():
    root = Path(__file__).resolve().parent.parent
    docs = {f"gate-{name}": GATE_CASES[name][0] + "program:\n"
            + "".join(f"  {line}\n" for line in GATE_CASES[name][1])
            for name in UNITARY_GATES}
    for path in [*sorted((root / "circuits").glob("*.drq")),
                 root / "perfbench" / "inputs" / "kcnot3.drq"]:
        docs[path.stem] = path.read_text()
    return docs


GATE_DOCUMENTS = _gate_documents()


@pytest.mark.parametrize("name", GATE_DOCUMENTS)
def test_restricted_unitary_matches_column_reference(name):
    # The support kernel evolves all codeword columns at once; every gate
    # must agree with the dense one-column-at-a-time evolution.
    doc = parse_circuit(GATE_DOCUMENTS[name])
    layout, register = build_system(doc)
    checked = 0
    for step in lower(register, doc.program):
        if step.program is None:
            continue
        got = program_unitary(step.program, layout, restrict=register)
        want, leakage = _restricted_by_column(step.program, register)
        assert np.max(np.abs(got.matrix - want)) <= 1e-10
        assert abs(got.leakage_max - leakage) <= 1e-10
        checked += 1
    assert checked == len(doc.program)


def check_gate_pinned(register, program, ideal, operands, tol):
    """`check_gates` of one program, held to the full-register oracle."""
    return _pinned(register, program, ideal, operands, tol,
                   check_gates(register, [program], [ideal], operands,
                               tol)[0])


def _pinned(register, program, ideal, operands, tol, report):
    """`report`, the check of `program`, held to the full-register oracle:
    every codeword column of the register evolved, with `ideal` embedded
    at the operands' register positions."""
    ids = [e.logical_id for e in register.entries]
    positions = [ids.index(op) for op in operands]
    full = program_unitary(program, register.layout, restrict=register)
    want = equivalent_up_to_phase(
        full.matrix, embed_logical_matrix(ideal, positions, len(ids)), tol,
        full.leakage_max)
    got = _pinned_footprint(register, program, operands)
    assert np.max(np.abs(embed_logical_matrix(got.matrix, positions, len(ids))
                         - full.matrix)) <= 1e-10
    assert abs(got.leakage_max - full.leakage_max) <= 1e-10
    assert report.equivalent == want.equivalent
    assert abs(report.max_entry_error - want.max_entry_error) <= 1e-10
    assert abs(report.leakage_max - want.leakage_max) <= 1e-10
    return report


def _pinned_footprint(register, program, operands):
    """The program on the register's footprint of `operands`, held to its
    operands' sub-register evolved on the whole register's layout."""
    local = LogicalRegister(
        register.layout, tuple(register.entry(op) for op in operands),
        register.ancilla_qubits, register.com_mode)
    want = program_unitary(program, register.layout, restrict=local)
    footprint = register.footprint(operands)
    got = program_unitary(program, footprint.layout, restrict=footprint)
    assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-10
    assert abs(got.leakage_max - want.leakage_max) <= 1e-10
    return got


PIN_DOCUMENTS = {
    **GATE_DOCUMENTS,
    **{path.stem: path.read_text() for path in sorted(
        (Path(__file__).resolve().parent.parent / "perfbench" / "inputs")
        .glob("*.drq"))},
}


@pytest.mark.parametrize("name", PIN_DOCUMENTS)
def test_operand_local_check_matches_full_register(name):
    doc = parse_circuit(PIN_DOCUMENTS[name])
    _, register = build_system(doc)
    checked = 0
    for step in lower(register, doc.program):
        if step.program is None:
            continue
        rec = step.record
        ideal = ideal_logical_gate(rec.name, rec.params, len(rec.operands))
        assert check_gate_pinned(register, step.program, ideal, rec.operands,
                                 1e-9).equivalent
        checked += 1
    assert checked


@pytest.mark.parametrize("register", REGISTERS)
@settings(derandomize=True, deadline=None, max_examples=10)
@given(data=st.data())
def test_footprint_matches_full_layout_on_generated_documents(register,
                                                              data):
    doc = parse_circuit(data.draw(documents(register)))
    _, reg = build_system(doc)
    for step in lower(reg, doc.program):
        _pinned_footprint(reg, step.program, step.record.operands)


def test_builtin_checks_match_full_register(monkeypatch):
    calls = []
    batched = verify.check_gates

    def pinned(register, programs, ideals, operands, tol):
        reports = batched(register, programs, ideals, operands, tol)
        calls.extend(programs)
        return [_pinned(register, program, ideal, operands, tol, report)
                for program, ideal, report in zip(programs, ideals, reports)]

    # su2 and rxx call check_gates themselves; the other gate checks reach
    # it through verify.check_records.
    monkeypatch.setattr(suite, "check_gates", pinned)
    monkeypatch.setattr(verify, "check_gates", pinned)
    assert all(result.equivalent for result in suite.run_builtin_suite())
    assert len(calls) == 22


# GATES row -> the built-in entry that checks it.
BUILTIN_ROWS = {"rzz": "rzz-truth-table", "cnot": "hybrid-cnot",
                "rxx": "hybrid-rxx", "cswap": "cswap",
                "kcnot": "kcnot-toffoli"}


@pytest.mark.parametrize("name", BUILTIN_ROWS)
def test_builtin_suite_checks_the_gate_rows(monkeypatch, name):
    # A row that lowers to no pulses fails its own entry and no other.
    monkeypatch.setitem(compiler.GATES, name, compiler.GATES[name]._replace(
        lower=lambda r, p, ops: CompiledProgram()))
    results = {r.name: r.equivalent for r in suite.run_builtin_suite()}
    assert BUILTIN_ROWS[name] in results
    assert results == {entry: entry != BUILTIN_ROWS[name]
                       for entry in results}


def test_program_unitary_dimension_budget():
    layout = create_layout(
        [(f"m{i}", "mode", 8) for i in range(5)])  # 32768 > 4096
    with pytest.raises(StateError):
        program_unitary([], layout)


# --- equivalence checker --------------------------------------------------------

def test_equivalence_identical():
    a = np.diag([1, 1j]).astype(complex)
    rep = equivalent_up_to_phase(a, a, 1e-12)
    assert rep.equivalent
    assert rep.inferred_phase == pytest.approx(0.0)


def test_equivalence_with_phase():
    b = np.diag([1, 1j]).astype(complex)
    a = np.exp(1j * np.pi / 4) * b
    rep = equivalent_up_to_phase(a, b, 1e-12)
    assert rep.equivalent
    assert np.mod(rep.inferred_phase, 2 * np.pi) == pytest.approx(
        np.mod(-np.pi / 4, 2 * np.pi), abs=1e-12)


def test_equivalence_distinct_paulis():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1, -1]).astype(complex)
    assert not equivalent_up_to_phase(x, z, 1e-9).equivalent


def test_equivalence_dimension_mismatch():
    with pytest.raises(StateError):
        equivalent_up_to_phase(np.eye(2), np.eye(4), 1e-9)


# --- QND parity -------------------------------------------------------------------

def test_qnd_on_dual_rail_superposition(qmm, rng):
    alpha, beta = 0.6, 0.8j
    amps = np.zeros(qmm.total_dim, dtype=complex)
    amps[qmm.basis_index([0, 1, 0])] = alpha
    amps[qmm.basis_index([0, 0, 1])] = beta
    state = dense_state(qmm, amps)
    flag, post = qnd_parity_check(state, "q", "m0", "m1", rng_seed=1)
    assert flag == "odd"
    # The odd flag is read, then pumped back to ground.
    fid = (np.conj(alpha) * post.amplitudes[qmm.basis_index([0, 1, 0])]
           + np.conj(beta) * post.amplitudes[qmm.basis_index([0, 0, 1])])
    assert abs(fid) == pytest.approx(1.0, abs=1e-10)


def test_qnd_detects_phonon_loss(qmm):
    state = ground_state(qmm)  # both modes empty: parity even
    flag, post = qnd_parity_check(state, "q", "m0", "m1", rng_seed=1)
    assert flag == "even"
    assert post.population("q", 0) == pytest.approx(1.0, abs=1e-12)


def test_qnd_exhaustive_fock_pairs(qmm):
    for n in range(3):
        for m in range(3 - n):
            state = basis_state(qmm, {"m0": n, "m1": m})
            flag, post = qnd_parity_check(state, "q", "m0", "m1", rng_seed=0)
            assert flag == ("odd" if (n + m) % 2 else "even")
            assert abs(post.amplitudes[qmm.basis_index([0, n, m])]) == \
                pytest.approx(1.0, abs=1e-10)


def test_qnd_idempotent(qmm, rng):
    amps = np.zeros(qmm.total_dim, dtype=complex)
    coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
    coeffs /= np.linalg.norm(coeffs)
    pairs = [(1, 1), (2, 0), (0, 0)]  # fixed even parity
    for (n, m), c in zip(pairs, coeffs):
        amps[qmm.basis_index([0, n, m])] = c
    state = dense_state(qmm, amps)
    flag1, post1 = qnd_parity_check(state, "q", "m0", "m1", rng_seed=2)
    # The check hands the flag qubit back in ground.
    flag2, post2 = qnd_parity_check(post1, "q", "m0", "m1", rng_seed=3)
    assert flag1 == flag2 == "even"
    assert np.max(np.abs(post2.amplitudes - post1.amplitudes)) <= 1e-10


def test_qnd_requires_ground_qubit(qmm):
    state = basis_state(qmm, {"q": 1})
    with pytest.raises(StateError,
                       match="^ancilla 'q' is not in the ground state$"):
        qnd_parity_check(state, "q", "m0", "m1")


# --- heating errors -----------------------------------------------------------------

def test_loss_on_single_phonon(qmm):
    state = basis_state(qmm, {"m0": 1})
    out = inject_heating_error(state, "m0", "loss")
    assert out.population("m0", 0) == pytest.approx(1.0)


def test_gain_on_vacuum(qmm):
    out = inject_heating_error(ground_state(qmm), "m0", "gain")
    assert out.population("m0", 1) == pytest.approx(1.0)


def test_loss_on_vacuum_rejected(qmm):
    with pytest.raises(StateError):
        inject_heating_error(ground_state(qmm), "m0", "loss")


def test_gain_at_truncation_rejected(qmm):
    state = basis_state(qmm, {"m0": 3})
    with pytest.raises(StateError):
        inject_heating_error(state, "m0", "gain")


def test_error_detectable_after_compiled_gates(hybrid_system, rng):
    # For compiled single- and two-qubit gates, one loss or gain on any
    # involved rail flips the parity flag to even with certainty.
    layout, register = hybrid_system
    for record in (gate("h", "D"), gate("rx", 0.83, "Q"),
                   gate("cnot", "Q", "D")):
        prog = compile_gate(register, record)
        state = run_program(logical_basis_state(register, [0, 0]), prog)
        for mode in ("m0", "m1"):
            for kind in ("loss", "gain"):
                try:
                    broken = inject_heating_error(state, mode, kind)
                except StateError:
                    continue  # loss needs population on that rail
                flag, _ = qnd_parity_check(broken, "anc", "m0", "m1",
                                           rng_seed=rng)
                assert flag == "even"


def test_error_flips_parity_flag(qmm, rng):
    # Any single loss or gain on a dual-rail pair flips the flag to even.
    alpha, beta = (0.6, 0.8)
    amps = np.zeros(qmm.total_dim, dtype=complex)
    amps[qmm.basis_index([0, 1, 0])] = alpha
    amps[qmm.basis_index([0, 0, 1])] = beta
    healthy = dense_state(qmm, amps)
    for mode in ("m0", "m1"):
        for kind in ("loss", "gain"):
            if kind == "loss" and healthy.population(mode, 1) == 0:
                continue
            try:
                broken = inject_heating_error(healthy, mode, kind)
            except StateError:
                continue
            flag, _ = qnd_parity_check(broken, "q", "m0", "m1", rng_seed=rng)
            assert flag == "even"


# --- health monitors -----------------------------------------------------------------

def test_sentinel_population_flags_top_level(qmm):
    state = basis_state(qmm, {"m0": 3})
    assert sentinel_population(state) == pytest.approx(1.0)
    with pytest.raises(HealthError):
        check_sentinel(state)


def test_run_program_checks_norm(qmm):
    state = ground_state(qmm)
    state = dense_state(qmm, 0.9 * state.amplitudes)
    with pytest.raises(HealthError):
        run_program(state, [carrier(0.3, 0.0, "q")])


def test_run_program_asserts_ancilla_ground(hybrid_system):
    # Compiled gates assume pool ancillas in the ground state; executing
    # one against an excited ancilla is flagged at the gate's exit.
    layout, register = hybrid_system
    prog = compile_cnot(register, "Q", "D")
    state = basis_state(layout, {"anc": 1, "m0": 1})
    with pytest.raises(HealthError, match="ancilla not restored at gate "
                       "exit"):
        run_program(state, prog, register=register)
    # A norm breach names the pulse that caused it.
    first = prog.ops[0]
    state = logical_basis_state(register, [0, 0])
    with pytest.raises(HealthError,
                       match=rf"at pulse 0 \({first.kind}\)"):
        run_program(dense_state(layout, 0.9 * state.amplitudes), prog)


# --- sampling ----------------------------------------------------------------------

def test_sample_counts_bell(hybrid_system):
    layout, register = hybrid_system
    state = logical_basis_state(register, [0, 0])
    state = run_program(state, compile_gate(register, gate("h", "Q")))
    state = run_program(state, compile_cnot(register, "Q", "D"))
    counts = sample_counts(state, register, ["Q", "D"], 10000, seed=11)
    assert sum(counts.values()) == 10000
    p_corr = (counts.get("00", 0) + counts.get("11", 0)) / 10000
    # Analytic probability is 1, so every shot must agree.
    assert p_corr == 1.0
    split = counts.get("00", 0)
    assert abs(split - 5000) <= 3 * np.sqrt(10000 * 0.25)


def test_sample_counts_deterministic_codeword(hybrid_system):
    layout, register = hybrid_system
    state = logical_basis_state(register, [0, 1])
    counts = sample_counts(state, register, ["D"], 200, seed=5)
    assert counts == {"1": 200}


def test_sample_counts_seed_determinism(hybrid_system):
    layout, register = hybrid_system
    state = logical_basis_state(register, [0, 0])
    state = run_program(state, compile_gate(register, gate("h", "D")))
    one = sample_counts(state, register, ["Q", "D"], 500, seed=123)
    two = sample_counts(state, register, ["Q", "D"], 500, seed=123)
    assert one == two


def _sample_by_shot(state, register, measured_ids, shots, seed):
    """Reference sampler: every shot is read out on its own, from `state`."""
    entries = [register.entry(mid) for mid in measured_ids]
    if any(e.is_dual_rail for e in entries) and not register.ancilla_qubits:
        raise RegisterError("dual-rail readout needs an ancilla qubit")
    rng = np.random.default_rng(seed)
    counts = {}
    for _ in range(shots):
        shot_state = state
        bits = []
        for entry in entries:
            if entry.is_dual_rail:
                bit, shot_state = measure_dual_rail(
                    shot_state, register, entry.logical_id, rng)
            else:
                bit, shot_state = measure_qubit_z(
                    shot_state, entry.qubit, rng)
            bits.append(str(bit))
        key = "".join(bits)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _heated_bell(hybrid_system, mode, kind):
    layout, register = hybrid_system
    state = logical_basis_state(register, [0, 0])
    state = run_program(state, compile_gate(register, gate("h", "Q")))
    state = run_program(state, compile_cnot(register, "Q", "D"))
    return inject_heating_error(state, mode, kind), register


def _toffoli_superposition():
    # The toffoli example with its first control in superposition, so the
    # readout has two outcomes, 010 and 111.
    root = Path(__file__).resolve().parent.parent
    text = (root / "circuits" / "toffoli.drq").read_text()
    doc = parse_circuit(text.replace("  x C1\n", "  h C1\n"))
    layout, register = build_system(doc)
    state = run_program(ground_state(layout), preparation(register))
    for step in lower(register, doc.program):
        state = run_program(state, step.program)
    return state, register, list(doc.logical_ids())


def _total_variation(a, b):
    na, nb = sum(a.values()), sum(b.values())
    return 0.5 * sum(abs(a.get(k, 0) / na - b.get(k, 0) / nb)
                     for k in set(a) | set(b))


@pytest.mark.parametrize("mode", ["m0", "m1"])
@pytest.mark.parametrize("kind", ["gain", "loss"])
def test_sample_counts_matches_per_shot_reference_after_heating(
        hybrid_system, mode, kind):
    # A gain leaves rails with 0 or 2 phonons, whose readout mapping is
    # partial; a loss leaves vacuum.  Both samplers must agree.
    state, register = _heated_bell(hybrid_system, mode, kind)
    got = sample_counts(state, register, ["Q", "D"], 20000, seed=21)
    want = _sample_by_shot(state, register, ["Q", "D"], 20000, seed=22)
    assert sum(got.values()) == 20000
    assert _total_variation(got, want) <= 0.02


def test_sample_counts_matches_per_shot_reference_toffoli():
    state, register, ids = _toffoli_superposition()
    got = sample_counts(state, register, ids, 20000, seed=23)
    want = _sample_by_shot(state, register, ids, 20000, seed=24)
    assert set(got) == {"010", "111"}
    assert _total_variation(got, want) <= 0.02


def test_sample_counts_matches_per_shot_reference_two_leaked_reads(
        dual_pair_system):
    # A gain on both d1 rails leaves each read's rail at level 1 or 2, so
    # both dual-rail reads map partially and the second one reads rows
    # that the first left in either branch.
    layout, register = dual_pair_system
    state = logical_basis_state(register, [0, 0])
    for target in ("D1", "D2"):
        state = run_program(state, compile_gate(register, gate("h", target)))
    for rail in ("m1", "m3"):
        state = inject_heating_error(state, rail, "gain")
    got = sample_counts(state, register, ["D1", "D2"], 20000, seed=25)
    want = _sample_by_shot(state, register, ["D1", "D2"], 20000, seed=26)
    assert len(got) == 4
    assert sum(got.values()) == 20000
    assert _total_variation(got, want) <= 0.02


@pytest.mark.parametrize("shots", [10, 10 ** 6, MAX_SHOTS])
def test_sample_counts_applies_no_pulse_and_counts_exactly(
        hybrid_system, monkeypatch, shots):
    # The histogram is drawn from the support rows: no pulse is applied
    # and no state evolved, and the int64 counts add up exactly to every
    # shot count, the largest a document may ask for included.
    def refuse(*args):
        raise AssertionError("sampling applied a pulse")

    cases = [(*_heated_bell(hybrid_system, "m1", "gain"), ["Q", "D"]),
             _toffoli_superposition()]
    monkeypatch.setattr(pulses, "apply_pulse", refuse)
    monkeypatch.setattr(pulses, "apply_matrix_support", refuse)
    for state, register, ids in cases:
        counts = sample_counts(state, register, ids, shots, seed=5)
        assert all(type(c) is int and c > 0 for c in counts.values())
        assert sum(counts.values()) == shots


def test_sample_counts_zero_shots(hybrid_system):
    _, register = hybrid_system
    state = logical_basis_state(register, [0, 1])
    assert sample_counts(state, register, ["Q", "D"], 0, seed=1) == {}
