import numpy as np
import pytest

from drqsim import (
    PhysicalOp,
    PulseError,
    PulseParams,
    apply_pulse,
    apply_pulses,
    basis_state,
    beamsplitter,
    carrier,
    cbs,
    create_layout,
    exp_hermitian,
    ground_state,
    qphase,
    raman_detunings,
    rsb,
    zbs,
    zbs_angle_from_pulse,
)
from drqsim import fock, pulses
from drqsim.errors import HealthError, LayoutError, StateError
from drqsim.fock import StateVector, apply_matrix
from drqsim.pulses import (
    cbs_factors,
    native_xx,
    pulse_matrix,
    zbs_duration_for_angle,
)

from conftest import random_state
from oracles import dense_state, levels_of, pulse_generator


@pytest.fixture
def qm_layout():
    return create_layout([("q", "qubit", 2), ("m0", "mode", 4),
                          ("m1", "mode", 4)])


def amp(state, levels):
    return state.amplitudes[state.layout.basis_index(levels)]


# --- carrier -----------------------------------------------------------------

def test_carrier_pi_flips_with_phase(qm_layout):
    out = apply_pulse(ground_state(qm_layout), carrier(np.pi, 0.0, "q"))
    assert amp(out, [1, 0, 0]) == pytest.approx(-1j, abs=1e-12)


def test_carrier_zero_angle_is_identity(qm_layout, rng):
    state = random_state(qm_layout, rng)
    out = apply_pulse(state, carrier(0.0, 0.4, "q"))
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_carrier_half_pi(qm_layout):
    # Pinned against the matrix-exponential oracle.
    op = carrier(np.pi / 2, 0.0, "q")
    gen, scale = pulse_generator(op, qm_layout)
    oracle = exp_hermitian(gen, scale)
    state = apply_pulse(ground_state(qm_layout), op)
    assert amp(state, [0, 0, 0]) == pytest.approx(oracle[0, 0], abs=1e-12)
    assert amp(state, [1, 0, 0]) == pytest.approx(oracle[1, 0], abs=1e-12)
    assert amp(state, [0, 0, 0]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert amp(state, [1, 0, 0]) == pytest.approx(-1j / np.sqrt(2), abs=1e-12)


def test_carrier_rejects_mode_target(qm_layout):
    state = ground_state(qm_layout)
    with pytest.raises(PulseError,
                       match="^carrier target 'm0' must be a qubit, got mode$"):
        apply_pulse(state, carrier(1.0, 0.0, "m0"))
    # The first target of the wrong kind is named.
    with pytest.raises(PulseError,
                       match="^rsb target 'm0' must be a qubit, got mode$"):
        apply_pulse(state, rsb(1.0, "m0", "q"))
    with pytest.raises(LayoutError, match="^unknown subsystem id 'zz'$"):
        apply_pulse(state, carrier(1.0, 0.0, "zz"))


# --- red sideband ------------------------------------------------------------

def test_rsb_pi_transfers_excitation(qm_layout):
    state = basis_state(qm_layout, {"q": 0, "m0": 1})
    out = apply_pulse(state, rsb(np.pi, "q", "m0"))
    assert amp(out, [1, 0, 0]) == pytest.approx(-1j, abs=1e-12)


def test_rsb_vacuum_stationary(qm_layout):
    out = apply_pulse(ground_state(qm_layout), rsb(np.pi, "q", "m0"))
    assert amp(out, [0, 0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_rsb_twice_gives_minus_one(qm_layout):
    state = basis_state(qm_layout, {"q": 0, "m0": 1})
    out = apply_pulses(state, [rsb(np.pi, "q", "m0")] * 2)
    assert amp(out, [0, 1, 0]) == pytest.approx(-1.0, abs=1e-12)


def test_rsb_sqrt_scaling_on_higher_fock(qm_layout):
    # The |e,1> <-> |g,2> block rotates by theta*sqrt(2).
    state = basis_state(qm_layout, {"q": 1, "m0": 1})
    out = apply_pulse(state, rsb(np.pi, "q", "m0"))
    assert abs(amp(out, [1, 1, 0])) == pytest.approx(
        abs(np.cos(np.pi * np.sqrt(2) / 2)), abs=1e-12)


@pytest.mark.parametrize("kind,targets", [
    ("rsb", ("q", "m0")), ("qphase", ("q",)), ("native_xx", ("q", "q2")),
], ids=["rsb", "qphase", "native_xx"])
def test_phase_free_kinds_reject_nonzero_phase(kind, targets):
    # Their generators take no phase, so a phase would be dropped.
    PhysicalOp(kind, 1.0, 0.0, targets)
    with pytest.raises(PulseError, match=f"{kind} supports only phi = 0"):
        PhysicalOp(kind, 1.0, 0.3, targets)


def test_rsb_rejects_wrong_kinds(qm_layout):
    with pytest.raises(PulseError):
        apply_pulse(ground_state(qm_layout), rsb(1.0, "m0", "q"))


# --- beamsplitter ------------------------------------------------------------

def test_beamsplitter_half_pi_swaps_with_i(qm_layout):
    state = basis_state(qm_layout, {"m0": 1})
    out = apply_pulse(state, beamsplitter(np.pi / 2, 0.0, "m0", "m1"))
    assert amp(out, [0, 0, 1]) == pytest.approx(1j, abs=1e-12)


def test_beamsplitter_vacuum_invariant(qm_layout):
    out = apply_pulse(ground_state(qm_layout),
                      beamsplitter(0.77, 1.3, "m0", "m1"))
    assert amp(out, [0, 0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_beamsplitter_single_phonon_block_convention(qm_layout, rng):
    # Restricted to {|10>, |01>} the generator-exponential acts as
    # exp(i theta (X cos phi - Y sin phi)); the sign of the Y term is the
    # convention pinned here.
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    for _ in range(20):
        theta = rng.uniform(-np.pi, np.pi)
        phi = rng.uniform(-np.pi, np.pi)
        mat = pulse_matrix(beamsplitter(theta, phi, "m0", "m1"),
                           qm_layout)
        i10 = 1          # little-endian over (m0, m1), dim 4 each
        i01 = 4
        block = np.array([[mat[i10, i10], mat[i10, i01]],
                          [mat[i01, i10], mat[i01, i01]]])
        gen = X * np.cos(phi) - Y * np.sin(phi)
        want = exp_hermitian(gen, theta)
        assert np.max(np.abs(block - want)) <= 1e-10


def test_beamsplitter_y_rotation_pinning(qm_layout):
    # B(theta/2, +pi/2) is the logical y-rotation on the dual-rail qubit.
    theta = 0.618
    mat = pulse_matrix(beamsplitter(theta / 2, np.pi / 2, "m0", "m1"),
                       qm_layout)
    i10, i01 = 1, 4
    block = np.array([[mat[i10, i10], mat[i10, i01]],
                      [mat[i01, i10], mat[i01, i01]]])
    ry = np.array([[np.cos(theta / 2), -np.sin(theta / 2)],
                   [np.sin(theta / 2), np.cos(theta / 2)]])
    assert np.max(np.abs(block - ry)) <= 1e-12


def test_beamsplitter_rejects_same_mode():
    with pytest.raises(PulseError):
        beamsplitter(1.0, 0.0, "m0", "m0")


def test_beamsplitter_creation_operator_transform(qm_layout, rng):
    # Heisenberg picture: B a1+ B^dag = cos(t) a1+ + i e^{-i phi} sin(t) a2+,
    # valid away from the truncation boundary.
    from drqsim.fock import annihilation_matrix, creation_matrix, kron_le
    d = 4
    theta, phi = 0.87, -1.2
    bmat = pulse_matrix(beamsplitter(theta, phi, "m0", "m1"), qm_layout)
    ad1 = kron_le([creation_matrix(d), np.eye(d)])
    ad2 = kron_le([np.eye(d), creation_matrix(d)])
    lhs = bmat @ ad1 @ bmat.conj().T
    rhs = np.cos(theta) * ad1 + 1j * np.exp(-1j * phi) * np.sin(theta) * ad2
    # Compare on matrix elements between states with n1+n2 <= d-2.
    keep = [n1 + d * n2 for n2 in range(d) for n1 in range(d) if n1 + n2 <= d - 2]
    assert np.max(np.abs(lhs[np.ix_(keep, keep)] - rhs[np.ix_(keep, keep)])) <= 1e-10


def test_rsb_creation_operator_transform(qm_layout):
    # U a+ U^dag = a+ cos(t/2) - i sigma+ sin(t/2) on the lowest block.
    from drqsim.fock import SIGMA_PLUS, creation_matrix, kron_le
    theta = 1.07
    d = 4
    umat = pulse_matrix(rsb(theta, "q", "m0"), qm_layout)
    ad = kron_le([np.eye(2), creation_matrix(d)])
    sp = kron_le([SIGMA_PLUS, np.eye(d)])
    lhs = umat @ ad @ umat.conj().T
    rhs = np.cos(theta / 2) * ad - 1j * np.sin(theta / 2) * sp
    # The operator identity holds exactly only on the vacuum-excitation
    # block (higher blocks feel the sqrt(m+1) scaling).
    ket = np.zeros(2 * d)
    ket[0] = 1.0  # |g, 0>
    assert np.max(np.abs(lhs @ ket - rhs @ ket)) <= 1e-10


# --- zbs ---------------------------------------------------------------------

def test_zbs_swap_phase_on_ground_branch(qm_layout):
    state = basis_state(qm_layout, {"q": 0, "m0": 1})
    out = apply_pulse(state, zbs(np.pi / 2, 0.0, "q", "m0", "m1"))
    assert amp(out, [0, 0, 1]) == pytest.approx(1j, abs=1e-12)


def test_zbs_ground_branch_equals_beamsplitter(qm_layout, rng):
    theta, phi = 0.83, -0.4
    state = random_state(
        create_layout([("m0", "mode", 4), ("m1", "mode", 4)]), rng)
    full = basis_state(qm_layout, {})
    amps = np.zeros(qm_layout.total_dim, dtype=complex)
    amps.reshape((2, 16), order="F")[0, :] = state.amplitudes
    embedded = dense_state(qm_layout, amps)
    via_zbs = apply_pulse(embedded, zbs(theta, phi, "q", "m0", "m1"))
    via_bs = apply_pulse(embedded, beamsplitter(theta, phi, "m0", "m1"))
    assert np.max(np.abs(via_zbs.amplitudes - via_bs.amplitudes)) <= 1e-12


def test_zbs_inverse_pair(qm_layout, rng):
    state = random_state(qm_layout, rng)
    out = apply_pulses(state, [zbs(0.9, 0.2, "q", "m0", "m1"),
                               zbs(-0.9, 0.2, "q", "m0", "m1")])
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) <= 1e-10


@pytest.mark.parametrize("width", [None, 3])
@pytest.mark.parametrize("scale,passes", [(1 + 0.5e-10, True),
                                          (1 + 2e-10, False)])
def test_norm_check_is_absolute_against_one(qm_layout, width, scale, passes):
    # After every pulse the norm is compared with 1 to NORM_TOL (1e-10):
    # a state's, or a batch's as a share of sqrt(rows x R).  So a state
    # or batch that enters 0.5e-10 off passes three pulses, and one 2e-10
    # off fails at the first: the check is neither relative to the entry
    # norm nor summed over pulses.
    assert fock.NORM_TOL == 1e-10
    programs = [[carrier(0.3 + r, 0.1, "q"), rsb(0.7 * r, "q", "m0"),
                 zbs(0.2 * r, 0.4, "q", "m0", "m1")] for r in range(3)]
    if width is None:
        state = basis_state(qm_layout, {"q": 1, "m0": 2})
        state.values = state.values * scale
        programs = programs[:1]
    else:
        # Four basis states, one per row, labelled as `verify` labels its
        # codeword columns.
        rows = np.array([0, 5, 14, 27], dtype=np.int64)
        state = StateVector(
            qm_layout, index=rows + np.arange(4) * qm_layout.total_dim,
            values=np.full((4, width), scale, dtype=complex))
    if passes:
        out = apply_pulses(state, *programs)
        assert abs(out.norm() ** 2 / state.values.size - scale ** 2) <= 1e-14
    else:
        with pytest.raises(HealthError,
                           match=r"norm drifted to 1\.000000000[12]\d* at "
                                 r"pulse 0 \(carrier\)"):
            apply_pulses(state, *programs)


ZBS_PAIR = ([zbs(0.3, 0.1, "q", "m0", "m1")],
            [zbs(0.9, -0.2, "q", "m0", "m1")])


def _labelled_batch(layout):
    """Four basis states labelled as `verify` labels its codeword
    columns, in two programs' columns."""
    rows = np.array([1, 5, 14, 27], dtype=np.int64)
    return StateVector(layout, index=rows + np.arange(4) * layout.total_dim,
                       values=np.ones((4, 2), dtype=complex))


def test_norm_check_holds_on_an_evolved_batch(qm_layout):
    # After a zbs the batch holds more rows than labels, still one unit
    # vector per label and program.  Its reference norm counts labels,
    # so a walk goes on from where another left it: a unitary pulse
    # passes and lands where one walk of both pulses does.
    start = apply_pulses(_labelled_batch(qm_layout), *ZBS_PAIR)
    assert len(start.index) > 4
    out = apply_pulses(start, [carrier(0.4, 0.0, "q")],
                       [carrier(1.1, 0.3, "q")])
    whole = apply_pulses(_labelled_batch(qm_layout),
                         ZBS_PAIR[0] + [carrier(0.4, 0.0, "q")],
                         ZBS_PAIR[1] + [carrier(1.1, 0.3, "q")])
    assert np.array_equal(out.index, whole.index)
    assert np.array_equal(out.values, whole.values)


def test_norm_check_names_a_non_unitary_pulse_of_an_evolved_batch(
        qm_layout, monkeypatch):
    # Program 1's rsb, scaled by 1.001, breaks an evolved batch's norm at
    # its position, named by program 0's pulse there.
    scaled = rsb(0.8, "q", "m0")
    unscaled = pulses.pulse_unitary
    monkeypatch.setattr(pulses, "pulse_unitary", lambda op, layout: (
        1.001 if op == scaled else 1.0) * unscaled(op, layout))
    start = apply_pulses(_labelled_batch(qm_layout), *ZBS_PAIR)
    with pytest.raises(HealthError, match=r"norm drifted to 1\.000\d* at "
                                          r"pulse 1 \(rsb\)"):
        apply_pulses(start, [carrier(0.4, 0.0, "q"), rsb(0.5, "q", "m0")],
                     [carrier(0.2, 0.0, "q"), scaled])


def test_zbs_block_identity(qm_layout, rng):
    # Mode-restricted action is B(-lambda*theta, phi) on each qubit branch.
    for _ in range(20):
        theta = rng.uniform(-np.pi, np.pi)
        phi = rng.uniform(-np.pi, np.pi)
        full = pulse_matrix(zbs(theta, phi, "q", "m0", "m1"),
                            qm_layout)
        down = full[0::2, 0::2]
        up = full[1::2, 1::2]
        bsm = pulse_matrix(beamsplitter(theta, phi, "m0", "m1"),
                           qm_layout)
        bsp = pulse_matrix(beamsplitter(-theta, phi, "m0", "m1"),
                           qm_layout)
        assert np.max(np.abs(down - bsm)) <= 1e-10
        assert np.max(np.abs(up - bsp)) <= 1e-10
        assert np.max(np.abs(full[0::2, 1::2])) == 0.0


def test_zbs_rejects_wrong_arity():
    with pytest.raises(PulseError):
        zbs(1.0, 0.0, "q", "m0", "m0")


def test_zbs_half_pi_fock_swap_identity(qm_layout):
    # The pi/2 ZBS swaps Fock contents with phase (-lambda i)^{n+m} on
    # every complete block: this identity underlies both the parity-phase
    # gate and the QND circuit.
    swap = zbs(np.pi / 2, 0.0, "q", "m0", "m1")
    for q, lam in ((0, -1), (1, 1)):
        for n in range(4):
            for m in range(4 - n):
                state = basis_state(qm_layout, {"q": q, "m0": n, "m1": m})
                out = apply_pulse(state, swap)
                want = (-lam * 1j) ** (n + m)
                got = amp(out, [q, m, n])
                assert got == pytest.approx(want, abs=1e-10)


# --- qphase ------------------------------------------------------------------

def test_qphase_full_rotation_is_minus_identity(qm_layout, rng):
    state = random_state(qm_layout, rng)
    out = apply_pulse(state, qphase(2 * np.pi, "q"))
    assert np.max(np.abs(out.amplitudes + state.amplitudes)) <= 1e-12


def test_qphase_ground_eigenphase(qm_layout):
    theta = 0.7
    out = apply_pulse(ground_state(qm_layout), qphase(theta, "q"))
    assert amp(out, [0, 0, 0]) == pytest.approx(np.exp(1j * theta / 2),
                                                abs=1e-12)


def test_qphase_composition(qm_layout, rng):
    state = random_state(qm_layout, rng)
    a, b = 0.31, 1.17
    one = apply_pulses(state, [qphase(a, "q"), qphase(b, "q")])
    two = apply_pulse(state, qphase(a + b, "q"))
    assert np.max(np.abs(one.amplitudes - two.amplitudes)) <= 1e-12


# --- eigenbasis path vs exponential oracle -----------------------------------

@pytest.mark.parametrize("make_op", [
    lambda th=0.97, phi=-1.2: carrier(th, phi, "q"),
    lambda th=1.41, phi=0.0: rsb(th, "q", "m0"),
    lambda th=0.66, phi=2.1: beamsplitter(th, phi, "m0", "m1"),
    lambda th=-0.58, phi=0.9: zbs(th, phi, "q", "m0", "m1"),
    lambda th=2.3, phi=0.0: qphase(th, "q"),
    lambda th=0.77, phi=0.0: native_xx(th, "q", "q2"),
])
def test_analytic_path_matches_exponential(make_op, rng):
    layout = create_layout([("q", "qubit", 2), ("q2", "qubit", 2),
                            ("m0", "mode", 4), ("m1", "mode", 4)])
    op = make_op()
    analytic = pulse_matrix(op, layout)
    gen, scale = pulse_generator(op, layout)
    oracle = exp_hermitian(gen, scale)
    assert np.max(np.abs(analytic - oracle)) <= 1e-10
    state = random_state(layout, rng)
    via_pulse = apply_pulse(state, op)
    via_oracle = apply_matrix(state, oracle, op.targets)
    assert np.max(np.abs(via_pulse.amplitudes - via_oracle.amplitudes)) <= 1e-10
    # Random angles on modes of unequal cutoffs 3..6.
    for _ in range(12):
        d1, d2 = rng.integers(3, 7, size=2)
        layout = create_layout([("q", "qubit", 2), ("q2", "qubit", 2),
                                ("m0", "mode", d1), ("m1", "mode", d2)])
        op = make_op(rng.uniform(-7, 7), rng.uniform(-np.pi, np.pi))
        oracle = exp_hermitian(*pulse_generator(op, layout))
        assert np.max(np.abs(pulse_matrix(op, layout)
                             - oracle)) <= 1e-10


@pytest.mark.parametrize("make_op,conserved", [
    # conserved(levels of the targets, in target order) -> label
    (lambda th, phi: qphase(th, "q"), lambda q: q),
    (lambda th, phi: native_xx(th, "q", "q2"), lambda q1, q2: q1 ^ q2),
    (lambda th, phi: rsb(th, "q", "m0"), lambda q, n: q + n),
    (lambda th, phi: beamsplitter(th, phi, "m0", "m1"),
     lambda n1, n2: n1 + n2),
    (lambda th, phi: zbs(th, phi, "q", "m0", "m1"),
     lambda q, n1, n2: (q, n1 + n2)),
], ids=["qphase", "native_xx", "rsb", "bs", "zbs"])
def test_pulse_matrix_exactly_zero_between_conserved_numbers(make_op,
                                                             conserved, rng):
    # Exact block structure is what keeps the pruned support small: the
    # support kernel drops only rows at or below fock.PRUNE_TOL, so any
    # coupling between conserved numbers that rounding left above it
    # would spread the support over other blocks.
    for _ in range(10):
        d1, d2 = rng.integers(3, 7, size=2)
        layout = create_layout([("q", "qubit", 2), ("q2", "qubit", 2),
                                ("m0", "mode", d1), ("m1", "mode", d2)])
        op = make_op(rng.uniform(-7, 7), rng.uniform(-np.pi, np.pi))
        sub = create_layout([(s, layout.kind_of(s), layout.dim_of(s))
                             for s in op.targets])
        labels = [conserved(*levels_of(sub, i)) for i in range(sub.total_dim)]
        apart = np.array([[a != b for b in labels] for a in labels])
        assert np.all(pulse_matrix(op, layout)[apart] == 0.0)


def test_pulse_matrix_cache_is_safe(qm_layout):
    # One (kind, phi, dims) eigenbasis serves every angle, and a caller
    # writing into a returned matrix does not reach the cache.
    pulse_matrix(zbs(0.4, 0.3, "q", "m0", "m1"), qm_layout)[:] = 7.0
    for theta in (0.4, -1.9):
        op = zbs(theta, 0.3, "q", "m0", "m1")
        oracle = exp_hermitian(*pulse_generator(op, qm_layout))
        assert np.max(np.abs(pulse_matrix(op, qm_layout)
                             - oracle)) <= 1e-10


# --- excitation conservation -------------------------------------------------

def _level_distribution(state, mode):
    return state.populations([(mode, level) for level
                              in range(state.layout.dim_of(mode))])


def _phonon_expectation(state, mode):
    dist = _level_distribution(state, mode)
    return float(np.dot(np.arange(len(dist)), dist))


def test_carrier_and_qphase_conserve_phonons(qm_layout, rng):
    state = random_state(qm_layout, rng)
    for op in (carrier(1.2, 0.6, "q"), qphase(0.9, "q")):
        out = apply_pulse(state, op)
        for mode in ("m0", "m1"):
            assert np.max(np.abs(_level_distribution(out, mode)
                                 - _level_distribution(state, mode))) <= 1e-10


def test_rsb_conserves_total_excitation(qm_layout, rng):
    state = random_state(qm_layout, rng)
    out = apply_pulse(state, rsb(0.73, "q", "m0"))
    before = state.population("q", 1) + _phonon_expectation(state, "m0")
    after = out.population("q", 1) + _phonon_expectation(out, "m0")
    assert after == pytest.approx(before, abs=1e-10)


@pytest.mark.parametrize("op_factory", [
    lambda: beamsplitter(0.88, 0.2, "m0", "m1"),
    lambda: zbs(0.88, 0.2, "q", "m0", "m1"),
])
def test_pair_phonon_sum_conserved(op_factory, qm_layout, rng):
    state = random_state(qm_layout, rng)
    out = apply_pulse(state, op_factory())
    before = _phonon_expectation(state, "m0") + _phonon_expectation(state, "m1")
    after = _phonon_expectation(out, "m0") + _phonon_expectation(out, "m1")
    assert after == pytest.approx(before, abs=1e-10)


# --- conditional beamsplitter ------------------------------------------------

def test_cbs_ground_control_leaves_modes(rng):
    layout = create_layout([("q", "qubit", 2), ("anc", "qubit", 2),
                            ("m0", "mode", 4), ("m1", "mode", 4)])
    modes = create_layout([("m0", "mode", 4), ("m1", "mode", 4)])
    mode_state = random_state(modes, rng)
    amps = np.zeros(layout.total_dim, dtype=complex)
    amps.reshape((4, 16), order="F")[0, :] = mode_state.amplitudes
    state = dense_state(layout, amps)
    out = apply_pulses(state, cbs(1.1, 0.4, "q", "m0", "m1", "anc"))
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) <= 1e-10


def test_cbs_excited_control_applies_beamsplitter():
    layout = create_layout([("q", "qubit", 2), ("anc", "qubit", 2),
                            ("m0", "mode", 4), ("m1", "mode", 4)])
    state = basis_state(layout, {"q": 1, "m0": 1})
    out = apply_pulses(state, cbs(np.pi / 2, 0.0, "q", "m0", "m1", "anc"))
    idx = layout.basis_index([1, 0, 0, 1])
    assert out.amplitudes[idx] == pytest.approx(1j, abs=1e-10)


def test_cbs_two_factor_matches_direct_exponential(rng):
    # Sequence bs(theta/2) then zbs(-theta/2) vs exp of the projector form.
    from drqsim.suite import cbs_generator
    from drqsim.verify import program_unitary
    layout = create_layout([("q", "qubit", 2), ("m0", "mode", 4),
                            ("m1", "mode", 4)])
    for _ in range(20):
        theta = rng.uniform(-np.pi, np.pi)
        phi = rng.uniform(-np.pi, np.pi)
        seq = cbs_factors(theta, phi, "q", "m0", "m1")
        built = program_unitary(seq, layout).matrix
        gen = cbs_generator(phi, 4)
        assert np.max(np.abs(built - exp_hermitian(gen, theta))) <= 1e-10


def test_cbs_rejects_ancilla_collision():
    with pytest.raises(PulseError):
        cbs(1.0, 0.0, "q", "m0", "m1", "q")


# --- pulse parameter arithmetic ----------------------------------------------

def _params(**kw):
    base = dict(eta1=0.1, eta2=0.1, omega1=2 * np.pi * 1e5,
                omega2=2 * np.pi * 1e5, delta_bs=2 * np.pi * 1e4, t=1e-4)
    base.update(kw)
    return PulseParams(**base)


def test_zbs_angle_zero_duration():
    theta, _ = zbs_angle_from_pulse(_params(t=0.0))
    assert theta == 0.0


def test_zbs_angle_linearity():
    t1, _ = zbs_angle_from_pulse(_params(t=1e-4))
    t2, _ = zbs_angle_from_pulse(_params(t=2e-4))
    assert t2 == pytest.approx(2 * t1, rel=1e-12)
    d2, _ = zbs_angle_from_pulse(_params(delta_bs=2 * 2 * np.pi * 1e4))
    assert d2 == pytest.approx(t1 / 2, rel=1e-12)


def test_zbs_angle_round_trip():
    p = _params()
    t = zbs_duration_for_angle(p, np.pi / 2)
    p2 = _params(t=t)
    theta, _ = zbs_angle_from_pulse(p2)
    assert theta == pytest.approx(np.pi / 2, rel=1e-12)


def test_zbs_angle_rejects_zero_detuning():
    with pytest.raises(PulseError):
        zbs_angle_from_pulse(_params(delta_bs=0.0))


def test_zbs_phase_difference():
    _, phi = zbs_angle_from_pulse(_params(phi1=0.9, phi2=0.2))
    assert phi == pytest.approx(0.7)


def test_raman_detuning_cancellation():
    p = _params(delta_bs=0.0 + 1.0, omega_q=5.0, nu1=6.0, nu2=2.0)
    d1, d2 = raman_detunings(p)
    assert d1 == pytest.approx(0.0)
    assert d2 == pytest.approx(4.0)


def test_raman_detuning_difference_rule(rng):
    for _ in range(5):
        vals = rng.normal(size=4)
        p = _params(delta_bs=vals[0] if vals[0] != 0 else 1.0,
                    omega_q=vals[1], nu1=vals[2], nu2=vals[3])
        d1, d2 = raman_detunings(p)
        assert d1 - d2 == pytest.approx(p.nu2 - p.nu1, abs=1e-12)


def test_raman_detuning_zeros():
    # delta_bs = 0 is rejected by the angle formula but not by the
    # detuning arithmetic, so the all-zero case is well defined.
    p = PulseParams(eta1=0, eta2=0, omega1=0, omega2=0, delta_bs=0.0, t=0)
    d1, d2 = raman_detunings(p)
    assert (d1, d2) == (0.0, 0.0)


def test_zbs_generator_matches_pulse_hamiltonian(qm_layout):
    # theta * (zbs generator) must equal H_zbs * t entrywise, with theta
    # from the pulse-parameter formula.
    from drqsim.fock import SIGMA_Z, annihilation_matrix, creation_matrix, kron_le
    p = _params(phi1=0.4, phi2=-0.1)
    theta, phi = zbs_angle_from_pulse(p)
    gen, scale = pulse_generator(zbs(theta, phi, "q", "m0", "m1"), qm_layout)
    # scale is -theta, so the effective Hamiltonian is theta * G / t * t
    coupling = p.eta1 * p.eta2 * p.omega1 * p.omega2 / (4 * p.delta_bs)
    a, ad = annihilation_matrix(4), creation_matrix(4)
    h_zbs = coupling * kron_le([SIGMA_Z,
                                np.exp(1j * phi) * kron_le([ad, a])
                                + np.exp(-1j * phi) * kron_le([a, ad])])
    assert np.max(np.abs((-scale) * gen - h_zbs * p.t)) <= 1e-9


# --- pulse matrix size bound -------------------------------------------------

@pytest.mark.parametrize("op,block", [
    (carrier(0.3, 0.0, "q"), 2),
    (qphase(0.3, "q"), 2),
    (rsb(0.3, "q", "m0"), 8),
    (beamsplitter(0.3, 0.1, "m0", "m1"), 16),
    (zbs(0.3, 0.1, "q", "m0", "m1"), 32),
])
@pytest.mark.parametrize("build", [pulse_matrix, pulse_generator])
def test_pulse_matrix_refused_past_limit(qm_layout, monkeypatch, op, block,
                                         build):
    # The limit is one entry short of the pulse's block squared.
    monkeypatch.setattr(fock, "MAX_STATE_DIM", block ** 2 - 1)
    with pytest.raises(StateError, match=f"{op.kind} pulse on .* needs a "
                       f"{block} x {block} matrix; the limit is "
                       f"{block ** 2 - 1} entries"):
        build(op, qm_layout)
