"""The second routes that the tests check `drqsim`'s one path per job
against: dense states, level tuples, each pulse's Pade exponential,
codewords built level by level, the logical state read through the
codeword table, the Kronecker embedding of an ideal gate, a
whole-program lowering and the X-Y decomposition in numpy matrix
algebra."""
import numpy as np

from drqsim import encoding, fock, pulses, verify
from drqsim.compiler import HADAMARD, CompiledProgram, lower
from drqsim.errors import CompileError, RegisterError, StateError
from drqsim.fock import (StateVector, apply_matrix_columns, basis_state,
                         exp_hermitian)


def dense_state(layout, amps) -> StateVector:
    """The state of a dense total_dim vector, held on its nonzeros."""
    index = np.flatnonzero(amps)
    return StateVector(layout, index=index, values=np.asarray(amps)[index])


def levels_of(layout, index: int) -> tuple[int, ...]:
    """Per-subsystem levels of a basis index (`basis_index` inverted)."""
    return tuple(map(int, np.unravel_index(index, layout.dims, order="F")))


def pulse_generator(op, layout) -> tuple[np.ndarray, float]:
    """Hermitian G over `op.targets` and scale s of a pulse exp(i*s*G),
    for `exp_hermitian`; refused past `fock.MAX_STATE_DIM` entries, as
    `pulse_unitary` is."""
    _, dims, _, block, _, _ = layout.targets(op.targets)
    if block ** 2 > fock.MAX_STATE_DIM:
        raise StateError(f"{op.kind} pulse on {op.targets} needs a {block} x "
                         f"{block} matrix; the limit is {fock.MAX_STATE_DIM} "
                         "entries")
    _, build, factor = pulses._PULSES[op.kind]
    return build(op.phi, *dims), factor * op.theta


def expm_unitary(program, layout) -> verify.ProgramUnitary:
    """The full-space unitary of a pulse program: each pulse's Pade
    exponential applied to the identity by the dense contraction, apart
    from both the eigenbasis and the support kernel of `program_unitary`."""
    full = np.eye(layout.total_dim, dtype=complex)
    for op in verify._op_list(program):
        small = exp_hermitian(*pulse_generator(op, layout))
        full = apply_matrix_columns(full, layout, small, op.targets)
    return verify.ProgramUnitary(full)


def embed_logical_matrix(u_small, positions, n: int) -> np.ndarray:
    """A k-qubit matrix at the given logical positions (MSB-first) of n."""
    rest = [p for p in range(n) if p not in positions]
    full = np.kron(np.asarray(u_small, dtype=complex),
                   np.eye(2 ** len(rest)))
    # Row and column axes of `full` run over (positions..., rest...);
    # reorder both into register order.
    axes = np.argsort([*positions, *rest])
    return (full.reshape([2] * (2 * n))
            .transpose([*axes, *(axes + n)]).reshape(2 ** n, 2 ** n))


def logical_basis_state(register, bits) -> StateVector:
    """The codeword |bits>, every other subsystem at level 0."""
    if len(bits) != register.n_logical or not set(bits) <= {0, 1}:
        raise RegisterError(f"{bits} is not a codeword of "
                            f"{register.n_logical} logical qubits")
    levels = {}
    for entry, bit in zip(register.entries, bits):
        if entry.is_dual_rail:
            levels.update(zip(entry.rails, (1 - bit, bit)))
        else:
            levels[entry.qubit] = bit
    return basis_state(register.layout, levels)


def codeword_index(register, bits) -> int:
    """Full-space basis index of the codeword |bits>."""
    return int(logical_basis_state(register, bits).index[0])


def codeword_table_extraction(state, register):
    """(logical amplitudes, leakage, phase) of `encoding.extract_logical_state`
    looked up at all 2**n `codeword_indices`, in logical order."""
    amps = state.amplitude_at(register.codeword_indices)
    weight = float(np.sum(np.abs(amps) ** 2))
    phase = 0.0
    if weight > 1e-15:
        mags = np.abs(amps)
        near_max = mags >= (1.0 - encoding.PHASE_REFERENCE_RTOL) * mags.max()
        phase = float(np.angle(amps[int(np.argmax(near_max))]))
    return amps, max(0.0, 1.0 - weight), phase


def compile_program(records, register) -> CompiledProgram:
    """Unitary document records lowered into one program."""
    program = CompiledProgram()
    for step in lower(register, records):
        if step.program is None:
            raise step.error(CompileError(
                f"{step.record.name} is a directive, not a unitary gate"))
        program.extend(step.program)
    return program


def _zyz_su2(w: np.ndarray) -> tuple[float, float, float]:
    """Angles (beta, gamma, delta) with w = R_Z(beta) R_Y(gamma) R_Z(delta)."""
    gamma = 2 * np.arctan2(abs(w[1, 0]), abs(w[0, 0]))
    if abs(w[1, 0]) < 1e-12:
        return float(-2 * np.angle(w[0, 0])), 0.0, 0.0
    if abs(w[0, 0]) < 1e-12:
        return float(2 * np.angle(w[1, 0])), float(gamma), 0.0
    sum_bd = -2 * np.angle(w[0, 0])
    dif_bd = 2 * np.angle(w[1, 0])
    return (float((sum_bd + dif_bd) / 2), float(gamma),
            float((sum_bd - dif_bd) / 2))


def numpy_xy_decompose(u) -> tuple[float, float, float, float]:
    """`compiler.xy_decompose` through 2x2 matrix products: the unitarity
    defect of U^H U - I, alpha from `np.linalg.det`, and the ZYZ angles
    of the whole H (e^{-i alpha} U) H."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise CompileError("single-qubit gate needs a 2x2 matrix")
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(2))))
    if not defect <= fock.UNITARITY_TOL:
        raise CompileError(f"matrix is not unitary (defect {defect:.3e})")
    alpha = float(np.angle(np.linalg.det(u)) / 2)
    w = HADAMARD @ (np.exp(-1j * alpha) * u) @ HADAMARD
    beta, gamma, delta = _zyz_su2(w)
    return alpha, beta, -gamma, delta
