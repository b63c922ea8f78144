"""The second routes that the tests check `drqsim`'s one path per job
against: dense states, level tuples, each pulse's Pade exponential,
codewords built level by level, the Kronecker embedding of an ideal
gate and a whole-program lowering."""
import numpy as np

from drqsim import pulses, verify
from drqsim.compiler import CompiledProgram, lower
from drqsim.errors import CompileError, RegisterError
from drqsim.fock import (OperatorMatrix, StateVector, apply_matrix_columns,
                         basis_state, exp_hermitian)


def dense_state(layout, amps) -> StateVector:
    """The state of a dense total_dim vector, held on its nonzeros."""
    index = np.flatnonzero(amps)
    return StateVector(layout, index=index, values=np.asarray(amps)[index])


def levels_of(layout, index: int) -> tuple[int, ...]:
    """Per-subsystem levels of a basis index (`basis_index` inverted)."""
    return tuple(map(int, np.unravel_index(index, layout.dims, order="F")))


def pulse_generator(op, layout) -> tuple[OperatorMatrix, float]:
    """Hermitian G and scale s of a pulse exp(i*s*G), for `exp_hermitian`."""
    dims = pulses._check_kinds(op, layout)
    _, build, factor = pulses._PULSES[op.kind]
    return OperatorMatrix(op.targets, build(op.phi, *dims)), factor * op.theta


def expm_unitary(program, layout) -> verify.ProgramUnitary:
    """The full-space unitary of a pulse program: each pulse's Pade
    exponential applied to the identity by the dense contraction, apart
    from both the eigenbasis and the support kernel of `program_unitary`."""
    full = np.eye(layout.total_dim, dtype=complex)
    for op in verify._op_list(program):
        small = exp_hermitian(*pulse_generator(op, layout))
        full = apply_matrix_columns(full, layout, small.entries, op.targets)
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


def compile_program(records, register) -> CompiledProgram:
    """Unitary document records lowered into one program."""
    program = CompiledProgram()
    for step in lower(register, records):
        if step.program is None:
            name = step.record.name
            raise CompileError(f"gate {step.index} ({name}): {name} is a "
                               "directive, not a unitary gate")
        program.extend(step.program)
    return program
