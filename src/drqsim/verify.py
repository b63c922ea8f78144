"""Program unitaries, equivalence checks and health checks.

`program_unitary` reconstructs a pulse program as a dense matrix by
evolving basis columns through each generator's eigenbasis block by
block; the tests pin it to `tests/oracles.expm_unitary`, the product of
each pulse's Pade `exp_hermitian`.  The equivalence checker compares
programs against ideal gates up to an overall phase, per document
record in `check_records` for `verify <doc>` and the built-in suite
alike, each gate evolved on its own footprint's layout, and the tests
compare the footprint with the whole register through
`tests/oracles.embed_logical_matrix`.  `check_records` groups the
distinct records by operands and by each pulse's targets (a gate at
other angles keeps its targets), and each group's programs are evolved
together, one stacked kernel call per pulse, by `check_gates` and
`program_unitaries`; every report equals its one-program report, and
`program_unitary` is `program_unitaries` of one program.  Heating
errors are injected as discrete phonon jumps, and the parity circuit
detects them without disturbing healthy states.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import fock
from .compiler import GATES, CompiledProgram, lower
from .encoding import ANCILLA_TOL, LogicalRegister, map_dual_rail_readout
from .errors import HealthError, RegisterError, StateError
from .fock import (
    HilbertLayout,
    NORM_TOL,
    StateVector,
    apply_matrix_support,
    excited_probability,
    measure_qubit_z,
    project_qubit,
    support_index,
    support_rows,
)
from .pulses import (
    PhysicalOp,
    apply_pulse,
    carrier,
    pulse_unitary,
    zbs,
)

MAX_RESTRICTED_DIM = 256
MAX_FULL_DIM = 4096
SENTINEL_TOL = 1e-12
LEAKAGE_GUARD_TOL = 1e-6


def _op_list(program) -> list[PhysicalOp]:
    if isinstance(program, CompiledProgram):
        return list(program.ops)
    return list(program)


@dataclass
class ProgramUnitary:
    matrix: np.ndarray = field(repr=False)
    leakage_max: float = 0.0


def program_unitary(program, layout: HilbertLayout,
                    restrict: LogicalRegister | None = None) -> ProgramUnitary:
    """Dense unitary of a pulse program, evolved through the generators'
    eigenbases block by block: `program_unitaries` of one program.

    With `restrict`, columns are codeword basis states evolved through the
    program on `restrict`'s layout and projected back onto the codeword
    span; `leakage_max` is the largest weight lost outside that span.
    Without it the full total_dim matrix is returned.
    """
    return program_unitaries([program], layout, restrict)[0]


def _full_dim(layout: HilbertLayout) -> int:
    dim = layout.total_dim
    if dim > MAX_FULL_DIM:
        raise StateError(f"full dimension {dim} exceeds {MAX_FULL_DIM}")
    return dim


def _shared_targets(programs) -> tuple[tuple[str, ...], ...]:
    """Each pulse's targets, the same in every program, or a ValueError."""
    shapes = {tuple(op.targets for op in ops) for ops in programs}
    if len(shapes) != 1:
        raise ValueError("the programs' pulses must share their targets")
    return shapes.pop()


def program_unitaries(programs: Sequence, layout: HilbertLayout,
                      restrict: LogicalRegister | None = None
                      ) -> list[ProgramUnitary]:
    """`program_unitary` of several programs whose pulses share their
    targets, pulse by pulse: R programs differing only in their angles.

    The programs' columns are evolved together, one stacked call of
    `fock.apply_matrix_support` per pulse, each program's columns taken
    by its own pulse's matrix and pruned on their own; each program's
    unitary equals its `program_unitary` bit for bit.  A batch holds as
    many programs as keep their columns over every state of the layout,
    a bound on any block the kernel meets, within `fock.MAX_STATE_DIM`,
    at least one.
    """
    programs = [_op_list(p) for p in programs]
    _shared_targets(programs)
    if restrict is None:
        dim = _full_dim(layout)
        columns = support_index(layout, range(dim))
    else:
        layout, dim = restrict.layout, restrict.logical_dim
        if dim > MAX_RESTRICTED_DIM:
            raise StateError(
                f"logical dimension {dim} exceeds {MAX_RESTRICTED_DIM}")
        columns = restrict.codeword_indices
    batch = max(1, fock.MAX_STATE_DIM // (layout.total_dim * len(columns)))
    out = []
    for start in range(0, len(programs), batch):
        out += _evolve(programs[start:start + batch], layout, columns,
                       leakage=restrict is not None)
    return out


def _evolve(programs: list[list[PhysicalOp]], layout: HilbertLayout,
            columns: np.ndarray, leakage: bool) -> list[ProgramUnitary]:
    """Each program's matrix on the basis states `columns`, its columns
    in the order of `columns`, with the weight each column loses outside
    them when `leakage` is set."""
    dim, n = len(columns), len(programs)
    # All columns of all programs evolve together on the basis states
    # they occupy; program r holds columns r*dim to (r+1)*dim.
    order = np.argsort(columns)
    index = columns[order]
    amps = np.zeros((dim, n, dim), dtype=complex)
    amps[np.arange(dim), :, order] = 1.0
    amps = amps.reshape(dim, n * dim)
    for ops in zip(*programs):
        # One program hands the kernel its memo matrix, uncopied.
        mats = [pulse_unitary(op, layout) for op in ops]
        index, amps = apply_matrix_support(
            index, amps, layout, mats[0] if n == 1 else np.array(mats),
            ops[0].targets)
    # rows[:, r]: program r's matrix.
    rows = support_rows(index, amps, columns).reshape(dim, n, dim)
    matrices = np.ascontiguousarray(rows.transpose(1, 0, 2))
    if not leakage:
        return [ProgramUnitary(m) for m in matrices]
    # Summed along contiguous rows of the transposes, each column's weight
    # rounds exactly as a one-column sum would.
    lost = 1.0 - np.sum(np.abs(np.ascontiguousarray(
        rows.transpose(1, 2, 0))) ** 2, axis=2)
    return [ProgramUnitary(m, max(0.0, worst))
            for m, worst in zip(matrices, np.max(lost, axis=1).tolist())]


@dataclass
class EquivalenceReport:
    """One check of `verify`'s report: a gate step or a built-in check."""

    equivalent: bool
    max_entry_error: float
    inferred_phase: float
    leakage_max: float = 0.0
    name: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "equivalent": bool(self.equivalent),
                "max_entry_error": float(self.max_entry_error),
                "inferred_phase": float(self.inferred_phase),
                "leakage_max": float(self.leakage_max)}


def equivalent_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float,
                           leakage_max: float = 0.0) -> EquivalenceReport:
    """Check a * e^{i phi} == b entrywise, inferring phi from b's largest entry."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise StateError(f"dimension mismatch {a.shape} vs {b.shape}")
    flat = int(np.argmax(np.abs(b)))
    i, j = np.unravel_index(flat, b.shape)
    if abs(a[i, j]) < 1e-14:
        return EquivalenceReport(False, float(np.max(np.abs(a - b))), 0.0,
                                 leakage_max)
    phase = float(np.angle(b[i, j] / a[i, j]))
    err = float(np.max(np.abs(a * np.exp(1j * phase) - b)))
    return EquivalenceReport(err <= tol, err, phase, leakage_max)


def run_program(state: StateVector, program,
                probe: Callable[[StateVector], None] | None = None,
                register: LogicalRegister | None = None) -> StateVector:
    """Apply a pulse program, checking the norm after every pulse.

    A norm drift past `NORM_TOL` names the index and kind of the pulse
    that caused it.  `probe` is called after every pulse (population
    tracking in tests).  With `register`, the program's exit state is
    checked once: every pool ancilla and the COM mode must be back in
    its reference state, then the sentinel level empty.  Gates borrow
    them mid-sequence and must hand them back; each step starts where
    the one before ended, so there is no entry check.
    """
    for k, op in enumerate(_op_list(program)):
        state = apply_pulse(state, op)
        if abs(state.norm() - 1.0) > NORM_TOL:
            raise HealthError(
                f"norm drifted to {state.norm()} at pulse {k} ({op.kind})")
        if probe is not None:
            probe(state)
    if register is not None:
        defect = ancilla_reset_defect(state, register)
        if defect > ANCILLA_TOL:
            raise HealthError(
                f"ancilla not restored at gate exit (defect {defect:.3e})")
        check_sentinel(state)
    return state


def sentinel_population(state: StateVector) -> float:
    """Largest top-Fock-level population over modes with dim >= 4.

    The top level of a cutoff-4 mode is a sentinel: error-free circuits
    never populate it, so weight there means truncation influenced the
    run.
    """
    hits = state.level_hits(_sentinel_pairs(state.layout))
    # One reduction for all modes; it may round apart from the masked
    # sums of `StateVector.populations` in the last bit, which no health
    # bound can see (readout, which branches on exact sums, keeps them).
    return max([0.0, *(hits @ (np.abs(state.values) ** 2)).tolist()])


@functools.lru_cache(maxsize=8)
def _sentinel_pairs(layout: HilbertLayout) -> tuple[tuple[str, int], ...]:
    """(mode, top level) of each mode with dim >= 4."""
    return tuple((sub.sid, sub.dim - 1) for sub in layout.subsystems
                 if sub.kind == "mode" and sub.dim >= 4)


def check_sentinel(state: StateVector) -> None:
    worst = sentinel_population(state)
    if worst > SENTINEL_TOL:
        raise HealthError(f"sentinel Fock level populated ({worst:.3e})")


def ancilla_reset_defect(state: StateVector,
                         register: LogicalRegister) -> float:
    """Worst deviation of any pool ancilla / COM mode from its reference state."""
    hits = state.level_hits(_reset_pairs(register.ancilla_qubits,
                                         register.com_mode))
    # One reduction, as in `sentinel_population`.
    return max([0.0, *(1.0 - hits @ (np.abs(state.values) ** 2)).tolist()])


@functools.lru_cache(maxsize=8)
def _reset_pairs(ancilla_qubits: tuple[str, ...],
                 com_mode: str | None) -> tuple[tuple[str, int], ...]:
    """(subsystem, 0) of each pool ancilla and of the COM mode."""
    sids = ancilla_qubits if com_mode is None else (*ancilla_qubits, com_mode)
    return tuple((sid, 0) for sid in sids)


# ---------------------------------------------------------------------------
# QND parity circuit


def qnd_parity_sequence(qubit: str, mode1: str, mode2: str) -> list[PhysicalOp]:
    """Parity-to-qubit circuit: y(-pi/2), swap, y(pi/2), swap.

    Maps |g>|n>|m> to |sigma_{(n+m) mod 2}>|n>|m> exactly, leaving any
    fixed-parity mode superposition untouched.
    """
    swap = zbs(np.pi / 2, 0.0, qubit, mode1, mode2)
    return [
        carrier(-np.pi / 2, -np.pi / 2, qubit),
        swap,
        carrier(np.pi / 2, -np.pi / 2, qubit),
        swap,
    ]


def qnd_parity_check(state: StateVector, qubit: str, mode1: str, mode2: str,
                     rng_seed=0) -> tuple[str, StateVector]:
    """Run the parity circuit and read the flag off the qubit.

    Returns ("even" | "odd", post-measurement state).  For fixed-parity
    mode states the readout is deterministic and non-demolition; for
    parity mixtures the returned state is the explicitly collapsed
    branch.  The readout is end-of-circuit: continuing coherent evolution
    on other subsystems afterwards is the caller's responsibility to
    justify.
    """
    if not state.layout.is_qubit(qubit):
        raise StateError(f"{qubit!r} is not a qubit")
    if state.population(qubit, 0) < 1.0 - ANCILLA_TOL:
        raise StateError(f"parity qubit {qubit!r} must start in the ground state")
    for op in qnd_parity_sequence(qubit, mode1, mode2):
        state = apply_pulse(state, op)
    outcome, collapsed, _ = measure_qubit_z(state, qubit, rng_seed)
    return ("odd" if outcome == 1 else "even"), collapsed


# ---------------------------------------------------------------------------
# Heating errors


def inject_heating_error(state: StateVector, mode: str,
                         kind: str) -> StateVector:
    """Apply a discrete phonon jump (loss: a, gain: a^dag) and renormalize.

    The jump moves each support state one level down (loss, times
    sqrt(level)) or up (gain, times sqrt(level + 1)); no dense jump
    matrix is built, whatever the cutoff."""
    layout = state.layout
    if not layout.is_mode(mode):
        raise StateError(f"{mode!r} is not a mode")
    dim, level = layout.dim_of(mode), state.levels(mode)
    stride = layout.strides[layout.axis(mode)]
    if kind == "loss":
        keep, shift, factor = level >= 1, -stride, np.sqrt(level)
    elif kind == "gain":
        if state.population(mode, dim - 1) >= SENTINEL_TOL:
            raise StateError(
                "gain would push population past the Fock truncation")
        keep, shift, factor = level < dim - 1, stride, np.sqrt(level + 1)
    else:
        raise ValueError(f"unknown heating kind {kind!r}")
    out = StateVector(layout, index=state.index[keep] + shift,
                      values=state.values[keep] * factor[keep])
    norm = out.norm()
    if norm < 1e-12:
        raise StateError(f"{kind} on {mode!r} annihilates the state")
    return StateVector(layout, index=out.index, values=out.values / norm)


# ---------------------------------------------------------------------------
# Ideal logical gates (the comparison side of equivalence checks)


def ideal_logical_gate(name: str, params: Sequence[float],
                       n_operands: int) -> np.ndarray:
    """Textbook matrix of a named gate over its operands (first = MSB)."""
    spec = GATES.get(name)
    if spec is None or spec.ideal is None:
        raise ValueError(f"no ideal matrix for gate {name!r}")
    return spec.ideal(params, n_operands)


def _check_operand_count(operands: Sequence[str]) -> None:
    if 2 ** len(operands) > MAX_RESTRICTED_DIM:
        raise RegisterError(
            f"verify checks gates of at most "
            f"{MAX_RESTRICTED_DIM.bit_length() - 1} operands (logical "
            f"dimension {MAX_RESTRICTED_DIM}); this one has {len(operands)}")


def check_gates(register: LogicalRegister, programs: Sequence,
                ideals: Sequence[np.ndarray], operands: Sequence[str],
                tol: float) -> list[EquivalenceReport]:
    """Compare each gate program with its ideal matrix on its operands'
    codeword span; the programs act on the same operands and their
    pulses share their targets.

    A gate is local: every pulse must target an operand's subsystems, a
    pool ancilla or the COM mode.  A pulse anywhere else fails the check
    before anything is evolved, reported with the largest entry error
    and leakage a unitary can show, 2 and 1.  The other logical qubits
    then see the identity exactly, so the pulses are evolved on the
    register's `footprint` of `operands`, first most significant: only
    the footprint's subsystems, whatever the register's width.  Its 2**k
    codeword columns are compared with each ideal as it is, up to a
    global phase, with the restricted unitary's leakage reported.  The
    footprint register is built once for all the programs, which are
    evolved together by `program_unitaries`.  A gate of more than
    log2(MAX_RESTRICTED_DIM) operands is a RegisterError, and one whose
    footprint's basis indices do not fit in int64 a StateError.
    """
    _check_operand_count(operands)
    local = register.footprint(operands)
    footprint = set(local.layout.ids)
    targets = _shared_targets([_op_list(p) for p in programs])
    if any(t not in footprint for sids in targets for t in sids):
        return [EquivalenceReport(False, 2.0, 0.0, 1.0) for _ in programs]
    return [equivalent_up_to_phase(got.matrix, ideal, tol, got.leakage_max)
            for got, ideal in zip(program_unitaries(
                programs, local.layout, restrict=local), ideals)]


def check_records(register: LogicalRegister, records: Sequence,
                  tol: float) -> list[EquivalenceReport]:
    """Check each unitary record, lowered by its `GATES` row, against its
    ideal matrix, in reports named `gate-<index>:<record>`.

    A record's pulses depend only on the register and the record, so each
    distinct record is checked once.  Distinct records on the same
    operands whose pulses share their targets, pulse by pulse (the same
    gate at other angles, mostly), form one group, checked by one
    `check_gates` call; each report equals the record's own one-program
    `check_gates` report.  A gate of too many operands is a RegisterError
    naming its first step, raised before anything is evolved; a
    StateError raised while a group is checked names the group's first
    step.
    """
    steps = [step for step in lower(register, records)
             if step.program is not None]
    first, groups, reports = {}, {}, {}
    try:
        for step in steps:
            _check_operand_count(step.record.operands)
            first.setdefault(step.record, step)
        for rec, head in first.items():
            key = (rec.operands, tuple(op.targets for op in head.program.ops))
            groups.setdefault(key, {})[rec] = head.program
        for (operands, _), group in groups.items():
            step = first[next(iter(group))]  # named if the group fails
            ideals = [ideal_logical_gate(rec.name, rec.params, len(operands))
                      for rec in group]
            reports.update(zip(group, check_gates(
                register, list(group.values()), ideals, operands, tol)))
    except (RegisterError, StateError) as exc:
        raise type(exc)(
            f"gate {step.index} ({step.record.render()}): {exc}") from exc
    return [replace(reports[step.record],
                    name=f"gate-{step.index}:{step.record.render()}")
            for step in steps]


# ---------------------------------------------------------------------------
# Shot sampling


def sample_counts(state: StateVector, register: LogicalRegister,
                  measured_ids: Sequence[str], shots: int,
                  seed) -> dict[str, int]:
    """Born-rule sampling of logical qubits, deterministic for a seed.

    Dual-rail reads borrow the first pool ancilla (reset between reads);
    internal reads are direct fluorescence measurements.  The shots are
    split down the readout tree: each register is mapped once per
    branch, a binomial draw divides the branch's shots between the two
    outcomes, and each collapsed branch that got a shot is read on.  That
    is the joint distribution of reading every shot out on its own, at a
    cost of at most 2**k - 1 readouts for k registers, whatever `shots`
    is, holding one state per register at a time.
    """
    entries = [register.entry(mid) for mid in measured_ids]
    if any(e.is_dual_rail for e in entries) and not register.ancilla_qubits:
        raise RegisterError("dual-rail readout needs an ancilla qubit")
    rng = np.random.default_rng(seed)
    counts: dict[str, int] = {}

    def descend(state: StateVector | None, depth: int, n: int,
                key: str) -> None:
        if depth == len(entries):
            counts[key] = n
            return
        entry = entries[depth]
        if entry.is_dual_rail:
            qubit = register.ancilla_qubits[0]
            state = map_dual_rail_readout(state, register, entry.logical_id,
                                          qubit)
        else:
            qubit = entry.qubit
        n1 = int(rng.binomial(n, excited_probability(state, qubit)))
        for outcome, n_out in ((0, n - n1), (1, n1)):
            if n_out == 0:
                continue
            branch = None  # the last read needs no collapsed state
            if depth + 1 < len(entries):
                branch = project_qubit(state, qubit, outcome)
                if outcome == 1 and entry.is_dual_rail:
                    branch = apply_pulse(branch, carrier(np.pi, 0.0, qubit))
            descend(branch, depth + 1, n_out, key + str(outcome))

    if shots > 0:
        descend(state, 0, shots, "")
    return counts
