"""Program unitaries, equivalence checks and health checks.

`program_unitary` reconstructs a pulse program as a dense matrix by
evolving its basis columns, held as one sparse batch with column j's
basis state b at row j * total_dim + b (label j), through each
generator's eigenbasis block by block; the matrix must fit in
`fock.MAX_STATE_DIM` entries.  The batch walks the program through
`pulses.apply_pulses`, the loop `run` uses too, so the norm is checked
after every pulse.  The tests pin it to `tests/oracles.expm_unitary`,
the product of each pulse's Pade `exp_hermitian`.  The equivalence
checker compares programs against ideal gates up to an overall phase,
per document record in `check_records` for `verify <doc>` and the
built-in suite alike, each gate evolved on its own footprint's layout,
and the tests compare the footprint with the whole register through
`tests/oracles.embed_logical_matrix`.  `check_records` groups the
distinct records by operands and by each pulse's targets (a gate at
other angles keeps its targets), and each group's programs are evolved
together, as more labels of one batch, one stacked kernel call per
pulse, by `check_gates` and `program_unitaries`; every report equals
its one-program report, a norm breach names the group's first step,
and `program_unitary` is `program_unitaries` of one program.  Heating
errors are injected as discrete phonon jumps, and the parity circuit
detects them without disturbing healthy states.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from . import fock
from .compiler import GATES, CompiledProgram, lower
from .encoding import (
    ANCILLA_TOL,
    LogicalRegister,
    read_and_reset,
    require_ground,
)
from .errors import HealthError, RegisterError, StateError
from .fock import (
    MODE,
    QUBIT,
    HilbertLayout,
    StateVector,
    support_index,
    support_rows,
)
from .pulses import (
    PhysicalOp,
    apply_pulses,
    carrier,
    pulse_unitary,
    rsb,
    zbs,
)

SENTINEL_TOL = 1e-12
LEAKAGE_GUARD_TOL = 1e-6


def _op_list(program) -> list[PhysicalOp]:
    if isinstance(program, CompiledProgram):
        return list(program.ops)
    return list(program)


class ProgramUnitary(NamedTuple):
    matrix: np.ndarray
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

    The programs' columns evolve together as one batch through
    `pulses.apply_pulses`, which checks its norm after every pulse:
    program r's column j is label j * R + r, so its basis state b is row
    (j * R + r) * total_dim + b.  The kernel reads a target's level as
    index // stride % dim, which the label leaves alone, so each label
    holds only the states it reaches.  Each pulse is one stacked kernel
    call, program r's matrix taking the labels that are r mod R, each
    class multiplied and pruned as a call on its rows alone would, so
    each program's unitary equals its `program_unitary` bit for bit.  A
    batch holds as many programs as keep their columns over every state
    of the layout, a bound on any block the kernel meets, within
    `fock.MAX_STATE_DIM`, at least one.  A dim x dim unitary of more
    than `fock.MAX_STATE_DIM` entries, or a batch's dim x R x total_dim
    (column, state) pairs past `fock.MAX_INDEX_DIM`, is a StateError.
    """
    programs = [_op_list(p) for p in programs]
    _shared_targets(programs)
    if restrict is None:
        dim = layout.total_dim
    else:
        layout, dim = restrict.layout, restrict.logical_dim
    if dim * dim > fock.MAX_STATE_DIM:
        raise StateError(f"a {dim} x {dim} unitary exceeds the limit of "
                         f"{fock.MAX_STATE_DIM} entries")
    columns = (support_index(layout, range(dim)) if restrict is None
               else restrict.codeword_indices)
    total = layout.total_dim
    batch = max(1, fock.MAX_STATE_DIM // (total * dim))
    out = []
    for start in range(0, len(programs), batch):
        chunk = programs[start:start + batch]
        n = len(chunk)
        if dim * n * total > fock.MAX_INDEX_DIM:
            raise StateError(
                f"basis indices of {dim * n} columns x {total} states do "
                f"not fit in int64 (the limit is {fock.MAX_INDEX_DIM} states)")
        # label[j, r] * total_dim: program r's column j.
        label = np.arange(dim * n, dtype=np.int64).reshape(dim, n) * total
        state = apply_pulses(StateVector(
            layout, index=(columns[:, None] + label).ravel(),
            values=np.ones(dim * n, dtype=complex)), *chunk)
        # rows[i, j, r]: program r's entry (i, j).
        rows = support_rows(state.index, state.values,
                            (columns[:, None, None] + label).ravel())
        rows = rows.reshape(dim, dim, n)
        matrices = np.ascontiguousarray(rows.transpose(2, 0, 1))
        if restrict is None:
            out += [ProgramUnitary(m) for m in matrices]
            continue
        # Summed along contiguous rows of the transposes, each column's
        # weight rounds exactly as a one-program sum would.
        lost = 1.0 - np.sum(np.abs(np.ascontiguousarray(
            rows.transpose(2, 1, 0))) ** 2, axis=2)
        out += [ProgramUnitary(m, max(0.0, worst))
                for m, worst in zip(matrices, np.max(lost, axis=1).tolist())]
    return out


class EquivalenceReport(NamedTuple):
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
                register: LogicalRegister | None = None) -> StateVector:
    """Apply a pulse program through `pulses.apply_pulses`, which checks
    the norm after every pulse.

    With `register`, the program's exit state is checked once: every
    pool ancilla and the COM mode must be back in its reference state,
    then the sentinel level empty.  Gates borrow them mid-sequence and
    must hand them back; each step starts where the one before ended, so
    there is no entry check.
    """
    state = apply_pulses(state, _op_list(program))
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
    modes, tops = state.layout.sentinels
    hits = state.layout.levels(state.index, modes) == tops
    # One reduction for all modes; it may round apart from the masked
    # sums of `StateVector.populations` in the last bit, which no health
    # bound can see (readout, which branches on exact sums, keeps them).
    return max([0.0, *(hits @ (np.abs(state.values) ** 2)).tolist()])


def check_sentinel(state: StateVector) -> None:
    worst = sentinel_population(state)
    if worst > SENTINEL_TOL:
        raise HealthError(f"sentinel Fock level populated ({worst:.3e})")


def ancilla_reset_defect(state: StateVector,
                         register: LogicalRegister) -> float:
    """Worst deviation of any pool ancilla / COM mode from its reference
    state, for a state on the register's layout."""
    sids = register.ancilla_qubits + (
        () if register.com_mode is None else (register.com_mode,))
    hits = state.layout.levels(state.index, sids) == 0
    # One reduction, as in `sentinel_population`.
    return max([0.0, *(1.0 - hits @ (np.abs(state.values) ** 2)).tolist()])


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
    """Run the parity circuit, then read the flag qubit and reset it to
    ground (`encoding.read_and_reset`).

    Returns ("even" | "odd", post-measurement state).  For fixed-parity
    mode states the readout is deterministic and non-demolition; for
    parity mixtures the returned state is the explicitly collapsed
    branch.  The readout is end-of-circuit: continuing coherent evolution
    on other subsystems afterwards is the caller's responsibility to
    justify.
    """
    if state.layout.kind_of(qubit) != QUBIT:
        raise StateError(f"{qubit!r} is not a qubit")
    require_ground(state, qubit)
    state = apply_pulses(state, qnd_parity_sequence(qubit, mode1, mode2))
    outcome, state = read_and_reset(state, qubit, rng_seed)
    return ("odd" if outcome == 1 else "even"), state


# ---------------------------------------------------------------------------
# Heating errors


def inject_heating_error(state: StateVector, mode: str,
                         kind: str) -> StateVector:
    """Apply a discrete phonon jump (loss: a, gain: a^dag) and renormalize.

    The jump moves each support state one level down (loss, times
    sqrt(level)) or up (gain, times sqrt(level + 1)); no dense jump
    matrix is built, whatever the cutoff."""
    layout = state.layout
    if layout.kind_of(mode) != MODE:
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
    """A RegisterError for a gate whose 2**k x 2**k unitary holds more
    than `fock.MAX_STATE_DIM` entries."""
    if 4 ** len(operands) > fock.MAX_STATE_DIM:
        most = (fock.MAX_STATE_DIM.bit_length() - 1) // 2
        raise RegisterError(
            f"verify checks gates of at most {most} operands (logical "
            f"dimension {2 ** most}); this one has {len(operands)}")


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
    evolved together by `program_unitaries`.  A gate whose 2**k x 2**k
    unitary holds more than `fock.MAX_STATE_DIM` entries (k > 12) is a
    RegisterError, and one whose 2**k x footprint states do not fit in
    int64 a StateError.
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
    StateError, or a HealthError of the norm check, raised while a group
    is checked names the group's first step.
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
    except (HealthError, RegisterError, StateError) as exc:
        raise step.error(exc) from exc
    return [reports[step.record]._replace(
                name=f"gate-{step.index}:{step.record.render()}")
            for step in steps]


# ---------------------------------------------------------------------------
# Shot sampling


def outcome_distribution(state: StateVector, register: LogicalRegister,
                         measured_ids: Sequence[str]
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Exact chances of the outcomes of reading `measured_ids`: int64 codes
    (first id most significant) in increasing order, and probabilities, in
    rows x reads.  A row reads 1 with its bit's chance, or on a rail past
    level 1 with the excited share of an rsb(pi) onto the ground
    `register.readout_ancilla`.  A dual-rail read is a StateError if that
    ancilla holds over ANCILLA_TOL outside ground, else read as ground."""
    if any(register.entry(mid).is_dual_rail for mid in measured_ids):
        require_ground(state, register.readout_ancilla)
    layout, index = state.layout, state.index
    probs = np.abs(state.values) ** 2
    codes = np.zeros(len(index), dtype=np.int64)
    for entry in map(register.entry, measured_ids):
        p1 = layout.levels(index, (entry.bit,))[0]
        if entry.is_dual_rail:
            # Each ground-ancilla column's weight on the excited ancilla.
            w = np.abs(pulse_unitary(rsb(np.pi, register.readout_ancilla,
                                         entry.bit), layout)[:, ::2]) ** 2
            p1 = (w[1::2].sum(axis=0) / w.sum(axis=0))[p1]
        zero, one = p1 < 1, p1 > 0  # a fractional chance splits the row
        index = np.concatenate((index[zero], index[one]))
        codes = np.concatenate((2 * codes[zero], 2 * codes[one] + 1))
        probs = np.concatenate(((probs * (1 - p1))[zero], (probs * p1)[one]))
    codes, inverse = np.unique(codes, return_inverse=True)
    probs = np.bincount(inverse.ravel(), weights=probs)
    return codes, probs / probs.sum()  # each at most 1, as `multinomial` asks


def sample_counts(state: StateVector, register: LogicalRegister,
                  measured_ids: Sequence[str], shots: int,
                  seed) -> dict[str, int]:
    """Born-rule sampling of logical qubits, deterministic for a seed: one
    multinomial draw over `outcome_distribution`, in exact int64 counts up
    to `document.MAX_SHOTS`; a drawn code's leading 1 keeps its zeros."""
    codes, probs = outcome_distribution(state, register, measured_ids)
    n = np.random.default_rng(seed).multinomial(shots, probs)
    return {format(code | 1 << len(measured_ids), "b")[1:]: count
            for code, count in zip(codes[n > 0].tolist(), n[n > 0].tolist())}
