"""Logical qubits over physical subsystems.

Two base encodings:

  dual_rail   |0> = |1>|0> , |1> = |0>|1>   (one phonon shared by two modes)
  internal    |0> = ground, |1> = excited   (one internal qubit)

Each can be extended with an auxiliary mode (kinds `dual_rail_aux` and
`internal_aux`) whose single-phonon level encodes the transient third
basis state used by multi-controlled gates.  In the logical subspace the
auxiliary mode sits in vacuum; any population there counts as leakage.
`SUBSYSTEM_KINDS` gives each register kind's subsystem kinds, for the
document parser and `define_register` alike.  The first pool ancilla
(`LogicalRegister.readout_ancilla`) loads every dual-rail qubit, reads
it out and flags its parity, and `read_and_reset` pumps it back to ground.
"""
from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import RegisterError, StateError
from .fock import (
    MODE,
    QUBIT,
    HilbertLayout,
    StateVector,
    measure_qubit_z,
    support_index,
)
from .pulses import PhysicalOp, apply_pulses, carrier, rsb

DUAL_RAIL = "dual_rail"
INTERNAL = "internal"
DUAL_RAIL_AUX = "dual_rail_aux"
INTERNAL_AUX = "internal_aux"

# Register kind -> the kinds of its physical subsystems, in order.
SUBSYSTEM_KINDS = {
    DUAL_RAIL: (MODE, MODE),
    INTERNAL: (QUBIT,),
    DUAL_RAIL_AUX: (MODE, MODE, MODE),
    INTERNAL_AUX: (QUBIT, MODE),
}

# Largest weight a pool ancilla or the COM mode may hold outside its
# ground level and still count as reset.
ANCILLA_TOL = 1e-9


class RegisterEntry(NamedTuple):
    logical_id: str
    kind: str
    physical: tuple[str, ...]

    @property
    def is_dual_rail(self) -> bool:
        return self.kind in (DUAL_RAIL, DUAL_RAIL_AUX)

    @property
    def rails(self) -> tuple[str, str]:
        if not self.is_dual_rail:
            raise RegisterError(f"{self.logical_id!r} has no mode rails")
        return self.physical[0], self.physical[1]

    @property
    def qubit(self) -> str:
        if self.is_dual_rail:
            raise RegisterError(f"{self.logical_id!r} is not an internal qubit")
        return self.physical[0]

    @property
    def bit(self) -> str:
        """The subsystem whose level is the entry's logical bit: a
        dual-rail qubit's d1 rail, an internal qubit itself."""
        return self.physical[1] if self.is_dual_rail else self.physical[0]

    @property
    def aux_mode(self) -> str | None:
        aux = self.kind in (DUAL_RAIL_AUX, INTERNAL_AUX)
        return self.physical[-1] if aux else None


class LogicalRegister:
    """Map from logical qubits to physical subsystems, never changed
    after it is built: its tables are cached on first read."""

    def __init__(self, layout: HilbertLayout,
                 entries: tuple[RegisterEntry, ...],
                 ancilla_qubits: tuple[str, ...] = (),
                 com_mode: str | None = None):
        self.layout, self.entries = layout, entries
        self.ancilla_qubits, self.com_mode = ancilla_qubits, com_mode

    def entry(self, logical_id: str) -> RegisterEntry:
        for e in self.entries:
            if e.logical_id == logical_id:
                return e
        raise RegisterError(f"unknown logical qubit {logical_id!r}")

    @property
    def n_logical(self) -> int:
        return len(self.entries)

    @property
    def logical_dim(self) -> int:
        return 2 ** self.n_logical

    @property
    def readout_ancilla(self) -> str:
        """The pool qubit that loads, reads out and flags the parity of
        every dual-rail qubit: the first."""
        if not self.ancilla_qubits:
            raise RegisterError(
                "dual-rail loading and readout needs an ancilla qubit")
        return self.ancilla_qubits[0]

    @cached_property
    def codeword_steps(self) -> tuple[int, tuple[int, ...]]:
        """The all-zero codeword's basis index and each entry's step from it
        when its bit is set (a phonon moved from d0 to d1, an internal
        qubit excited), as Python ints."""
        strides = dict(zip(self.layout.ids, self.layout.strides))
        d0 = [strides[e.physical[0]] if e.is_dual_rail else 0
              for e in self.entries]
        return sum(d0), tuple(strides[e.bit] - s
                              for e, s in zip(self.entries, d0))

    @cached_property
    def codeword_indices(self) -> np.ndarray:
        """Basis indices of the 2**n codewords, in logical order (first
        registered qubit most significant); read-only, built once, for
        the restricted columns of `verify`."""
        base, steps = self.codeword_steps
        # Doubling from the last registered qubit, the least significant,
        # to the first: each qubit appends the codewords with its bit set.
        indices = support_index(self.layout, [base])
        for step in reversed(steps):
            indices = np.concatenate((indices, indices + step))
        indices.flags.writeable = False
        return indices

    def claimed_subsystems(self) -> tuple[str, ...]:
        out: list[str] = []
        for e in self.entries:
            out.extend(e.physical)
        out.extend(self.ancilla_qubits)
        if self.com_mode is not None:
            out.append(self.com_mode)
        return tuple(out)

    def footprint(self, logical_ids: Sequence[str]) -> "LogicalRegister":
        """The register of `logical_ids` (first most significant), the
        pool ancillas and the COM mode on a layout of only their
        subsystems, in layout order: all that a gate on them may touch."""
        entries = tuple(map(self.entry, logical_ids))
        sids = set(LogicalRegister(self.layout, entries, self.ancilla_qubits,
                                   self.com_mode).claimed_subsystems())
        return LogicalRegister(
            HilbertLayout([s for s in self.layout.subsystems
                           if s.sid in sids]),
            entries, self.ancilla_qubits, self.com_mode)


def define_register(layout: HilbertLayout,
                    entries: Iterable[tuple[str, str, Sequence[str]]],
                    ancilla_qubits: Sequence[str] = (),
                    com_mode: str | None = None) -> LogicalRegister:
    """Validate and freeze a logical register over `layout`."""
    built: list[RegisterEntry] = []
    seen_logical: set[str] = set()
    for logical_id, kind, physical in entries:
        if kind not in SUBSYSTEM_KINDS:
            raise RegisterError(f"unknown register kind {kind!r}")
        physical, wanted = tuple(physical), SUBSYSTEM_KINDS[kind]
        if len(physical) != len(wanted):
            raise RegisterError(
                f"{kind} entry {logical_id!r} takes {len(wanted)} "
                f"subsystems, got {len(physical)}")
        if logical_id in seen_logical:
            raise RegisterError(f"duplicate logical id {logical_id!r}")
        seen_logical.add(logical_id)
        for sid, kindwant in zip(physical, wanted):
            if layout.kind_of(sid) != kindwant:
                raise RegisterError(
                    f"{logical_id!r}: subsystem {sid!r} must be a {kindwant}")
        if len(set(physical)) != len(physical):
            raise RegisterError(f"{logical_id!r} reuses a subsystem")
        built.append(RegisterEntry(logical_id, kind, physical))

    for q in ancilla_qubits:
        if layout.kind_of(q) != QUBIT:
            raise RegisterError(f"ancilla {q!r} is not a qubit")
    if com_mode is not None and layout.kind_of(com_mode) != MODE:
        raise RegisterError(f"COM mode {com_mode!r} is not a mode")

    register = LogicalRegister(layout, tuple(built), tuple(ancilla_qubits),
                               com_mode)
    claimed = register.claimed_subsystems()
    if len(set(claimed)) != len(claimed):
        dupes = sorted({s for s in claimed if claimed.count(s) > 1})
        raise RegisterError(f"subsystems assigned twice: {dupes}")
    return register


PHASE_REFERENCE_RTOL = 1e-9


class LogicalStateReport:
    """Projection of a physical state onto the codeword span: the logical
    index (first registered qubit most significant) and amplitude of each
    codeword row, and `logical_amplitudes`, the dense 2**n vector, built
    when first read.  `global_phase` is the phase of the first amplitude in
    logical order whose magnitude is within a relative PHASE_REFERENCE_RTOL
    of the largest, so a last-bit change cannot move it between amplitudes
    of tied magnitude.
    """

    def __init__(self, logical_dim: int, codewords: np.ndarray,
                 amplitudes: np.ndarray, leakage: float = 0.0,
                 global_phase: float = 0.0):
        self.logical_dim, self.codewords = logical_dim, codewords
        self.amplitudes, self.leakage = amplitudes, leakage
        self.global_phase = global_phase

    @cached_property
    def logical_amplitudes(self) -> np.ndarray:
        dense = np.zeros(self.logical_dim, dtype=complex)
        dense[self.codewords] = self.amplitudes
        return dense


def extract_logical_state(state: StateVector,
                          register: LogicalRegister) -> LogicalStateReport:
    """A support row is a codeword when each entry's bit level is 0 or 1
    and its index is `base + bits @ steps`; leakage is the weight of the
    other rows."""
    base, steps = register.codeword_steps
    bits = state.layout.levels(  # (entries, rows)
        state.index, tuple(e.bit for e in register.entries))
    valid = (bits <= 1).all(axis=0) & (
        state.index == base + np.array(steps, dtype=np.int64) @ bits)
    codewords = 2 ** np.arange(len(steps))[::-1] @ bits[:, valid]
    amps = state.values[valid]
    weight = float(np.sum(np.abs(amps) ** 2))
    phase = 0.0
    if weight > 1e-15:
        mags = np.abs(amps)
        near_max = mags >= (1.0 - PHASE_REFERENCE_RTOL) * mags.max()
        first = np.argmin(np.where(near_max, codewords, register.logical_dim))
        phase = float(np.angle(amps[first]))
    return LogicalStateReport(register.logical_dim, codewords, amps,
                              max(0.0, 1.0 - weight), phase)


PREPARE_PHASE = np.pi  # carrier(pi) and rsb(pi) each contribute -i


def prepare_dual_rail_zero(register: LogicalRegister,
                           logical_id: str) -> tuple[list[PhysicalOp], float]:
    """Pulse sequence loading one phonon into the first rail.

    Starting from the global ground state this prepares the dual-rail
    |0> codeword: a carrier pi-pulse excites the ancilla, a red-sideband
    pi-pulse converts that excitation into a phonon in rail d0 and returns
    the ancilla to the ground state.  The deterministic overall phase of
    -1 is returned for the program ledger rather than corrected.
    """
    d0, _ = register.entry(logical_id).rails
    ancilla = register.readout_ancilla
    ops = [carrier(np.pi, 0.0, ancilla), rsb(np.pi, ancilla, d0)]
    return ops, PREPARE_PHASE


def read_and_reset(state: StateVector, qubit: str,
                   rng_seed) -> tuple[int, StateVector]:
    """Fluorescence read of a qubit, then a carrier(pi) back to ground if
    it reads excited: the outcome and the collapsed state, the qubit in
    ground for reuse.  A dual-rail readout and a parity check end here."""
    outcome, collapsed = measure_qubit_z(state, qubit, rng_seed)
    if outcome == 1:
        collapsed = apply_pulses(collapsed, [carrier(np.pi, 0.0, qubit)])
    return outcome, collapsed


def measure_dual_rail(state: StateVector, register: LogicalRegister,
                      logical_id: str, rng_seed) -> tuple[int, StateVector]:
    """Read one shot of a dual-rail qubit: an rsb(pi) from rail d1 maps
    |0>_D to the ground ancilla and |1>_D to the excited one (leaked rail
    states map partially), and `read_and_reset` reads the ancilla and
    leaves it in ground.  `verify.sample_counts` is tested against it.
    """
    _, d1 = register.entry(logical_id).rails
    ancilla = register.readout_ancilla
    require_ground(state, ancilla)
    mapped = apply_pulses(state, [rsb(np.pi, ancilla, d1)])
    return read_and_reset(mapped, ancilla, rng_seed)


def require_ground(state: StateVector, ancilla_qubit: str) -> None:
    """A StateError unless the readout ancilla holds all but ANCILLA_TOL
    of the weight in its ground level."""
    if state.population(ancilla_qubit, 0) < 1.0 - ANCILLA_TOL:
        raise StateError(f"ancilla {ancilla_qubit!r} is not in the ground state")
