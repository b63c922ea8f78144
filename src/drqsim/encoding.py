"""Logical qubits over physical subsystems.

Two base encodings:

  dual_rail   |0> = |1>|0> , |1> = |0>|1>   (one phonon shared by two modes)
  internal    |0> = ground, |1> = excited   (one internal qubit)

Each can be extended with an auxiliary mode (kinds `dual_rail_aux` and
`internal_aux`) whose single-phonon level encodes the transient third
basis state used by multi-controlled gates.  In the logical subspace the
auxiliary mode sits in vacuum; any population there counts as leakage.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import RegisterError, StateError
from .fock import (
    MAX_STATE_DIM,
    MODE,
    QUBIT,
    HilbertLayout,
    StateVector,
    measure_qubit_z,
    support_index,
)
from .pulses import PhysicalOp, apply_pulse, carrier, rsb

DUAL_RAIL = "dual_rail"
INTERNAL = "internal"
DUAL_RAIL_AUX = "dual_rail_aux"
INTERNAL_AUX = "internal_aux"

KIND_ARITY = {DUAL_RAIL: 2, INTERNAL: 1, DUAL_RAIL_AUX: 3, INTERNAL_AUX: 2}

# Largest weight a pool ancilla or the COM mode may hold outside its
# ground level and still count as reset.
ANCILLA_TOL = 1e-9


@dataclass(frozen=True)
class RegisterEntry:
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
    def aux_mode(self) -> str | None:
        if self.kind == DUAL_RAIL_AUX:
            return self.physical[2]
        if self.kind == INTERNAL_AUX:
            return self.physical[1]
        return None


@dataclass(frozen=True)
class LogicalRegister:
    """Immutable map from logical qubits to physical subsystems."""

    layout: HilbertLayout
    entries: tuple[RegisterEntry, ...]
    ancilla_qubits: tuple[str, ...] = ()
    com_mode: str | None = None

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

    @cached_property
    def codeword_indices(self) -> np.ndarray:
        """Basis indices of the 2**n codewords, in logical order (first
        registered qubit most significant); read-only, built once.

        A codeword's index is the all-zero codeword's plus one step per
        set bit: flipping a dual-rail qubit moves its phonon from d0 to
        d1, flipping an internal qubit excites it.  A register of more
        codewords than `fock.MAX_STATE_DIM` is a StateError: its dense
        codeword amplitudes would pass that limit."""
        if self.logical_dim > MAX_STATE_DIM:
            raise StateError(
                f"{self.n_logical} logical qubits have {self.logical_dim} "
                f"codewords; the limit is {MAX_STATE_DIM} dense amplitudes")
        layout = self.layout
        base, deltas = 0, []
        for e in self.entries:
            if e.is_dual_rail:
                d0, d1 = (layout.strides[layout.axis(s)] for s in e.rails)
                base += d0
                deltas.append(d1 - d0)
            else:
                deltas.append(layout.strides[layout.axis(e.qubit)])
        # Doubling from the last registered qubit, the least significant,
        # to the first: each qubit appends the codewords with its bit set.
        indices = support_index(layout, [base])
        for delta in reversed(deltas):
            indices = np.concatenate((indices, indices + delta))
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
        local = LogicalRegister(self.layout,
                                tuple(map(self.entry, logical_ids)),
                                self.ancilla_qubits, self.com_mode)
        sids = set(local.claimed_subsystems())
        return replace(local, layout=HilbertLayout(
            [s for s in self.layout.subsystems if s.sid in sids]))


def define_register(layout: HilbertLayout,
                    entries: Iterable[tuple[str, str, Sequence[str]]],
                    ancilla_qubits: Sequence[str] = (),
                    com_mode: str | None = None) -> LogicalRegister:
    """Validate and freeze a logical register over `layout`."""
    built: list[RegisterEntry] = []
    seen_logical: set[str] = set()
    for logical_id, kind, physical in entries:
        if kind not in KIND_ARITY:
            raise RegisterError(f"unknown register kind {kind!r}")
        physical = tuple(physical)
        if len(physical) != KIND_ARITY[kind]:
            raise RegisterError(
                f"{kind} entry {logical_id!r} takes {KIND_ARITY[kind]} "
                f"subsystems, got {len(physical)}")
        if logical_id in seen_logical:
            raise RegisterError(f"duplicate logical id {logical_id!r}")
        seen_logical.add(logical_id)
        want = {
            DUAL_RAIL: (MODE, MODE),
            DUAL_RAIL_AUX: (MODE, MODE, MODE),
            INTERNAL: (QUBIT,),
            INTERNAL_AUX: (QUBIT, MODE),
        }[kind]
        for sid, kindwant in zip(physical, want):
            if layout.kind_of(sid) != kindwant:
                raise RegisterError(
                    f"{logical_id!r}: subsystem {sid!r} must be a {kindwant}")
        if len(set(physical)) != len(physical):
            raise RegisterError(f"{logical_id!r} reuses a subsystem")
        built.append(RegisterEntry(logical_id, kind, physical))

    for q in ancilla_qubits:
        if not layout.is_qubit(q):
            raise RegisterError(f"ancilla {q!r} is not a qubit")
    if com_mode is not None and not layout.is_mode(com_mode):
        raise RegisterError(f"COM mode {com_mode!r} is not a mode")

    register = LogicalRegister(layout, tuple(built), tuple(ancilla_qubits),
                               com_mode)
    claimed = register.claimed_subsystems()
    if len(set(claimed)) != len(claimed):
        dupes = sorted({s for s in claimed if claimed.count(s) > 1})
        raise RegisterError(f"subsystems assigned twice: {dupes}")
    return register


PHASE_REFERENCE_RTOL = 1e-9


@dataclass
class LogicalStateReport:
    """Projection of a physical state onto the codeword span.

    `logical_amplitudes` is indexed lexicographically with the first
    registered logical qubit as the most significant bit.  `global_phase`
    is the phase of the first amplitude in that order whose magnitude is
    within a relative PHASE_REFERENCE_RTOL of the largest, so a last-bit
    change cannot move it between amplitudes of tied magnitude.
    """

    logical_amplitudes: np.ndarray = field(repr=False)
    leakage: float = 0.0
    global_phase: float = 0.0


def extract_logical_state(state: StateVector,
                          register: LogicalRegister) -> LogicalStateReport:
    amps = state.amplitude_at(register.codeword_indices)
    weight = float(np.sum(np.abs(amps) ** 2))
    leakage = max(0.0, 1.0 - weight)
    phase = 0.0
    if weight > 1e-15:
        mags = np.abs(amps)
        near_max = mags >= (1.0 - PHASE_REFERENCE_RTOL) * mags.max()
        phase = float(np.angle(amps[int(np.argmax(near_max))]))
    return LogicalStateReport(amps, leakage, phase)


PREPARE_PHASE = np.pi  # carrier(pi) and rsb(pi) each contribute -i


def prepare_dual_rail_zero(register: LogicalRegister, logical_id: str,
                           ancilla_qubit: str) -> tuple[list[PhysicalOp], float]:
    """Pulse sequence loading one phonon into the first rail.

    Starting from the global ground state this prepares the dual-rail
    |0> codeword: a carrier pi-pulse excites the ancilla, a red-sideband
    pi-pulse converts that excitation into a phonon in rail d0 and returns
    the ancilla to the ground state.  The deterministic overall phase of
    -1 is returned for the program ledger rather than corrected.
    """
    entry = register.entry(logical_id)
    if not entry.is_dual_rail:
        raise RegisterError(f"{logical_id!r} is not a dual-rail qubit")
    if ancilla_qubit not in register.ancilla_qubits:
        raise RegisterError(f"{ancilla_qubit!r} is not in the ancilla pool")
    d0, _ = entry.rails
    ops = [carrier(np.pi, 0.0, ancilla_qubit), rsb(np.pi, ancilla_qubit, d0)]
    return ops, PREPARE_PHASE


def map_dual_rail_readout(state: StateVector, register: LogicalRegister,
                          logical_id: str, ancilla_qubit: str) -> StateVector:
    """Map a dual-rail qubit onto a ground-state ancilla for readout.

    A red-sideband pi-pulse between rail d1 and the ancilla maps
    |0>_D -> ancilla ground, |1>_D -> ancilla excited (the -i phase on the
    excited branch does not affect outcomes).  Leaked rail states map
    partially, so the ancilla's z readout is the dual-rail readout.
    """
    entry = register.entry(logical_id)
    if not entry.is_dual_rail:
        raise RegisterError(f"{logical_id!r} is not a dual-rail qubit")
    if ancilla_qubit not in register.ancilla_qubits:
        raise RegisterError(f"{ancilla_qubit!r} is not in the ancilla pool")
    if state.population(ancilla_qubit, 0) < 1.0 - ANCILLA_TOL:
        raise RegisterError(f"ancilla {ancilla_qubit!r} is not in the ground state")
    _, d1 = entry.rails
    return apply_pulse(state, rsb(np.pi, ancilla_qubit, d1))


def measure_dual_rail(state: StateVector, register: LogicalRegister,
                      logical_id: str, ancilla_qubit: str,
                      rng_seed) -> tuple[int, StateVector]:
    """Map the dual-rail state onto the ancilla and read it out.

    The ancilla is flipped back to ground after an excited readout so it
    can be reused.
    """
    mapped = map_dual_rail_readout(state, register, logical_id, ancilla_qubit)
    outcome, collapsed, _ = measure_qubit_z(mapped, ancilla_qubit, rng_seed)
    if outcome == 1:
        collapsed = apply_pulse(collapsed, carrier(np.pi, 0.0, ancilla_qubit))
    return outcome, collapsed
