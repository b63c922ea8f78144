"""Pulse primitives of the trapped-ion dual-rail scheme.

Five pulses act on the physical system:

  carrier(theta, phi)       exp(-i theta/2 (sigma+ e^{i phi} + sigma- e^{-i phi}))
  rsb(theta)                exp(-i theta/2 (sigma+ a + sigma- a^dag))
  beamsplitter(theta, phi)  exp( i theta (a1^dag a2 e^{i phi} + a1 a2^dag e^{-i phi}))
  zbs(theta, phi)           exp(-i theta sigma_z (a1^dag a2 e^{i phi} + a1 a2^dag e^{-i phi}))
  qphase(theta)             exp(-i theta/2 sigma_z)

plus a non-pulse `native_xx` entangling unitary between two internal
qubits (an existing native two-qubit gate, applied as an ideal R_XX).

Every pulse is exp(i f theta G) of a small Hermitian generator G that
conserves an excitation or phonon number, so G is block-diagonal.  One
`_PULSES` row per kind holds its target kinds, G and f.
`pulse_unitary` takes it block by block in G's eigenbasis, cached per
(kind, phi, target dims); tests pin it to the Pade oracle
`fock.exp_hermitian` of the same G (`tests/oracles.pulse_generator`).
A pulse's matrix depends only on (kind, theta, phi, target dims), so the
finished matrix of a pulse of at most `fock.MEMO_MAX_ROWS` rows (the
bound of the support kernel's plan memo too, importable here as
`MEMO_MAX_ROWS`) is memoized on exactly that key in a 64-entry LRU: one
beamsplitter angle on any rail pair of equal dims, on any layout, shares
one entry.  A larger pulse is built on every call.  The targets are
checked against the layout on every call.
`pulse_unitary` hands the memo's read-only matrix itself to the kernel
(`apply_pulse` and `verify`'s evolution); `pulse_matrix` gives its
caller a copy of its own.

Sign conventions worth noting: with the (ground, excited) basis ordering,
sigma_z is diag(-1, +1), so the red sideband couples |g, m+1> <-> |e, m>
with effective angle theta*sqrt(m+1), and a carrier at phi = -pi/2
realizes the internal-qubit y-rotation used by the parity circuits.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fock
from .errors import PulseError, StateError
from .fock import (
    MEMO_MAX_ROWS,
    MODE,
    QUBIT,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    HilbertLayout,
    OperatorMatrix,
    StateVector,
    annihilation_matrix,
    apply_matrix,
    creation_matrix,
    kron_le,
)


def _bs_generator(phi: float, d1: int, d2: int) -> np.ndarray:
    a1, ad1 = annihilation_matrix(d1), creation_matrix(d1)
    a2, ad2 = annihilation_matrix(d2), creation_matrix(d2)
    return (np.exp(1j * phi) * kron_le([ad1, a2])
            + np.exp(-1j * phi) * kron_le([a1, ad2]))


# kind -> (target kinds in order, Hermitian generator G(phi, *target
# dims), angle factor f): the pulse of angle theta is exp(i f theta G).
_PULSES = {
    "carrier": ((QUBIT,), lambda phi, _: np.exp(1j * phi) * SIGMA_PLUS
                + np.exp(-1j * phi) * SIGMA_MINUS, -0.5),
    "qphase": ((QUBIT,), lambda phi, _: SIGMA_Z.copy(), -0.5),
    "rsb": ((QUBIT, MODE),
            lambda phi, _, d: kron_le([SIGMA_PLUS, annihilation_matrix(d)])
            + kron_le([SIGMA_MINUS, creation_matrix(d)]), -0.5),
    "bs": ((MODE, MODE), _bs_generator, 1.0),
    "zbs": ((QUBIT, MODE, MODE), lambda phi, _, d1, d2:
            kron_le([SIGMA_Z, _bs_generator(phi, d1, d2)]), -1.0),
    "native_xx": ((QUBIT, QUBIT),
                  lambda phi, *_: kron_le([SIGMA_X, SIGMA_X]), -0.5),
}


@dataclass(frozen=True)
class PhysicalOp:
    """One pulse primitive with angle parameters and subsystem targets."""

    kind: str
    theta: float
    phi: float
    targets: tuple[str, ...]
    aux_flag: bool = False

    def __post_init__(self):
        if self.kind not in _PULSES:
            raise PulseError(f"unknown pulse kind {self.kind!r}")
        arity = len(_PULSES[self.kind][0])
        if len(self.targets) != arity:
            raise PulseError(f"{self.kind} takes {arity} targets, "
                             f"got {len(self.targets)}")
        if self.kind in ("bs", "zbs") and len(set(self.targets[-2:])) != 2:
            raise PulseError(f"{self.kind} needs two distinct modes")
        if self.kind == "native_xx" and len(set(self.targets)) != 2:
            raise PulseError("native_xx needs two distinct qubits")

    def with_aux_flag(self) -> "PhysicalOp":
        return PhysicalOp(self.kind, self.theta, self.phi, self.targets, True)


def carrier(theta: float, phi: float, qubit_id: str) -> PhysicalOp:
    return PhysicalOp("carrier", theta, phi, (qubit_id,))


def rsb(theta: float, qubit_id: str, mode_id: str,
        phi: float = 0.0) -> PhysicalOp:
    # The phi != 0 sideband as printed is not generated by a Hermitian
    # operator; only the phi = 0 convention is meaningful here.
    if phi != 0.0:
        raise PulseError("rsb supports only phi = 0")
    return PhysicalOp("rsb", theta, 0.0, (qubit_id, mode_id))


def beamsplitter(theta: float, phi: float, mode1: str, mode2: str) -> PhysicalOp:
    return PhysicalOp("bs", theta, phi, (mode1, mode2))


def zbs(theta: float, phi: float, qubit_id: str, mode1: str,
        mode2: str) -> PhysicalOp:
    return PhysicalOp("zbs", theta, phi, (qubit_id, mode1, mode2))


def qphase(theta: float, qubit_id: str) -> PhysicalOp:
    return PhysicalOp("qphase", theta, 0.0, (qubit_id,))


def native_xx(theta: float, qubit1: str, qubit2: str) -> PhysicalOp:
    return PhysicalOp("native_xx", theta, 0.0, (qubit1, qubit2))


def cbs(theta: float, phi: float, qubit_id: str, mode1: str, mode2: str,
        ancilla_qubit: str) -> list[PhysicalOp]:
    """Conditional beamsplitter as ZBS(-theta/2) after a plain BS(theta/2).

    The bare beamsplitter factor is realized as a ZBS on an ancilla qubit
    held in the ground state, so the emitted sequence touches four
    subsystems but acts as |g><g| (x) I + |e><e| (x) B(theta, phi) on
    (qubit, mode1, mode2).
    """
    if ancilla_qubit == qubit_id:
        raise PulseError("cbs ancilla must differ from the control qubit")
    return [
        zbs(theta / 2, phi, ancilla_qubit, mode1, mode2),
        zbs(-theta / 2, phi, qubit_id, mode1, mode2),
    ]


def cbs_factors(theta: float, phi: float, qubit_id: str, mode1: str,
                mode2: str) -> list[PhysicalOp]:
    """Two-factor CBS decomposition with a direct beamsplitter pulse."""
    return [
        beamsplitter(theta / 2, phi, mode1, mode2),
        zbs(-theta / 2, phi, qubit_id, mode1, mode2),
    ]


def _check_kinds(op: PhysicalOp, layout: HilbertLayout) -> tuple[int, ...]:
    """Check the target kinds and the matrix size; return the target dims."""
    for sid, want in zip(op.targets, _PULSES[op.kind][0]):
        got = layout.kind_of(sid)
        if got != want:
            raise PulseError(
                f"{op.kind} target {sid!r} must be a {want}, got {got}")
    dims = tuple(layout.dim_of(sid) for sid in op.targets)
    block = math.prod(dims)
    if block ** 2 > fock.MAX_STATE_DIM:
        raise StateError(
            f"{op.kind} pulse on {op.targets} needs a {block} x {block} "
            f"matrix; the limit is {fock.MAX_STATE_DIM} entries")
    return dims


@functools.lru_cache(maxsize=256)
def _eigenbasis(kind: str, phi: float, dims: tuple[int, ...]) -> tuple:
    """G's eigendecomposition, one connected block of its nonzeros at a
    time.  Blocks of one size are stacked into a group: (flat positions of
    their entries in the matrix, eigenvalues, V, V^dagger)."""
    gen = _PULSES[kind][1](phi, *dims)
    rows, cols = np.nonzero(gen)
    # Label propagation: each state takes its neighbours' least label, then
    # that label's label, until none moves (each block's least index).
    labels, moved = np.arange(len(gen)), True
    while moved:
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        moved = not np.array_equal(new[new], labels)
        labels = new[new]
    blocks = [np.flatnonzero(labels == b) for b in np.unique(labels)]
    groups = []
    for size in sorted({len(b) for b in blocks}):
        idx = np.array([b for b in blocks if len(b) == size])
        w, v = np.linalg.eigh(gen[idx[:, :, None], idx[:, None, :]])
        group = ((idx[:, :, None] * len(gen) + idx[:, None, :]).ravel(),
                 w, v, v.conj().transpose(0, 2, 1))
        for arr in group:
            arr.flags.writeable = False  # shared by every caller of the cache
        groups.append(group)
    return tuple(groups)


def _build(kind: str, theta: float, phi: float,
           dims: tuple[int, ...]) -> np.ndarray:
    angle = _PULSES[kind][2] * theta
    u = np.zeros((math.prod(dims),) * 2, dtype=complex)
    for flat, w, v, vh in _eigenbasis(kind, phi, dims):
        np.put(u, flat, (v * np.exp(1j * angle * w)[:, None, :]) @ vh)
    return u


@functools.lru_cache(maxsize=64)
def _matrix(kind: str, theta: float, phi: float,
            dims: tuple[int, ...]) -> np.ndarray:
    """`_build`, read-only: a document repeats a few pulses many times, on
    many targets.  Only pulses of at most MEMO_MAX_ROWS rows come here, so
    the 64 entries hold at most 4 MiB (64 zbs matrices at cutoff 20 would
    hold 655 MB)."""
    u = _build(kind, theta, phi, dims)
    u.flags.writeable = False  # shared by every caller of the cache
    return u


def pulse_unitary(op: PhysicalOp, layout: HilbertLayout) -> np.ndarray:
    """Unitary exp(i f theta G) of the pulse over its targets, taken block
    by block in G's cached eigenbasis: theta enters only as the phases
    exp(i f theta w), and every entry between two blocks is exactly 0.
    The targets are checked on every call.  A pulse of at most
    MEMO_MAX_ROWS rows is the memo's own read-only matrix, for callers
    that only read it (the support kernel); a larger one is built on
    every call."""
    dims = _check_kinds(op, layout)
    if math.prod(dims) > MEMO_MAX_ROWS:
        return _build(op.kind, op.theta, op.phi, dims)
    return _matrix(op.kind, op.theta, op.phi, dims)


def pulse_matrix(op: PhysicalOp, layout: HilbertLayout) -> OperatorMatrix:
    """`pulse_unitary` as the caller's own copy."""
    return OperatorMatrix(op.targets, pulse_unitary(op, layout).copy())


def apply_pulse(state: StateVector, op: PhysicalOp) -> StateVector:
    """Apply one pulse: its `pulse_unitary` goes to the kernel."""
    return apply_matrix(state, pulse_unitary(op, state.layout), op.targets)


def apply_pulses(state: StateVector, ops: Sequence[PhysicalOp]) -> StateVector:
    for op in ops:
        state = apply_pulse(state, op)
    return state


@dataclass(frozen=True)
class PulseParams:
    """Raman-beam parameters behind one ZBS pulse.

    eta1/eta2 are Lamb-Dicke parameters, omega1/omega2 sideband Rabi
    frequencies (rad/s), delta_bs the beamsplitter detuning (rad/s), t the
    pulse duration (s), omega_q the qubit splitting, nu1/nu2 the mode
    frequencies, phi1/phi2 the sideband phases.
    """

    eta1: float
    eta2: float
    omega1: float
    omega2: float
    delta_bs: float
    t: float
    omega_q: float = 0.0
    nu1: float = 0.0
    nu2: float = 0.0
    phi1: float = 0.0
    phi2: float = 0.0

    def __post_init__(self):
        if self.t < 0:
            raise PulseError("pulse duration must be non-negative")


def zbs_angle_from_pulse(p: PulseParams) -> tuple[float, float]:
    """ZBS angle theta = eta1 eta2 omega1 omega2 t / (4 delta_bs), phi = phi1 - phi2."""
    if p.delta_bs == 0:
        raise PulseError("beamsplitter detuning must be nonzero")
    theta = p.eta1 * p.eta2 * p.omega1 * p.omega2 * p.t / (4 * p.delta_bs)
    return theta, p.phi1 - p.phi2


def zbs_duration_for_angle(p: PulseParams, theta: float) -> float:
    """Invert the angle formula for the pulse duration."""
    if p.delta_bs == 0:
        raise PulseError("beamsplitter detuning must be nonzero")
    coeff = p.eta1 * p.eta2 * p.omega1 * p.omega2 / (4 * p.delta_bs)
    if coeff == 0:
        raise PulseError("zero coupling; angle unreachable")
    return theta / coeff


def raman_detunings(p: PulseParams) -> tuple[float, float]:
    """Beat-note differences delta_j = delta_bs + omega_q - nu_j."""
    return (p.delta_bs + p.omega_q - p.nu1,
            p.delta_bs + p.omega_q - p.nu2)
