"""Pulse primitives of the trapped-ion dual-rail scheme.

Five pulses act on the physical system:

  carrier(theta, phi)       exp(-i theta/2 (sigma+ e^{i phi} + sigma- e^{-i phi}))
  rsb(theta)                exp(-i theta/2 (sigma+ a + sigma- a^dag))
  beamsplitter(theta, phi)  exp( i theta (a1^dag a2 e^{i phi} + a1 a2^dag e^{-i phi}))
  zbs(theta, phi)           exp(-i theta sigma_z (a1^dag a2 e^{i phi} + a1 a2^dag e^{-i phi}))
  qphase(theta)             exp(-i theta/2 sigma_z)

plus a non-pulse `native_xx` entangling unitary between two internal
qubits (an existing native two-qubit gate, applied as an ideal R_XX).

Each pulse has two construction paths: an analytic one (closed-form
blocks, eigendecomposition for beamsplitters) used by the simulator, and
the generator + `exp_hermitian` path used as an oracle.  Tests pin the
two against each other.

Sign conventions worth noting: with the (ground, excited) basis ordering,
sigma_z is diag(-1, +1), so the red sideband couples |g, m+1> <-> |e, m>
with effective angle theta*sqrt(m+1), and a carrier at phi = -pi/2
realizes the internal-qubit y-rotation used by the parity circuits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import fock
from .errors import PulseError, StateError
from .fock import (
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
    exp_hermitian,
    kron_le,
)

# kind -> (target kinds in order)
_ARITY = {
    "carrier": (QUBIT,),
    "qphase": (QUBIT,),
    "rsb": (QUBIT, MODE),
    "bs": (MODE, MODE),
    "zbs": (QUBIT, MODE, MODE),
    "native_xx": (QUBIT, QUBIT),
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
        if self.kind not in _ARITY:
            raise PulseError(f"unknown pulse kind {self.kind!r}")
        if len(self.targets) != len(_ARITY[self.kind]):
            raise PulseError(
                f"{self.kind} takes {len(_ARITY[self.kind])} targets, "
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


def _check_kinds(op: PhysicalOp, layout: HilbertLayout) -> None:
    """Check the target kinds, and refuse a pulse matrix too large to build."""
    for sid, want in zip(op.targets, _ARITY[op.kind]):
        got = layout.kind_of(sid)
        if got != want:
            raise PulseError(
                f"{op.kind} target {sid!r} must be a {want}, got {got}")
    block = math.prod(layout.dim_of(sid) for sid in op.targets)
    if block ** 2 > fock.MAX_STATE_DIM:
        raise StateError(
            f"{op.kind} pulse on {op.targets} needs a {block} x {block} "
            f"matrix; the limit is {fock.MAX_STATE_DIM} entries")


def _bs_generator(phi: float, d1: int, d2: int) -> np.ndarray:
    a1, ad1 = annihilation_matrix(d1), creation_matrix(d1)
    a2, ad2 = annihilation_matrix(d2), creation_matrix(d2)
    return (np.exp(1j * phi) * kron_le([ad1, a2])
            + np.exp(-1j * phi) * kron_le([a1, ad2]))


def pulse_generator(op: PhysicalOp,
                    layout: HilbertLayout) -> tuple[OperatorMatrix, float]:
    """Hermitian generator G and scale s with effect exp(i*s*G).

    Feeding the pair to `exp_hermitian` reproduces the pulse unitary; this
    is the oracle side of the dual-path checks.
    """
    _check_kinds(op, layout)
    th, phi = op.theta, op.phi
    if op.kind == "carrier":
        gen = np.exp(1j * phi) * SIGMA_PLUS + np.exp(-1j * phi) * SIGMA_MINUS
        return OperatorMatrix(op.targets, gen), -th / 2
    if op.kind == "qphase":
        return OperatorMatrix(op.targets, SIGMA_Z.copy()), -th / 2
    if op.kind == "rsb":
        d = layout.dim_of(op.targets[1])
        gen = (kron_le([SIGMA_PLUS, annihilation_matrix(d)])
               + kron_le([SIGMA_MINUS, creation_matrix(d)]))
        return OperatorMatrix(op.targets, gen), -th / 2
    if op.kind == "bs":
        d1, d2 = (layout.dim_of(s) for s in op.targets)
        return OperatorMatrix(op.targets, _bs_generator(phi, d1, d2)), th
    if op.kind == "zbs":
        d1, d2 = (layout.dim_of(s) for s in op.targets[1:])
        gen = kron_le([SIGMA_Z, _bs_generator(phi, d1, d2)])
        return OperatorMatrix(op.targets, gen), -th
    if op.kind == "native_xx":
        return OperatorMatrix(op.targets, kron_le([SIGMA_X, SIGMA_X])), -th / 2
    raise PulseError(f"unknown pulse kind {op.kind!r}")


def _carrier_matrix(theta: float, phi: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s * np.exp(-1j * phi)],
                     [-1j * s * np.exp(1j * phi), c]])


def _qphase_matrix(theta: float) -> np.ndarray:
    return np.diag([np.exp(1j * theta / 2), np.exp(-1j * theta / 2)])


def _rsb_matrix(theta: float, dim: int) -> np.ndarray:
    # Block rotations on {|g, m+1>, |e, m>} with angle theta*sqrt(m+1);
    # |g, 0> and |e, top> are stationary under hard truncation.
    u = np.eye(2 * dim, dtype=complex)
    for m in range(dim - 1):
        lo = 0 + 2 * (m + 1)
        hi = 1 + 2 * m
        half = (theta / 2) * np.sqrt(m + 1)
        c, s = np.cos(half), np.sin(half)
        u[lo, lo] = c
        u[hi, hi] = c
        u[lo, hi] = -1j * s
        u[hi, lo] = -1j * s
    return u


def _bs_matrix(theta: float, phi: float, d1: int, d2: int) -> np.ndarray:
    # The generator is block-diagonal over total phonon number; each
    # (possibly truncated) block is exponentiated by eigendecomposition,
    # which keeps this path independent of the Pade-expm oracle.
    gen = _bs_generator(phi, d1, d2)
    dim = d1 * d2
    groups: dict[int, list[int]] = {}
    for n2 in range(d2):
        for n1 in range(d1):
            groups.setdefault(n1 + n2, []).append(n1 + d1 * n2)
    u = np.zeros((dim, dim), dtype=complex)
    for idxs in groups.values():
        sub = gen[np.ix_(idxs, idxs)]
        w, vecs = np.linalg.eigh(sub)
        u[np.ix_(idxs, idxs)] = (vecs * np.exp(1j * theta * w)) @ vecs.conj().T
    return u


def _zbs_matrix(theta: float, phi: float, d1: int, d2: int) -> np.ndarray:
    # Block-diagonal in the qubit basis: B(theta) on the ground branch,
    # B(-theta) on the excited branch (sigma_z eigenvalues -1 and +1).
    down = _bs_matrix(theta, phi, d1, d2)
    up = _bs_matrix(-theta, phi, d1, d2)
    dim = 2 * d1 * d2
    u = np.zeros((dim, dim), dtype=complex)
    u[0::2, 0::2] = down
    u[1::2, 1::2] = up
    return u


def _xx_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    xx = kron_le([SIGMA_X, SIGMA_X])
    return c * np.eye(4) - 1j * s * xx


def pulse_matrix(op: PhysicalOp, layout: HilbertLayout) -> OperatorMatrix:
    """Analytic unitary of the pulse over its targets."""
    _check_kinds(op, layout)
    th, phi = op.theta, op.phi
    if op.kind == "carrier":
        return OperatorMatrix(op.targets, _carrier_matrix(th, phi))
    if op.kind == "qphase":
        return OperatorMatrix(op.targets, _qphase_matrix(th))
    if op.kind == "rsb":
        return OperatorMatrix(op.targets,
                              _rsb_matrix(th, layout.dim_of(op.targets[1])))
    if op.kind == "bs":
        d1, d2 = (layout.dim_of(s) for s in op.targets)
        return OperatorMatrix(op.targets, _bs_matrix(th, phi, d1, d2))
    if op.kind == "zbs":
        d1, d2 = (layout.dim_of(s) for s in op.targets[1:])
        return OperatorMatrix(op.targets, _zbs_matrix(th, phi, d1, d2))
    if op.kind == "native_xx":
        return OperatorMatrix(op.targets, _xx_matrix(th))
    raise PulseError(f"unknown pulse kind {op.kind!r}")


def apply_pulse(state: StateVector, op: PhysicalOp) -> StateVector:
    """Apply one pulse through its analytic path."""
    mat = pulse_matrix(op, state.layout)
    return apply_matrix(state, mat.entries, mat.subsystem_ids)


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
