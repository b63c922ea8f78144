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
checked against the layout's cached entry (`HilbertLayout.targets`),
which also gives their kinds and dims.
`pulse_unitary` hands the memo's read-only matrix itself to the kernel,
whose one caller is `apply_pulse`; `pulse_matrix` gives its caller a
copy of its own.  `apply_pulses` is the one loop that applies pulses,
for `run` and `verify` alike, and it checks the norm after every pulse.
It walks one program over a state, or R programs whose pulses share
their targets over a batch (a `StateVector` of (rows, R) values), one
(R, d, d) stack of their matrices per pulse position.

Sign conventions worth noting: with the (ground, excited) basis ordering,
sigma_z is diag(-1, +1), so the red sideband couples |g, m+1> <-> |e, m>
with effective angle theta*sqrt(m+1), and a carrier at phi = -pi/2
realizes the internal-qubit y-rotation used by the parity circuits.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

from . import fock
from .errors import HealthError, PulseError, StateError
from .fock import (
    MEMO_MAX_ROWS,
    MODE,
    NORM_TOL,
    QUBIT,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    HilbertLayout,
    StateVector,
    annihilation_matrix,
    apply_matrix_support,
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


class _PhysicalOpFields(NamedTuple):
    kind: str
    theta: float
    phi: float
    targets: tuple[str, ...]
    aux_flag: bool = False


class PhysicalOp(_PhysicalOpFields):
    """One pulse primitive with angle parameters and subsystem targets,
    checked when it is built or copied with `_replace`."""

    __slots__ = ()

    def __new__(cls, kind: str, theta: float, phi: float,
                targets: tuple[str, ...], aux_flag: bool = False):
        if kind not in _PULSES:
            raise PulseError(f"unknown pulse kind {kind!r}")
        arity = len(_PULSES[kind][0])
        if len(targets) != arity:
            raise PulseError(f"{kind} takes {arity} targets, "
                             f"got {len(targets)}")
        if kind in ("bs", "zbs") and len(set(targets[-2:])) != 2:
            raise PulseError(f"{kind} needs two distinct modes")
        if kind == "native_xx" and len(set(targets)) != 2:
            raise PulseError("native_xx needs two distinct qubits")
        # Their generators take no phase (the printed rsb at phi != 0 is
        # not Hermitian-generated), so a phase would be dropped.
        if kind in ("rsb", "qphase", "native_xx") and phi != 0.0:
            raise PulseError(f"{kind} supports only phi = 0")
        return tuple.__new__(cls, (kind, theta, phi, targets, aux_flag))

    # `_replace` builds its copy through `_make`, which would skip the
    # checks in `__new__`.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def with_aux_flag(self) -> "PhysicalOp":
        return self._replace(aux_flag=True)


def carrier(theta: float, phi: float, qubit_id: str) -> PhysicalOp:
    return PhysicalOp("carrier", theta, phi, (qubit_id,))


def rsb(theta: float, qubit_id: str, mode_id: str) -> PhysicalOp:
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
    The target kinds, dims and block size are read from the layout's
    cached entry for the targets.  A pulse of at most MEMO_MAX_ROWS rows
    is the memo's own read-only matrix, for callers that only read it
    (the support kernel); a larger one is built on every call."""
    _, dims, _, block, kinds, _ = layout.targets(op.targets)
    want = _PULSES[op.kind][0]
    if kinds != want:
        sid, got, need = next(bad for bad in zip(op.targets, kinds, want)
                              if bad[1] != bad[2])
        raise PulseError(
            f"{op.kind} target {sid!r} must be a {need}, got {got}")
    if block ** 2 > fock.MAX_STATE_DIM:
        raise StateError(
            f"{op.kind} pulse on {op.targets} needs a {block} x {block} "
            f"matrix; the limit is {fock.MAX_STATE_DIM} entries")
    if block > MEMO_MAX_ROWS:
        return _build(op.kind, op.theta, op.phi, dims)
    return _matrix(op.kind, op.theta, op.phi, dims)


def pulse_matrix(op: PhysicalOp, layout: HilbertLayout) -> np.ndarray:
    """`pulse_unitary` as the caller's own copy, over `op.targets`."""
    return pulse_unitary(op, layout).copy()


def apply_pulse(state: StateVector, op: PhysicalOp,
                *others: PhysicalOp) -> StateVector:
    """Apply one pulse: its `pulse_unitary` goes to the kernel.  On a
    batch, `op` takes every column, or with `others` on its targets,
    column 0, and `others[r - 1]` column r.  The package calls it only
    from `apply_pulses`."""
    layout, batch = state.layout, state.values.ndim == 2
    matrix = pulse_unitary(op, layout)  # a memo hit goes uncopied
    if others:
        matrix = np.array([matrix, *(pulse_unitary(o, layout)
                                     for o in others)])
    index, values = apply_matrix_support(
        state.index, state.values if batch else state.values[:, None],
        layout, matrix, op.targets)
    return StateVector(layout, index=index,
                       values=values if batch else values[:, 0])


def apply_pulses(state: StateVector, ops: Sequence[PhysicalOp],
                 *others: Sequence[PhysicalOp]) -> StateVector:
    """Apply the pulses in order: one program's to a state or, with
    `others`, program r's to column r of a batch (`ops` is program 0),
    whose programs' pulses share their targets, position by position.

    A norm drift past `NORM_TOL` after a pulse is a HealthError naming
    its position and its kind in `ops`.  A state's norm is checked
    against 1.  A batch holds one unit vector per program and label
    (index // total_dim), as `verify` builds it, so its norm is checked,
    as a share of sqrt(labels x R), against 1 too, evolved or not.
    """
    unit = 1.0 if state.values.ndim == 1 else math.sqrt(  # labels x R
        np.unique(state.index // state.layout.total_dim).size
        * state.values.shape[1])
    # Each position's pulses of `others`.  One program's pulse goes on
    # alone: a star-call per pulse costs a small state's walk 2-3 %.
    rest = list(zip(*others))
    for k, op in enumerate(ops):
        state = (apply_pulse(state, op, *rest[k]) if rest
                 else apply_pulse(state, op))
        norm = state.norm() / unit
        if abs(norm - 1.0) > NORM_TOL:
            raise HealthError(
                f"norm drifted to {norm} at pulse {k} ({op.kind})")
    return state


class _PulseParamsFields(NamedTuple):
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


class PulseParams(_PulseParamsFields):
    """Raman-beam parameters behind one ZBS pulse, checked as a
    `PhysicalOp` is.

    eta1/eta2 are Lamb-Dicke parameters, omega1/omega2 sideband Rabi
    frequencies (rad/s), delta_bs the beamsplitter detuning (rad/s), t the
    pulse duration (s), omega_q the qubit splitting, nu1/nu2 the mode
    frequencies, phi1/phi2 the sideband phases.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        params = super().__new__(cls, *args, **kwargs)
        if params.t < 0:
            raise PulseError("pulse duration must be non-negative")
        return params

    _make = classmethod(lambda cls, fields: cls(*fields))  # as PhysicalOp's


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
