"""Truncated qubit-boson Hilbert space: layouts, state vectors, operators.

A layout is an ordered list of subsystems (qubits of dimension 2, bosonic
modes of dimension >= 3).  Basis indices use little-endian mixed-radix
encoding: the first registered subsystem varies fastest.  Mode operators
are hard-truncated, so the creation operator annihilates the top Fock
level; downstream checks assert that the sentinel level stays empty.
A state is held on its support (the basis states with amplitude) and
evolves through one sparse kernel, tested against the dense contraction
`apply_matrix_columns` (which `perfbench/spans.py` also wraps).  Every
state holds one amplitude per row.  A batch is a `StateVector` whose
index runs past total_dim: index // total_dim labels a copy of the
layout, one per column of the batch, and its `norm` is that of all
labels together.  The kernel's one caller is `pulses.apply_pulse`;
`apply_matrix` only wraps it for the tests and the benchmark's tracer;
`exp_hermitian` is the Pade exponential that the tests pin every pulse
to.  An operator is a plain square array over the subsystems its caller
names, little-endian like the layout: the first listed varies fastest.
What the kernel precomputes depends only on the targets' dims and
strides, so its memos key on those numbers, not on a layout: `_offsets`,
and the plan of a small support (at most `MEMO_MAX_ROWS` rows and
`MEMO_MAX_ROWS`**2 candidate rows), which a deep circuit meets again
and again; a larger support is planned on every call.  `MEMO_MAX_ROWS`
also bounds the pulse memo of `pulses`.
"""
from __future__ import annotations

import functools
import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import LayoutError, StateError

QUBIT = "qubit"
MODE = "mode"

UNITARITY_TOL = 1e-10
HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-10
# The support kernel drops a row whose magnitude is at or below this: the
# rounding residue of pi-pulses and of destructive interference (about
# 1e-17), which holds no weight.
PRUNE_TOL = 1e-14
# Largest dense array: 2**25 complex amplitudes take 512 MiB.  It bounds
# the dense `amplitudes` of a state, a support block and a pulse matrix.
MAX_STATE_DIM = 2 ** 25
# Largest layout whose basis indices fit in int64 (the support kernel's).
MAX_INDEX_DIM = 2 ** 63
# The memos of per-layout work keep only small entries: a pulse matrix of
# at most this many rows (`pulses`), and the kernel plan of a support of
# at most this many rows and at most its square in candidate rows.  The
# pulse memo's 64 entries then hold at most 4 MiB and the plan memo's 32
# about 1 MiB, and a paper-scale support or pulse bypasses its memo.
MEMO_MAX_ROWS = 64

# Internal-qubit matrices in the (ground, excited) = (level 0, level 1)
# ordering.  sigma_z has eigenvalue -1 on the ground state, +1 on the
# excited state.
SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)
SIGMA_MINUS = SIGMA_PLUS.conj().T
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[-1, 0], [0, 1]], dtype=complex)


def annihilation_matrix(dim: int) -> np.ndarray:
    """Truncated mode annihilation operator: a|n> = sqrt(n)|n-1>."""
    mat = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        mat[n - 1, n] = np.sqrt(n)
    return mat


def creation_matrix(dim: int) -> np.ndarray:
    """Truncated creation operator; annihilates the top level |dim-1>."""
    return annihilation_matrix(dim).conj().T


def kron_le(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product in little-endian order (first factor varies fastest)."""
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(m, out)
    return out


class Subsystem(NamedTuple):
    sid: str
    kind: str
    dim: int


class HilbertLayout:
    """Ordered registry of subsystems with mixed-radix index arithmetic.

    A layout compares by identity, and what it derives from its own
    subsystems (`targets`, `sentinels`) lives on it; a pulse's
    target kinds are checked against its `targets` entry, and `levels`
    decodes a basis index with the strides and dims kept there.
    """

    def __init__(self, subsystems: Sequence[Subsystem]):
        self.subsystems = tuple(subsystems)
        self._pos = {s.sid: i for i, s in enumerate(self.subsystems)}
        self.dims = tuple(s.dim for s in self.subsystems)
        strides = [1]
        for d in self.dims[:-1]:
            strides.append(strides[-1] * d)
        self.strides = tuple(strides)
        self.total_dim = math.prod(self.dims)
        self._targets: dict[tuple[str, ...], tuple] = {}

    def targets(self, sids: tuple[str, ...]) -> tuple:
        """(axes, dims, strides, block dim, kinds, columns) of the targets
        in `sids` order, checked to be distinct subsystems once per `sids`
        and then kept.  `columns` is None until `levels` first decodes
        the targets, then their strides and dims as two read-only
        (len(sids), 1) int64 columns."""
        entry = self._targets.get(sids)
        if entry is None:
            axes = tuple(map(self.axis, sids))
            if len(set(sids)) != len(sids):
                raise LayoutError(f"repeated subsystem in targets {sids}")
            dims = tuple(self.dims[a] for a in axes)
            entry = self._targets[sids] = (
                axes, dims, tuple(self.strides[a] for a in axes),
                math.prod(dims), tuple(self.subsystems[a].kind for a in axes),
                None)
        return entry

    def levels(self, index: np.ndarray, sids: tuple[str, ...]) -> np.ndarray:
        """(len(sids), len(index)) levels of the subsystems `sids` in each
        basis index of the int64 `index`.  An index may run past
        `total_dim`: multiples of it label copies of the layout."""
        entry = self.targets(sids)
        if entry[5] is None:
            # Built on first use: a pulse's targets are never decoded, and
            # `verify` meets many of them on layouts it builds per gate.
            table = np.array((entry[2], entry[1]), dtype=np.int64)[..., None]
            table.flags.writeable = False  # kept and shared by its owner
            entry = self._targets[sids] = entry[:5] + (tuple(table),)
        strides, dims = entry[5]
        return index // strides % dims

    @functools.cached_property
    def sentinels(self) -> tuple:
        """(ids, tops) of the modes with dim >= 4, whose top level is a
        sentinel: their ids and a read-only column of their top levels,
        to compare with their `levels`."""
        modes = [s for s in self.subsystems if s.kind == MODE and s.dim >= 4]
        tops = np.array([s.dim - 1 for s in modes], dtype=np.int64)[:, None]
        tops.flags.writeable = False  # kept and shared by its owner
        return tuple(s.sid for s in modes), tops

    def axis(self, sid: str) -> int:
        try:
            return self._pos[sid]
        except KeyError:
            raise LayoutError(f"unknown subsystem id {sid!r}") from None

    def dim_of(self, sid: str) -> int:
        return self.subsystems[self.axis(sid)].dim

    def kind_of(self, sid: str) -> str:
        return self.subsystems[self.axis(sid)].kind

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(s.sid for s in self.subsystems)

    def basis_index(self, levels: Sequence[int]) -> int:
        """Mixed-radix encoding of per-subsystem levels (little-endian)."""
        if len(levels) != len(self.dims):
            raise LayoutError(
                f"expected {len(self.dims)} levels, got {len(levels)}")
        idx = 0
        for lvl, d, stride, sub in zip(levels, self.dims, self.strides,
                                       self.subsystems):
            if not 0 <= lvl < d:
                raise LayoutError(
                    f"level {lvl} out of range for {sub.sid!r} (dim {d})")
            idx += lvl * stride
        return idx

    def __repr__(self) -> str:
        parts = ", ".join(f"{s.sid}:{s.kind}[{s.dim}]" for s in self.subsystems)
        return f"HilbertLayout({parts})"


def create_layout(spec: Iterable[tuple[str, str, int]]) -> HilbertLayout:
    """Build a layout from (id, kind, dim) triples, validating invariants."""
    subsystems = []
    seen = set()
    for sid, kind, dim in spec:
        if sid in seen:
            raise LayoutError(f"duplicate subsystem id {sid!r}")
        seen.add(sid)
        if kind == QUBIT:
            if dim != 2:
                raise LayoutError(f"qubit {sid!r} must have dim 2, got {dim}")
        elif kind == MODE:
            if dim < 3:
                raise LayoutError(f"mode {sid!r} needs dim >= 3, got {dim}")
        else:
            raise LayoutError(f"unknown subsystem kind {kind!r} for {sid!r}")
        subsystems.append(Subsystem(sid, kind, int(dim)))
    if not subsystems:
        raise LayoutError("layout needs at least one subsystem")
    return HilbertLayout(subsystems)


class StateVector:
    """Normalized state on its support: a sorted, unique int64 `index` of
    basis states and their `values`; every other amplitude is zero.
    `amplitudes` builds the dense total_dim vector on request.  `values`
    is 1-D, one amplitude per row, in a batch too: there the index runs
    past total_dim, and index // total_dim labels the copy of the layout
    a row is in (`HilbertLayout.levels`).
    """

    def __init__(self, layout: HilbertLayout, *, index: np.ndarray,
                 values: np.ndarray):
        self.layout, self.index, self.values = layout, index, values

    @property
    def amplitudes(self) -> np.ndarray:
        """The dense total_dim vector; refused past MAX_STATE_DIM amplitudes."""
        dim = self.layout.total_dim
        if dim > MAX_STATE_DIM:
            item = np.dtype(complex).itemsize
            raise StateError(
                f"dense state of {dim} amplitudes needs {dim * item} bytes; "
                f"the limit is {MAX_STATE_DIM} amplitudes "
                f"({MAX_STATE_DIM * item} bytes)")
        dense = np.zeros(dim, dtype=complex)
        dense[self.index] = self.values
        return dense

    def norm(self) -> float:
        """The 2-norm of `values`: of every label together, in a batch."""
        # numpy's own 2-norm of a 1-D complex vector, bit for bit, without
        # `np.linalg.norm`'s dispatch: heating renormalizes by it.
        re, im = self.values.real, self.values.imag
        return math.sqrt(re.dot(re) + im.dot(im))

    def levels(self, sid: str) -> np.ndarray:
        """Level of subsystem `sid` in each support basis state."""
        return self.layout.levels(self.index, (sid,))[0]

    def populations(self, pairs: Sequence[tuple[str, int]]) -> np.ndarray:
        """Total probability of finding each (subsystem, level) pair's
        subsystem at its level."""
        weights = np.abs(self.values) ** 2
        # A masked sum per pair rounds exactly as the one-pair form always
        # has: `measure_qubit_z` draws its outcome from these sums, for the
        # parity check and the one-shot readout, and a last-bit change
        # (0.5 against 0.5000000000000001) can flip a seeded draw.
        return np.array([weights[self.levels(sid) == level].sum()
                         for sid, level in pairs])

    def population(self, sid: str, level: int) -> float:
        """Total probability of finding subsystem `sid` at `level`."""
        return float(self.populations([(sid, level)])[0])

    def amplitude_at(self, indices: Sequence[int]) -> np.ndarray:
        """Amplitudes at the given basis indices, zero off the support."""
        return support_rows(self.index, self.values,
                            support_index(self.layout, indices))


def basis_state(layout: HilbertLayout, levels: dict[str, int]) -> StateVector:
    """Product basis state with given levels; unspecified subsystems at 0."""
    full = [0] * len(layout.dims)
    for sid, lvl in levels.items():
        full[layout.axis(sid)] = lvl
    return StateVector(
        layout, index=support_index(layout, [layout.basis_index(full)]),
        values=np.ones(1, dtype=complex))


def ground_state(layout: HilbertLayout) -> StateVector:
    """All qubits in the electronic ground state, all modes in vacuum."""
    return basis_state(layout, {})


def _geometry(layout: HilbertLayout, sids: tuple[str, ...],
              shape: tuple[int, ...]) -> tuple:
    """`layout.targets(sids)`, with a matrix of `shape` checked to fit."""
    geometry = layout.targets(sids)
    if shape != (geometry[3], geometry[3]):
        raise StateError(f"matrix shape {shape} does not match targets {sids}")
    return geometry


# `wide` meets 35 (dims, strides) keys and `deep` 32.
@functools.lru_cache(maxsize=64)
def _offsets(dims: tuple[int, ...], strides: tuple[int, ...]) -> tuple:
    """(weights, offsets), read-only: each target's place value in the
    little-endian sub-index, and each sub-index's full-space displacement."""
    weights = np.cumprod((1,) + dims[:-1])
    offsets = np.zeros(1, dtype=np.int64)
    for dim, stride in zip(dims, strides):  # the first target varies fastest
        offsets = (np.arange(dim)[:, None] * stride + offsets).ravel()
    for arr in (weights, offsets):
        arr.flags.writeable = False  # shared by every caller of the cache
    return weights, offsets


def apply_matrix(state: StateVector, matrix: np.ndarray,
                 sids: Sequence[str]) -> StateVector:
    """Apply a matrix over the listed subsystems (no unitarity check):
    the support kernel, for the tests and the benchmark's tracer; pulses
    reach the kernel through `pulses.apply_pulse`."""
    index, values = apply_matrix_support(state.index, state.values,
                                         state.layout, matrix, sids)
    return StateVector(state.layout, index=index, values=values)


def apply_matrix_columns(columns: np.ndarray, layout: HilbertLayout,
                         matrix: np.ndarray,
                         sids: Sequence[str]) -> np.ndarray:
    """Apply a subsystem matrix to every column of a dense (total_dim[, k])
    array: the dense contraction the support kernel is tested against."""
    axes, _, _, block_dim, _, _ = _geometry(layout, tuple(sids), matrix.shape)
    tensor = columns.reshape(layout.dims + columns.shape[1:], order="F")
    tensor = np.moveaxis(tensor, axes, range(len(axes)))
    shape = tensor.shape
    block = tensor.reshape(block_dim, -1, order="F")
    block = matrix @ block
    tensor = block.reshape(shape, order="F")
    tensor = np.moveaxis(tensor, range(len(axes)), axes)
    return tensor.reshape(columns.shape, order="F")


def support_index(layout: HilbertLayout, indices: Sequence[int]) -> np.ndarray:
    """Basis indices as the int64 array that `apply_matrix_support` takes.

    Refuses a layout whose basis indices do not all fit in int64.
    """
    if layout.total_dim > MAX_INDEX_DIM:
        raise StateError(
            f"basis indices of {layout.total_dim} states do not fit in int64 "
            f"(the limit is {MAX_INDEX_DIM} states)")
    return np.asarray(indices, dtype=np.int64)


def apply_matrix_support(index: np.ndarray, amplitudes: np.ndarray,
                         layout: HilbertLayout, matrix: np.ndarray,
                         sids: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Apply a subsystem matrix, or a stack of them, to amplitudes held on
    a sparse support.

    `index` is a sorted, unique int64 array of basis indices and
    `amplitudes` the matching 1-D array, one amplitude per row.  A
    target's level is read as index // stride % dim, so an index may run
    past `layout.total_dim`: its label index // total_dim names a copy of
    the layout.  `matrix` is one (d, d) matrix over `sids`, taking every
    row, or an (R, d, d) stack: matrix r takes the rows whose label is
    r mod R.  Rows sharing the levels outside the targets, and so their
    label, form one block of dimension d.  A row is kept when its
    magnitude exceeds `PRUNE_TOL`, so the support holds only states with
    weight.  The pruning is bounded:

    - a pruned row holds at most PRUNE_TOL**2 = 1e-28 of weight, and one
      call, whose block holds at most MAX_STATE_DIM amplitudes, prunes
      less than 4e-21 in all;
    - the state is not renormalized, so the per-pulse norm check (1e-10)
      still bounds the total pruned weight;
    - that is far below the sentinel bound (1e-12 population) and the
      leakage guard (1e-6), so the pruning cannot hide a breach of
      either.

    In a stacked call, matrix r multiplies the blocks of its label class
    in one product, of the shape a call on that class's rows alone
    makes.  BLAS rounds a product by its shape, so every class comes out
    bit for bit as it would from that call.

    Returns the new sorted index and amplitudes.
    """
    index = support_index(layout, index)
    if amplitudes.ndim != 1 or matrix.ndim > 3:
        raise StateError(
            f"the kernel takes one amplitude per row and a matrix or a "
            f"stack of them, not amplitudes of shape {amplitudes.shape} "
            f"and a matrix of shape {matrix.shape}")
    sids, shape = tuple(sids), matrix.shape[-2:]
    _, dims, strides, block_dim, _, _ = _geometry(layout, sids, shape)
    # Only small plans enter the memo.  A support of n rows meets at most
    # n blocks, so its plan has at most n * block_dim candidate rows.
    if (len(index) <= MEMO_MAX_ROWS
            and len(index) * block_dim <= MEMO_MAX_ROWS ** 2):
        target, group, rests, new_index = _memo_plan(dims, strides,
                                                     index.tobytes())
    else:
        target, group, rests, offsets = _plan(index, dims, strides)
        new_index = None
    if len(rests) * block_dim > MAX_STATE_DIM:
        raise StateError(
            f"support block of {len(rests)} x {block_dim} amplitudes "
            f"exceeds the limit of {MAX_STATE_DIM}")
    block = np.zeros((block_dim, len(rests)), dtype=complex)
    block[target, group] = amplitudes
    if matrix.ndim == 2:
        block = matrix @ block
    else:
        labels = rests // layout.total_dim  # its rows' label is its rest's
        classes = labels % len(matrix)
        counts = np.bincount(classes, minlength=len(matrix))
        if (counts == counts[0]).all():
            # order[r]: class r's blocks in order, one (d, n) product each.
            order = classes.argsort(kind="stable").reshape(len(matrix), -1)
            parts = matrix @ block[:, order].transpose(1, 0, 2)
            block[:, order] = parts.transpose(1, 0, 2)
        else:
            for r, part in enumerate(matrix):
                mine = classes == r
                block[:, mine] = part @ block[:, mine]
    block = block.ravel()
    if new_index is None:  # built once the input block is freed
        new_index = (offsets[:, None] + rests).ravel()
    keep = (np.abs(block) > PRUNE_TOL).nonzero()[0]
    keep = keep[new_index[keep].argsort()]
    return new_index[keep], block[keep]


def _plan(index: np.ndarray, dims: tuple[int, ...],
          strides: tuple[int, ...]) -> tuple:
    """The kernel's grouping of the support rows by the levels outside the
    targets of these dims and strides: (target, group, rests, offsets).

    Row i has basis index rests[group[i]] + offsets[target[i]]: `target`
    is its little-endian sub-index over the targets, `rests` the sorted,
    distinct basis indices with the targets at level 0, and `offsets`
    the targets' displacement of each sub-index.
    """
    weights, offsets = _offsets(dims, strides)
    target = (index[:, None] // strides % dims).dot(weights)
    rest = index - offsets[target]
    # np.unique's hash is some 50 times slower than a sort on 2**20 rows.
    rests = rest.copy()
    rests.sort()
    distinct = np.empty(len(rests), dtype=bool)
    distinct[:1] = True
    np.not_equal(rests[1:], rests[:-1], out=distinct[1:])
    rests = rests[distinct]
    return target, rests.searchsorted(rest), rests, offsets


# One command meets a few dozen plans (52 in a `deep` run).
@functools.lru_cache(maxsize=32)
def _memo_plan(dims: tuple[int, ...], strides: tuple[int, ...],
               support: bytes) -> tuple:
    """`_plan` of a small support, given as its int64 index's bytes, with
    the basis index of each row of the output block in place of
    `offsets`; read-only."""
    target, group, rests, offsets = _plan(
        np.frombuffer(support, dtype=np.int64), dims, strides)
    plan = target, group, rests, (offsets[:, None] + rests).ravel()
    for arr in plan:
        arr.setflags(write=False)  # shared by every caller of the cache
    return plan


def support_rows(index: np.ndarray, rows: np.ndarray,
                 wanted: np.ndarray) -> np.ndarray:
    """The rows of `rows` (one per entry of the sorted `index`) at the
    basis indices `wanted`, zero where `wanted` is off the support."""
    out = np.zeros((len(wanted),) + rows.shape[1:], dtype=complex)
    if len(index):
        pos = np.minimum(np.searchsorted(index, wanted), len(index) - 1)
        found = index[pos] == wanted
        out[found] = rows[pos[found]]
    return out


def exp_hermitian(generator: np.ndarray, scale: float) -> np.ndarray:
    """exp(i * scale * generator) for a Hermitian generator.

    This is the oracle every exponential-form pulse is checked against.
    The core is scipy's scaling-and-squaring Pade expm, imported here
    because scipy.linalg is slow to import and only this oracle needs it.
    """
    from scipy.linalg import expm
    defect = float(np.max(np.abs(generator - generator.conj().T)))
    if defect > HERMITICITY_TOL:
        raise StateError(f"generator is not Hermitian (defect {defect:.3e})")
    u = expm(1j * scale * generator)
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(len(u)))))
    if defect > UNITARITY_TOL:
        raise StateError(f"exponential lost unitarity (defect {defect:.3e})")
    return u


def measure_qubit_z(state: StateVector, qubit_id: str,
                    rng_seed) -> tuple[int, StateVector]:
    """Projective z-basis measurement of one qubit (fluorescence readout).

    Outcome 0 is the ground state, 1 the excited state, drawn with the
    Born probabilities.  The collapsed state is the renormalized
    projection.  `rng_seed` may be an int seed or a numpy Generator.
    """
    if state.layout.kind_of(qubit_id) != QUBIT:
        raise StateError(f"{qubit_id!r} is not a qubit")
    w0, w1 = map(float, state.populations([(qubit_id, 0), (qubit_id, 1)]))
    if w0 < 1e-14 and w1 < 1e-14:
        raise StateError("both projection norms vanish; state is corrupt")
    p1 = w1 / (w0 + w1)
    outcome = int(np.random.default_rng(rng_seed).random() < p1)
    keep = state.levels(qubit_id) == outcome
    values = state.values[keep]
    collapsed = StateVector(state.layout, index=state.index[keep],
                            values=values / np.linalg.norm(values))
    return outcome, collapsed
