"""Truncated qubit-boson Hilbert space: layouts, state vectors, operators.

A layout is an ordered list of subsystems (qubits of dimension 2, bosonic
modes of dimension >= 3).  Basis indices use little-endian mixed-radix
encoding: the first registered subsystem varies fastest.  Mode operators
are hard-truncated, so the creation operator annihilates the top Fock
level; downstream checks assert that the sentinel level stays empty.
A state is held on its support (the basis states with amplitude) and
evolves through one sparse kernel, tested against the dense contraction
`apply_matrix_columns` (which `perfbench/spans.py` also wraps);
`exp_hermitian` is the Pade exponential that the tests pin every pulse
to.  A deep circuit applies many pulses to a support that rarely
changes, so the part of the kernel's work that depends only on the
support and the targets (its plan) is memoized per (layout, targets,
matrix shape, support) for a support of at most `MEMO_MAX_ROWS` rows
whose plan has at most `MEMO_MAX_ROWS`**2 candidate rows; a larger
support is planned on every call.
`MEMO_MAX_ROWS` also bounds the pulse memo of `pulses`.  Layouts
compare by value, so every memo is a function of values: equal layouts
share entries, and a hit gives the same bits as a miss.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import LayoutError, StateError

QUBIT = "qubit"
MODE = "mode"

UNITARITY_TOL = 1e-10
HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-10
# The support kernel drops a row whose magnitude is at or below this in
# every column: the rounding residue of pi-pulses and of destructive
# interference (about 1e-17), which holds no weight.
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


@dataclass(frozen=True)
class Subsystem:
    sid: str
    kind: str
    dim: int


class HilbertLayout:
    """Ordered registry of subsystems with mixed-radix index arithmetic.

    Two layouts are equal when their ordered (sid, kind, dim) triples are,
    so a memo keyed on a layout is keyed on its value.  The key and its
    hash are computed once: a memo hit on the same object compares nothing
    in Python.
    """

    def __init__(self, subsystems: Sequence[Subsystem]):
        self.subsystems = tuple(subsystems)
        self._key = tuple((s.sid, s.kind, s.dim) for s in self.subsystems)
        self._hash = hash(self._key)
        self._pos = {s.sid: i for i, s in enumerate(self.subsystems)}
        self.dims = tuple(s.dim for s in self.subsystems)
        strides = [1]
        for d in self.dims[:-1]:
            strides.append(strides[-1] * d)
        self.strides = tuple(strides)
        self.total_dim = math.prod(self.dims)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HilbertLayout) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def axis(self, sid: str) -> int:
        try:
            return self._pos[sid]
        except KeyError:
            raise LayoutError(f"unknown subsystem id {sid!r}") from None

    def dim_of(self, sid: str) -> int:
        return self.subsystems[self.axis(sid)].dim

    def kind_of(self, sid: str) -> str:
        return self.subsystems[self.axis(sid)].kind

    def is_qubit(self, sid: str) -> bool:
        return self.kind_of(sid) == QUBIT

    def is_mode(self, sid: str) -> bool:
        return self.kind_of(sid) == MODE

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
    `amplitudes` builds the dense total_dim vector on request.
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
        # numpy's own 2-norm of a 1-D complex vector, bit for bit, without
        # `np.linalg.norm`'s dispatch: heating renormalizes by it.
        re, im = self.values.real, self.values.imag
        return math.sqrt(re.dot(re) + im.dot(im))

    def levels(self, sid: str) -> np.ndarray:
        """Level of subsystem `sid` in each support basis state."""
        axis = self.layout.axis(sid)
        return self.index // self.layout.strides[axis] % self.layout.dims[axis]

    def level_hits(self, pairs: Sequence[tuple[str, int]]) -> np.ndarray:
        """(len(pairs), len(index)) mask: whether each support basis state
        has each (subsystem, level) pair's subsystem at its level."""
        strides, dims, wanted = _level_table(self.layout, tuple(pairs))
        return self.index // strides % dims == wanted

    def populations(self, pairs: Sequence[tuple[str, int]]) -> np.ndarray:
        """Total probability of finding each (subsystem, level) pair's
        subsystem at its level, from one pass over the support."""
        weights = np.abs(self.values) ** 2
        # A masked sum per pair rounds exactly as the one-pair form always
        # has: readout draws branch on these sums, and a last-bit change
        # (0.5 against 0.5000000000000001) moves a seeded histogram.
        return np.array([weights[row].sum() for row in self.level_hits(pairs)])

    def population(self, sid: str, level: int) -> float:
        """Total probability of finding subsystem `sid` at `level`."""
        return float(self.populations([(sid, level)])[0])

    def amplitude_at(self, indices: Sequence[int]) -> np.ndarray:
        """Amplitudes at the given basis indices, zero off the support."""
        return support_rows(self.index, self.values,
                            support_index(self.layout, indices))


@functools.lru_cache(maxsize=32)
def _level_table(layout: HilbertLayout, pairs: tuple) -> tuple:
    """(strides, dims, wanted) of the (subsystem, level) pairs, each a
    read-only (len(pairs), 1) int64 column: the health checks ask for the
    same pairs at every step exit."""
    axes = [(layout.axis(sid), level) for sid, level in pairs]
    table = np.array([(layout.strides[a], layout.dims[a], level)
                      for a, level in axes], dtype=np.int64)
    columns = tuple(table.reshape(-1, 3).T[:, :, None])
    for arr in columns:
        arr.flags.writeable = False  # shared by every caller of the cache
    return columns


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


@dataclass
class OperatorMatrix:
    """Dense operator over an ordered subset of subsystems.

    The matrix index is little-endian over `subsystem_ids`: the first
    listed subsystem varies fastest.
    """

    subsystem_ids: tuple[str, ...]
    entries: np.ndarray = field(repr=False)

    def dim(self) -> int:
        return self.entries.shape[0]

    def unitarity_defect(self) -> float:
        eye = np.eye(self.dim())
        return float(np.max(np.abs(self.entries.conj().T @ self.entries - eye)))

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.entries - self.entries.conj().T)))


# One command meets at most 25 target sets (`verify --builtin`).
@functools.lru_cache(maxsize=32)
def _targets(layout: HilbertLayout, sids: tuple[str, ...],
             shape: tuple[int, ...]) -> tuple:
    """(axes, dims, strides, weights, offsets) of the targets, checked to be
    distinct and to fit a matrix of `shape`.  Per target in `sids` order:
    axis, dimension, layout stride and place value in the little-endian
    sub-index; `offsets` is the full-space displacement of each sub-index.
    """
    axes = tuple(layout.axis(s) for s in sids)
    if len(set(sids)) != len(sids):
        raise LayoutError(f"repeated subsystem in targets {sids}")
    block_dim = math.prod(layout.dims[a] for a in axes)
    if shape != (block_dim, block_dim):
        raise StateError(f"matrix shape {shape} does not match targets {sids}")
    dims = np.array([layout.dims[a] for a in axes], dtype=np.int64)
    strides = np.array([layout.strides[a] for a in axes], dtype=np.int64)
    weights = np.cumprod(np.concatenate(([1], dims[:-1])))
    offsets = (np.arange(block_dim)[:, None] // weights % dims) @ strides
    for arr in (dims, strides, weights, offsets):
        arr.flags.writeable = False  # shared by every caller of the cache
    return axes, dims, strides, weights, offsets


def apply_matrix(state: StateVector, matrix: np.ndarray,
                 sids: Sequence[str]) -> StateVector:
    """Apply a matrix over the listed subsystems (no unitarity check).

    The pulse engine's one evolution step: the support kernel with one
    column.
    """
    index, values = apply_matrix_support(state.index, state.values[:, None],
                                         state.layout, matrix, sids)
    return StateVector(state.layout, index=index, values=values[:, 0])


def apply_matrix_columns(columns: np.ndarray, layout: HilbertLayout,
                         matrix: np.ndarray,
                         sids: Sequence[str]) -> np.ndarray:
    """Apply a subsystem matrix to every column of a dense (total_dim[, k])
    array: the dense contraction the support kernel is tested against."""
    axes = _targets(layout, tuple(sids), matrix.shape)[0]
    block_dim = matrix.shape[0]
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
    """Apply a subsystem matrix, or a stack of them, to columns held on a
    sparse support.

    `index` is a sorted, unique int64 array of basis indices and
    `amplitudes` the matching (len(index), width) array.  `matrix` is one
    (d, d) matrix over `sids`, or an (R, d, d) stack of them: then the
    columns split into R equal groups, the r-th group taken by the r-th
    matrix.  Rows sharing the levels outside the targets form one block
    of dimension d.  A group's slice of a row is kept when one of its
    columns' magnitude exceeds `PRUNE_TOL` and zeroed otherwise, and a
    row is kept when some group keeps it, so the support holds only
    states with weight.  The pruning is bounded:

    - a pruned row or slice holds at most width * PRUNE_TOL**2 =
      width * 1e-28 of weight, and one call, whose block holds at most
      MAX_STATE_DIM amplitudes, prunes less than 4e-21 in all;
    - the state is not renormalized, so the per-pulse norm check (1e-10)
      still bounds the total pruned weight;
    - that is far below the sentinel bound (1e-12 population) and the
      leakage guard (1e-6), so the pruning cannot hide a breach of
      either.

    With several groups, each group's product leaves out the blocks in
    which all of its rows are zero.  A group's matrix product then has the
    shape it has in a call on that group's nonzero rows alone, and BLAS
    rounds each column by the shape of the product it is in, so every
    group's columns come out bit for bit as they would from that call.

    Returns the new sorted index and amplitudes.
    """
    index = support_index(layout, index)
    sids, shape = tuple(sids), matrix.shape[-2:]
    n_groups = len(matrix) if matrix.ndim == 3 else 1
    width = amplitudes.shape[1]
    k, extra = divmod(width, n_groups)
    if matrix.ndim > 3 or extra:
        raise StateError(f"a stack of shape {matrix.shape} does not split "
                         f"{width} columns into equal groups")
    block_dim = shape[-1]
    # Only small plans enter the memo.  A support of n rows meets at most
    # n blocks, so its plan has at most n * block_dim candidate rows.
    if (len(index) <= MEMO_MAX_ROWS
            and len(index) * block_dim <= MEMO_MAX_ROWS ** 2):
        target, group, rests, new_index = _memo_plan(layout, sids, shape,
                                                     index.tobytes())
    else:
        target, group, rests, offsets = _plan(index, layout, sids, shape)
        new_index = None
    if len(rests) * block_dim * width > MAX_STATE_DIM:
        raise StateError(
            f"support block of {len(rests)} x {block_dim} x {width} "
            f"amplitudes exceeds the limit of {MAX_STATE_DIM}")
    block = np.zeros((block_dim, len(rests), width), dtype=complex)
    block[target, group] = amplitudes
    if n_groups == 1:
        block = matrix @ block.reshape(block_dim, -1)
    else:
        # present[r, j]: group r has a nonzero row in block j.
        present = np.zeros((n_groups, len(rests)), dtype=bool)
        rows, groups = np.nonzero(
            (amplitudes != 0).reshape(len(index), n_groups, k).any(axis=2))
        present[groups, group[rows]] = True
        block = _group_products(matrix, block, present)
    block = block.reshape(-1, width)
    if new_index is None:  # built once the input block is freed
        new_index = (offsets[:, None] + rests).ravel()
    live = np.abs(block) > PRUNE_TOL
    keep = (live.any(axis=1) if width > 1 else live.ravel()).nonzero()[0]
    keep = keep[new_index[keep].argsort()]
    out = block[keep]
    if n_groups > 1:
        slices = out.reshape(len(keep), n_groups, k)
        slices[~(np.abs(slices) > PRUNE_TOL).any(axis=2)] = 0
    return new_index[keep], out


def _plan(index: np.ndarray, layout: HilbertLayout, sids: tuple[str, ...],
          shape: tuple[int, ...]) -> tuple:
    """The kernel's grouping of the support rows by the levels outside the
    targets: (target, group, rests, offsets).

    Row i has basis index rests[group[i]] + offsets[target[i]]: `target`
    is its little-endian sub-index over `sids`, `rests` the sorted,
    distinct basis indices with the targets at level 0, and `offsets`
    the targets' displacement of each sub-index.
    """
    _, dims, strides, weights, offsets = _targets(layout, sids, shape)
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
def _memo_plan(layout: HilbertLayout, sids: tuple[str, ...],
               shape: tuple[int, ...], support: bytes) -> tuple:
    """`_plan` of a small support, given as its int64 index's bytes, with
    the basis index of each row of the output block in place of
    `offsets`; read-only."""
    target, group, rests, offsets = _plan(
        np.frombuffer(support, dtype=np.int64), layout, sids, shape)
    plan = target, group, rests, (offsets[:, None] + rests).ravel()
    for arr in plan:
        arr.setflags(write=False)  # shared by every caller of the cache
    return plan


def _group_products(stack: np.ndarray, block: np.ndarray,
                    present: np.ndarray) -> np.ndarray:
    """Each group's columns of `block` ((d, n_rest, R * k), groups side by
    side) times its matrix of the (R, d, d) `stack`, in the same layout.
    Group r's product leaves out the blocks j where present[r, j] is
    False, and is 0 there: groups of one pattern share one stacked call."""
    n_groups, block_dim = stack.shape[:2]
    k = block.shape[2] // n_groups
    groups = block.reshape(block_dim, -1, n_groups, k).transpose(2, 0, 1, 3)
    if present.all():
        out = stack @ groups.reshape(n_groups, block_dim, -1)
    else:
        out = np.zeros(groups.shape, dtype=complex)
        patterns, which = np.unique(present, axis=0, return_inverse=True)
        for p, pattern in enumerate(patterns):
            members = np.flatnonzero(which.ravel() == p)
            kept = np.flatnonzero(pattern)
            part = groups[members][:, :, kept].reshape(len(members),
                                                       block_dim, -1)
            out[members[:, None, None], np.arange(block_dim)[:, None],
                kept] = (stack[members] @ part).reshape(
                    len(members), block_dim, len(kept), k)
    return out.reshape(groups.shape).transpose(1, 2, 0, 3)


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


def exp_hermitian(gen: OperatorMatrix, scale: float) -> OperatorMatrix:
    """exp(i * scale * gen) for Hermitian gen.

    This is the oracle every exponential-form pulse is checked against.
    The core is scipy's scaling-and-squaring Pade expm, imported here
    because scipy.linalg is slow to import and only this oracle needs it.
    """
    from scipy.linalg import expm
    defect = gen.hermiticity_defect()
    if defect > HERMITICITY_TOL:
        raise StateError(f"generator is not Hermitian (defect {defect:.3e})")
    result = OperatorMatrix(gen.subsystem_ids, expm(1j * scale * gen.entries))
    u_defect = result.unitarity_defect()
    if u_defect > UNITARITY_TOL:
        raise StateError(f"exponential lost unitarity (defect {u_defect:.3e})")
    return result


class MeasurementResult(NamedTuple):
    outcome: int
    collapsed: StateVector
    probabilities: tuple[float, float]


def excited_probability(state: StateVector, qubit_id: str) -> float:
    """Born probability that a z readout of `qubit_id` finds it excited."""
    if not state.layout.is_qubit(qubit_id):
        raise StateError(f"{qubit_id!r} is not a qubit")
    w0, w1 = map(float, state.populations([(qubit_id, 0), (qubit_id, 1)]))
    if w0 < 1e-14 and w1 < 1e-14:
        raise StateError("both projection norms vanish; state is corrupt")
    return w1 / (w0 + w1)


def project_qubit(state: StateVector, qubit_id: str,
                  outcome: int) -> StateVector:
    """Renormalized projection of the state onto one level of a qubit."""
    keep = state.levels(qubit_id) == outcome
    values = state.values[keep]
    return StateVector(state.layout, index=state.index[keep],
                       values=values / np.linalg.norm(values))


def measure_qubit_z(state: StateVector, qubit_id: str,
                    rng_seed) -> MeasurementResult:
    """Projective z-basis measurement of one qubit (fluorescence readout).

    Outcome 0 is the ground state, 1 the excited state.  The collapsed
    state is the renormalized projection.  `rng_seed` may be an int seed
    or a numpy Generator.
    """
    p1 = excited_probability(state, qubit_id)
    outcome = int(np.random.default_rng(rng_seed).random() < p1)
    return MeasurementResult(outcome, project_qubit(state, qubit_id, outcome),
                             (1 - p1, p1))
