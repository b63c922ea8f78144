import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drqsim import fock
from drqsim import (
    LayoutError,
    StateError,
    basis_state,
    create_layout,
    exp_hermitian,
    ground_state,
    measure_qubit_z,
)
from drqsim.fock import (
    MAX_STATE_DIM,
    MODE,
    QUBIT,
    SIGMA_X,
    apply_matrix,
    apply_matrix_columns,
    apply_matrix_support,
    creation_matrix,
    kron_le,
    support_index,
    support_rows,
)

from conftest import random_state
from oracles import dense_state, levels_of


def test_single_qubit_layout():
    layout = create_layout([("q1", "qubit", 2)])
    assert layout.total_dim == 2


def test_total_dim_is_product():
    layout = create_layout([("q1", "qubit", 2), ("m1", "mode", 4),
                            ("m2", "mode", 4)])
    assert layout.total_dim == 32


def test_duplicate_id_rejected():
    with pytest.raises(LayoutError):
        create_layout([("m1", "mode", 4), ("m1", "mode", 4)])


def test_bad_dims_rejected():
    with pytest.raises(LayoutError):
        create_layout([("q", "qubit", 3)])
    with pytest.raises(LayoutError):
        create_layout([("m", "mode", 2)])


@pytest.mark.parametrize("dims", [
    [("q", "qubit", 2), ("m", "mode", 5)],
    [("a", "qubit", 2), ("b", "qubit", 2)]
    + [(f"m{i}", "mode", 4) for i in range(5)],
])
def test_index_round_trip(dims):
    layout = create_layout(dims)
    assert layout.total_dim <= 4096
    for idx in range(layout.total_dim):
        assert layout.basis_index(levels_of(layout, idx)) == idx


def test_ground_state_is_all_zeros():
    layout = create_layout([("q1", "qubit", 2), ("m1", "mode", 4),
                            ("m2", "mode", 4)])
    state = ground_state(layout)
    assert state.amplitudes[0] == 1.0
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    assert state.population("q1", 0) == 1.0
    assert state.population("m1", 0) == 1.0


def test_identity_leaves_state(rng):
    layout = create_layout([("q", "qubit", 2), ("m1", "mode", 4)])
    state = random_state(layout, rng)
    out = apply_matrix(state, np.eye(4, dtype=complex), ("m1",))
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_flip_twice_is_identity(rng):
    layout = create_layout([("q", "qubit", 2), ("m1", "mode", 4)])
    state = random_state(layout, rng)
    out = apply_matrix(apply_matrix(state, SIGMA_X, ("q",)), SIGMA_X, ("q",))
    fidelity = abs(np.vdot(out.amplitudes, state.amplitudes))
    assert fidelity == pytest.approx(1.0, abs=1e-10)


def test_unitary_preserves_norm(rng):
    layout = create_layout([("q", "qubit", 2), ("m1", "mode", 4),
                            ("m2", "mode", 4)])
    state = random_state(layout, rng)
    gen = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    gen = (gen + gen.conj().T) / 2
    out = apply_matrix(state, exp_hermitian(gen, 0.37), ("q", "m1"))
    assert abs(out.norm() - 1.0) <= 1e-10


def test_unknown_subsystem_rejected():
    layout = create_layout([("q", "qubit", 2)])
    state = ground_state(layout)
    with pytest.raises(LayoutError):
        apply_matrix(state, np.eye(2, dtype=complex), ("nope",))


def test_exp_zero_generator_is_identity():
    out = exp_hermitian(np.zeros((2, 2), dtype=complex), 1.7)
    assert np.allclose(out, np.eye(2), atol=1e-14)


def test_exp_pauli_identity():
    out = exp_hermitian(SIGMA_X, np.pi / 2)
    assert np.max(np.abs(out - 1j * SIGMA_X)) <= 1e-12


def test_exp_inverse_pair(rng):
    # Oracle: multiply the two computed exponentials directly.
    for _ in range(5):
        theta = rng.uniform(-1, 1)
        gen = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        gen = (gen + gen.conj().T) / 4
        prod = exp_hermitian(gen, theta) @ exp_hermitian(gen, -theta)
        assert np.max(np.abs(prod - np.eye(6))) <= 1e-10


def test_exp_composes(rng):
    for _ in range(5):
        a, b = rng.uniform(-0.5, 0.5, size=2)
        gen = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        gen = (gen + gen.conj().T) / 4
        lhs = exp_hermitian(gen, a) @ exp_hermitian(gen, b)
        rhs = exp_hermitian(gen, a + b)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_exp_rejects_non_hermitian():
    gen = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(StateError):
        exp_hermitian(gen, 1.0)


@pytest.mark.parametrize("spec", [
    [(f"q{i}", "qubit", 2) for i in range(26)],       # 2 * MAX_STATE_DIM
    [(f"m{i}", "mode", 10) for i in range(16)],       # 1e16
    [(f"m{i}", "mode", 10) for i in range(20)],       # past int64
])
def test_basis_state_rejects_oversized_layout(spec):
    # A state holds only its support, so only the dense view is refused;
    # past int64 even the support's basis indices are.
    layout = create_layout(spec)
    assert layout.total_dim == int(np.prod([d for *_, d in spec],
                                           dtype=object))
    assert layout.total_dim > MAX_STATE_DIM
    if layout.total_dim > fock.MAX_INDEX_DIM:
        with pytest.raises(StateError, match="do not fit in int64"):
            ground_state(layout)
        return
    state = ground_state(layout)
    with pytest.raises(StateError, match=f"needs {layout.total_dim * 16} "
                       "bytes"):
        state.amplitudes


def test_measure_ground_deterministic():
    layout = create_layout([("q", "qubit", 2)])
    outcome, collapsed = measure_qubit_z(ground_state(layout), "q", 3)
    assert outcome == 0
    assert collapsed.population("q", 0) == pytest.approx(1.0)


def test_measure_superposition_statistics():
    layout = create_layout([("q", "qubit", 2)])
    amps = np.array([1, 1], dtype=complex) / np.sqrt(2)
    state = dense_state(layout, amps)
    rng = np.random.default_rng(42)
    ones = sum(measure_qubit_z(state, "q", rng)[0] for _ in range(10000))
    sigma = np.sqrt(10000 * 0.25)
    assert abs(ones - 5000) <= 3 * sigma


def test_measure_product_state_leaves_modes():
    layout = create_layout([("q", "qubit", 2), ("m", "mode", 4)])
    state = basis_state(layout, {"q": 1, "m": 2})
    outcome, collapsed = measure_qubit_z(state, "q", 0)
    assert outcome == 1
    assert collapsed.population("m", 2) == pytest.approx(1.0)


def test_measure_rejects_mode():
    layout = create_layout([("q", "qubit", 2), ("m", "mode", 4)])
    with pytest.raises(StateError):
        measure_qubit_z(ground_state(layout), "m", 0)


def test_measure_rejects_corrupt_state():
    layout = create_layout([("q", "qubit", 2)])
    state = dense_state(layout, np.zeros(2, dtype=complex))
    with pytest.raises(StateError):
        measure_qubit_z(state, "q", 0)


def test_overlap_unitary_invariance(rng):
    layout = create_layout([("q", "qubit", 2), ("m", "mode", 4)])
    a, b = random_state(layout, rng), random_state(layout, rng)
    gen = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    gen = (gen + gen.conj().T) / 2
    u = exp_hermitian(gen, 0.83)
    a2, b2 = (apply_matrix(s, u, ("q", "m")) for s in (a, b))
    before = abs(np.vdot(a.amplitudes, b.amplitudes))
    after = abs(np.vdot(a2.amplitudes, b2.amplitudes))
    assert after == pytest.approx(before, abs=1e-10)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 300),
       step=st.integers(1, 3))
def test_norm_is_numpys_norm_bit_for_bit(seed, n, step):
    # Heating renormalizes by `norm`, so it must round as numpy's does,
    # also on a strided view and on real amplitudes.
    from drqsim import StateVector
    layout = create_layout([(f"m{i}", "mode", 8) for i in range(3)])
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=n * step) + 1j * rng.normal(size=n * step)
    for values in (raw[::step], raw[::step].real.copy()):
        state = StateVector(layout, index=np.arange(len(values)),
                            values=values)
        assert state.norm() == float(np.linalg.norm(values))


# --- sparse support kernel ----------------------------------------------------

@st.composite
def support_cases(draw):
    """A layout of at most 4096 dims, 1-3 targets, a support and k columns."""
    dims = draw(st.lists(st.sampled_from([2, 3, 4, 5]), min_size=1,
                         max_size=6).filter(lambda d: math.prod(d) <= 4096))
    layout = create_layout([(f"q{i}", "qubit", 2) if d == 2
                            else (f"m{i}", "mode", d)
                            for i, d in enumerate(dims)])
    sids = draw(st.lists(st.sampled_from(layout.ids), min_size=1,
                         max_size=min(3, len(dims)), unique=True))
    index = draw(st.lists(st.integers(0, layout.total_dim - 1), min_size=1,
                          max_size=64, unique=True))
    k = draw(st.integers(1, 4))
    return layout, sids, sorted(index), k, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None)
@given(support_cases())
def test_apply_matrix_support_matches_dense(case):
    layout, sids, index, k, seed = case
    rng = np.random.default_rng(seed)
    block_dim = math.prod(layout.dim_of(s) for s in sids)
    unitary, _ = np.linalg.qr(rng.normal(size=(block_dim, block_dim))
                              + 1j * rng.normal(size=(block_dim, block_dim)))
    amps = rng.normal(size=(len(index), k)) + 1j * rng.normal(size=(len(index), k))
    dense = np.zeros((layout.total_dim, k), dtype=complex)
    dense[index] = amps
    want = apply_matrix_columns(dense, layout, unitary, sids)

    got_index, got_amps = apply_matrix_support(
        np.array(index, dtype=np.int64), amps, layout, unitary, sids)
    assert got_index.dtype == np.int64
    assert np.all(np.diff(got_index) > 0)
    assert got_index[0] >= 0 and got_index[-1] < layout.total_dim
    assert np.max(np.abs(want[got_index] - got_amps)) <= 1e-12
    want[got_index] = 0
    assert np.max(np.abs(want)) <= 1e-12


@st.composite
def stacked_cases(draw):
    """A support case with R columns, one per matrix, each zero on some
    rows and at the pruning tolerance's scale on others."""
    layout, sids, index, _, seed = draw(support_cases())
    n_groups = draw(st.integers(1, 4))
    rows = st.lists(st.sampled_from(["zero", "tiny", "full"]),
                    min_size=len(index), max_size=len(index))
    kinds = draw(st.lists(rows, min_size=n_groups, max_size=n_groups))
    return layout, sids, index, kinds, seed


@settings(max_examples=80, deadline=None)
@given(stacked_cases())
def test_stacked_support_kernel_matches_separate_calls(case):
    # Each column comes out bit for bit as a call on its own nonzero rows,
    # though the columns meet different blocks and BLAS rounds a column by
    # the shape of the product it is in.
    layout, sids, index, kinds, seed = case
    rng = np.random.default_rng(seed)
    block_dim = math.prod(layout.dim_of(s) for s in sids)
    n_groups = len(kinds)
    stack = np.stack([np.linalg.qr(
        rng.normal(size=(block_dim, block_dim))
        + 1j * rng.normal(size=(block_dim, block_dim)))[0]
        for _ in range(n_groups)])
    index = np.array(index, dtype=np.int64)
    scale = {"zero": 0.0, "tiny": 1e-15, "full": 1.0}
    amps = np.stack([
        (rng.normal(size=len(index)) + 1j * rng.normal(size=len(index)))
        * np.array([scale[r] for r in rows]) for rows in kinds], axis=1)
    got_index, got_amps = apply_matrix_support(index, amps, layout, stack,
                                               sids)
    assert np.all(np.diff(got_index) > 0)
    for r in range(n_groups):
        cols = slice(r, r + 1)
        # A lone column's rows are all its own: a stack of one is the 2-D
        # call on the same rows.
        own = (np.flatnonzero(amps[:, cols].any(axis=1)) if n_groups > 1
               else np.arange(len(index)))
        want_index, want_amps = apply_matrix_support(
            index[own], amps[own, cols], layout, stack[r], sids)
        live = got_amps[:, cols].any(axis=1)
        assert got_index[live].tobytes() == want_index.tobytes()
        assert got_amps[live, cols].tobytes() == want_amps.tobytes()


def test_apply_matrix_support_prunes_rows_at_or_below_tolerance():
    # a^dag on one cutoff-3 mode, three columns, one row per rest group
    # (q, r): rows at 1e-15 and 1e-300 go, and so does the exact zero
    # a^dag leaves on |2>; a row at 2e-14 in one column of three stays.
    layout = create_layout([("q", "qubit", 2), ("r", "qubit", 2),
                            ("m", "mode", 3)])
    rows = {(0, 0, 0): [1e-15, 0, 0], (1, 0, 0): [0, 0, 2e-14],
            (0, 1, 0): [0, 1e-300, 0], (1, 1, 1): [1, 0, 0],
            (1, 1, 2): [0, 1, 0]}
    index = np.array([layout.basis_index(levels) for levels in rows])
    amps = np.array(list(rows.values()), dtype=complex)
    got_index, got_amps = apply_matrix_support(
        index, amps, layout, creation_matrix(3), ("m",))
    assert got_index.tolist() == [layout.basis_index([1, 0, 1]),
                                  layout.basis_index([1, 1, 2])]
    assert got_amps.tolist() == [[0, 0, 2e-14], [np.sqrt(2), 0, 0]]
    # "At or below": a row of exactly PRUNE_TOL goes.
    got_index, _ = apply_matrix_support(
        np.array([0, 1]), np.array([[fock.PRUNE_TOL], [1]], dtype=complex),
        layout, np.eye(2), ("q",))
    assert got_index.tolist() == [1]


def test_apply_matrix_support_checks_targets_and_shape():
    layout = create_layout([("q", "qubit", 2), ("m", "mode", 3)])
    index, amps = np.array([0]), np.ones((1, 1), dtype=complex)
    with pytest.raises(LayoutError):
        apply_matrix_support(index, amps, layout, np.eye(4), ("q", "q"))
    with pytest.raises(StateError, match="does not match targets"):
        apply_matrix_support(index, amps, layout, np.eye(2), ("m",))
    with pytest.raises(StateError, match="does not split 3 columns"):
        apply_matrix_support(index, np.ones((1, 3), dtype=complex), layout,
                             np.stack([np.eye(2)] * 2), ("q",))


@pytest.mark.parametrize("limit", [100, 299])
def test_apply_matrix_support_refuses_large_block(monkeypatch, limit):
    # 10 rest groups x a 10-dim block x 3 columns = 300 amplitudes.
    layout = create_layout([("m0", "mode", 10), ("m1", "mode", 10)])
    index = np.arange(0, 100, 10)
    monkeypatch.setattr(fock, "MAX_STATE_DIM", limit)
    with pytest.raises(StateError, match="10 x 10 x 3 amplitudes exceeds "
                       f"the limit of {limit}"):
        apply_matrix_support(index, np.ones((10, 3), dtype=complex), layout,
                             np.eye(10), ("m0",))


def test_support_index_refuses_past_int64():
    layout = create_layout([(f"m{i}", "mode", 10) for i in range(20)])
    with pytest.raises(StateError, match=f"{layout.total_dim} states do not "
                       "fit in int64"):
        support_index(layout, [0])
    with pytest.raises(StateError, match="do not fit in int64"):
        apply_matrix_support(np.array([0]), np.ones((1, 1), dtype=complex),
                             layout, np.eye(100), ("m18", "m19"))
    fits = create_layout([("q", "qubit", 2)]
                         + [(f"m{i}", "mode", 4) for i in range(31)])
    assert fits.total_dim == 2 ** 63
    assert support_index(fits, [2 ** 63 - 1]).tolist() == [2 ** 63 - 1]


def _isin_support_rows(index, rows, wanted):
    """The `np.isin` form `support_rows` had; the reference for its lookup."""
    found = np.isin(wanted, index)
    out = np.zeros((len(wanted),) + rows.shape[1:], dtype=complex)
    out[found] = rows[np.searchsorted(index, wanted[found])]
    return out


# (support index, wanted) over a 10-state layout.
SUPPORT_CASES = {
    "empty-index": ([], [0, 3, 9]),
    "empty-wanted": ([2, 5], []),
    "all-off-support": ([2, 5, 7], [0, 3, 4, 6, 8, 9]),
    "below-and-above": ([3, 4, 6], [0, 2, 3, 6, 7, 9]),
    "all-on-support": ([1, 4, 8], [8, 1, 4, 4]),
    "single-entry": ([5], [4, 5, 6, 5]),
}


@pytest.mark.parametrize("case", SUPPORT_CASES)
@pytest.mark.parametrize("k", [None, 1, 3])
def test_support_rows_matches_isin_lookup(case, k):
    index, wanted = (np.array(v, dtype=np.int64) for v in SUPPORT_CASES[case])
    rng = np.random.default_rng(len(index) + len(wanted))
    shape = (len(index),) if k is None else (len(index), k)
    rows = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = support_rows(index, rows, wanted)
    assert got.shape == (len(wanted),) + shape[1:]
    assert np.array_equal(got, _isin_support_rows(index, rows, wanted))
    if k is None:
        layout = create_layout([("q", "qubit", 2), ("m", "mode", 5)])
        state = fock.StateVector(layout, index=index, values=rows)
        assert np.array_equal(state.amplitude_at(wanted),
                              state.amplitudes[wanted])
        assert np.array_equal(state.amplitude_at(list(wanted)), got)


# --- the kernel's plan memo ---------------------------------------------------

def _plan_memo_calls():
    info = fock._memo_plan.cache_info()
    return np.array([info.misses, info.hits])


def _unitary(rng, dim):
    return np.linalg.qr(rng.normal(size=(dim, dim))
                        + 1j * rng.normal(size=(dim, dim)))[0]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(support_cases(), st.integers(1, 3))
def test_plan_memo_hit_equals_miss(case, n_groups):
    # Each call is made twice, so the second finds the first's plan; a
    # plan past the memo's bound is planned on both calls.
    layout, sids, index, _, seed = case
    rng = np.random.default_rng(seed)
    block_dim = math.prod(layout.dim_of(s) for s in sids)
    stack = np.stack([_unitary(rng, block_dim) for _ in range(n_groups)])
    matrix = stack if n_groups > 1 else stack[0]
    index = np.array(index, dtype=np.int64)
    width = n_groups
    amps = rng.normal(size=(len(index), width)) + 1j * rng.normal(
        size=(len(index), width))
    fock._memo_plan.cache_clear()
    miss = apply_matrix_support(index, amps, layout, matrix, sids)
    start = _plan_memo_calls()
    hit = apply_matrix_support(index, amps, layout, matrix, sids)
    small = (len(index) <= fock.MEMO_MAX_ROWS
             and len(index) * block_dim <= fock.MEMO_MAX_ROWS ** 2)
    assert (_plan_memo_calls() - start).tolist() == [0, int(small)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fock, "MEMO_MAX_ROWS", 0)
        unmemoized = apply_matrix_support(index, amps, layout, matrix, sids)
    for got in (hit, unmemoized):
        assert [a.tobytes() for a in got] == [a.tobytes() for a in miss]
    dense = np.zeros((layout.total_dim, width), dtype=complex)
    dense[index] = amps
    got_index, got_amps = hit
    for r in range(n_groups):
        cols = slice(r, r + 1)
        want = apply_matrix_columns(dense[:, cols], layout, stack[r], sids)
        got = np.zeros_like(want)
        got[got_index] = got_amps[:, cols]
        assert np.max(np.abs(got - want)) <= 1e-12


def test_plan_memo_arrays_are_read_only():
    layout = create_layout([("q", "qubit", 2), ("m", "mode", 4)])
    index = support_index(layout, [0, 3, 5])
    apply_matrix_support(index, np.ones((3, 1), dtype=complex), layout,
                         creation_matrix(4), ("m",))
    start = _plan_memo_calls()
    plan = fock._memo_plan((4,), (2,), index.tobytes())
    assert (_plan_memo_calls() - start).tolist() == [0, 1]
    for arr in plan:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


@pytest.mark.parametrize("rows,sids,memoized", [
    (64, ("q",), True),
    (65, ("q",), False),  # past MEMO_MAX_ROWS support rows
    (56, ("q", "m0", "m1"), True),  # 56 * 72 = 4032 candidate rows
    (57, ("q", "m0", "m1"), False),  # 4104, past MEMO_MAX_ROWS**2
])
def test_support_past_the_memo_bound_skips_the_memo(rows, sids, memoized):
    layout = create_layout([("q", "qubit", 2), ("m0", "mode", 6),
                            ("m1", "mode", 6), ("m2", "mode", 6)])
    block_dim = math.prod(layout.dim_of(s) for s in sids)
    matrix = _unitary(np.random.default_rng(rows), block_dim)
    index = support_index(layout, range(0, 7 * rows, 7))
    amps = np.ones((rows, 1), dtype=complex) / np.sqrt(rows)
    start = fock._memo_plan.cache_info()
    first = apply_matrix_support(index, amps, layout, matrix, sids)
    again = apply_matrix_support(index, amps, layout, matrix, sids)
    info = fock._memo_plan.cache_info()
    if memoized:
        assert [info.misses - start.misses, info.hits - start.hits] == [1, 1]
    else:
        assert info == start
    assert [a.tobytes() for a in again] == [a.tobytes() for a in first]


def test_equal_layouts_share_one_plan():
    # The plan memo keys on the targets' dims and strides, so a layout
    # built from the same spec hits the plan of the first.
    spec = [("q", "qubit", 2), ("m0", "mode", 4), ("m1", "mode", 4)]
    one, other = create_layout(spec), create_layout(spec)
    assert one != other  # layouts compare by identity
    index = np.array([1, 6, 17], dtype=np.int64)
    amps = np.full((3, 1), 1 / np.sqrt(3), dtype=complex)
    matrix, sids = _unitary(np.random.default_rng(3), 16), ("m0", "m1")
    start = _plan_memo_calls()
    want = apply_matrix_support(index, amps, one, matrix, sids)
    apply_matrix_support(index, amps, one, matrix, sids)
    got = apply_matrix_support(index, amps, other, matrix, sids)
    assert (_plan_memo_calls() - start).tolist() == [1, 2]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_layouts_with_equal_target_geometry_share_offsets_and_plans():
    # (m0, m1) and (y, z) have dims (4, 4) and strides (2, 8) in layouts
    # of other subsystems, so the second layout's calls hit the first's
    # entries, and every call gives the same bits.
    one = create_layout([("q", QUBIT, 2), ("m0", MODE, 4), ("m1", MODE, 4)])
    other = create_layout([("a", QUBIT, 2), ("y", MODE, 4), ("z", MODE, 4),
                           ("w", MODE, 5)])
    assert one.targets(("m0", "m1"))[1:3] == ((4, 4), (2, 8))
    assert other.targets(("y", "z"))[1:3] == ((4, 4), (2, 8))
    index = support_index(one, [1, 6, 17])
    amps = np.full((3, 1), 1 / np.sqrt(3), dtype=complex)
    matrix = _unitary(np.random.default_rng(5), 16)
    fock._offsets.cache_clear()
    fock._memo_plan.cache_clear()
    want = apply_matrix_support(index, amps, one, matrix, ("m0", "m1"))
    got = apply_matrix_support(index, amps, other, matrix, ("y", "z"))
    assert _plan_memo_calls().tolist() == [1, 1]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fock, "MEMO_MAX_ROWS", 0)  # plans on every call
        unmemoized = apply_matrix_support(index, amps, other, matrix,
                                          ("y", "z"))
    info = fock._offsets.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    for out in (got, unmemoized):
        assert [a.tobytes() for a in out] == [a.tobytes() for a in want]
