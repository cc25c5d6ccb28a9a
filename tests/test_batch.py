"""Batch cores against their single-tree forms, member by member.

Every single-tree kernel with a batch core is its batch of one, so these tests
check that a member's result does not depend on the batch around it: a
mixed batch must give, with ``np.array_equal``, what the single-tree
calls give.  The members of a batch share (depth, d) but differ in weight,
fields and support, and one of them carries a root-only sequence.  The
search objective is held to the same rule: the search's lookahead batches
mix restarts at different steps.  So are ``FieldBatch`` and the grouped
passes of the suites (``dynamics_gaps_batch``, ``sred_constants_checked``
and ``red_constants_checked``), in float64 and longdouble.
"""

import numpy as np
import pytest

from carlab import matrices
from carlab.characteristics import (
    MatrixSequence,
    ScalarSequence,
    cube_supremum_batch,
    subtree_sums_batch,
)
from carlab.constructions import (
    random_matrix_sequence,
    random_scalar_sequence,
    random_weight_field,
)
from carlab.bellman import dynamics_gaps, dynamics_gaps_batch
from carlab.dyadic import ROOT, DyadicIndex, FieldBatch, StepField, tree_size
from carlab.errors import DimensionMismatchError, SingularMatrixError
from carlab.redundancy import (
    red_constants,
    red_constants_batch,
    red_constants_checked,
    red_ratio_batch,
    sred_constant,
    sred_constant_batch,
    sred_constants_checked,
)
from carlab.search import (
    _STATE, OBJECTIVES, _apply_moves, _draw_stream, _packed, _random_state, _search_objective,
    _state_sequences,
)

from oracles import bilinear_bet_norm_ratio, level_powers_batch, matrix_form_red_ratio

SHAPES = [(depth, d) for depth in range(5) for d in range(1, 5)]


def _weights(depth, d, rng, n=4, dtype=np.float64):
    return [
        StepField(random_weight_field(depth, d, rng, cond_cap=1e3).values.astype(dtype))
        for _ in range(n)
    ]


def _deepest_cube_sequence(depth, d=None):
    """One entry on the last leaf, scaled to intensity 1."""
    q, mass = DyadicIndex(depth, (1 << depth) - 1), 2.0 ** -depth
    if d is None:
        return ScalarSequence(depth, {q: mass})
    return MatrixSequence(depth, d, {q: mass * np.eye(d)})


def _scalar_sequences(depth, rng):
    return [
        random_scalar_sequence(depth, rng),
        ScalarSequence(depth, {ROOT: 1.0}),
        _deepest_cube_sequence(depth),
        random_scalar_sequence(depth, rng, density=0.8),
    ]


def _matrix_sequences(depth, d, rng):
    return [
        random_matrix_sequence(depth, d, rng),
        MatrixSequence(depth, d, {ROOT: np.eye(d)}),
        _deepest_cube_sequence(depth, d),
        random_matrix_sequence(depth, d, rng, density=0.8),
    ]


def _pyramids(ws):
    return np.stack([w.pyramid() for w in ws]), np.stack([w.inverse().pyramid() for w in ws])


def _tree_powers(ws, pw, pv):
    """The cores' inputs: the power ``pw`` of every cube average of W and
    the power ``pv`` of every cube average of W^-1, for a batch."""
    return tuple(level_powers_batch(matrices.eigh_sym(pyramids), p)
                 for pyramids, p in zip(_pyramids(ws), (pw, pv)))


@pytest.mark.parametrize("depth, d", SHAPES)
def test_sred_constant_batch_matches_single_trees(depth, d):
    rng = np.random.default_rng(100 * depth + d)
    ws, seqs = _weights(depth, d, rng), _scalar_sequences(depth, rng)
    got = sred_constant_batch(*_tree_powers(ws, -0.5, -1.0), np.stack([s.dense() for s in seqs]))
    assert np.array_equal(got, [sred_constant(w, s) for w, s in zip(ws, seqs)])


@pytest.mark.parametrize("depth, d", SHAPES)
def test_red_constants_batch_matches_single_trees(depth, d):
    rng = np.random.default_rng(200 * depth + d)
    ws, seqs = _weights(depth, d, rng), _matrix_sequences(depth, d, rng)
    got = red_constants_batch(*_tree_powers(ws, -0.5, -0.5), np.stack([s.dense() for s in seqs]))
    want = np.array([red_constants(w, s) for w, s in zip(ws, seqs)])
    assert np.array_equal(np.stack(got, axis=1), want)


@pytest.mark.parametrize("depth, d", SHAPES)
def test_red_ratio_batch_matches_single_trees(depth, d):
    # the root-only member alone has its deepest support at the root, the
    # batch at a leaf: a member's sums do not depend on how deep they run
    rng = np.random.default_rng(300 * depth + d)
    ws, seqs = _weights(depth, d, rng), _scalar_sequences(depth, rng)
    roots, proots = _tree_powers(ws, -0.5, -0.5)
    alpha = np.stack([s.dense() for s in seqs])
    got = red_ratio_batch(roots, proots, alpha)
    want = [red_ratio_batch(roots[b:b + 1], proots[b:b + 1], alpha[b:b + 1])[0] for b in range(4)]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("depth, d", SHAPES)
def test_level_powers_and_cube_supremum_batch_match_single_trees(depth, d, dtype):
    rng = np.random.default_rng(400 * depth + d)
    ws = _weights(depth, d, rng, dtype=dtype)
    pyramids = np.stack([w.pyramid() for w in ws])
    for p in (0.5, -0.5, -1.0):
        got = level_powers_batch(matrices.eigh_sym(pyramids), p)
        assert got.dtype == dtype
        for b, w in enumerate(ws):
            assert np.array_equal(got[b], w.cube_power(p))
    dense = np.stack([s.dense(dtype=dtype) for s in _scalar_sequences(depth, rng)])
    for flat in (pyramids, dense, subtree_sums_batch(dense)):
        got = cube_supremum_batch(flat)
        assert np.array_equal(got, [cube_supremum_batch(x[None])[0] for x in flat])
    got = subtree_sums_batch(pyramids)
    for b, pyramid in enumerate(pyramids):
        assert np.array_equal(got[b], subtree_sums_batch(pyramid[None])[0])


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("depth, d", SHAPES)
def test_field_batch_matches_single_fields(depth, d, dtype):
    # every cache of a FieldBatch is, member by member, that of the field
    # alone, whichever of power and cube_eig runs first; a member copied out
    # holds the batch's caches and solves nothing again
    rng = np.random.default_rng(500 * depth + d)
    ws = _weights(depth, d, rng, dtype=dtype)
    for power_first in (True, False):
        batch = FieldBatch.stack(ws)
        batch.power(-1.0) if power_first else batch.cube_eig()
        for p in (0.5, -0.5, -1.0):
            for b, w in enumerate(StepField(w.values) for w in ws):
                assert np.array_equal(batch.power(p).values[b], w.power(p).values)
                assert np.array_equal(batch.cube_power(p)[b], w.cube_power(p))
                assert np.array_equal(batch.inverse().cube_power(p)[b], w.inverse().cube_power(p))
        for b, w in enumerate(ws):
            assert np.array_equal(batch.pyramid()[b], w.pyramid())
            assert all(map(np.array_equal, (x[b] for x in batch.cube_eig()), w.cube_eig()))
        one = batch.member(2)
        assert one._cube_eig is not None and not one.values.flags.writeable
        assert np.array_equal(one.inverse().cube_power(-0.5)[0], batch.inverse().cube_power(-0.5)[2])


def test_field_batch_refusals_name_member_and_cube():
    # members 1 and 3 each hold a leaf refused under W^-1 (leaves 2 and 0):
    # the first refused member is named, with its first refused leaf; its
    # field alone names the leaf and no member
    leaves = np.stack([np.stack([np.eye(2)] * 4)] * 4)
    leaves[1, 2] = leaves[3, 0] = np.diag([1.0, 1e-13])
    batch = FieldBatch(leaves)
    with pytest.raises(SingularMatrixError) as err:
        batch.inverse()
    assert (err.value.point, err.value.cube) == (1, DyadicIndex(2, 2))
    with pytest.raises(SingularMatrixError) as alone:
        StepField(leaves[1]).inverse()
    assert alone.value.point is None and alone.value.cube == DyadicIndex(2, 2)
    averages = np.stack([np.stack([np.eye(2)] * 4)] * 3)
    averages[2, :2] = [np.diag([1.0, 1e-12]), np.diag([1.0, -1e-12])]  # average (1, 0) is singular
    with pytest.raises(SingularMatrixError) as err:
        FieldBatch(averages).cube_power(-0.5)
    assert (err.value.point, err.value.cube) == (2, DyadicIndex(1, 0))
    bad = np.stack([np.eye(2)] * 8).reshape(2, 4, 2, 2)
    bad[1, 3, 0, 1] = np.inf
    with pytest.raises(DimensionMismatchError, match=r"level=2, position=3\) \(point 1\)"):
        FieldBatch(bad)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("depth, d", SHAPES)
def test_dynamics_gaps_batch_matches_single_fields(depth, d, dtype):
    rng = np.random.default_rng(600 * depth + d)
    ws, seqs = _weights(depth, d, rng, dtype=dtype), _scalar_sequences(depth, rng)
    got = dynamics_gaps_batch(FieldBatch.stack(ws), seqs)
    want = [list(dynamics_gaps(w, s).values()) for w, s in zip(ws, seqs)]
    assert got.shape == (len(ws), tree_size(depth) // 2) and np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("depth, d", SHAPES)
def test_group_constants_match_single_fields(depth, d, dtype):
    rng = np.random.default_rng(700 * depth + d)
    ws = _weights(depth, d, rng, dtype=dtype)
    alphas, bseqs = _scalar_sequences(depth, rng), _matrix_sequences(depth, d, rng)
    batch = FieldBatch.stack(ws)
    got = zip(sred_constants_checked(batch, alphas), red_constants_checked(batch, bseqs))
    want = [(sred_constant(w, a), red_constants(w, b)) for w, a, b in zip(ws, alphas, bseqs)]
    assert np.array_equal([[s, *c] for s, c in got], [[s, *c] for s, c in want])


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("depth, d", [(3, 2), (2, 1), (3, 3)])
def test_search_objective_member_matches_mixed_batch(objective, depth, d):
    # A lookahead batch: four restarts, four candidates each, at different
    # steps (step 0 is the start state itself).
    states, moves = _draw_stream(depth, d, 5, 1e4, 4, 30)
    rows = np.repeat(np.arange(4), 4)
    steps = np.array([0, 1, 2, 3, 7, 8, 9, 10, 14, 15, 16, 17, 26, 27, 28, 29])
    packed, views = _packed(tuple(a[rows] for a in states), objective)
    _apply_moves(packed, moves[rows, steps], 1 << depth, d)
    batch = [views[name] for name in _STATE]
    value, weight, ratio = _search_objective(*batch, objective, 1e4)
    assert (ratio is None) == (objective != "bet_norm_ratio")
    for b in range(len(rows)):
        one = _search_objective(*(a[b:b + 1] for a in batch), objective, 1e4)
        assert np.array_equal(one[0], value[b:b + 1])
        assert np.array_equal(one[1], weight[b:b + 1])
        if ratio is not None:
            assert np.array_equal(one[2], ratio[b:b + 1])


@pytest.mark.parametrize("cond_cap", [1e4, 1e8])
@pytest.mark.parametrize("depth, d", [(depth, d) for depth in range(5) for d in range(2, 5)])
def test_bet_norm_ratio_objective_is_its_closed_form(depth, d, cond_cap):
    # The search evaluates sum_Q alpha_Q / sqrt(lambda_min(<W>) <<W^-1> a, a>)
    # at the root; the reference forms f = W^1/2 b and g = W^-1/2 a and
    # takes the bilinear sum and the two norms through the public kernels
    rng = np.random.default_rng(1000 * depth + d)
    states = [_random_state(depth, d, cond_cap, rng) for _ in range(6)]
    log_eigs, angles, seq_weights = (np.stack(a) for a in zip(*states))
    value, w, _ = _search_objective(log_eigs, angles, seq_weights, "bet_norm_ratio", cond_cap)
    alpha = _state_sequences(seq_weights)
    positions = np.arange(tree_size(depth))
    want = [bilinear_bet_norm_ratio(StepField(wb), ScalarSequence.from_arrays(depth, positions, a))
            for wb, a in zip(w, alpha)]
    assert np.allclose(value, want, rtol=10 * np.finfo(float).eps * cond_cap, atol=0.0)


@pytest.mark.parametrize("cond_cap", [1e4, 1e8])
@pytest.mark.parametrize("depth, d", SHAPES)
def test_red_ratio_objective_is_its_matrix_form(depth, d, cond_cap):
    # The search evaluates max(c1, c3) of the matrix sequence alpha_Q I in
    # its scalar form (``red_ratio_batch``); the reference is max(c1, c2,
    # c3) of ``red_constants`` of that matrix sequence.  Measured: at most
    # 48 eps apart at cond_cap 1e4 and 2.5e3 eps at 1e8.
    rng = np.random.default_rng(2000 * depth + d)
    states = [_random_state(depth, d, cond_cap, rng) for _ in range(6)]
    log_eigs, angles, seq_weights = (np.stack(a) for a in zip(*states))
    value, w, _ = _search_objective(log_eigs, angles, seq_weights, "red_ratio", cond_cap)
    alpha = _state_sequences(seq_weights)
    positions = np.arange(tree_size(depth))
    want = [matrix_form_red_ratio(StepField(wb), ScalarSequence.from_arrays(depth, positions, a))
            for wb, a in zip(w, alpha)]
    assert np.allclose(value, want, rtol=10 * np.finfo(float).eps * cond_cap, atol=0.0)
