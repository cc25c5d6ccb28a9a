"""Batch cores against their single-tree forms, member by member.

Every single-tree kernel is the batch of one of its core, so these tests
check that a member's result does not depend on the batch around it: a
mixed batch must give, with ``np.array_equal``, what the single-tree
calls give.  The members of a batch share (depth, d) but differ in weight,
fields and support, and one of them carries a root-only sequence.  The
search objective is held to the same rule: the search's lookahead batches
mix restarts at different steps.
"""

import numpy as np
import pytest

from carlab import matrices
from carlab.characteristics import (
    MatrixSequence,
    ScalarSequence,
    cube_supremum,
    cube_supremum_batch,
    level_powers,
    level_powers_batch,
    subtree_sums,
    subtree_sums_batch,
    tree_eigh_batch,
)
from carlab.constructions import (
    random_matrix_sequence,
    random_scalar_sequence,
    random_vector_field,
    random_weight_field,
)
from carlab.dyadic import ROOT, DyadicIndex, StepField, tree_levels_batch, tree_position
from carlab.embeddings import bet_norm_sum, bet_norm_sum_batch, halfweighted_pyramid_batch
from carlab.redundancy import (
    red_constants,
    red_constants_batch,
    sred_constant,
    sred_constant_batch,
)
from carlab.search import OBJECTIVES, _apply_moves, _draw_stream, _search_objective

SHAPES = [(depth, d) for depth in range(5) for d in range(1, 5)]


def _stack(levels_per_member):
    """Per-member lists of levels -> one list of batched levels."""
    return [np.stack(level) for level in zip(*levels_per_member)]


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
    return _stack([w.pyramid() for w in ws]), _stack([w.inverse().pyramid() for w in ws])


def _tree_powers(ws, pw, pv):
    """The cores' inputs: the power ``pw`` of every cube average of W and
    the power ``pv`` of every cube average of W^-1, for a batch."""
    return tuple(level_powers_batch(tree_eigh_batch(pyramids), p)
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


@pytest.mark.parametrize("matrix", [False, True])
@pytest.mark.parametrize("depth, d", SHAPES)
def test_bet_norm_sum_batch_matches_single_trees(depth, d, matrix):
    rng = np.random.default_rng(300 * depth + d)
    ws = _weights(depth, d, rng)
    seqs = _matrix_sequences(depth, d, rng) if matrix else _scalar_sequences(depth, rng)
    fs = [random_vector_field(depth, d, rng) for _ in ws]
    gs = [random_vector_field(depth, d, rng) for _ in ws]
    havg = halfweighted_pyramid_batch(
        np.stack([w.power(0.5).values for w in ws]), np.stack([f.values for f in fs]))
    gavg = halfweighted_pyramid_batch(
        np.stack([w.power(-0.5).values for w in ws]), np.stack([g.values for g in gs]))
    n_cubes = (2 << depth) - 1
    support = np.array([b * n_cubes + tree_position(q)
                        for b, s in enumerate(seqs) for q in s.entries])
    entries = np.array([v for s in seqs for v in s.entries.values()])
    on_support = [np.concatenate(p, axis=1).reshape(-1, d, d)[support] for p in _pyramids(ws)]
    weig, veig = (tuple(matrices.eigh_sym(m)) for m in on_support)
    got = bet_norm_sum_batch(weig, veig, havg, gavg, support, entries,
                             [len(s) for s in seqs])
    want = [bet_norm_sum(w, s, f, g) for w, s, f, g in zip(ws, seqs, fs, gs)]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("depth, d", SHAPES)
def test_level_powers_and_cube_supremum_batch_match_single_trees(depth, d, dtype):
    rng = np.random.default_rng(400 * depth + d)
    ws = _weights(depth, d, rng, dtype=dtype)
    pyramids = [w.pyramid() for w in ws]
    for p in (0.5, -0.5, -1.0):
        got = tree_levels_batch(level_powers_batch(tree_eigh_batch(_stack(pyramids)), p))
        for b, pyramid in enumerate(pyramids):
            for lv_got, lv_want in zip(got, level_powers(pyramid, p)):
                assert lv_got.dtype == dtype
                assert np.array_equal(lv_got[b], lv_want)
    seqs = _scalar_sequences(depth, rng)
    for levels in (
        pyramids,
        [s.dense_levels(dtype=dtype) for s in seqs],
        [subtree_sums(s.dense_levels(dtype=dtype)) for s in seqs],
    ):
        got = cube_supremum_batch(_stack(levels))
        assert np.array_equal(got, [cube_supremum(lv) for lv in levels])
    got = subtree_sums_batch(_stack(pyramids))
    for b, pyramid in enumerate(pyramids):
        for lv_got, lv_want in zip(got, subtree_sums(pyramid)):
            assert np.array_equal(lv_got[b], lv_want)


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("depth, d", [(3, 2), (2, 1), (3, 3)])
def test_search_objective_member_matches_mixed_batch(objective, depth, d):
    # A lookahead batch: four restarts, four candidates each, at different
    # steps (step 0 is the start state itself).
    states, moves = _draw_stream(depth, d, 5, 1e4, 4, 30)
    rows = np.repeat(np.arange(4), 4)
    steps = np.array([0, 1, 2, 3, 7, 8, 9, 10, 14, 15, 16, 17, 26, 27, 28, 29])
    batch = _apply_moves(states, rows, moves[rows, steps])
    value, weight, ratio = _search_objective(*batch, objective, 1e4)
    assert (ratio is None) == (objective != "bet_norm_ratio")
    for b in range(len(rows)):
        one = _search_objective(*(a[b:b + 1] for a in batch), objective, 1e4)
        assert np.array_equal(one[0], value[b:b + 1])
        assert np.array_equal(one[1], weight[b:b + 1])
        if ratio is not None:
            assert np.array_equal(one[2], ratio[b:b + 1])
