"""The flat tree-order kernels against the level-list loops they replaced.

Every cube-indexed array is flat in tree order, cube (k, p) at index
2^k - 1 + p; ``tests/oracles.py`` keeps the loops over per-level arrays
(2^k, ...) that ran before, and each flat kernel must match them with
``np.array_equal``, member by member of a batch of three, for scalar and
matrix data in float64 and longdouble.
"""

import numpy as np
import pytest

from carlab import characteristics
from carlab.characteristics import (
    MatrixSequence, ScalarSequence, cube_supremum_batch, subtree_sums_batch,
)
from carlab.constructions import (
    random_instance, random_matrix_sequence, random_scalar_sequence, random_weight_field,
)
from carlab.dyadic import (
    StepField, average, cubes, descendants, level_slice, pyramid_batch, subtree_positions,
    tree_ancestor, tree_cube, tree_level, tree_position, tree_size,
)
from carlab.embeddings import maximal_function

from oracles import (
    enum_descendants,
    loop_cube_supremum,
    loop_maximal_function,
    loop_pyramid,
    loop_subtree_sums,
    loop_testing_terms,
    split_levels,
)

DTYPES = [np.float64, np.longdouble]
KINDS = ["scalar", "vector", "matrix"]
DEPTHS = range(7)


def _leaves(kind, depth, d, rng, dtype, batch=3):
    """A batch of leaf arrays (B, 2^depth[, d[, d]]); matrix leaves are SPD."""
    n = 1 << depth
    if kind == "matrix":
        return np.stack([random_weight_field(depth, d, rng, cond_cap=1e3).values
                         for _ in range(batch)]).astype(dtype)
    shape = (batch, n) if kind == "scalar" else (batch, n, d)
    return rng.standard_normal(shape).astype(dtype)


def _assert_levels_equal(flat, levels):
    assert len(split_levels(flat)) == len(levels)
    for got, want in zip(split_levels(flat), levels):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_tree_index_arithmetic_matches_the_cubes():
    for depth in range(6):
        index = np.arange(tree_size(depth))
        assert [tree_position(q) for q in cubes(depth)] == index.tolist()
        assert [tree_cube(i) for i in index.tolist()] == list(cubes(depth))
        assert tree_level(index).tolist() == [q.level for q in cubes(depth)]
        for k in range(depth + 1):
            assert [tree_cube(i).level for i in index[level_slice(k)].tolist()] == [k] * (1 << k)
        for q in cubes(depth):
            for up in range(depth + 1):
                want = tree_position(q.ancestor(q.level - up)) if up <= q.level else -1
                assert tree_ancestor(tree_position(q), up) == want
        ups = np.arange(depth + 1)
        assert np.array_equal(tree_ancestor(index[:, None], ups),
                              [[tree_ancestor(int(i), int(u)) for u in ups] for i in index])


def test_subtree_positions_are_the_descendants():
    for depth in DEPTHS:
        for q in cubes(depth):
            want = enum_descendants(*q, depth)
            assert [tree_cube(i) for i in subtree_positions(q, depth).tolist()] == want
            assert list(descendants(q, depth)) == want


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kind", KINDS)
def test_pyramid_batch_is_the_halving_loop(kind, dtype):
    rng = np.random.default_rng(1)
    for depth in DEPTHS:
        values = _leaves(kind, depth, 3, rng, dtype)
        got = pyramid_batch(values)
        assert got.shape == (3, tree_size(depth), *values.shape[2:])
        for b in range(3):
            want = loop_pyramid(values[b])
            _assert_levels_equal(got[b], want)
            field = StepField(values[b])
            _assert_levels_equal(field.pyramid(), loop_pyramid(field.values))
            assert not field.pyramid().flags.writeable
            for q in cubes(depth):
                want_q = want[q.level][q.position]
                want_q = float(want_q) if kind == "scalar" else want_q
                assert np.array_equal(average(field, q), want_q)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kind", ["scalar", "matrix"])
def test_subtree_sums_batch_is_the_level_loop(kind, dtype):
    rng = np.random.default_rng(2)
    for depth in DEPTHS:
        terms = pyramid_batch(_leaves(kind, depth + 1, 2, rng, dtype))[:, :tree_size(depth)]
        got = subtree_sums_batch(terms)
        for b in range(3):
            _assert_levels_equal(got[b], loop_subtree_sums(split_levels(terms[b])))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("d", [2, 3])
def test_cube_supremum_passes_over_a_nan_matrix_level(d, dtype):
    # level 1 holds a NaN member that LAPACK read as lambda_max 0 (d = 2)
    # or failed on (d = 3), next to a member of lambda_max 10: the level is
    # passed over, so the supremum is the root's 1, touched or not
    nan_member = np.diag([np.nan, 1.0] if d == 2 else [0.0, np.nan, 0.0])
    flat = np.stack([np.diag([1.0] + [0.0] * (d - 1)), nan_member,
                     np.diag([10.0] + [0.0] * (d - 1))])[None].astype(dtype)
    for touched in (None, np.ones((1, 3), dtype=bool)):
        assert cube_supremum_batch(flat, touched)[0] == 1.0


@pytest.mark.parametrize("touched", [False, True])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kind", ["scalar", "matrix"])
def test_cube_supremum_batch_is_the_level_loop(kind, dtype, touched):
    rng = np.random.default_rng(3)
    for depth in DEPTHS:
        flat = subtree_sums_batch(pyramid_batch(_leaves(kind, depth + 1, 3, rng, dtype)))
        flat = flat[:, :tree_size(depth)]
        if kind == "scalar":
            flat = np.abs(flat)
            flat[1, level_slice(depth // 2)][0] = np.nan  # member 1 skips one level
        # a mask over a deeper tree, cut to this one's cubes; member 2
        # touches none of its cubes
        mask = rng.random((3, tree_size(depth + 1))) < 0.5 if touched else None
        if touched:
            mask[2] = False
        got = cube_supremum_batch(flat, mask)
        assert got.dtype == np.float64
        for b in range(3):
            keep = None if mask is None else split_levels(mask[b, :tree_size(depth)])
            assert got[b] == loop_cube_supremum(split_levels(flat[b]), keep)
        if touched:
            assert got[2] == -np.inf
        elif kind == "scalar":
            # the one level of a depth-0 tree is NaN, and nothing is left
            assert np.isnan(flat[1]).any() and np.isfinite(got[1]) == (depth > 0)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("d", [1, 3])
def test_testing_terms_is_the_level_loop(d, dtype):
    rng = np.random.default_rng(4)
    for depth in DEPTHS:
        w = StepField(random_weight_field(depth, d, rng).values.astype(dtype))
        for seq in (random_matrix_sequence(depth, d, rng), random_scalar_sequence(depth, rng),
                    ScalarSequence(depth), MatrixSequence(depth, d)):
            got = characteristics.testing_terms(w.pyramid(), seq)
            _assert_levels_equal(got, loop_testing_terms(loop_pyramid(w.values), seq))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_maximal_function_is_the_level_loop(d):
    for depth in range(9):
        inst = random_instance(depth, d, seed=17 * depth + d, cond_cap=1e4)
        for w in (inst.w, StepField(inst.w.values.astype(np.longdouble))):
            got = maximal_function(w, inst.f).values
            assert np.array_equal(got, loop_maximal_function(w, inst.f))
