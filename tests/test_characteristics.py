import json

import numpy as np
import pytest

from carlab import characteristics, matrices
from carlab.characteristics import (
    MatrixSequence,
    ScalarSequence,
    a2_characteristic,
    c2_conditioning,
    carleson_equivalents,
    carleson_intensity,
    cube_supremum,
    level_powers,
    subtree_sums,
    wcet_testing_constant,
)
from carlab.constructions import epsilon_family, necessity_probe, random_instance
from carlab.dyadic import (
    DyadicIndex,
    ROOT,
    StepField,
    cubes,
    stepfield_from_json,
    stepfield_to_json,
)
from carlab.errors import AddressError, DimensionMismatchError, SingularMatrixError

from oracles import (
    brute_matrix_intensity,
    brute_matrix_sequence_entries,
    brute_scalar_a2,
    brute_scalar_intensity,
    brute_spd_power,
    brute_wcet_testing_constant,
)


def test_sequence_validation():
    with pytest.raises(DimensionMismatchError):
        ScalarSequence(2, {ROOT: -0.5})
    with pytest.raises(SingularMatrixError):
        MatrixSequence(2, 2, {ROOT: np.diag([1.0, -1.0])})
    # zero entries are dropped (sparse default-zero storage)
    assert len(ScalarSequence(2, {ROOT: 0.0})) == 0
    # one eigenvalue pass over all entries still names the first bad one
    entries = [
        ((1, 0), np.eye(2)),
        ((2, 3), np.diag([1.0, -0.5])),
        ((1, 1), np.diag([-2.0, 1.0])),
    ]
    with pytest.raises(SingularMatrixError, match="level=2, position=3") as err:
        MatrixSequence(2, 2, entries)
    assert err.value.lambda_min == -0.5


def test_matrix_sequence_matches_per_entry_oracle():
    # one stacked check keeps bitwise the entries the per-entry checks kept,
    # zero entries dropped, in entry order
    rng = np.random.default_rng(3)
    for d in (1, 2, 3, 4):
        order = list(cubes(4))
        rng.shuffle(order)
        entries = []
        for q in order[:12]:
            v = rng.standard_normal((d, 2))
            m = v @ v.T if rng.uniform() < 0.8 else np.zeros((d, d))
            entries.append((tuple(q), m))
        seq = MatrixSequence(4, d, entries)
        want = brute_matrix_sequence_entries(4, d, entries)
        assert list(seq.entries) == list(want)
        assert all(np.array_equal(seq.entries[q], want[q]) for q in want)
        scaled = seq.scaled(0.3)
        want = brute_matrix_sequence_entries(4, d, {q: m * 0.3 for q, m in want.items()})
        assert all(np.array_equal(scaled.entries[q], want[q]) for q in want)


@pytest.mark.parametrize("entries, error, match", [
    # shape first, then finiteness, then symmetry, then PSD; with two bad
    # entries, the later check's entry comes first in entry order
    ({(1, 0): np.diag([1.0, -1.0]), (2, 1): np.eye(3)},
     DimensionMismatchError, r"level=2, position=1\) has shape"),
    ({(1, 0): np.array([[1.0, 0.5], [0.0, 1.0]]), (2, 1): np.diag([np.nan, 1.0])},
     DimensionMismatchError, r"non-finite sequence entry at .*level=2, position=1"),
    ({(1, 0): np.diag([1.0, -1.0]), (2, 1): np.array([[1.0, 0.5], [0.0, 1.0]])},
     DimensionMismatchError, r"level=2, position=1\): matrix is not symmetric"),
    ({(2, 3): np.diag([1.0, -0.5]), (1, 1): np.diag([-2.0, 1.0])},
     SingularMatrixError, r"level=2, position=3\) is not PSD"),
    ({(1, 0): np.eye(2), (3, 0): np.eye(2)}, AddressError, "level 3"),
])
def test_matrix_sequence_error_order(entries, error, match):
    with pytest.raises(error, match=match):
        MatrixSequence(2, 2, entries)


def test_scalar_sequence_error_order():
    with pytest.raises(DimensionMismatchError, match=r"non-finite .*level=2, position=1"):
        ScalarSequence(2, {(1, 0): -1.0, (2, 1): np.nan})
    with pytest.raises(DimensionMismatchError, match=r"negative .*level=1, position=0"):
        ScalarSequence(2, {(1, 0): -1.0, (2, 1): -2.0, (2, 2): 1.0})


def test_scaled_checks_the_stack_again():
    # scaled() runs the stacked checks on the product: a non-finite or a
    # negative factor is refused, naming the first entry it spoils
    seq = MatrixSequence(2, 2, {(1, 1): np.eye(2), (2, 0): np.diag([0.5, 0.0])})
    with pytest.raises(DimensionMismatchError, match=r"non-finite .*level=1, position=1"):
        with np.errstate(invalid="ignore"):
            seq.scaled(np.inf)
    with pytest.raises(SingularMatrixError, match=r"level=1, position=1\) is not PSD"):
        seq.scaled(-1.0)
    alpha = ScalarSequence(2, {(1, 1): 1.0, (2, 0): 0.5})
    with pytest.raises(DimensionMismatchError, match="non-finite"):
        alpha.scaled(np.nan)
    assert alpha.scaled(0.0).entries == {} and len(seq.scaled(0.0)) == 0


def test_sequence_json_roundtrip():
    inst = epsilon_family(0.1, 0.3, depth=2)
    w = stepfield_from_json(json.loads(json.dumps(stepfield_to_json(inst.w))))
    np.testing.assert_allclose(w.values, np.asarray(inst.w.values, float), rtol=1e-15)
    seq = MatrixSequence.from_json(json.loads(json.dumps(inst.seq_inner.to_json())))
    np.testing.assert_allclose(
        seq.entries[ROOT], np.asarray(inst.seq_inner.entries[ROOT], float), rtol=1e-15
    )
    alpha = ScalarSequence.from_json(json.loads(json.dumps(inst.alpha.to_json())))
    assert alpha.get(ROOT) == 1.0


def _per_level_supremum(levels):
    best = -np.inf
    for k, lv in enumerate(levels):
        best = max(best, float(matrices.lambda_max_stack(lv).max()) * (1 << k))
    return best


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_tree_kernels_match_per_level_loops(d):
    # one solver call per tree must be bitwise one call per level
    for depth in range(7):
        inst = random_instance(depth, d, seed=10 * depth + d, cond_cap=1e4)
        wavg = inst.w.as_matrix().pyramid()
        for p in matrices.ALLOWED_POWERS:
            got = level_powers(wavg, p)
            assert len(got) == depth + 1
            for k, lv in enumerate(wavg):
                assert np.array_equal(got[k], brute_spd_power(lv, p))
        acc = subtree_sums(characteristics.testing_terms(wavg, inst.mseq))
        for levels in (wavg, acc):
            assert cube_supremum(levels) == _per_level_supremum(levels)


@pytest.mark.parametrize("d", [2, 3])
def test_level_powers_longdouble_matches_per_level_loop(d):
    for depth in range(5):
        w = random_instance(depth, d, seed=depth, cond_cap=1e4).w
        wavg = StepField(w.values.astype(np.longdouble)).pyramid()
        for p in (0.5, -0.5):
            got = level_powers(wavg, p)
            for k, lv in enumerate(wavg):
                assert got[k].dtype == np.longdouble
                assert np.array_equal(got[k], brute_spd_power(lv, p))


@pytest.mark.parametrize(
    "dtype, cube", [(np.float64, DyadicIndex(1, 0)), (np.longdouble, DyadicIndex(1, 0))]
)
def test_singular_pyramid_names_cube(dtype, cube):
    # singular averages at two levels: (1, 0) and (1, 1), then the most
    # singular one of the tree at (2, 3); both dtypes name the first in
    # tree order
    pyramid = [np.tile(np.eye(2), (1 << k, 1, 1)).astype(dtype) for k in range(4)]
    pyramid[1][0] = np.diag([1.0, 1e-13])
    pyramid[1][1] = np.diag([1.0, 1e-14])
    pyramid[2][3] = np.diag([1.0, 0.0])
    with pytest.raises(SingularMatrixError) as err:
        level_powers(pyramid, -0.5)
    assert err.value.cube == cube
    assert err.value.lambda_min == pytest.approx(1e-13, rel=1e-12)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_a2_names_first_singular_leaf(dtype):
    # leaves 1 and 3 are singular, 3 the more singular one
    leaves = np.stack([np.eye(2), np.diag([1.0, 1e-13]), np.eye(2), np.diag([1.0, 0.0])])
    with pytest.raises(SingularMatrixError) as err:
        a2_characteristic(StepField(leaves.astype(dtype)))
    assert err.value.cube == DyadicIndex(2, 1)
    assert err.value.lambda_min == pytest.approx(1e-13, rel=1e-12)


def test_intensity_identity_at_root():
    seq = MatrixSequence(3, 2, {ROOT: np.eye(2)})
    assert carleson_intensity(seq) == pytest.approx(1.0, abs=1e-14)


def test_intensity_empty():
    assert carleson_intensity(ScalarSequence(3)) == 0.0
    assert carleson_intensity(MatrixSequence(3, 2)) == 0.0


def test_intensity_measure_sequence_depth2():
    # alpha_Q = |Q| on the 7-cube tree: each K contributes one per level
    entries = {q: q.measure for q in cubes(2)}
    seq = ScalarSequence(2, entries)
    assert carleson_intensity(seq) == pytest.approx(3.0, abs=1e-14)
    assert brute_scalar_intensity(entries, 2) == pytest.approx(3.0, abs=1e-14)


def test_intensity_matches_brute_force():
    rng = np.random.default_rng(21)
    for depth in (2, 3, 4):
        entries = {}
        for q in cubes(depth):
            if rng.uniform() < 0.4:
                entries[q] = float(rng.uniform(0.0, 2.0))
        seq = ScalarSequence(depth, entries)
        assert carleson_intensity(seq) == pytest.approx(
            brute_scalar_intensity(entries, depth), rel=1e-12
        )
        mentries = {}
        for q in cubes(depth):
            if rng.uniform() < 0.4:
                v = rng.standard_normal(2)
                mentries[q] = np.outer(v, v)
        mseq = MatrixSequence(depth, 2, mentries)
        assert carleson_intensity(mseq) == pytest.approx(
            brute_matrix_intensity(mentries, depth, 2), rel=1e-12
        )


def test_scalar_embedding_matches_scalar_intensity():
    rng = np.random.default_rng(22)
    entries = {q: float(rng.uniform(0, 1)) for q in cubes(3) if rng.uniform() < 0.5}
    sseq = ScalarSequence(3, entries)
    mseq = MatrixSequence(3, 3, {q: v * np.eye(3) for q, v in entries.items()})
    assert carleson_intensity(mseq) == pytest.approx(carleson_intensity(sseq), rel=1e-14)


def test_carleson_equivalents_examples():
    assert carleson_equivalents(MatrixSequence(2, 2, {ROOT: np.eye(2)})) == (1.0, 2.0)
    proj = np.array([[1.0, 0.0], [0.0, 0.0]])
    op, tr = carleson_equivalents(MatrixSequence(2, 2, {ROOT: proj}))
    assert op == pytest.approx(1.0) and tr == pytest.approx(1.0)
    assert carleson_equivalents(MatrixSequence(2, 2)) == (0.0, 0.0)


def test_carleson_equivalents_chain():
    # matrix <= op <= trace <= d * matrix, with dimensional constants
    rng = np.random.default_rng(23)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        entries = {}
        for q in cubes(3):
            if rng.uniform() < 0.5:
                v = rng.standard_normal(d)
                entries[q] = np.outer(v, v)
        seq = MatrixSequence(3, d, entries)
        if not len(seq):
            continue
        mat = carleson_intensity(seq)
        op, tr = carleson_equivalents(seq)
        tol = 1e-10 * max(1.0, tr)
        assert mat <= op + tol
        assert op <= tr + tol
        assert tr <= d * mat + tol


def test_wcet_identity_weight_reduces_to_intensity():
    rng = np.random.default_rng(24)
    entries = {q: np.abs(rng.standard_normal()) * np.eye(2) for q in cubes(3) if rng.uniform() < 0.5}
    seq = MatrixSequence(3, 2, entries)
    w = StepField.constant(3, np.eye(2))
    assert wcet_testing_constant(w, seq) == pytest.approx(carleson_intensity(seq), rel=1e-10)


def test_wcet_constant_weight_family():
    inst = epsilon_family(0.1, 0.0, depth=3)
    # constant weight commutes: sandwich collapses to <W> with lambda_max 1
    assert wcet_testing_constant(inst.w, inst.seq_norm) == pytest.approx(1.0, abs=1e-12)


def test_wcet_zero_sequence():
    w = StepField.constant(2, np.eye(2))
    assert wcet_testing_constant(w, MatrixSequence(2, 2)) == 0.0


def test_wcet_scalar_sequence_matches_identity_embedding():
    inst = random_instance(4, 2, seed=3, cond_cap=1e3)
    embedded = MatrixSequence(4, 2, {q: v * np.eye(2) for q, v in inst.sseq.items()})
    assert wcet_testing_constant(inst.w, inst.sseq) == pytest.approx(
        wcet_testing_constant(inst.w, embedded), rel=1e-12
    )


@pytest.mark.parametrize("depth", range(7))
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_wcet_matches_brute_oracle(depth, d):
    inst = random_instance(depth, d, seed=11 * depth + d, cond_cap=1e4)
    for seq in (inst.mseq, inst.sseq):
        got = wcet_testing_constant(inst.w, seq)
        want = brute_wcet_testing_constant(inst.w.values, dict(seq.items()), depth)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_wcet_singular_average_names_cube():
    # the leaves of the left half share a null direction, so does their average
    leaves = np.array([np.diag([1.0, 0.0])] * 2 + [np.eye(2)] * 2)
    seq = ScalarSequence(2, {ROOT: 1.0})
    with pytest.raises(SingularMatrixError) as err:
        wcet_testing_constant(StepField(leaves), seq)
    assert isinstance(err.value.cube, DyadicIndex)
    assert err.value.cube == DyadicIndex(1, 0)


def test_a2_constant_weight_is_one():
    inst = epsilon_family(0.01, 0.3, depth=3)
    assert a2_characteristic(inst.w) == pytest.approx(1.0, abs=1e-12)
    w = StepField.constant(2, np.array([[3.0, 1.0], [1.0, 2.0]]))
    assert a2_characteristic(w) == pytest.approx(1.0, abs=1e-12)


def test_a2_scalar_matches_classical_formula():
    # d = 1, leaves (1, 3): <w> <w^-1> at the root = 2 * (2/3) = 4/3
    w = StepField(np.array([1.0, 3.0]))
    assert a2_characteristic(w) == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert brute_scalar_a2([1.0, 3.0]) == pytest.approx(4.0 / 3.0)


def test_a2_scalar_matches_brute_force_random():
    rng = np.random.default_rng(25)
    for depth in (2, 3, 4):
        leaves = rng.uniform(0.2, 5.0, size=1 << depth)
        w = StepField(leaves)
        assert a2_characteristic(w) == pytest.approx(
            brute_scalar_a2(list(leaves)), rel=1e-10
        )


def test_a2_at_least_one():
    for seed in range(8):
        inst = random_instance(3, 3, seed=seed, cond_cap=1e4)
        assert a2_characteristic(inst.w) >= 1.0 - 1e-12
        assert c2_conditioning(inst.w) >= 1.0 - 1e-12


def test_c2_examples():
    inst = epsilon_family(0.1, 0.0, depth=2)
    assert c2_conditioning(inst.w) == pytest.approx(100.0, rel=1e-12)
    assert c2_conditioning(StepField.constant(2, np.eye(3))) == pytest.approx(1.0)


def test_c2_is_pointwise_condition_number():
    # per the definition, kappa is evaluated pointwise before the sup:
    # a scalar weight (each leaf a 1x1 matrix) always has c2 = 1
    w = StepField(np.array([1.0, 3.0]))
    assert c2_conditioning(w) == pytest.approx(1.0)
    # two leaves with different eccentricity: sup of the per-leaf ratios
    leaves = np.stack([np.diag([1.0, 0.5]), np.diag([4.0, 0.1])])
    assert c2_conditioning(StepField(leaves)) == pytest.approx(40.0, rel=1e-12)


def test_c2_rejects_singular_leaf():
    leaves = np.stack([np.eye(2), np.diag([1.0, 0.0])])
    with pytest.raises(SingularMatrixError):
        c2_conditioning(StepField(leaves))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_c2_names_first_non_spd_leaf_as_the_powers_do(dtype):
    # leaf 1 is the first leaf that is not SPD, leaf 3 the most singular
    bad, worse = np.diag([1.0, -0.1]), np.diag([1.0, -1.0])
    w = StepField(np.stack([np.eye(2), bad, np.eye(2), worse]).astype(dtype))
    with pytest.raises(SingularMatrixError) as c2:
        c2_conditioning(w)
    with pytest.raises(SingularMatrixError) as power:
        w.power(-1.0)
    assert c2.value.cube == power.value.cube == DyadicIndex(2, 1)
    assert c2.value.lambda_min == pytest.approx(-0.1, rel=1e-12)
    # in a batch, member by member: member 0's leaf 3 comes before member
    # 1's more singular leaf 0
    batch = np.stack([[np.eye(2)] * 3 + [bad], [worse] + [np.eye(2)] * 3]).astype(dtype)
    with pytest.raises(SingularMatrixError) as info:
        characteristics.c2_conditioning_batch(batch)
    assert info.value.cube == DyadicIndex(2, 3)
    assert info.value.lambda_min == pytest.approx(-0.1, rel=1e-12)


def test_necessity_identity_sampled():
    rng = np.random.default_rng(26)
    for seed in range(10):
        inst = random_instance(4, 2, seed=seed, cond_cap=1e4)
        testing = wcet_testing_constant(inst.w, inst.mseq)
        sampled = 0.0
        for q in cubes(4):
            for _ in range(10):
                e = rng.standard_normal(2)
                e /= np.linalg.norm(e)
                sampled = max(sampled, necessity_probe(inst.w, inst.mseq, q, e))
        assert sampled <= testing + 1e-9
