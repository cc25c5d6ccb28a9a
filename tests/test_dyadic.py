import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlab.dyadic import (
    DyadicIndex,
    ROOT,
    StepField,
    average,
    cubes,
    descendants,
    integral,
    stepfield_from_json,
    stepfield_to_json,
    tree_size,
)
from carlab import matrices
from carlab.constructions import random_weight_field
from carlab.errors import AddressError, DimensionMismatchError, SingularMatrixError

from oracles import brute_average, brute_spd_power


def test_root_and_children():
    assert ROOT == DyadicIndex(0, 0)
    q = DyadicIndex(2, 3)
    assert q.left == DyadicIndex(3, 6)
    assert q.right == DyadicIndex(3, 7)
    assert q.parent == DyadicIndex(1, 1)
    assert q.measure == 0.25


def test_root_has_no_parent():
    with pytest.raises(AddressError):
        ROOT.parent


def test_tree_enumeration_count():
    for depth in range(5):
        assert len(list(cubes(depth))) == tree_size(depth)
    # D(K) for K at level 1 of a depth-3 tree: 2^(3-1+1) - 1 = 7
    assert len(list(descendants(DyadicIndex(1, 0), 3))) == tree_size(3, 1) == 7


def test_contains():
    k = DyadicIndex(1, 1)
    assert k.contains(DyadicIndex(3, 4))
    assert not k.contains(DyadicIndex(3, 3))
    assert k.contains(k)


def test_average_two_leaves():
    f = StepField(np.array([1.0, 3.0]))
    assert average(f, ROOT) == 2.0


def test_average_constant_matrix_field():
    w0 = np.array([[2.0, 1.0], [1.0, 2.0]])
    w = StepField.constant(3, w0)
    for q in cubes(3):
        np.testing.assert_array_equal(average(w, q), w0)


def test_average_right_child_depth2():
    # direct summation oracle: (4 + 8) / 2 = 6
    f = StepField(np.array([1.0, 2.0, 4.0, 8.0]))
    assert average(f, DyadicIndex(1, 1)) == brute_average(f.values, 1, 1, 2) == 6.0


def test_integral_examples():
    f = StepField(np.array([1.0, 3.0]))
    assert integral(f, ROOT) == 2.0
    assert integral(f, DyadicIndex(1, 0)) == 0.5  # 1 * |Q| = 1/2
    zero = StepField(np.zeros(4))
    for q in cubes(2):
        assert integral(zero, q) == 0.0


def test_average_out_of_range():
    f = StepField(np.ones(4))
    with pytest.raises(AddressError):
        average(f, DyadicIndex(3, 0))
    with pytest.raises(AddressError):
        average(f, DyadicIndex(1, 2))


def test_leaf_count_must_be_power_of_two():
    with pytest.raises(DimensionMismatchError):
        StepField(np.ones(3))


@st.composite
def scalar_fields(draw):
    depth = draw(st.integers(min_value=1, max_value=6))
    vals = draw(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1 << depth,
            max_size=1 << depth,
        )
    )
    return StepField(np.array(vals))


@given(scalar_fields())
@settings(max_examples=60, deadline=None)
def test_martingale_property(f):
    for q in cubes(f.depth - 1):
        parent = average(f, q)
        halves = 0.5 * (average(f, q.left) + average(f, q.right))
        assert abs(parent - halves) <= 1e-12 * max(1.0, abs(parent))


@given(scalar_fields())
@settings(max_examples=60, deadline=None)
def test_integral_additivity(f):
    for q in cubes(f.depth - 1):
        whole = integral(f, q)
        split = integral(f, q.left) + integral(f, q.right)
        assert abs(whole - split) <= 1e-12 * max(1.0, abs(whole))


def _assert_average_linear(f, g):
    h = StepField(2.5 * f.values - 0.5 * g.values)
    f_abs, g_abs = StepField(np.abs(f.values)), StepField(np.abs(g.values))
    for q in cubes(f.depth):
        lhs = average(h, q)
        rhs = 2.5 * average(f, q) - 0.5 * average(g, q)
        # Rounding scales with the operands, not with the (possibly cancelled) result.
        scale = 2.5 * average(f_abs, q) + 0.5 * average(g_abs, q)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, scale)


@given(scalar_fields(), scalar_fields())
@settings(max_examples=40, deadline=None)
def test_average_linearity(f, g):
    if f.depth != g.depth:
        return
    _assert_average_linear(f, g)


def test_average_linearity_under_cancellation():
    # 2.5 f - 0.5 g nearly cancels while the leaves reach 1e6
    rng = np.random.default_rng(0)
    f = rng.uniform(-1e6, 1e6, 64)
    g = 5.0 * f + rng.uniform(-1e-3, 1e-3, 64)
    _assert_average_linear(StepField(f), StepField(g))


def test_pyramid_matches_brute_average():
    rng = np.random.default_rng(5)
    f = StepField(rng.standard_normal((8, 3)))
    for q in cubes(3):
        np.testing.assert_allclose(
            average(f, q), brute_average(f.values, q.level, q.position, 3), rtol=1e-13
        )


def test_refine_preserves_averages():
    rng = np.random.default_rng(6)
    f = StepField(rng.standard_normal(8))
    g = f.refine(6)
    for q in cubes(3):
        assert abs(average(f, q) - average(g, q)) <= 1e-14


def test_depth_twelve():
    # the deepest supported tree: 2^13 - 1 cubes
    rng = np.random.default_rng(13)
    f = StepField(rng.standard_normal(1 << 12))
    assert f.depth == 12
    assert tree_size(12) == 8191
    deep = DyadicIndex(12, 4095)
    assert average(f, deep) == f.values[4095]
    assert abs(average(f, ROOT) - f.values.mean()) <= 1e-12


@pytest.mark.parametrize("shape", [(4,), (4, 2), (4, 2, 2)])
def test_json_roundtrip(shape):
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(shape)
    if len(shape) == 3:
        vals = (vals + vals.transpose(0, 2, 1)) / 2
    f = StepField(vals)
    blob = json.dumps(stepfield_to_json(f))
    g = stepfield_from_json(json.loads(blob))
    assert g.depth == f.depth and g.kind == f.kind and g.d == f.d
    np.testing.assert_array_equal(g.values, np.asarray(f.values, dtype=float))


def test_json_schema_fields():
    f = StepField(np.eye(2)[None].repeat(2, axis=0))
    obj = stepfield_to_json(f)
    assert obj["depth"] == 1 and obj["d"] == 2
    assert obj["values"] == [[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]]  # row-major


def test_json_kind_inference_without_kind_key():
    obj = {"depth": 1, "d": 2, "values": [[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0]]}
    f = stepfield_from_json(obj)
    assert f.kind == "matrix"
    obj = {"depth": 1, "d": 1, "values": [1.0, 2.0]}
    assert stepfield_from_json(obj).kind == "scalar"


def test_weight_power_cache_and_identity():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((4, 3, 3))
    leaves = np.einsum("kij,klj->kil", m, m) + 3 * np.eye(3)
    w = StepField(leaves)
    assert w.power(0.5) is w.power(0.5)
    sq = np.einsum("kij,kjl->kil", w.power(0.5).values, w.power(0.5).values)
    np.testing.assert_allclose(sq, leaves, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_power_names_first_refused_leaf(dtype):
    # leaves 1 and 3 are refused, 3 the worse one; the square root refuses
    # the indefinite leaves instead of clipping them
    eye = np.eye(2)
    singular = np.stack([eye, np.diag([1.0, 1e-13]), eye, np.diag([1.0, 0.0])])
    indefinite = np.stack([eye, np.diag([1.0, -0.5]), eye, np.diag([1.0, -1.0])])
    for leaves, powers in ((singular, (-0.5, -1.0)), (indefinite, (0.5, -0.5, -1.0))):
        w = StepField(leaves.astype(dtype))
        for p in powers:
            with pytest.raises(SingularMatrixError) as err:
                w.power(p)
            assert err.value.cube == DyadicIndex(2, 1)
            assert err.value.lambda_min == pytest.approx(leaves[1][1, 1], rel=1e-12)
    assert StepField(singular.astype(dtype)).power(0.5).values[3, 1, 1] == 0.0


def test_stepfield_refuses_non_finite_values():
    for values in (np.array([1.0, np.nan]), np.array([[0.0, 1.0], [np.inf, 0.0]]),
                   np.stack([np.eye(2), np.eye(2), np.diag([1.0, -np.inf]), np.eye(2)])):
        with pytest.raises(DimensionMismatchError, match="non-finite field value"):
            StepField(values)
    bad = np.stack([np.eye(2)] * 4)
    bad[2, 0, 0] = bad[3, 1, 1] = np.nan
    with pytest.raises(DimensionMismatchError, match=r"level=2, position=2"):
        StepField(bad)
    obj = stepfield_to_json(StepField(np.ones(4)))
    obj["values"][1] = float("inf")
    with pytest.raises(DimensionMismatchError, match=r"level=2, position=1"):
        stepfield_from_json(obj)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_power_decomposes_the_leaves_once(monkeypatch, dtype):
    # every power of a field comes from one eigendecomposition of its leaves,
    # and each is bitwise the power of each leaf decomposed on its own
    w = StepField(random_weight_field(3, 3, np.random.default_rng(5)).values.astype(dtype))
    real = matrices.eigh_sym
    calls = []
    monkeypatch.setattr(matrices, "eigh_sym", lambda m: calls.append(len(m)) or real(m))
    for p in (0.5, -1.0, -0.5, 0.5):
        assert np.array_equal(w.power(p).values, brute_spd_power(w.values, p))
    assert w.inverse() is w.power(-1.0)
    assert calls == [8]
