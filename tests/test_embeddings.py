import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carlab.characteristics import (
    MatrixSequence,
    ScalarSequence,
    c2_conditioning,
    carleson_intensity,
)
from carlab.constructions import epsilon_family, random_instance
from carlab.dyadic import DyadicIndex, ROOT, StepField, average, cubes, integral
from carlab.embeddings import (
    _halfweighted_averages,
    bet_cube_functional,
    bet_inner_sum,
    bet_norm_sum,
    cet_sum,
    choquet_integral,
    maximal_function,
    phi_product,
    weighted_l2_norm,
)
from carlab import baselines, matrices
from carlab.errors import SingularMatrixError
from carlab.matrices import operator_norm_stack

from oracles import loop_cet_sum, random_orthogonal, refine, unique_choquet_level_form

from oracles import brute_bet_vectors, loop_pyramid, rank_one_inner_value, split_levels


E1 = np.array([1.0, 0.0])


def test_weighted_norm_family_values():
    inst = epsilon_family(0.1, 0.0, depth=2)
    assert weighted_l2_norm(inst.f) == pytest.approx(0.1, rel=1e-12)
    assert weighted_l2_norm(inst.g) == pytest.approx(1.0, rel=1e-12)


def test_weighted_norm_identity_weight():
    f = StepField.constant(2, E1)
    assert weighted_l2_norm(f) == pytest.approx(1.0)
    w = StepField.constant(2, np.eye(2))
    assert weighted_l2_norm(f, w) == pytest.approx(1.0)


def test_weighted_norm_is_weighted():
    f = StepField.constant(1, E1)
    w = StepField.constant(1, np.diag([4.0, 1.0]))
    assert weighted_l2_norm(f, w) == pytest.approx(2.0)


def test_cet_sum_examples():
    w = StepField.constant(2, np.eye(2))
    f = StepField.constant(2, E1)
    seq = MatrixSequence(2, 2, {ROOT: np.eye(2)})
    assert cet_sum(w, seq, f) == pytest.approx(1.0)
    assert cet_sum(w, MatrixSequence(2, 2), f) == 0.0
    # family: <W^1/2 f> = W b, value |W b|^2 = eps^4
    inst = epsilon_family(0.1, 0.0, depth=2)
    assert cet_sum(inst.w, inst.seq_norm, inst.f) == pytest.approx(1e-4, rel=1e-10)


def test_bet_norm_sum_family_is_one_for_every_eps():
    for eps in (1.0, 0.3, 1e-2, 1e-4):
        inst = epsilon_family(eps, 0.0, depth=2)
        assert bet_norm_sum(inst.w, inst.seq_norm, inst.f, inst.g) == pytest.approx(
            1.0, abs=1e-11
        )


def test_bet_norm_sum_identity_data():
    w = StepField.constant(2, np.eye(2))
    f = StepField.constant(2, E1)
    seq = MatrixSequence(2, 2, {ROOT: np.eye(2)})
    assert bet_norm_sum(w, seq, f, f) == pytest.approx(1.0)
    assert bet_norm_sum(w, MatrixSequence(2, 2), f, f) == 0.0


def test_bet_inner_sum_examples():
    inst = epsilon_family(0.1, 0.0, depth=2)
    # rank-one expansion oracle gives exactly 1/2
    expected = rank_one_inner_value(np.asarray(inst.a, float), np.asarray(inst.b, float))
    assert expected == pytest.approx(0.5)
    assert bet_inner_sum(inst.w, inst.seq_inner, inst.f, inst.g) == pytest.approx(
        expected, abs=1e-12
    )
    # identity sequence pairs orthogonal vectors: zero
    assert bet_inner_sum(inst.w, inst.seq_norm, inst.f, inst.g) == pytest.approx(
        0.0, abs=1e-12
    )
    w = StepField.constant(2, np.eye(2))
    f = StepField.constant(2, E1)
    assert bet_inner_sum(w, MatrixSequence(2, 2, {ROOT: np.eye(2)}), f, f) == pytest.approx(1.0)


def test_bet_scalar_sequence_specialization():
    # alpha_Q * identity and the scalar sequence give the same sums
    inst = random_instance(4, 3, seed=1, cond_cap=1e3)
    embedded = MatrixSequence(4, 3, {q: v * np.eye(3) for q, v in inst.sseq.items()})
    assert bet_inner_sum(inst.w, inst.sseq, inst.f, inst.g) == pytest.approx(
        bet_inner_sum(inst.w, embedded, inst.f, inst.g), rel=1e-10
    )
    assert bet_norm_sum(inst.w, inst.sseq, inst.f, inst.g) == pytest.approx(
        bet_norm_sum(inst.w, embedded, inst.f, inst.g), rel=1e-10
    )


def _brute_bet_sums(w, seq, f, g):
    """(norm-form, inner-product) sums from the per-cube oracle, in support order."""
    uv = brute_bet_vectors(
        loop_pyramid(w.values), loop_pyramid(w.inverse().values),
        split_levels(_halfweighted_averages(w, f, +1)),
        split_levels(_halfweighted_averages(w, g, -1)),
        list(seq.entries),
    )
    norm = inner = 0.0
    for a, (u, v) in zip(seq.entries.values(), uv):
        if isinstance(seq, MatrixSequence):
            norm += np.sqrt(max(float(u @ (a @ u)), 0.0)) * np.sqrt(max(float(v @ (a @ v)), 0.0))
            inner += abs(float((a @ u) @ v))
        else:
            norm += a * float(np.sqrt((u @ u) * (v @ v)))
            inner += a * abs(float(u @ v))
    return float(norm), float(inner)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_bet_sums_match_per_cube_oracle(d):
    # one stacked solve per side must be bitwise one solve per cube
    for depth in range(7):
        inst = random_instance(depth, d, seed=100 + 10 * depth + d, cond_cap=1e4)
        w, f, g = inst.w.as_matrix(), inst.f.as_vector(), inst.g.as_vector()
        for seq in (inst.sseq, inst.mseq):
            norm, inner = _brute_bet_sums(w, seq, f, g)
            assert bet_norm_sum(w, seq, f, g) == norm
            assert bet_inner_sum(w, seq, f, g) == inner


def test_bet_sums_share_the_fields_cube_decompositions():
    # on one longdouble weight the bilinear sums read the eigendecompositions
    # of <W>_Q and <W^-1>_Q from the fields' caches: once bet_norm_sum has
    # filled them, bet_inner_sum and bet_cube_functional solve nothing, and
    # each value is bitwise the one a fresh weight gives
    inst = random_instance(4, 2, seed=3, cond_cap=1e4)
    w, f, g = (StepField(x.values.astype(np.longdouble)) for x in (inst.w, inst.f, inst.g))
    calls = [(bet_norm_sum, inst.mseq), (bet_inner_sum, inst.mseq), (bet_inner_sum, inst.sseq)]
    want = [fn(StepField(w.values), seq, f, g) for fn, seq in calls]
    want_functional = bet_cube_functional(StepField(w.values), f, g)
    before = matrices.TALLY["jacobi_calls"]
    assert bet_norm_sum(w, inst.mseq, f, g) == want[0]
    assert matrices.TALLY["jacobi_calls"] > before
    before = matrices.TALLY.copy()
    assert [fn(w, seq, f, g) for fn, seq in calls[1:]] == want[1:]
    assert bet_cube_functional(w, f, g) == want_functional
    assert matrices.TALLY["jacobi_calls"] == before["jacobi_calls"]


def test_bet_sum_singular_average_names_first_support_cube():
    # <W^-1> has lambda_min 5e-13 on the leaves (2, 0), (2, 1) and on (1, 0)
    leaves = np.array([np.diag([2e12, 1.0])] * 2 + [np.eye(2)] * 2)
    f = StepField.constant(2, np.ones(2))
    seq = ScalarSequence(2, [((2, 3), 1.0), ((1, 0), 0.5), ((2, 1), 0.5)])
    for bet_sum in (bet_norm_sum, bet_inner_sum):
        with pytest.raises(SingularMatrixError) as err:
            bet_sum(StepField(leaves), seq, f, f)
        assert err.value.cube == DyadicIndex(1, 0)
        assert err.value.lambda_min == pytest.approx(5e-13, rel=1e-9)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_bet_sums_name_first_support_cube_in_both_dtypes(dtype):
    # <W^-1> is refused at (1, 0) (lambda_min 5e-13) and, more singular,
    # at (2, 3) (1e-13); (1, 0) comes first in support order
    leaves = np.array([np.diag([2e12, 1.0])] * 2 + [np.eye(2), np.diag([1e13, 1.0])])
    w = StepField(leaves.astype(dtype))
    f = StepField.constant(2, np.ones(2), dtype=dtype)
    seq = ScalarSequence(2, [((2, 2), 1.0), ((1, 0), 0.5), ((2, 3), 0.5)])
    for bet_sum in (bet_norm_sum, bet_inner_sum):
        with pytest.raises(SingularMatrixError) as err:
            bet_sum(w, seq, f, f)
        assert err.value.cube == DyadicIndex(1, 0)
        assert err.value.lambda_min == pytest.approx(5e-13, rel=1e-9)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_cet_sum_is_bitwise_the_cube_loop(d):
    for depth in range(7):
        for seed in range(3):
            inst = random_instance(depth, d, seed, cond_cap=1e4)
            for seq in (inst.mseq, inst.sseq, ScalarSequence(depth), MatrixSequence(depth, d)):
                assert cet_sum(inst.w, seq, inst.f) == loop_cet_sum(inst.w, seq, inst.f)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_cet_sum_refuses_indefinite_leaf(dtype):
    # the square root clipped the leaf's -0.5 to zero and the sum read 1.25
    w = StepField(np.stack([np.diag([1.0, -0.5]), np.eye(2)]).astype(dtype))
    f = StepField(np.ones((2, 2), dtype=dtype))
    with pytest.raises(SingularMatrixError) as err:
        cet_sum(w, ScalarSequence(1, {ROOT: 1.0}), f)
    assert err.value.cube == DyadicIndex(1, 0)
    assert err.value.lambda_min == -0.5


def test_maximal_function_dyadic_example():
    # identity weight, f = (1,3) e1 on depth 1: averages 2 then leaf values
    w = StepField.constant(1, np.eye(2))
    f = StepField(np.array([[1.0, 0.0], [3.0, 0.0]]))
    np.testing.assert_allclose(maximal_function(w, f).values, [2.0, 3.0])


def test_maximal_function_constant_data():
    v = np.array([0.3, -1.2])
    w = StepField.constant(3, np.array([[2.0, 0.5], [0.5, 1.0]]))
    f = StepField.constant(3, v)
    out = maximal_function(w, f)
    # telescoping for constant fields: value is |W^1/2 W^-1 W^1/2 v| = |v|
    np.testing.assert_allclose(out.values, np.linalg.norm(v) * np.ones(8), rtol=1e-10)


def test_maximal_function_singular_average_names_cube():
    # the leaves of the left half share a null direction, so does their average
    leaves = np.array([np.diag([1.0, 0.0])] * 2 + [np.eye(2)] * 2)
    f = StepField.constant(2, np.ones(2))
    with pytest.raises(SingularMatrixError) as err:
        maximal_function(StepField(leaves), f)
    assert isinstance(err.value.cube, DyadicIndex)
    assert err.value.cube == DyadicIndex(1, 0)


def test_cube_functional_singular_inverse_average_names_cube():
    # W itself is well conditioned, but <W^-1> has lambda_min 5e-13 on the
    # left half, below the rejection floor of negative powers
    leaves = np.array([np.diag([2e12, 1.0])] * 2 + [np.eye(2)] * 2)
    f = StepField.constant(2, np.ones(2))
    with pytest.raises(SingularMatrixError) as err:
        bet_cube_functional(StepField(leaves), f, f)
    assert isinstance(err.value.cube, DyadicIndex)
    assert err.value.cube == DyadicIndex(1, 0)


def test_maximal_function_zero():
    w = StepField.constant(2, np.eye(2))
    f = StepField.constant(2, np.zeros(2))
    np.testing.assert_array_equal(maximal_function(w, f).values, np.zeros(4))


def test_maximal_function_no_blowup_under_refinement():
    # same data on finer trees: the ratio must not grow with depth
    inst = random_instance(4, 2, seed=9, cond_cap=1e4)
    base = weighted_l2_norm(maximal_function(inst.w, inst.f).as_vector()) / weighted_l2_norm(inst.f)
    for depth in (6, 8, 10):
        w = refine(inst.w, depth)
        f = refine(inst.f, depth)
        ratio = weighted_l2_norm(maximal_function(w, f).as_vector()) / weighted_l2_norm(f)
        assert ratio == pytest.approx(base, rel=1e-10)
    assert base <= baselines.MAXIMAL_L2_C


def test_phi_product_examples():
    w = StepField.constant(2, np.eye(2))
    f = StepField.constant(2, E1)
    np.testing.assert_allclose(phi_product(w, f, f).values, np.ones(4))
    inst = epsilon_family(0.1, 0.0, depth=2)
    # both maximal functions are constant for the family's constant data
    phi = phi_product(inst.w, inst.f, inst.g)
    np.testing.assert_allclose(phi.values, 0.1 * np.ones(4), rtol=1e-10)
    zero = StepField.constant(2, np.zeros(2))
    np.testing.assert_array_equal(phi_product(w, zero, f).values, np.zeros(4))


def test_choquet_examples():
    seq = ScalarSequence(1, {DyadicIndex(0, 0): 1.0, DyadicIndex(1, 0): 1.0, DyadicIndex(1, 1): 1.0})
    functional = {DyadicIndex(0, 0): 2.0, DyadicIndex(1, 0): 1.0, DyadicIndex(1, 1): 3.0}
    # staircase by hand: 3*1 + 2*1 + 1*1 = 6
    assert choquet_integral(seq, functional) == (6.0, 6.0)
    assert choquet_integral(seq, {q: 0.0 for q in functional}) == (0.0, 0.0)
    single = ScalarSequence(2, {ROOT: 2.0})
    assert choquet_integral(single, {ROOT: 5.0}) == (10.0, 10.0)


def test_choquet_with_ties_and_zero_weights():
    seq = ScalarSequence(1, {DyadicIndex(1, 0): 0.5})
    functional = {ROOT: 2.0, DyadicIndex(1, 0): 2.0, DyadicIndex(1, 1): 1.0}
    s, l = choquet_integral(seq, functional)
    assert s == pytest.approx(1.0) and l == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(20))
def test_choquet_level_form_matches_the_unique_path(seed):
    # the run starts of the sorted values are np.unique's first indices
    rng = np.random.default_rng(seed)
    depth = int(rng.integers(1, 6))
    seq = ScalarSequence(depth, {q: float(rng.uniform(0, 2)) for q in cubes(depth)
                                 if rng.uniform() < 0.6})
    # quantized values force runs of ties
    functional = {q: float(np.round(rng.uniform(0, 3), int(rng.integers(0, 3))))
                  for q in cubes(depth)}
    assert choquet_integral(seq, functional)[1] == unique_choquet_level_form(seq, functional)


def test_choquet_integral_does_not_import_numpy_ma():
    # numpy.ma costs about 1 MB; np.unique(x) imports it
    code = (
        "import sys\n"
        "from carlab.characteristics import ScalarSequence\n"
        "from carlab.embeddings import choquet_integral\n"
        "seq = ScalarSequence(1, {(0, 0): 1.0, (1, 1): 0.5})\n"
        "assert choquet_integral(seq, {(0, 0): 2.0, (1, 0): 1.0, (1, 1): 2.0}) == (3.0, 3.0)\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=150, deadline=None)
def test_choquet_identity_random(seed):
    rng = np.random.default_rng(seed)
    depth = int(rng.integers(1, 5))
    functional = {}
    entries = {}
    for q in cubes(depth):
        if rng.uniform() < 0.6:
            # quantized values force ties in the staircase
            functional[q] = float(np.round(rng.uniform(0, 3), 1))
        if rng.uniform() < 0.6:
            entries[q] = float(rng.uniform(0, 2))
    seq = ScalarSequence(depth, entries)
    s, l = choquet_integral(seq, functional)
    assert abs(s - l) <= 1e-10 * max(1.0, abs(s))


def test_cube_functional_matches_bet_norm_sum():
    inst = random_instance(3, 2, seed=4, cond_cap=1e3)
    functional = bet_cube_functional(inst.w, inst.f, inst.g)
    # the functional is bet_norm_sum's scalar term, so the sum in support
    # order is bitwise the kernel's
    direct = sum(v * functional[q] for q, v in inst.sseq.items())
    assert bet_norm_sum(inst.w, inst.sseq, inst.f, inst.g) == direct


def test_proof_chain_pointwise_bound():
    # F(Q) <= sqrt(c2) Phi(x) for every cube Q and every leaf x inside it
    for seed in range(10):
        inst = random_instance(4, 2, seed=seed, cond_cap=1e4)
        functional = bet_cube_functional(inst.w, inst.f, inst.g)
        phi = phi_product(inst.w, inst.f, inst.g)
        root_c2 = math.sqrt(c2_conditioning(inst.w))
        for q, fval in functional.items():
            lo, hi = phi.leaf_slice(q)
            assert fval <= root_c2 * phi.values[lo:hi].min() + 1e-9


def test_proof_chain_integrated_bound():
    for seed in range(10):
        inst = random_instance(4, 2, seed=seed, cond_cap=1e4)
        functional = bet_cube_functional(inst.w, inst.f, inst.g)
        phi = phi_product(inst.w, inst.f, inst.g)
        root_c2 = math.sqrt(c2_conditioning(inst.w))
        lhs = sum(v * functional[q] for q, v in inst.sseq.items())
        assert lhs <= root_c2 * integral(phi, ROOT) + 1e-9


def test_proof_chain_tight_on_family():
    # the family saturates F = sqrt(c2) * Phi exactly
    for eps in (0.1, 1e-3):
        inst = epsilon_family(eps, math.pi / 4, depth=2)
        functional = bet_cube_functional(inst.w, inst.f, inst.g)
        phi = phi_product(inst.w, inst.f, inst.g)
        root_c2 = math.sqrt(c2_conditioning(inst.w))
        assert functional[ROOT] == pytest.approx(root_c2 * float(phi.values[0]), rel=1e-6)


def test_sibet_positive_result_regression():
    # scalar intensity-1 sequences keep the inner sum bounded by C' |f||g|
    worst = 0.0
    for seed in range(25):
        inst = random_instance(4, 2, seed=seed, cond_cap=1e6)
        ratio = bet_inner_sum(inst.w, inst.sseq, inst.f, inst.g) / (
            weighted_l2_norm(inst.f) * weighted_l2_norm(inst.g)
        )
        worst = max(worst, ratio)
    assert worst <= baselines.SIBET_CPRIME


def test_c2bet_upper_bound_regression():
    worst = 0.0
    for seed in range(25):
        inst = random_instance(4, 2, seed=seed, cond_cap=1e6)
        ratio = bet_norm_sum(inst.w, inst.sseq, inst.f, inst.g) / (
            weighted_l2_norm(inst.f)
            * weighted_l2_norm(inst.g)
            * math.sqrt(c2_conditioning(inst.w))
        )
        worst = max(worst, ratio)
    assert worst <= baselines.C2BET_C


def test_wcet_forward_bound_regression():
    from carlab.characteristics import wcet_testing_constant

    worst = 0.0
    for seed in range(25):
        inst = random_instance(4, 2, seed=seed, cond_cap=1e4)
        testing = wcet_testing_constant(inst.w, inst.mseq)
        ratio = cet_sum(inst.w, inst.mseq, inst.f) / (testing * weighted_l2_norm(inst.f) ** 2)
        worst = max(worst, ratio)
    assert worst <= baselines.WCET_FORWARD_C


# Metamorphic checks.  W -> cW with f -> f / sqrt(c), g -> sqrt(c) g, and
# the joint rotation W -> U W U^T, f -> U f, g -> U g, A_Q -> U A_Q U^T,
# leave every embedding sum unchanged in exact arithmetic.  The tolerance
# is 64 eps cond, with cond the spread of all leaf eigenvalues, relative to
# the sum with each A_Q replaced by its operator norm: that bounds each
# term, where a rank-one A_Q can make a term small by cancellation, and
# it bounds the inner sum's terms by Cauchy-Schwarz.  The scale sums take
# f~ = W^-1/2 |W^1/2 f| and g~ = W^1/2 |W^-1/2 g| (absolute values taken
# entrywise), whose half-weighted averages cannot cancel: at seed 1,
# depth 1, d 1 the root's <W^1/2 f> averages -0.4854 and +0.4879 to
# 0.00126, so the sums of f and g themselves sit far below the rounding
# of their terms.  The worst seen over 6,000 random W -> cW cases was
# 17 eps cond (80 with the sums of f and g themselves).

def _embedding_sums(w, sseq, mseq, f, g):
    return [
        fn(w, seq, f, g)
        for fn in (bet_norm_sum, bet_inner_sum, lambda w, seq, f, g: cet_sum(w, seq, f))
        for seq in (sseq, mseq)
    ]


def _assert_sums_unchanged(inst, got):
    vals = np.linalg.eigvalsh(inst.w.values)
    tol = 64 * np.finfo(float).eps * vals.max() / vals.min()
    norms = ScalarSequence(inst.depth, dict(zip(
        inst.mseq.entries, operator_norm_stack(inst.mseq.values).tolist())))
    wh, wmh = (inst.w.power(p).values for p in (0.5, -0.5))
    f = StepField(np.einsum("kij,kj->ki", wmh, np.abs(np.einsum("kij,kj->ki", wh, inst.f.values))))
    g = StepField(np.einsum("kij,kj->ki", wh, np.abs(np.einsum("kij,kj->ki", wmh, inst.g.values))))
    bet_scale = [bet_norm_sum(inst.w, seq, f, g) for seq in (inst.sseq, norms)]
    cet_scale = [cet_sum(inst.w, seq, f) for seq in (inst.sseq, norms)]
    want = _embedding_sums(inst.w, inst.sseq, inst.mseq, inst.f, inst.g)
    for a, b, scale in zip(got, want, 2 * bet_scale + cet_scale):
        assert abs(a - b) <= tol * scale


_sum_cases = dict(
    seed=st.integers(0, 2**16), depth=st.integers(0, 4), d=st.integers(1, 4),
    log_cap=st.floats(0.0, 4.0),
)


@pytest.mark.parametrize("c", [1e-3, 1e3])
@settings(max_examples=30, deadline=None)
@given(**_sum_cases)
@example(seed=1, depth=1, d=1, log_cap=0.5)
@example(seed=1, depth=1, d=1, log_cap=0.546875)
def test_embedding_sums_invariant_under_weight_scaling(seed, depth, d, log_cap, c):
    inst = random_instance(depth, d, seed=seed, cond_cap=10.0**log_cap)
    got = _embedding_sums(
        StepField(c * inst.w.values), inst.sseq, inst.mseq,
        StepField(inst.f.values / math.sqrt(c)), StepField(math.sqrt(c) * inst.g.values),
    )
    _assert_sums_unchanged(inst, got)


@settings(max_examples=30, deadline=None)
@given(**_sum_cases)
def test_embedding_sums_invariant_under_joint_rotation(seed, depth, d, log_cap):
    inst = random_instance(depth, d, seed=seed, cond_cap=10.0**log_cap)
    u = random_orthogonal(d, np.random.default_rng(seed))
    mseq = MatrixSequence(depth, d, {q: u @ m @ u.T for q, m in inst.mseq.items()})
    got = _embedding_sums(
        StepField(u @ inst.w.values @ u.T), inst.sseq, mseq,
        StepField(inst.f.values @ u.T), StepField(inst.g.values @ u.T),
    )
    _assert_sums_unchanged(inst, got)
