import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carlab import matrices
from carlab.characteristics import (
    MatrixSequence,
    ScalarSequence,
    a2_characteristic,
    c2_conditioning,
    carleson_intensity,
    level_powers_batch,
    tree_eigh_batch,
    wcet_testing_constant,
)
from carlab.constructions import (
    random_instance,
    random_matrix_sequence,
    random_orthogonal,
    random_weight_field,
)
from carlab.dyadic import DyadicIndex, ROOT, StepField, tree_levels_batch
from carlab.errors import DimensionMismatchError, PreconditionError
from carlab.matrices import operator_norm_stack, spd_power
from carlab.redundancy import (
    red_constants,
    red_quadratic_form,
    red_sums_batch,
    sred_constant,
    substitution_error,
    trace_cycling_error,
)
from oracles import (
    brute_red_constants,
    brute_red_sums,
    brute_red_quadratic_form,
    brute_sred_constant,
    brute_substitution_error,
    brute_trace_cycling_error,
)


def test_sred_identity_weight_unit_mass():
    w = StepField.constant(2, np.eye(2))
    alpha = ScalarSequence(2, {ROOT: 1.0})
    assert sred_constant(w, alpha) == pytest.approx(1.0, abs=1e-12)


def test_sred_scalar_example():
    # d = 1, leaves (1, 3): <w^-1>^-1 / <w> = (3/2) / 2 = 3/4
    w = StepField(np.array([1.0, 3.0]))
    alpha = ScalarSequence(1, {ROOT: 1.0})
    assert sred_constant(w, alpha) == pytest.approx(0.75, rel=1e-12)


def test_sred_requires_unit_intensity():
    w = StepField.constant(1, np.eye(2))
    with pytest.raises(PreconditionError):
        sred_constant(w, ScalarSequence(1, {ROOT: 2.0}))
    with pytest.raises(DimensionMismatchError):
        sred_constant(w, MatrixSequence(1, 2, {ROOT: np.eye(2)}))


def test_sred_bounded_by_four_random():
    for seed in range(40):
        inst = random_instance(5, 1 + seed % 4, seed=seed, cond_cap=1e4)
        assert sred_constant(inst.w, inst.sseq) <= 4.0


def test_sred_empty_sequence():
    w = StepField.constant(2, np.eye(2))
    assert sred_constant(w, ScalarSequence(2)) == 0.0


def test_red_identity_example():
    w = StepField.constant(2, np.eye(2))
    bseq = MatrixSequence(2, 2, {ROOT: np.eye(2)})
    c1, c2, c3 = red_constants(w, bseq)
    assert c1 == pytest.approx(1.0, abs=1e-12)
    assert c2 == pytest.approx(1.0, abs=1e-12)
    assert c3 == pytest.approx(1.0, abs=1e-12)


def test_red_scalar_embedding_reduces_to_sred():
    inst = random_instance(4, 3, seed=11, cond_cap=1e4)
    embedded = MatrixSequence(4, 3, {q: v * np.eye(3) for q, v in inst.sseq.items()})
    _, _, c3 = red_constants(inst.w, embedded)
    assert c3 == pytest.approx(sred_constant(inst.w, inst.sseq), rel=1e-10)


def test_red_bounded_by_4d_random():
    for seed in range(30):
        d = 1 + seed % 4
        inst = random_instance(4, d, seed=seed, cond_cap=1e4)
        c1, c2, c3 = red_constants(inst.w, inst.mseq)
        assert max(c1, c2, c3) <= 4.0 * d


def _assert_matches_oracle(w, bseq):
    w = w.as_matrix()
    got = red_constants(w, bseq)
    want = brute_red_constants(w.values, bseq.entries, w.depth)
    for g, e in zip(got, want):
        assert abs(g - e) <= 1e-12 * abs(e)


@pytest.mark.parametrize("depth", range(7))
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_red_constants_match_brute_oracle(depth, d):
    inst = random_instance(depth, d, seed=7 * depth + d, cond_cap=1e4)
    _assert_matches_oracle(inst.w, inst.mseq)


@pytest.mark.parametrize("cube", [DyadicIndex(6, 37), ROOT])
def test_red_constants_one_cube_support_matches_oracle(cube):
    # A deep cube leaves most K untouched; the root leaves deeper levels empty.
    inst = random_instance(6, 3, seed=5, cond_cap=1e4)
    b = np.diag([1.0, 0.5, 0.25]) * cube.measure
    _assert_matches_oracle(inst.w, MatrixSequence(6, 3, {cube: b}))


@pytest.mark.parametrize("depth", range(7))
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_sred_constant_matches_brute_oracle(depth, d):
    inst = random_instance(depth, d, seed=13 * depth + d, cond_cap=1e4)
    got = sred_constant(inst.w, inst.sseq)
    want = brute_sred_constant(inst.w.values, dict(inst.sseq.items()), depth)
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("depth", range(9))
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_red_sums_over_shifts_match_the_level_loop(depth, d):
    # A batch whose members' deepest support levels differ: a random
    # sequence, the root alone and one cube at about half the depth (the
    # last batch leaves out the random one, so the batch's deepest level can
    # be above the tree's bottom).  The kernel must add each cube's terms
    # in the order of the loop it replaced, so the sums are bitwise equal.
    rng = np.random.default_rng(1000 + 10 * depth + d)
    half = DyadicIndex(depth // 2, (1 << (depth // 2)) - 1)
    seqs = [random_matrix_sequence(depth, d, rng),
            MatrixSequence(depth, d, {ROOT: np.eye(d)}),
            MatrixSequence(depth, d, {half: 2.0 ** -half.level * np.eye(d)})]
    ws = [random_weight_field(depth, d, rng, cond_cap=1e3) for _ in seqs]
    for members in (slice(None), slice(1, None), slice(1, 2)):
        pyramids = [[np.stack(lv) for lv in zip(*(f.pyramid() for f in fields))]
                    for fields in (ws[members], [w.inverse() for w in ws[members]])]
        roots, proots = (level_powers_batch(tree_eigh_batch(p), -0.5) for p in pyramids)
        b = np.stack([s.dense() for s in seqs[members]])
        want = brute_red_sums(roots, proots, b)
        deepest = len(want[0]) - 1
        got = red_sums_batch(roots, proots, b, proots @ b @ proots, deepest)
        for sums_got, sums_want in zip(got, want):
            assert len(tree_levels_batch(sums_got)) == len(sums_want)
            for lv_got, lv_want in zip(tree_levels_batch(sums_got), sums_want):
                assert np.array_equal(lv_got, lv_want), (members, deepest)


def test_red_c2_equals_c3():
    # the substitution identity in operator form
    for seed in range(10):
        inst = random_instance(4, 2, seed=seed, cond_cap=1e4)
        _, c2, c3 = red_constants(inst.w, inst.mseq)
        assert c2 == pytest.approx(c3, rel=1e-10)


def test_monotonicity_under_operator_norm_domination():
    # replacing B_Q by |B_Q|_op * identity never decreases the constants
    from carlab.matrices import operator_norm

    for seed in range(10):
        d = 1 + seed % 3
        inst = random_instance(4, d, seed=seed, cond_cap=1e4)
        c = red_constants(inst.w, inst.mseq)
        dominated = MatrixSequence(
            4, d, {q: operator_norm(m) * np.eye(d) for q, m in inst.mseq.items()}
        )
        intensity = carleson_intensity(dominated)
        k = red_constants(inst.w, dominated.scaled(1.0 / intensity))
        k = tuple(v * intensity for v in k)
        assert all(kv >= cv - 1e-8 for kv, cv in zip(k, c))


def test_trace_cycling_identity():
    rng = np.random.default_rng(41)
    for seed in range(10):
        inst = random_instance(4, 3, seed=seed, cond_cap=1e4)
        w = inst.w.as_matrix()
        wavg = w.pyramid()
        vavg = w.inverse().pyramid()
        for q, m in inst.mseq.items():
            b_q = float(np.linalg.eigvalsh(m)[-1])
            k = DyadicIndex(0, 0)
            r_k = spd_power(wavg[0][0], -0.5)
            p_q = spd_power(vavg[q.level][q.position], -0.5)
            scalar = b_q * np.eye(3)
            t1 = float(np.trace(r_k @ p_q @ scalar @ p_q @ r_k))
            t2 = float(np.trace(p_q @ r_k @ scalar @ r_k @ p_q))
            assert t1 == pytest.approx(t2, rel=1e-10)


def test_substitution_identity():
    # e = <W>_K^1/2 f turns the second testing form into the corollary form
    rng = np.random.default_rng(42)
    checked = 0
    for seed in range(20):
        inst = random_instance(4, 2, seed=seed, cond_cap=1e4)
        w = inst.w.as_matrix()
        wavg = w.pyramid()
        for _ in range(5):
            level = int(rng.integers(0, 5))
            k = DyadicIndex(level, int(rng.integers(0, 1 << level)))
            e = rng.standard_normal(2)
            e /= np.linalg.norm(e)
            second = red_quadratic_form(w, inst.mseq, k, e, order="second")
            wk = wavg[k.level][k.position]
            f = spd_power(wk, -0.5) @ e
            corollary = red_quadratic_form(w, inst.mseq, k, f, order="corollary")
            scale = max(second, corollary, 1e-30)
            assert abs(second - corollary) / scale <= 1e-10
            # and the right-hand sides transform the same way
            assert float(e @ e) == pytest.approx(float(f @ (wk @ f)), rel=1e-10)
            checked += 1
    assert checked == 100


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_stacked_cross_checks_match_per_cube_oracles(d):
    # every quadratic form, in all three orders, and the trace-cycling
    # defect are bitwise the cube-by-cube sums
    for depth in range(9):
        inst = random_instance(depth, d, seed=11 * depth + d, cond_cap=1e4)
        rng = np.random.default_rng(depth)
        for _ in range(3):
            level = int(rng.integers(0, depth + 1))
            k = DyadicIndex(level, int(rng.integers(0, 1 << level)))
            e = rng.standard_normal(d)
            for order in ("first", "second", "corollary"):
                assert red_quadratic_form(inst.w, inst.mseq, k, e, order) == (
                    brute_red_quadratic_form(inst.w, inst.mseq.entries, k, e, order)
                )
        norms = operator_norm_stack(inst.mseq.values)
        assert trace_cycling_error(inst.w, inst.mseq, norms) == (
            brute_trace_cycling_error(inst.w, inst.mseq.entries)
        )
    with pytest.raises(ValueError, match="unknown order"):
        red_quadratic_form(inst.w, inst.mseq, ROOT, e, order="third")


def test_substitution_error_decomposes_once_per_sample(monkeypatch):
    # one eigh of <W>_K per sample serves R_K and f, and one of the support's
    # <W^-1>_Q serves every sample; the value is bitwise the per-sample loop's
    real = matrices.eigh_sym
    calls = []
    for depth in range(6):
        for d in range(1, 5):
            inst = random_instance(depth, d, seed=10 * depth + d, cond_cap=1e4)
            inst.w.inverse()  # the leaves' decomposition is cached on the field
            calls.clear()
            monkeypatch.setattr(matrices, "eigh_sym", lambda m: calls.append(1) or real(m))
            got = substitution_error(inst.w, inst.mseq, np.random.default_rng(depth), samples=5)
            monkeypatch.setattr(matrices, "eigh_sym", real)
            assert len(calls) == 5 + 1
            want = brute_substitution_error(
                inst.w, inst.mseq.entries, np.random.default_rng(depth), samples=5
            )
            assert got == want


# Metamorphic checks.  W -> cW and the joint rotation W -> U W U^T,
# B -> U B U^T leave every constant unchanged in exact arithmetic; the
# tolerance is 64 eps cond, with cond the spread of all leaf eigenvalues
# (the worst seen over 400 random cases was 8.4 eps cond).

def _constants(w, inst, bseq):
    return (sred_constant(w, inst.sseq),) + red_constants(w, bseq)


def _assert_invariant(inst, w, bseq):
    vals = np.linalg.eigvalsh(inst.w.values)
    tol = 64 * np.finfo(float).eps * vals.max() / vals.min()
    for a, b in zip(_constants(inst.w, inst, inst.mseq), _constants(w, inst, bseq)):
        assert abs(a - b) <= tol * max(abs(a), abs(b))


_cases = dict(
    seed=st.integers(0, 2**16), depth=st.integers(0, 4), d=st.integers(1, 4),
    log_cap=st.floats(0.0, 4.0),
)


@settings(max_examples=30, deadline=None)
@given(log_c=st.floats(-3.0, 3.0), **_cases)
def test_constants_invariant_under_weight_scaling(seed, depth, d, log_cap, log_c):
    inst = random_instance(depth, d, seed=seed, cond_cap=10.0**log_cap)
    _assert_invariant(inst, StepField(10.0**log_c * inst.w.values), inst.mseq)


@settings(max_examples=30, deadline=None)
@given(**_cases)
def test_constants_invariant_under_joint_rotation(seed, depth, d, log_cap):
    inst = random_instance(depth, d, seed=seed, cond_cap=10.0**log_cap)
    u = random_orthogonal(d, np.random.default_rng(seed))
    rotated = MatrixSequence(depth, d, {q: u @ m @ u.T for q, m in inst.mseq.items()})
    _assert_invariant(inst, StepField(u @ inst.w.values @ u.T), rotated)


def _best_constants(w, sseq, mseq):
    return (
        carleson_intensity(sseq),
        carleson_intensity(mseq),
        a2_characteristic(w),
        c2_conditioning(w),
        wcet_testing_constant(w, sseq),
        wcet_testing_constant(w, mseq),
        sred_constant(w, sseq),
    ) + red_constants(w, mseq)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_best_constants_unchanged_under_refinement(d, dtype):
    # the same W and the same entries on a tree one or two levels deeper:
    # refined averages are exact and every added term is zero, so each best
    # constant comes out bitwise the same
    for depth in range(4):
        inst = random_instance(depth, d, seed=20 * depth + d, cond_cap=1e4)
        w = StepField(inst.w.values.astype(dtype))
        want = _best_constants(w, inst.sseq, inst.mseq)
        for deeper in (depth + 1, depth + 2):
            got = _best_constants(
                w.refine(deeper),
                ScalarSequence(deeper, inst.sseq.entries),
                MatrixSequence(deeper, d, inst.mseq.entries),
            )
            assert got == want


def test_scalar_redundancy_implication_both_orientations():
    # d = 1: both classical conditions follow with constant <= 4, read off
    # as the corollary specialization under the w <-> w^-1 swap
    for seed in range(10):
        inst = random_instance(5, 1, seed=seed, cond_cap=1e4)
        assert sred_constant(inst.w, inst.sseq) <= 4.0
        w_inv = StepField(1.0 / inst.w.values)
        assert sred_constant(w_inv, inst.sseq) <= 4.0


def test_red_empty_sequence():
    w = StepField.constant(2, np.eye(2))
    assert red_constants(w, MatrixSequence(2, 2)) == (0.0, 0.0, 0.0)
