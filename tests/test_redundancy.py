from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carlab import characteristics, matrices, redundancy
from carlab.characteristics import (
    MatrixSequence,
    ScalarSequence,
    a2_characteristic,
    c2_conditioning,
    carleson_intensity,
    wcet_testing_constant,
)
from carlab.constructions import (
    random_instance,
    random_matrix_sequence,
    random_scalar_sequence,
    random_weight_field,
)
from carlab.dyadic import DyadicIndex, ROOT, FieldBatch, StepField, average
from carlab.errors import DimensionMismatchError, LabError, PreconditionError
from carlab.lab import default_config, run_experiment
from carlab.errors import SingularMatrixError
from carlab.matrices import operator_norm_stack, spd_power
from carlab.search import _random_state, _search_objective, _state_weights
from carlab.redundancy import (
    INTENSITY_SLACK,
    check_intensities,
    red_constants,
    red_constants_batch,
    red_constants_checked,
    red_quadratic_form,
    red_ratio_batch,
    red_sums_batch,
    sred_constant,
    sred_constants_checked,
    substitution_error,
    trace_cycling_error,
)
from oracles import (
    always_check_intensities,
    brute_red_constants,
    brute_red_sums,
    brute_red_quadratic_form,
    brute_sred_constant,
    brute_substitution_error,
    brute_trace_cycling_error,
    computed_intensity,
    level_powers_batch,
    matrix_form_red_ratio,
    random_orthogonal,
    refine,
    split_levels,
    three_call_red_constants,
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
        pyramids = [np.stack([f.pyramid() for f in fields])
                    for fields in (ws[members], [w.inverse() for w in ws[members]])]
        roots, proots = (level_powers_batch(matrices.eigh_sym(p), -0.5) for p in pyramids)
        b = np.stack([s.dense() for s in seqs[members]])
        want = brute_red_sums(roots, proots, b)
        deepest = len(want[0]) - 1
        got = red_sums_batch(roots, proots, b, proots @ b @ proots, deepest)
        for sums_got, sums_want in zip(got, want):
            assert len(split_levels(sums_got, axis=1)) == len(sums_want)
            for lv_got, lv_want in zip(split_levels(sums_got, axis=1), sums_want):
                assert np.array_equal(lv_got, lv_want), (members, deepest)


@pytest.mark.parametrize("depth", [0, 1, 3, 6])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_red_constants_one_supremum_call_is_the_three_calls(depth, d, dtype):
    # c1, c2 and c3 take lambda_max in one call over the touched c1 and c2
    # sums and every c3 sum; the three-call form gives the same bits.  The
    # batches mix a random sequence, the root alone, one cube at about half
    # the depth (without the random member the deepest support lies above
    # the leaves) and the random sequence with a NaN entry, whose sums are
    # NaN on the entry's cube and its ancestors: no solver sees them, so
    # every level holding one is passed over in both forms.
    rng = np.random.default_rng(2000 + 10 * depth + d)
    half = DyadicIndex(depth // 2, (1 << (depth // 2)) - 1)
    seqs = [random_matrix_sequence(depth, d, rng),
            MatrixSequence(depth, d, {ROOT: np.eye(d)}),
            MatrixSequence(depth, d, {half: 2.0 ** -half.level * np.eye(d)})]
    b = np.stack([s.dense(dtype) for s in seqs] + [seqs[0].dense(dtype)])
    b[-1, np.flatnonzero(np.any(b[-1] != 0.0, axis=(-2, -1)))[-1], 0, 0] = np.nan
    ws = [random_weight_field(depth, d, rng, cond_cap=1e3) for _ in b]
    pyramids = [np.stack([f.pyramid().astype(dtype) for f in fields])
                for fields in (ws, [w.inverse() for w in ws])]
    roots, proots = (level_powers_batch(matrices.eigh_sym(p), -0.5) for p in pyramids)
    for members in [[0, 1, 2], [1, 2], [2], [1], [2, 0], [1, 3], [3]]:
        args = roots[members], proots[members], b[members]
        want = three_call_red_constants(*args)
        got = red_constants_batch(*args)
        assert len(got) == 3 and all(g.shape == (len(members),) for g in got)
        for g, w in zip(got, want):
            assert np.array_equal(g.view(np.int64), w.view(np.int64)), (members, g, w)


def test_checked_entries_are_each_alone():
    # the sequences of one weight go through one batch that shares its
    # powers, and so do those of a batch of weights, one member each: bitwise
    # what each gives alone.  An empty sequence gives zeros, and the first
    # sequence over intensity 1 is the one refused, named by its index.
    for depth, d in [(0, 1), (3, 2), (5, 3), (4, 4)]:
        rng = np.random.default_rng(70 + depth)
        w = random_weight_field(depth, d, rng, cond_cap=1e3)
        seqs = [random_matrix_sequence(depth, d, rng), MatrixSequence(depth, d),
                MatrixSequence(depth, d, {ROOT: np.eye(d)}),
                random_matrix_sequence(depth, d, rng).scaled(0.5)]
        alphas = [random_scalar_sequence(depth, rng), ScalarSequence(depth),
                  ScalarSequence(depth, {ROOT: 1.0}), random_scalar_sequence(depth, rng).scaled(0.5)]
        assert red_constants_checked(w.batch, seqs) == [red_constants(w, s) for s in seqs]
        assert red_constants_checked(w.batch, seqs[1:2]) == [(0.0, 0.0, 0.0)]
        assert sred_constants_checked(w.batch, alphas) == [sred_constant(w, a) for a in alphas]
        ws = [w] + [random_weight_field(depth, d, rng, cond_cap=1e3) for _ in seqs[1:]]
        batch = FieldBatch.stack(ws)
        assert red_constants_checked(batch, seqs) == list(map(red_constants, ws, seqs))
        assert sred_constants_checked(batch, alphas) == list(map(sred_constant, ws, alphas))
        with pytest.raises(DimensionMismatchError, match="4 sequences on a batch of 2"):
            red_constants_checked(FieldBatch.stack(ws[:2]), seqs)
        over = [s.scaled(factor) for s, factor in zip(seqs, (1.0, 1.0, 3.0, 4.0))]
        with pytest.raises(PreconditionError, match=r"got 3\.0 \(point 2\)$"):
            red_constants_checked(w.batch, over)


@pytest.mark.parametrize("d", range(1, 5))
def test_carried_intensity_refusal_is_the_whole_check(d, monkeypatch):
    # a generated sequence scaled by c passes or is refused as the whole
    # check passes or refuses it, with its error: c = (1 + k 1e-10) / I
    # crosses both the half-slack margin (k = 5) and the slack (k = 10), and
    # the edge factors fail in scaled or reach the whole check; only a
    # carried intensity within the margin passes with no intensity solve
    real, solved = characteristics.carleson_intensity_batch, []
    monkeypatch.setattr(redundancy, "carleson_intensity_batch",
                        lambda flat: solved.append(1) or real(flat))
    for depth in range(9):
        rng = np.random.default_rng(900 + 10 * d + depth)
        w = random_weight_field(depth, d, rng, cond_cap=1e3)
        for seq, constants in ((random_matrix_sequence(depth, d, rng),
                                lambda s: red_constants(w, s)),
                               (random_scalar_sequence(depth, rng), lambda s: sred_constant(w, s))):
            intensity = carleson_intensity(seq)
            edges = [0.0, -1.0, np.inf, np.nan, 1e-300, 1e300]
            for c in [(1.0 + k * 1e-10) / intensity for k in range(-10, 21)] + edges:
                outcomes = []
                for check in (check_intensities, always_check_intensities):
                    solved.clear()
                    try:
                        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                            scaled = seq.scaled(c)
                        check([scaled])
                        outcomes.append(None)
                    except LabError as exc:
                        outcomes.append((type(exc), str(exc)))
                    if check is check_intensities and outcomes[0] is None:
                        fast = scaled.carried_intensity <= 1.0 + INTENSITY_SLACK / 2
                        assert bool(solved) != fast, (depth, c)
                assert outcomes[0] == outcomes[1], (depth, c)
                if outcomes[0] is not None and outcomes[0][0] is PreconditionError:
                    with pytest.raises(PreconditionError) as info:
                        constants(scaled)
                    assert str(info.value) == outcomes[0][1]


def test_dominated_intensity_is_that_of_the_norms():
    # the entries n_Q I make every subtree sum a multiple of I: the scalar
    # sequence of the norms has bitwise the matrix sequence's intensity
    for depth in range(9):
        for d in range(1, 5):
            seq = random_matrix_sequence(depth, d, np.random.default_rng(1000 + 10 * depth + d))
            norms = operator_norm_stack(seq.values)
            dominated = MatrixSequence.from_arrays(depth, seq.positions,
                                                   norms[:, None, None] * np.eye(d))
            scalar = ScalarSequence.from_arrays(depth, seq.positions, norms)
            assert computed_intensity(scalar).hex() == computed_intensity(dominated).hex()


def test_redundancy_suite_measures_each_intensity_once(monkeypatch):
    # each generated sequence is measured once, by its generator, and each
    # dominated one once, through its norms: the checked entries read the
    # intensity the sequence carries.  The four
    # suite instances and the fresh one of seed 3 hold 10 sequences, and the
    # four cross-checks make 4 dominated ones.
    real, calls = characteristics.carleson_intensity_batch, Counter()

    def counting(where):
        return lambda flat: calls.update([where]) or real(flat)

    monkeypatch.setattr(characteristics, "carleson_intensity_batch", counting("measured"))
    monkeypatch.setattr(redundancy, "carleson_intensity_batch", counting("checked"))
    assert run_experiment(default_config("redundancy-suite", seeds=[0, 1, 2, 3])).passed
    assert calls == {"measured": 10 + 4}
    # past the margin the whole check runs, and refuses as before
    inst = random_instance(4, 2, seed=0)
    over = inst.mseq.scaled(2.0 / carleson_intensity(inst.mseq))
    for constants, seq in ((red_constants, over), (sred_constant, inst.sseq.scaled(2.0))):
        calls.clear()
        with pytest.raises(PreconditionError,
                           match=r"^redundancy bounds assume Carleson intensity <= 1, got 2\.0"):
            constants(inst.w, seq)
        assert calls == {"checked": 1}


def test_red_c2_equals_c3():
    # the substitution identity in operator form
    for seed in range(10):
        inst = random_instance(4, 2, seed=seed, cond_cap=1e4)
        _, c2, c3 = red_constants(inst.w, inst.mseq)
        assert c2 == pytest.approx(c3, rel=1e-10)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_red_c2_and_c3_agree_to_rounding(d, dtype):
    # c2 and c3 are lambda_max of one matrix, R_K (sum_Q P_Q B_Q P_Q) R_K,
    # with R_K inside or outside the sum, which is why red_ratio_batch forms
    # only c3.  Batches of six random matrix sequences on weights at
    # cond_cap 1e3, depths 0-5: measured at most 4.8 eps (float64) apart;
    # the longdouble constants, returned in float64, were equal.
    for depth in range(6):
        rng = np.random.default_rng(3000 + 10 * depth + d)
        seqs = [random_matrix_sequence(depth, d, rng) for _ in range(6)]
        ws = [random_weight_field(depth, d, rng, cond_cap=1e3) for _ in seqs]
        pyramids = [np.stack([f.pyramid().astype(dtype) for f in fields])
                    for fields in (ws, [w.inverse() for w in ws])]
        roots, proots = (level_powers_batch(matrices.eigh_sym(p), -0.5) for p in pyramids)
        _, c2, c3 = red_constants_batch(roots, proots, np.stack([s.dense(dtype) for s in seqs]))
        full = [len(s) > 0 for s in seqs]  # an empty sequence has c2 = -inf and c3 = 0
        assert any(full)
        assert np.allclose(c2[full], c3[full], rtol=16 * np.finfo(np.float64).eps, atol=0.0)


def _red_ratio(w, alpha):
    """``red_ratio_batch`` of one weight and scalar sequence, as a batch of one."""
    w = w.as_matrix()
    return float(red_ratio_batch(w.cube_power(-0.5)[None], w.inverse().cube_power(-0.5)[None],
                                 alpha.dense()[None])[0])


@pytest.mark.parametrize("depth", range(7))
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_red_ratio_batch_matches_brute_oracle(depth, d):
    # max(c1, c3) of the scalar form against max(c1, c2, c3) of the loop
    # over (K, Q) pairs on the matrix sequence alpha_Q I.  Depth 0 is the
    # one-cube tree; at d = 1 the ratio is the scalar constant.
    inst = random_instance(depth, d, seed=7 * depth + d, cond_cap=1e4)
    got = _red_ratio(inst.w, inst.sseq)
    entries = {q: v * np.eye(d) for q, v in inst.sseq.items()}
    want = max(brute_red_constants(inst.w.as_matrix().values, entries, depth))
    assert abs(got - want) <= 1e-12 * want
    if d == 1:
        assert got == pytest.approx(sred_constant(inst.w, inst.sseq), rel=1e-12)


@pytest.mark.parametrize("depth, d", [(0, 1), (0, 3), (3, 1), (3, 2), (4, 4)])
def test_red_ratio_objective_of_an_all_zero_state_weights_the_root(depth, d):
    # A state with no positive sequence weight puts weight 1 on the root,
    # bitwise as a root-only state does.  Its ratio is that of the root,
    # lambda_max(<W>^-1/2 <W^-1>^-1 <W>^-1/2): c1 and c3 are lambda_max of
    # X^T X and X X^T for X = <W^-1>^-1/2 <W>^-1/2.
    rng = np.random.default_rng(50 + 10 * depth + d)
    log_eigs, angles, seq_weights = (np.stack(a) for a in zip(
        *[_random_state(depth, d, 1e4, rng) for _ in range(3)]))
    seq_weights[0] = 0.0
    seq_weights[1] = -0.5
    value, w, _ = _search_objective(log_eigs, angles, seq_weights, "red_ratio", 1e4)
    seq_weights[:] = 0.0
    seq_weights[:, 0] = 1.0
    root_only = _search_objective(log_eigs, angles, seq_weights, "red_ratio", 1e4)[0]
    assert np.array_equal(value[:2], root_only[:2])
    for b in range(2):
        wavg, vavg = w[b].mean(axis=0), np.linalg.inv(w[b]).mean(axis=0)
        want = np.linalg.eigvals(np.linalg.solve(wavg, np.linalg.inv(vavg))).real.max()
        assert value[b] == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("depth, d", [(0, 1), (2, 2), (3, 3)])
def test_red_ratio_objective_refuses_a_leaf_that_is_not_spd(depth, d):
    # The last leaf's eigenvalues underflow to 0: alone and in a batch, the
    # objective refuses it under W^-1 and names its cube, as the matrix
    # form through red_constants does.
    rng = np.random.default_rng(4)
    log_eigs, angles, seq_weights = (np.stack(a) for a in zip(
        *[_random_state(depth, d, 1e4, rng) for _ in range(3)]))
    log_eigs[1, -1] = -1e4
    cube = DyadicIndex(depth, (1 << depth) - 1)
    with pytest.raises(SingularMatrixError) as want:
        matrix_form_red_ratio(StepField(_state_weights(log_eigs[1], angles[1], 1e4)),
                              ScalarSequence(depth, {ROOT: 1.0}))
    assert str(want.value) == ("matrix not SPD under negative power (lambda_min=0.000e+00) "
                               f"at cube {cube!r}")
    for members in (slice(1, 2), slice(None)):
        with pytest.raises(SingularMatrixError) as got:
            _search_objective(log_eigs[members], angles[members], seq_weights[members],
                              "red_ratio", 1e4)
        assert got.value.cube == cube and str(got.value) == str(want.value)


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
        for q, m in inst.mseq.items():
            b_q = float(np.linalg.eigvalsh(m)[-1])
            r_k = spd_power(average(w, ROOT), -0.5)
            p_q = spd_power(average(w.inverse(), q), -0.5)
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
        for _ in range(5):
            level = int(rng.integers(0, 5))
            k = DyadicIndex(level, int(rng.integers(0, 1 << level)))
            e = rng.standard_normal(2)
            e /= np.linalg.norm(e)
            second = red_quadratic_form(w, inst.mseq, k, e, order="second")
            wk = average(w, k)
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
    # every sample's <W>_K comes decomposed from the field's cube cache, whose
    # leaf level is the leaves' cached decomposition: one eigh of the inner
    # averages of W (an empty stack at depth 0) and one of every average of
    # W^-1 serve all samples; the value is bitwise the per-sample loop's
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
            assert len(calls) == 2
            want = brute_substitution_error(
                inst.w, inst.mseq.entries, np.random.default_rng(depth), samples=5
            )
            assert got == want


def test_redundancy_suite_decomposes_each_average_once(monkeypatch):
    # every leaf and cube average of W and W^-1 of every instance, the fresh
    # instance of the cross-checks included (seed 3), goes to the solver
    # once: the constants, the telescoping check and the structural
    # identities all read the fields' cached decompositions.  (The fresh
    # depth-4 instance shares its leaves with the first 16 of the suite's
    # depth-7 one of the same seed, so such a matrix is solved once for each.)
    # The suite's instances are solved as (d, depth) groups (FieldBatch);
    # a cross-check on a suite instance reads its member of the group.
    real, real_cube_eig, seen, batches = matrices.eigh_sym, FieldBatch.cube_eig, Counter(), {}

    def counting(m):
        m = np.asarray(m)
        seen.update(x.tobytes() for x in m.reshape(-1, *m.shape[-2:]))
        return real(m)

    def recording(batch):
        if batch._cube_eig is None:  # it solves its averages, not reads them from its group
            batches[id(batch)] = batch
        return real_cube_eig(batch)

    monkeypatch.setattr(matrices, "eigh_sym", counting)
    monkeypatch.setattr(FieldBatch, "cube_eig", recording)
    assert run_experiment(default_config("redundancy-suite", seeds=[0, 1, 2, 3])).passed
    assert len(batches) == 2 * 5  # W and W^-1 of four suite groups and one fresh instance
    want = Counter(x.tobytes() for batch in batches.values()
                   for x in batch.pyramid().reshape(-1, *batch.values.shape[2:]))
    assert all(seen[x] == n for x, n in want.items())


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
                refine(w, deeper),
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
