import numpy as np
import pytest

from carlab.bellman import (
    BellmanPoint,
    bellman_concavity_gap,
    bellman_dm_gap,
    bellman_dynamics_gap,
    bellman_eval,
    bellman_second_derivative,
    dyadic_point,
    dynamics_gaps,
    dynamics_gaps_batch,
    hessian_richardson_ratio,
    matrix_parameter_probe,
    random_domain_point,
    telescoping_certificate,
)
from carlab.characteristics import ScalarSequence, carleson_intensity
from carlab.constructions import random_instance, random_scalar_sequence, random_weight_field
from carlab.dyadic import ROOT, DyadicIndex, FieldBatch, StepField, average
from carlab.errors import DomainError, PreconditionError
from carlab.matrices import operator_norm, psd_gap
from carlab.redundancy import sred_constant

from oracles import bellman_dm_derivative, domain_margins

I2 = np.eye(2)


def test_domain_membership():
    BellmanPoint(I2, I2, 0.5)  # boundary of the PSD constraint
    with pytest.raises(DomainError):
        BellmanPoint(0.5 * I2, I2, 0.5)  # U < V^-1
    with pytest.raises(DomainError):
        BellmanPoint(2 * I2, I2, 1.5)  # m out of range
    with pytest.raises(DomainError):
        BellmanPoint(2 * I2, I2, -0.1)


def test_eval_examples():
    np.testing.assert_allclose(bellman_eval(BellmanPoint(I2, I2, 0.0)), np.zeros((2, 2)), atol=1e-15)
    np.testing.assert_allclose(bellman_eval(BellmanPoint(I2, I2, 1.0)), 0.5 * I2, atol=1e-15)
    p = BellmanPoint(2 * I2, I2, 0.0)
    b = bellman_eval(p)
    np.testing.assert_allclose(b, I2, atol=1e-15)
    assert psd_gap(b, np.zeros((2, 2))) == pytest.approx(1.0)
    assert psd_gap(p.u, b) == pytest.approx(1.0)


def test_concavity_examples():
    p = BellmanPoint(2 * I2, I2, 0.0)
    assert bellman_concavity_gap(p, p) == pytest.approx(0.0, abs=1e-15)
    # commuting data: scalar computation gives 4/3 - (1 + 3/2)/2 = 1/12
    q = BellmanPoint(2 * I2, 2 * I2, 0.0)
    assert bellman_concavity_gap(p, q) == pytest.approx(1.0 / 12.0, rel=1e-12)
    # affine in U: varying U alone leaves the gap at zero
    u_path = bellman_concavity_gap(
        BellmanPoint(2 * I2, I2, 0.3), BellmanPoint(4 * I2, I2, 0.3)
    )
    assert u_path == pytest.approx(0.0, abs=1e-14)


def test_dm_gap_examples():
    h = 1e-5
    # analytic derivative at m = 0 is V^-1, gap vs V^-1/4 about 3/4
    gap = bellman_dm_gap(BellmanPoint(np.eye(1), np.eye(1), 0.0), h)
    assert gap == pytest.approx(0.75, abs=1e-4)
    # bound saturates at m = 1 (up to the forward-difference O(h) deficit)
    gap = bellman_dm_gap(BellmanPoint(np.eye(1), np.eye(1), 1.0 - h), h)
    assert abs(gap) <= 1e-4
    # scaling: V = 2 halves both sides
    gap2 = bellman_dm_gap(BellmanPoint(np.eye(1) * 0.5, np.eye(1) * 2.0, 1.0 - h), h)
    assert abs(gap2) <= 1e-4 and gap2 == pytest.approx(gap / 2, abs=1e-6)


def test_dm_gap_rejects_bad_step():
    p = BellmanPoint(I2, I2, 0.0)
    with pytest.raises(PreconditionError):
        bellman_dm_gap(p, 1e-3)
    with pytest.raises(DomainError):
        bellman_dm_gap(BellmanPoint(I2, I2, 1.0), 1e-5)  # shift leaves the domain


def test_dm_finite_difference_matches_analytic():
    rng = np.random.default_rng(31)
    h = 1e-5
    worst = 0.0
    for _ in range(200):
        p = random_domain_point(1 + int(rng.integers(3)), rng, cond_cap=1024)
        p = BellmanPoint(p.u, p.v, min(p.m, 1.0 - h))
        shifted = BellmanPoint(p.u, p.v, p.m + h)
        quotient = (bellman_eval(shifted) - bellman_eval(p)) / h
        defect = operator_norm(quotient - bellman_dm_derivative(p))
        # |d2B/dm2| = 2 (m+1)^-3 |V^-1| <= 2 * 32: the quotient lags by <= c h
        worst = max(worst, defect / h)
    assert worst <= 64.0


def test_size_bounds_random():
    rng = np.random.default_rng(32)
    for _ in range(500):
        p = random_domain_point(1 + int(rng.integers(4)), rng, cond_cap=1e4)
        b = bellman_eval(p)
        assert psd_gap(b, np.zeros_like(b)) >= -1e-9
        assert psd_gap(p.u, b) >= -1e-9


def test_concavity_random():
    rng = np.random.default_rng(33)
    for _ in range(500):
        d = 1 + int(rng.integers(4))
        gap = bellman_concavity_gap(
            random_domain_point(d, rng, cond_cap=1e4),
            random_domain_point(d, rng, cond_cap=1e4),
        )
        assert gap >= -1e-8


def test_second_derivative_richardson():
    ratio = hessian_richardson_ratio()
    assert 80.0 <= ratio <= 120.0


def test_second_derivative_commuting_closed_form():
    # diagonal data: the closed form reduces to scalar calculus per entry
    v = np.diag([0.5, 2.0])
    p = BellmanPoint(np.diag([3.0, 1.0]), v, 0.25)
    dv = np.diag([0.2, -0.3])
    dm = 0.7
    out = bellman_second_derivative(p, dv, dm)
    s = 1.0 / 1.25
    for i, (vi, dvi) in enumerate([(0.5, 0.2), (2.0, -0.3)]):
        expected = -2.0 * (
            s**3 * dm * dm / vi + s**2 * dm * dvi / vi**2 + s * dvi**2 / vi**3
        )
        assert out[i, i] == pytest.approx(expected, rel=1e-12)


def test_dynamics_examples():
    # constant identity weight, zero sequence: all certificates vanish
    w = StepField.constant(2, I2)
    zero = ScalarSequence(2)
    gaps = dynamics_gaps(w, zero)
    assert max(abs(g) for g in gaps.values()) <= 1e-14
    # identity weight, unit mass at the root: closed-form gap 1/4
    alpha = ScalarSequence(1, {ROOT: 1.0})
    w1 = StepField.constant(1, I2)
    assert bellman_dynamics_gap(w1, alpha, ROOT) == pytest.approx(0.25, rel=1e-12)


def test_dynamics_rejects_leaf_and_bad_intensity():
    w = StepField.constant(1, I2)
    alpha = ScalarSequence(1, {ROOT: 1.0})
    with pytest.raises(PreconditionError):
        bellman_dynamics_gap(w, alpha, DyadicIndex(1, 0))
    heavy = ScalarSequence(1, {ROOT: 3.0})
    with pytest.raises(PreconditionError, match=r"^dynamics requires Carleson intensity <= 1, "
                                                r"got 3\.0$"):
        bellman_dynamics_gap(w, heavy, ROOT)
    # in a batch of more than one the refusal names the first member refused
    batch = FieldBatch.stack([w] * 3)
    with pytest.raises(PreconditionError) as info:
        dynamics_gaps_batch(batch, [alpha, heavy, heavy.scaled(2.0)])
    assert str(info.value) == "dynamics requires Carleson intensity <= 1, got 3.0 (point 1)"
    assert info.value.point == 1


def test_dynamics_random_instances():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        w = random_weight_field(4, 1 + seed % 3, rng, cond_cap=1e3)
        alpha = random_scalar_sequence(4, rng)
        gaps = dynamics_gaps(w, alpha)
        assert min(gaps.values()) >= -1e-9


def test_dyadic_point_membership():
    inst = random_instance(4, 2, seed=5, cond_cap=1e4)
    p = dyadic_point(inst.w, inst.sseq, ROOT)
    # matrix Jensen puts dyadic data inside the domain with margin
    assert domain_margins(p)["psd"] >= -1e-10
    assert 0.0 <= p.m <= 1.0 + 1e-9


def test_telescoping_identity_and_bound():
    for seed in range(10):
        inst = random_instance(4, 2, seed=seed, cond_cap=1e4)
        direct, accumulated, min_gap = telescoping_certificate(inst.w, inst.sseq)
        assert operator_norm(direct - accumulated) <= 1e-8
        assert min_gap >= -1e-9
        # the telescoped inequality is the redundancy bound with constant 4
        assert sred_constant(inst.w, inst.sseq) <= 4.0 + 1e-8


def test_telescoping_agrees_with_sred_oracle():
    # two routes to the same operator sum: direct sred assembly vs the
    # Bellman certificates; the derived bound must agree to 1e-8
    for seed in range(5):
        inst = random_instance(4, 2, seed=seed, cond_cap=1e4)
        wm = inst.w.as_matrix()
        from carlab import matrices

        total = np.zeros((2, 2))
        for q, a in inst.sseq.items():
            total += a * matrices.spd_power(average(wm.inverse(), q), -1.0)
        # telescoping: |K| B_root - direct = leaf tail + certificates >= 0
        p = dyadic_point(inst.w, inst.sseq, ROOT)
        lhs = bellman_eval(p)
        assert psd_gap(lhs, 0.25 * total) >= -1e-9


def test_matrix_parameter_probe_reports_only():
    out = matrix_parameter_probe(d=2, n_pairs=200, seed=1)
    assert set(out) == {"pairs", "min_gap", "mean_gap", "negative_fraction", "negatives"}
    assert out["pairs"] == 200
    # the open question stays open: the probe must not assert anything
    assert isinstance(out["min_gap"], float)
