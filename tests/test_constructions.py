import math

import numpy as np
import pytest

from carlab.characteristics import (
    a2_characteristic,
    c2_conditioning,
    carleson_intensity,
    wcet_testing_constant,
)
from carlab.constructions import (
    EPS_SWEEP,
    epsilon_family,
    necessity_probe,
    random_instance,
    random_matrix_sequence,
    random_orthogonal,
    random_scalar_sequence,
    random_spd,
)
from carlab.dyadic import DyadicIndex, ROOT, cubes
from carlab.embeddings import bet_inner_sum, bet_norm_sum, weighted_l2_norm
from carlab.errors import NumericError, PreconditionError
from carlab import constructions, matrices

from oracles import brute_random_matrix_sequence, brute_random_scalar_sequence


def test_family_standard_basis_values():
    inst = epsilon_family(0.1, 0.0, depth=2)
    assert weighted_l2_norm(inst.f) == pytest.approx(0.1, rel=1e-12)
    assert weighted_l2_norm(inst.g) == pytest.approx(1.0, rel=1e-12)
    assert a2_characteristic(inst.w) == pytest.approx(1.0, abs=1e-12)
    assert c2_conditioning(inst.w) == pytest.approx(100.0, rel=1e-12)


def test_family_degenerate_endpoint():
    inst = epsilon_family(1.0, 0.0, depth=1)
    np.testing.assert_allclose(np.asarray(inst.w.values, float), np.eye(2)[None].repeat(2, 0))
    assert c2_conditioning(inst.w) == pytest.approx(1.0)


def test_family_rotation_invariance():
    base = epsilon_family(0.1, 0.0, depth=2)
    rot = epsilon_family(0.1, math.pi / 4, depth=2)
    for inst in (base, rot):
        assert weighted_l2_norm(inst.f) == pytest.approx(0.1, rel=1e-11)
        assert weighted_l2_norm(inst.g) == pytest.approx(1.0, rel=1e-11)
        assert a2_characteristic(inst.w) == pytest.approx(1.0, abs=1e-11)
        assert c2_conditioning(inst.w) == pytest.approx(100.0, rel=1e-11)
        assert bet_norm_sum(inst.w, inst.seq_norm, inst.f, inst.g) == pytest.approx(
            1.0, abs=1e-11
        )


def test_family_eps_validation():
    with pytest.raises(PreconditionError):
        epsilon_family(0.0)
    with pytest.raises(PreconditionError):
        epsilon_family(1.5)


def test_family_intensities_are_one():
    inst = epsilon_family(0.01, 0.2, depth=3)
    for seq in (inst.seq_norm, inst.seq_inner, inst.alpha):
        assert carleson_intensity(seq) == pytest.approx(1.0, abs=1e-10)
    # the instance keeps the intensities it checked, bit for bit
    assert (inst.intensity_norm, inst.intensity_inner, inst.intensity_alpha) == tuple(
        carleson_intensity(seq) for seq in (inst.seq_norm, inst.seq_inner, inst.alpha)
    )


def test_family_refuses_float64_longdouble(monkeypatch):
    monkeypatch.setattr(constructions, "EXTENDED_PRECISION", False)
    with pytest.raises(NumericError, match="longdouble"):
        epsilon_family(0.1, 0.0, depth=2)


def test_family_spectra_match_mpmath():
    # the longdouble eigenvalues of W, W^-1 and W^1/2 as the family computes
    # them, against a 50-digit solve of the same longdouble matrices
    mpmath = pytest.importorskip("mpmath")
    eps_ld = np.finfo(np.longdouble).eps

    def exact(x):
        num, den = x.as_integer_ratio()
        return mpmath.mpf(num) / den

    with mpmath.workdps(50):
        for theta in (0.0, 0.3, 1.1):
            for eps in EPS_SWEEP:
                w = epsilon_family(eps, theta, depth=2).w
                for m in (w.values[0], w.inverse().values[0], w.power(0.5).values[0]):
                    ref = sorted(mpmath.eigsy(mpmath.matrix(
                        [[exact(x) for x in row] for row in m]), eigvals_only=True))
                    lam = matrices.eigvalsh_stack(m[None])[0]
                    lam_max = max(abs(r) for r in ref)
                    for got, want in zip(lam, ref):
                        assert abs(exact(got) - want) <= 8 * exact(eps_ld) * lam_max


def test_failure_witness_norm_ratio():
    # ratio = 1/eps with intensity pinned at 1: the unbounded witness
    for eps in EPS_SWEEP:
        inst = epsilon_family(eps, 0.0, depth=4)
        ratio = bet_norm_sum(inst.w, inst.seq_norm, inst.f, inst.g) / (
            weighted_l2_norm(inst.f) * weighted_l2_norm(inst.g)
        )
        assert ratio == pytest.approx(1.0 / eps, rel=1e-9)


def test_failure_witness_inner_ratio():
    for eps in (0.1, 1e-3):
        inst = epsilon_family(eps, 0.0, depth=4)
        ratio = bet_inner_sum(inst.w, inst.seq_inner, inst.f, inst.g) / (
            weighted_l2_norm(inst.f) * weighted_l2_norm(inst.g)
        )
        assert ratio == pytest.approx(0.5 / eps, rel=1e-9)


def test_failure_witness_scalar_sequence():
    # the scalar unit sequence reproduces the matrix norm-form ratio exactly
    for eps in (0.1, 1e-2):
        inst = epsilon_family(eps, 0.0, depth=4)
        r_matrix = bet_norm_sum(inst.w, inst.seq_norm, inst.f, inst.g)
        r_scalar = bet_norm_sum(inst.w, inst.alpha, inst.f, inst.g)
        assert r_scalar == pytest.approx(r_matrix, rel=1e-11)


def test_sharpness_witness():
    for eps in EPS_SWEEP:
        inst = epsilon_family(eps, 0.0, depth=4)
        ratio = bet_norm_sum(inst.w, inst.seq_norm, inst.f, inst.g) / (
            weighted_l2_norm(inst.f) * weighted_l2_norm(inst.g)
        )
        assert ratio / math.sqrt(c2_conditioning(inst.w)) == pytest.approx(1.0, rel=1e-9)


def test_a2_insufficiency_across_sweep():
    for eps in EPS_SWEEP:
        inst = epsilon_family(eps, 0.0, depth=4)
        assert a2_characteristic(inst.w) == pytest.approx(1.0, abs=1e-10)


def test_random_instance_determinism():
    a = random_instance(1, 1, seed=42, cond_cap=1e4)
    b = random_instance(1, 1, seed=42, cond_cap=1e4)
    np.testing.assert_array_equal(a.w.values, b.w.values)
    np.testing.assert_array_equal(a.f.values, b.f.values)
    assert dict(a.sseq.items()) == dict(b.sseq.items())
    for q in a.mseq.entries:
        np.testing.assert_array_equal(a.mseq.entries[q], b.mseq.entries[q])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_random_sequences_match_per_entry_oracles(d):
    # the stacked samplers draw in the per-entry order and build bitwise the
    # same entries, in the same order; density 0 falls back to the root
    for depth in range(9):
        for seed, density in ((depth, 0.35), (40 + depth, 0.35), (depth, 0.9), (depth, 0.0)):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            mseq = random_matrix_sequence(depth, d, rng, density)
            want = brute_random_matrix_sequence(depth, d, ref, density)
            assert list(mseq.entries) == list(want)
            assert all(np.array_equal(mseq.entries[q], want[q]) for q in want)
            assert rng.bit_generator.state == ref.bit_generator.state
            sseq = random_scalar_sequence(depth, rng, density)
            want = brute_random_scalar_sequence(depth, ref, density)
            assert list(sseq.items()) == list(want.items())
            assert rng.bit_generator.state == ref.bit_generator.state


def test_random_instance_normalization_and_cap():
    for seed in range(12):
        inst = random_instance(4, 3, seed=seed, cond_cap=1e4)
        assert abs(carleson_intensity(inst.mseq) - 1.0) <= 1e-10
        assert abs(carleson_intensity(inst.sseq) - 1.0) <= 1e-10
        assert c2_conditioning(inst.w) <= 1e4 * (1 + 1e-12)


def test_random_spd_respects_cap():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = random_spd(3, rng, cond_cap=100.0)
        vals = np.linalg.eigvalsh(m)
        assert vals[-1] / vals[0] <= 100.0 * (1 + 1e-12)
    q = random_orthogonal(4, rng)
    np.testing.assert_allclose(q @ q.T, np.eye(4), atol=1e-12)


def test_random_spd_rejects_extreme_cap():
    rng = np.random.default_rng(0)
    with pytest.raises(PreconditionError):
        random_spd(2, rng, cond_cap=1e9)


def test_necessity_probe_examples():
    from carlab.characteristics import MatrixSequence
    from carlab.dyadic import StepField

    w = StepField.constant(2, np.eye(2))
    seq = MatrixSequence(2, 2, {ROOT: np.eye(2)})
    for e in (np.array([1.0, 0.0]), np.array([0.6, 0.8])):
        assert necessity_probe(w, seq, ROOT, e) == pytest.approx(1.0)
    assert necessity_probe(w, MatrixSequence(2, 2), ROOT, np.array([1.0, 0.0])) == 0.0


def test_necessity_probe_requires_unit_vector():
    from carlab.characteristics import MatrixSequence
    from carlab.dyadic import StepField

    w = StepField.constant(1, np.eye(2))
    with pytest.raises(PreconditionError):
        necessity_probe(w, MatrixSequence(1, 2), ROOT, np.array([2.0, 0.0]))


def test_necessity_probe_attains_testing_constant():
    # eigen-oracle equivalence: sampled probes never exceed the testing
    # constant, and the top testing vector attains the per-cube value
    rng = np.random.default_rng(77)
    for seed in range(6):
        inst = random_instance(4, 3, seed=seed, cond_cap=1e4)
        testing = wcet_testing_constant(inst.w, inst.mseq)
        attained = 0.0
        for q in cubes(4):
            wk = inst.w.pyramid()[q.level][q.position]
            # accumulate S_K literally, then take the top generalized vector
            s_k = np.zeros((3, 3))
            for qq, a in inst.mseq.items():
                if q.contains(qq):
                    wq = inst.w.pyramid()[qq.level][qq.position]
                    s_k += wq @ a @ wq
            s_k /= q.measure
            root = matrices.spd_power(wk, -0.5)
            lam, vecs = np.linalg.eigh(root @ s_k @ root)
            e_star = root @ vecs[:, -1]
            e_star /= np.linalg.norm(e_star)
            value = necessity_probe(inst.w, inst.mseq, q, e_star)
            assert value <= testing + 1e-9
            assert value == pytest.approx(float(lam[-1]), rel=1e-8, abs=1e-12)
            attained = max(attained, value)
        for _ in range(1000):
            e = rng.standard_normal(3)
            e /= np.linalg.norm(e)
            q = DyadicIndex(int(rng.integers(0, 5)), 0)
            q = DyadicIndex(q.level, int(rng.integers(0, 1 << q.level)))
            assert necessity_probe(inst.w, inst.mseq, q, e) <= testing + 1e-9
        assert attained == pytest.approx(testing, rel=1e-8)

