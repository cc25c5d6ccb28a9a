import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlab.errors import DimensionMismatchError, NumericError, SingularMatrixError
from carlab.matrices import (
    ALLOWED_POWERS,
    _jacobi_eigh,
    as_symmetric,
    eig_apply_power,
    eig_power,
    eigh_sym,
    eigvalsh_stack,
    operator_norm,
    operator_norm_stack,
    psd_gap,
    spd_power,
    spectrum,
)
from oracles import brute_jacobi_eigh, brute_spd_power


def random_spd(rng, d, cond):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    lams = np.exp(rng.uniform(-0.5 * np.log(cond), 0.5 * np.log(cond), size=d))
    return (q * lams) @ q.T


def test_spectrum_examples():
    # paper family value: diag(1, eps^2) with eps = 0.1
    np.testing.assert_allclose(spectrum(np.diag([1.0, 0.01])), [1.0, 0.01])
    np.testing.assert_allclose(spectrum(np.eye(4)), np.ones(4))
    # characteristic polynomial of [[2,1],[1,2]]: (l-3)(l-1)
    np.testing.assert_allclose(spectrum(np.array([[2.0, 1.0], [1.0, 2.0]])), [3.0, 1.0])


def test_spd_power_examples():
    np.testing.assert_allclose(
        spd_power(np.diag([1.0, 0.01]), 0.5), np.diag([1.0, 0.1]), atol=1e-14
    )
    for p in (0.5, -0.5, -1.0):
        np.testing.assert_allclose(spd_power(np.eye(3), p), np.eye(3), atol=1e-14)
    # 2x2 inverse formula: inv([[2,1],[1,2]]) = [[2,-1],[-1,2]]/3
    np.testing.assert_allclose(
        spd_power(np.array([[2.0, 1.0], [1.0, 2.0]]), -1.0),
        np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0,
        atol=1e-14,
    )


def test_spd_power_rejects_singular():
    with pytest.raises(SingularMatrixError) as err:
        spd_power(np.diag([1.0, 0.0]), -1.0)
    assert err.value.lambda_min is not None
    with pytest.raises(SingularMatrixError):
        spd_power(np.diag([1.0, -0.5]), 0.5)


def test_spd_power_rejects_unknown_exponent():
    with pytest.raises(ValueError):
        spd_power(np.eye(2), 0.25)


def test_psd_gap_examples():
    assert psd_gap(2 * np.eye(3), np.eye(3)) == pytest.approx(1.0)
    assert psd_gap(np.eye(3), np.eye(3)) == pytest.approx(0.0, abs=1e-15)
    # diagonal difference: min(1-0.5, 0.01-0.5) = -0.49
    assert psd_gap(np.diag([1.0, 0.01]), np.diag([0.5, 0.5])) == pytest.approx(-0.49)


def test_psd_gap_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        psd_gap(np.eye(2), np.eye(3))


def test_as_symmetric_rejects_asymmetry():
    with pytest.raises(DimensionMismatchError):
        as_symmetric(np.array([[1.0, 1.0], [0.0, 1.0]]))
    # asymmetry below 1e-9 relative is symmetrized away
    m = np.array([[1.0, 1e-12], [0.0, 1.0]])
    out = as_symmetric(m)
    np.testing.assert_array_equal(out, out.T)


def test_operator_norm_uses_largest_magnitude():
    assert operator_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=5))
@settings(max_examples=80, deadline=None)
def test_inverse_sqrt_whitens(seed, d):
    rng = np.random.default_rng(seed)
    m = random_spd(rng, d, cond=1e6)
    r = spd_power(m, -0.5)
    np.testing.assert_allclose(r @ m @ r, np.eye(d), atol=1e-9)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=5))
@settings(max_examples=80, deadline=None)
def test_power_spectrum_is_spectrum_power(seed, d):
    rng = np.random.default_rng(seed)
    m = random_spd(rng, d, cond=1e4)
    base = spectrum(m)
    for p in (0.5, -0.5, -1.0):
        np.testing.assert_allclose(
            np.sort(spectrum(spd_power(m, p))), np.sort(base**p), rtol=1e-10
        )


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_psd_order_transitivity(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    c = random_spd(rng, d, 1e3)
    b = c + random_spd(rng, d, 1e2)
    a = b + random_spd(rng, d, 1e2)
    assert psd_gap(a, b) >= 0 and psd_gap(b, c) >= 0
    assert psd_gap(a, c) >= -1e-10


def test_longdouble_jacobi_matches_lapack():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3, 5):
        m = random_spd(rng, d, 1e5)
        vals_ld = spectrum(m.astype(np.longdouble))
        np.testing.assert_allclose(np.asarray(vals_ld, dtype=float), spectrum(m), rtol=1e-9)


def test_longdouble_small_eigenvalue_relative_accuracy():
    # rotated two-eigenvalue matrix at condition 1e8: the small eigenvalue
    # must come out to fine relative accuracy, which double LAPACK cannot do
    th = np.longdouble(0.7853981633974483)
    a = np.array([np.cos(th), np.sin(th)], dtype=np.longdouble)
    b = np.array([-np.sin(th), np.cos(th)], dtype=np.longdouble)
    eps2 = np.longdouble(1e-8)
    w = np.outer(a, a) + eps2 * np.outer(b, b)
    lam = spectrum((w + w.T) / 2)
    small = float(lam[-1])
    assert abs(small / 1e-8 - 1.0) < 1e-10


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_stacked_operator_norm_is_bitwise_the_single_matrix_norm(dtype):
    # one eigh over the stack; each member as its own eigh would give it
    rng = np.random.default_rng(8)
    for d in range(1, 9):
        mats = rng.standard_normal((12, d, d))
        mats = ((mats + mats.transpose(0, 2, 1)) / 2).astype(dtype)
        got = operator_norm_stack(mats)
        for m, norm in zip(mats, got):
            vals = eigh_sym(m)[0]
            assert norm == max(abs(vals[0]), abs(vals[-1]))


def test_stacked_power_matches_single():
    rng = np.random.default_rng(12)
    mats = np.stack([random_spd(rng, 3, 1e4) for _ in range(7)])
    out = spd_power(mats, -0.5)
    for i in range(7):
        assert np.array_equal(out[i], spd_power(mats[i], -0.5))
    np.testing.assert_allclose(
        eigvalsh_stack(mats)[0], np.linalg.eigvalsh(mats[0]), rtol=1e-12
    )


def test_stacked_power_names_offender():
    mats = np.stack([np.eye(2), np.diag([1.0, 0.0])])
    with pytest.raises(SingularMatrixError) as err:
        eig_power(*eigh_sym(mats), -1.0, context=lambda i: ("leaf", i))
    assert err.value.cube == ("leaf", 1)
    assert err.value.point is None


def random_spd_ld(rng, d, cond):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    q = q.astype(np.longdouble)
    lams = np.exp(rng.uniform(-0.5 * np.log(cond), 0.5 * np.log(cond), size=d))
    m = (q * lams.astype(np.longdouble)) @ q.T
    return (m + m.T) / 2


def assert_matches_scalar_jacobi(stack):
    vals, vecs = _jacobi_eigh(stack)
    assert vals.shape == stack.shape[:-1] and vecs.shape == stack.shape
    assert vals.dtype == vecs.dtype == np.longdouble
    flat = stack.reshape(-1, *stack.shape[-2:])
    for m, lam, v in zip(flat, vals.reshape(flat.shape[:2]), vecs.reshape(flat.shape)):
        lam_ref, v_ref = brute_jacobi_eigh(m)
        assert np.array_equal(lam, lam_ref)
        assert np.array_equal(v, v_ref)


def sweeps_to_converge(m):
    for k in range(1, 61):
        try:
            brute_jacobi_eigh(m, max_sweeps=k)
        except ArithmeticError:
            continue
        return k
    raise AssertionError("oracle did not converge")


@pytest.mark.parametrize("d", range(1, 9))
def test_stacked_jacobi_is_bitwise_the_scalar_loop(d):
    rng = np.random.default_rng(100 + d)
    stack = np.stack([random_spd_ld(rng, d, cond) for cond in (1.0, 1e2, 1e4, 1e6, 1e8)])
    assert_matches_scalar_jacobi(stack)


def test_stacked_jacobi_special_stacks():
    rng = np.random.default_rng(7)
    ld = np.longdouble
    for d in (2, 3, 5):
        diag = np.diag(np.arange(d, 0, -1).astype(ld))
        assert_matches_scalar_jacobi(np.stack([np.zeros((d, d), ld), diag, -diag]))
    # repeated eigenvalues, in a rotated basis and as a multiple of the identity
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    q = q.astype(ld)
    repeated = (q * np.array([1, 1, 2, 2, 2], dtype=ld)) @ q.T
    assert_matches_scalar_jacobi(np.stack([(repeated + repeated.T) / 2, 3 * np.eye(5, dtype=ld)]))
    # members that leave the working set after different numbers of sweeps
    near_diag = np.diag(np.arange(1, 5).astype(ld))
    near_diag[0, 1] = near_diag[1, 0] = ld(1e-3)
    mixed = np.stack([random_spd_ld(rng, 4, 1e8), np.eye(4, dtype=ld), near_diag,
                      random_spd_ld(rng, 4, 10.0)])
    assert len({sweeps_to_converge(m) for m in mixed}) >= 3
    assert_matches_scalar_jacobi(mixed)
    # leading batch shape and an empty stack
    batch = np.stack([random_spd_ld(rng, 3, 1e5) for _ in range(6)]).reshape(2, 3, 3, 3)
    assert_matches_scalar_jacobi(batch)
    vals, vecs = _jacobi_eigh(np.zeros((0, 4, 4), dtype=ld))
    assert vals.shape == (0, 4) and vecs.shape == (0, 4, 4)


def test_stacked_jacobi_sweep_limit():
    m = random_spd_ld(np.random.default_rng(8), 3, 1e3)
    with pytest.raises(NumericError):
        _jacobi_eigh(m[None], max_sweeps=1)
    with pytest.raises(ArithmeticError):
        brute_jacobi_eigh(m, max_sweeps=1)


def test_longdouble_power_stack_names_first_singular_matrix():
    # the 5th matrix is the more singular one; a loop stops at the 2nd
    mats = np.stack([np.eye(2), np.diag([1.0, 1e-13]), np.eye(2), 2 * np.eye(2),
                     np.diag([1.0, 0.0]), np.eye(2)]).astype(np.longdouble)
    with pytest.raises(SingularMatrixError) as err:
        eig_power(*eigh_sym(mats), -1.0, context=lambda i: ("leaf", i))
    assert err.value.cube == ("leaf", 1)
    assert err.value.lambda_min == pytest.approx(1e-13)


def _with_spectrum(rng, lams):
    q, _ = np.linalg.qr(rng.standard_normal((len(lams), len(lams))))
    return (q * np.asarray(lams)) @ q.T


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("d", range(1, 9))
def test_power_kernel_is_bitwise_the_per_matrix_oracle(dtype, d):
    # 0, 1 and 2 batch axes, condition numbers up to 1e8
    rng = np.random.default_rng(300 + d)
    good = np.stack([random_spd(rng, d, 10.0 ** rng.uniform(0, 8)) for _ in range(12)])
    # members 5 (singular), 7 (a negative part within PSD_CLAMP) and 9 (indefinite)
    bad = good.copy()
    bad[5] = random_spd(rng, d, 1e2) * 1e-13
    bad[7] = _with_spectrum(rng, [-5e-13] + [2.0] * (d - 1))
    bad[9] = _with_spectrum(rng, [-1e-3] + [1.0] * (d - 1))
    good, bad = (((m + m.swapaxes(-1, -2)) / 2).astype(dtype) for m in (good, bad))
    for p in ALLOWED_POWERS:
        for mats in (good[0], good, good.reshape(3, 4, d, d), bad[:9] if p > 0 else bad[:5]):
            got = spd_power(mats, p)
            assert got.dtype == dtype and got.shape == mats.shape
            assert np.array_equal(got, brute_spd_power(mats, p))
        for mats in (bad, bad.reshape(3, 4, d, d)):
            with pytest.raises(SingularMatrixError) as want:
                brute_spd_power(mats, p)
            with pytest.raises(SingularMatrixError) as got:
                spd_power(mats, p)
            assert got.value.point == want.value.point == (9 if p > 0 else 5)
            assert got.value.lambda_min == want.value.lambda_min


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_power_refusal_names_first_member(dtype):
    # members 1 and 3 are refused, 3 the worse one; 2-D input names no member
    eye = np.eye(2)
    negative = np.stack([eye, np.diag([1.0, 1e-13]), eye, np.diag([1.0, 0.0])]).astype(dtype)
    indefinite = np.stack([eye, np.diag([1.0, -1e-3]), eye, np.diag([1.0, -1.0])]).astype(dtype)
    for mats, powers in ((negative, (-0.5, -1.0)), (indefinite, ALLOWED_POWERS)):
        vals, vecs = eigh_sym(mats)
        for p in powers:
            for call in (lambda **kw: eig_power(vals, vecs, p, **kw),
                         lambda **kw: eig_apply_power(vals, vecs, p, np.ones((4, 2)), **kw)):
                with pytest.raises(SingularMatrixError) as err:
                    call()
                assert err.value.point == 1 and err.value.cube is None
                assert "(point 1)" in str(err.value)
                with pytest.raises(SingularMatrixError) as err:
                    call(context=lambda i: ("leaf", i))
                assert err.value.cube == ("leaf", 1) and err.value.point is None
                assert err.value.lambda_min == float(vals[1, 0])
            with pytest.raises(SingularMatrixError) as err:
                spd_power(mats[3], p)
            assert err.value.point is None and err.value.cube is None
    # batch axes are flattened in C order: member (1, 0) of a (2, 2) stack is 2
    with pytest.raises(SingularMatrixError) as err:
        spd_power(indefinite[[0, 0, 1, 3]].reshape(2, 2, 2, 2), 0.5)
    assert err.value.point == 2
    # the square root clips a negative part within PSD_CLAMP
    assert np.array_equal(spd_power(np.diag([1.0, -1e-13]).astype(dtype), 0.5),
                          np.diag([1.0, 0.0]).astype(dtype))


def test_spd_power_refuses_asymmetric_input():
    m = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(DimensionMismatchError):
        spd_power(m, 0.5)
    with pytest.raises(DimensionMismatchError) as err:
        spd_power(np.stack([np.eye(2), m]), 0.5)
    assert err.value.point == 1


def test_apply_power_is_the_power_applied():
    rng = np.random.default_rng(4)
    mats = np.stack([random_spd(rng, 3, 1e3) for _ in range(5)])
    x = rng.standard_normal((5, 3))
    for p in ALLOWED_POWERS:
        got = eig_apply_power(*eigh_sym(mats), p, x)
        want = np.einsum("kij,kj->ki", spd_power(mats, p), x)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
        # one vector through one matrix is bitwise the stack's member
        assert np.array_equal(eig_apply_power(*eigh_sym(mats[2]), p, x[2]), got[2])
