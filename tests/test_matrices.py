import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlab import matrices
from carlab.errors import DimensionMismatchError, NumericError, SingularMatrixError
from carlab.lab import ExperimentConfig, default_config, run_experiment
from carlab.matrices import (
    ALLOWED_POWERS,
    _jacobi_eigh,
    as_symmetric,
    eig_apply_power,
    eig_power,
    eigh_sym,
    eigvalsh_stack,
    lambda_max_stack,
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
        assert np.array_equal(lam, lam_ref) and np.array_equal(np.signbit(lam), np.signbit(lam_ref))
        assert np.array_equal(v, v_ref) and np.array_equal(np.signbit(v), np.signbit(v_ref))


def swept_stacks(monkeypatch):
    """The stacks ``_jacobi_sweeps`` receives from now on, as copies."""
    swept, sweeps = [], matrices._jacobi_sweeps

    def recording(a, v):
        swept.append(a.copy())
        return sweeps(a, v)

    monkeypatch.setattr(matrices, "_jacobi_sweeps", recording)
    return swept


def assert_distinct(stack):
    """No two members of a stack are equal entry for entry, sign bits included."""
    for i, m in enumerate(stack):
        for other in stack[:i]:
            same_signs = np.array_equal(np.signbit(m), np.signbit(other))
            assert not (np.array_equal(m, other) and same_signs)


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


def test_stacked_jacobi_special_stacks(monkeypatch):
    swept = swept_stacks(monkeypatch)
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
    assert [len(a) for a in swept] == [3, 3, 3, 2, 4, 6, 0]
    # repeated members are swept once, whatever the padding bytes of an
    # 80-bit longdouble hold
    a, b = random_spd_ld(rng, 3, 1e4), random_spd_ld(rng, 3, 1e2)
    repeats = np.stack([a, b, a, a, b, a, b, a])
    if np.finfo(ld).nmant == 63 and repeats.itemsize > 10:  # x87: bytes 10 and up are padding
        pad = repeats.view(np.uint8).reshape(*repeats.shape, -1)[..., 10:]
        pad[...] = rng.integers(0, 256, pad.shape)
        assert len({m.tobytes() for m in repeats}) == 8
    assert np.array_equal(repeats[::2], np.stack([a, a, b, b]))
    swept.clear()
    assert_matches_scalar_jacobi(repeats)
    assert len(swept[0]) == 2
    # with a leading batch shape, and read from the lower triangle only
    upper = np.triu(b) + np.tril(rng.standard_normal((3, 3)).astype(ld), -1)
    swept.clear()
    assert_matches_scalar_jacobi(np.stack([a, b, a, b, b.T, upper]).reshape(3, 2, 3, 3))
    assert len(swept[0]) == 3
    # 0.0 and -0.0 stay apart, in the diagonal and off it
    zero = np.diag(np.array([0.0, 1.0, 2.0], dtype=ld))
    negative_diag, negative_off = zero.copy(), zero.copy()
    negative_diag[0, 0] = ld(-0.0)
    negative_off[1, 0] = ld(-0.0)
    swept.clear()
    assert_matches_scalar_jacobi(np.stack([zero, negative_diag, zero, negative_off, negative_diag]))
    assert len(swept[0]) == 3
    assert np.signbit(_jacobi_eigh(negative_diag)[0][0])
    assert not np.signbit(_jacobi_eigh(zero)[0][0])
    # a NaN member never merges, not even with itself, and still fails
    nan = a.copy()
    nan[1, 0] = ld("nan")
    swept.clear()
    with pytest.raises(NumericError):
        _jacobi_eigh(np.stack([a, nan, a, nan]))
    assert len(swept[0]) == 3
    for stack in swept:
        assert_distinct(stack)


# <W^-1>^1/2 <W> <W^-1>^1/2 at the root of the two-eigenvalue family at
# eps 1e-2, rotation 1.1144232064574016, depth 10, as ``a2_characteristic``
# forms it in longdouble: symmetric up to rounding, 0 above the diagonal and
# -1.04e-17 below it.  Read from both triangles it never converged.
ROUNDED_PRODUCT = np.array([
    ["0.99999999999999986903", "0.0"],
    ["-1.04083408558608425665e-17", "0.9999999999999998699"],
], dtype=np.longdouble)


def test_jacobi_reads_the_lower_triangle():
    lower = np.tril(ROUNDED_PRODUCT) + np.tril(ROUNDED_PRODUCT, -1).T
    vals, vecs = _jacobi_eigh(ROUNDED_PRODUCT)
    want_vals, want_vecs = _jacobi_eigh(lower)
    assert np.array_equal(vals, want_vals) and np.array_equal(vecs, want_vecs)
    assert vals[0] < vals[1] and not np.array_equal(vecs, np.eye(2))
    rng = np.random.default_rng(9)
    noisy = random_spd_ld(rng, 4, 1e3)
    noisy[np.triu_indices(4, 1)] *= np.longdouble(1) + np.longdouble(1e-17)
    assert_matches_scalar_jacobi(np.stack([ROUNDED_PRODUCT, ROUNDED_PRODUCT.T, lower]))
    assert_matches_scalar_jacobi(np.stack([noisy, random_spd_ld(rng, 4, 1e6)]))


def test_stacked_jacobi_sweep_limit(monkeypatch):
    m = random_spd_ld(np.random.default_rng(8), 3, 1e3)
    monkeypatch.setattr(matrices, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(NumericError):
        _jacobi_eigh(m[None])
    with pytest.raises(ArithmeticError):
        brute_jacobi_eigh(m, max_sweeps=1)


def test_sweep_rows_are_bitwise_those_without_grouping(monkeypatch, tool):
    # the deep-sweep configs of perfbench seeds 0-4, with their five rotations
    configs = [tool("seed_sweep")._perfbench_run().workload_configs("deep-sweep", seed)[0][1]
               for seed in range(5)]
    config = configs[0] | {"rotations": [c["rotations"][0] for c in configs]}
    assert config["depth"] == 10 and len(set(config["rotations"])) == 5

    def rows():
        return [run_experiment(ExperimentConfig.from_dict({"experiment": name} | config)).rows
                for name in ("counterexample-sweep", "c2-sharpness")]

    merged, distinct = [], matrices._distinct

    def counting(rows):
        first, inverse = distinct(rows)
        merged.append(len(rows) - len(first))
        return first, inverse

    monkeypatch.setattr(matrices, "_distinct", counting)
    grouped = rows()
    assert len(grouped[0]) == len(grouped[1]) == 10 and max(merged) > 1000
    monkeypatch.setattr(matrices, "_distinct", lambda rows: (np.arange(len(rows)),) * 2)
    assert rows() == grouped


@pytest.mark.parametrize("experiment, overrides", [
    ("redundancy-suite", dict(depth=4, seeds=[0, 1, 2])),  # float64: LAPACK only
    ("counterexample-sweep", dict(depth=3)),  # longdouble: the Jacobi solver only
])
def test_tally_is_the_work_counted_from_outside(monkeypatch, experiment, overrides):
    # the tally's change over a run against wrappers on the LAPACK entry
    # points, the Jacobi solver and the power core, each counting its calls
    # and the matrices in them
    outside = Counter()

    def counting(name, fn, members):
        def wrapper(*args, **kwargs):
            outside.update({f"{name}_calls": 1, f"{name}_mats": members(np.shape(args[0]))})
            return fn(*args, **kwargs)
        return wrapper

    def stack(shape):
        return math.prod(shape[:-2])

    for owner, attr, name, members in (
            (np.linalg, "eigh", "eigh", stack), (np.linalg, "eigvalsh", "eigvalsh", stack),
            (matrices, "_jacobi_eigh", "jacobi", stack),
            (matrices, "eig_power", "power", lambda shape: math.prod(shape[:-1]))):
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr), members))
    before = matrices.TALLY.copy()
    run_experiment(default_config(experiment, **overrides))
    work = matrices.TALLY - before
    for path in ("eigh", "eigvalsh", "jacobi"):
        assert (work[f"{path}_calls"], work[f"{path}_mats"]) == (
            outside[f"{path}_calls"], outside[f"{path}_mats"]), path
    assert work["power_mats"] == outside["power_mats"] > 0
    assert work["jacobi_distinct"] <= work["jacobi_mats"]
    assert work["power_longdouble_distinct"] <= work["power_longdouble_mats"] <= work["power_mats"]
    if experiment == "redundancy-suite":
        assert outside["eigh_calls"] > 0 and outside["eigvalsh_calls"] > 0
        assert work["jacobi_calls"] == work["power_longdouble_mats"] == 0
    else:
        assert outside["jacobi_calls"] > 0 and work["jacobi_sweeps"] > 0
        assert work["power_longdouble_mats"] == work["power_mats"]


def test_sweep_does_not_import_numpy_ma():
    # numpy.ma costs about 1 MB of peak RSS; np.unique imports it
    code = (
        "import sys\n"
        "from carlab.lab import default_config, run_experiment\n"
        "report = run_experiment(default_config('counterexample-sweep', depth=10))\n"
        "assert all(report.verdicts.values())\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_longdouble_power_stack_names_first_singular_matrix():
    # the 5th matrix is the more singular one; a loop stops at the 2nd
    mats = np.stack([np.eye(2), np.diag([1.0, 1e-13]), np.eye(2), 2 * np.eye(2),
                     np.diag([1.0, 0.0]), np.eye(2)]).astype(np.longdouble)
    with pytest.raises(SingularMatrixError) as err:
        eig_power(*eigh_sym(mats), -1.0, context=lambda i: ("leaf", i))
    assert err.value.cube == ("leaf", 1)
    assert err.value.lambda_min == pytest.approx(1e-13)
    # the 5th matrix is refused first: after repeats of others, and ahead of
    # the more singular 7th
    eye = np.eye(2)
    mats = np.stack([2 * eye, eye, 2 * eye, eye, np.diag([1.0, 1e-13]), eye,
                     np.diag([1.0, 0.0])]).astype(np.longdouble)
    for p in (-0.5, -1.0):
        with pytest.raises(SingularMatrixError) as err:
            eig_power(*eigh_sym(mats), p, context=lambda i: ("leaf", i))
        assert err.value.cube == ("leaf", 4)
        with pytest.raises(SingularMatrixError) as err:
            eig_power(*eigh_sym(mats), p)
        assert err.value.point == 4 and err.value.lambda_min == pytest.approx(1e-13)
    # powers of repeated members, each bitwise that of the member on its own
    rng = np.random.default_rng(11)
    a, b = random_spd_ld(rng, 3, 1e6), random_spd_ld(rng, 3, 1e2)
    repeats = np.stack([a, b, a, a, b, b]).reshape(2, 3, 3, 3)
    for p in ALLOWED_POWERS:
        got = eig_power(*eigh_sym(repeats), p)
        assert got.shape == repeats.shape
        assert np.array_equal(got, brute_spd_power(repeats, p))


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


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_lambda_max_is_nan_for_a_member_holding_nan(monkeypatch, dtype):
    # LAPACK read [[nan, 0], [0, 1]] as [0, -0] and diag(nan, 1, 1) as
    # [0, -0, 1], and failed on diag(0, nan, 0); a NaN in the triangle the
    # solvers do not read counts too.  No NaN member reaches a solver.
    nan = np.nan
    real, solved = matrices.eigvalsh_stack, []
    monkeypatch.setattr(matrices, "eigvalsh_stack", lambda m: solved.append(m) or real(m))
    upper = np.eye(3)
    upper[0, 2] = nan
    for m in (np.array([[nan, 0.0], [0.0, 1.0]]), np.diag([nan, 1.0, 1.0]),
              np.diag([0.0, nan, 0.0]), upper):
        d = len(m)
        stack = np.stack([2.0 * np.eye(d), m, np.diag(np.arange(1.0, d + 1))]).astype(dtype)
        solved.clear()
        got = lambda_max_stack(stack)
        assert got.dtype == dtype and np.isnan(got[1])
        assert got[0] == 2.0 and got[2] == d
        assert not any(np.isnan(s).any() for s in solved)
        assert np.isnan(lambda_max_stack(stack[1:2])).all()
    full = np.full((2, 3, 2, 2), nan, dtype=dtype)
    got = lambda_max_stack(full)
    assert got.shape == (2, 3) and np.isnan(got).all()
