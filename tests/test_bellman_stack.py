"""The stacked Bellman API and the draw-then-batch samplers against the
per-sample and per-cube oracles, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlab import bellman
from carlab.bellman import (
    BellmanPoint,
    BellmanStack,
    bellman_dynamics_gap,
    bellman_eval,
    bellman_eval_stack,
    concavity_gap_stack,
    concavity_gaps,
    dm_gap_stack,
    dm_gaps,
    dynamics_gaps,
    matrix_parameter_probe,
    random_domain_point,
    size_gap_stack,
    size_gaps,
    telescoping_certificate,
)
from carlab.constructions import (
    random_orthogonal,
    random_scalar_sequence,
    random_spd,
    random_weight_field,
)
from carlab.dyadic import DyadicIndex, tree_position
from carlab.errors import DimensionMismatchError, DomainError, SingularMatrixError
from carlab.lab import default_config, run_experiment

from oracles import (
    brute_concavity_gaps,
    brute_cube_certificate,
    brute_dm_gaps,
    brute_dynamics_gaps,
    brute_matrix_parameter_probe,
    brute_random_domain_point,
    brute_random_orthogonal,
    brute_random_spd,
    brute_random_weight_field,
    brute_size_gaps,
    brute_telescoping_certificate,
)

SEEDS = (0, 7, 100, 5000)
H = 1e-5


def _pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


# -- random constructors ------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_random_spd_and_orthogonal_match_oracle(seed):
    rng, ref = _pair(seed)
    for d in range(1, 9):
        for cond_cap in (1.0, 1e2, 1e4, 1e8):
            assert np.array_equal(random_spd(d, rng, cond_cap), brute_random_spd(d, ref, cond_cap))
        assert np.array_equal(random_orthogonal(d, rng), brute_random_orthogonal(d, ref))
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_random_weight_field_matches_oracle(seed):
    # one QR and one matmul per field must give each leaf's per-sample bits
    rng, ref = _pair(seed)
    for depth in range(0, 7):
        for d in range(1, 5):
            w = random_weight_field(depth, d, rng, cond_cap=1e4)
            assert np.array_equal(w.values, brute_random_weight_field(depth, d, ref, 1e4))
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_random_domain_point_matches_oracle(seed):
    rng, ref = _pair(seed)
    for i in range(40):
        d = 1 + i % 4
        p, q = random_domain_point(d, rng), brute_random_domain_point(d, ref)
        assert np.array_equal(p.u, q.u) and np.array_equal(p.v, q.v) and p.m == q.m
    assert rng.bit_generator.state == ref.bit_generator.state


# -- sampling checks ----------------------------------------------------------

CHECKS = {
    "size": (lambda rng, n, d_max: size_gaps(rng, n, d_max), brute_size_gaps),
    "concavity": (concavity_gaps, brute_concavity_gaps),
    "dm": (lambda rng, n, d_max: dm_gaps(rng, n, d_max, H),
           lambda rng, n, d_max: brute_dm_gaps(rng, n, d_max, H)),
}


@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d_max", [1, 2, 3, 4])
def test_sampling_checks_match_oracle(check, seed, d_max, monkeypatch):
    # more than one block, the last one partial
    monkeypatch.setattr(bellman, "BLOCK", 16)
    n = 37
    stacked, brute = CHECKS[check]
    rng, ref = _pair(seed)
    gaps, dims = stacked(rng, n, d_max)
    want_gaps, want_dims = brute(ref, n, d_max)
    assert np.array_equal(gaps, want_gaps)
    assert np.array_equal(dims, want_dims)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_domain_points_decompose_each_v_once(monkeypatch):
    # The stack takes V's eigendecomposition from _Draws.stack, which
    # formed V^-1 from it: 4 matrices per sample (V, B twice, U - B), not 5.
    from carlab import matrices

    eigh_sym, counted = matrices.eigh_sym, []

    def counting(m):
        counted.append(int(np.prod(np.shape(m)[:-2])))
        return eigh_sym(m)

    def decompose_again(self, u, v, m, _eig=None):  # the stack as it was before
        init(self, u, v, m)

    init = BellmanStack.__init__
    monkeypatch.setattr(matrices, "eigh_sym", counting)
    gaps, dims = size_gaps(np.random.default_rng(3), 1000, 4)
    assert sum(counted) == 4000
    monkeypatch.setattr(BellmanStack, "__init__", decompose_again)
    want_gaps, want_dims = size_gaps(np.random.default_rng(3), 1000, 4)
    assert sum(counted) == 4000 + 5000
    assert np.array_equal(gaps, want_gaps) and np.array_equal(dims, want_dims)


def test_block_is_one_stack_per_d(monkeypatch):
    # a block of any size up to BLOCK makes the same LAPACK calls: one
    # stack per d and step
    eigh, calls = np.linalg.eigh, []

    def counting(a):
        calls.append(np.shape(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    counts = []
    for n in (64, bellman.BLOCK):
        calls.clear()
        _, dims = size_gaps(np.random.default_rng(11), n, 4)
        assert sorted(set(dims.tolist())) == [1, 2, 3, 4]
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def _draw_points(rng, n, d, cond_cap=1e4, fraction=0.3):
    """``_Draws`` of ``n`` random domain points of one d, one per row."""
    draws = bellman._Draws(n, 1, d, cond_cap)
    for r in range(n):
        draws.draw_points(rng, r, fraction)
    return draws


def test_boundary_points_build_no_bump(monkeypatch):
    # U = V^-1 on the boundary: QR factors V's stack and one bump per point
    # that drew one, none for a boundary point
    qr, factored = np.linalg.qr, []

    def counting(a):
        factored.append(int(np.prod(np.shape(a)[:-2])))
        return qr(a)

    monkeypatch.setattr(np.linalg, "qr", counting)
    rng = np.random.default_rng(5)
    for fraction, n in ((1.0, 9), (0.3, 40)):
        draws = _draw_points(rng, n, 3, COND, fraction)
        bumps = int(draws.bumped.sum())
        assert bumps == 0 if fraction == 1.0 else 0 < bumps < n
        factored.clear()
        draws.stack(0, slice(0, n))
        assert sum(factored) == n + bumps


@pytest.mark.parametrize("seed", SEEDS)
def test_matrix_parameter_probe_matches_oracle(seed):
    for d in (1, 2, 3, 4):
        n = 150 if d == 2 else 40
        assert matrix_parameter_probe(d, n, seed) == brute_matrix_parameter_probe(d, n, seed)


# -- dynamics -----------------------------------------------------------------

def _instance(seed, depth, d):
    rng = np.random.default_rng(seed)
    w = random_weight_field(depth, d, rng, cond_cap=1e3)
    return w, random_scalar_sequence(depth, rng)


@pytest.mark.parametrize("seed", [0, 7, 100])
@pytest.mark.parametrize("depth", range(0, 6))
@pytest.mark.parametrize("d", range(1, 5))
def test_dynamics_match_oracle(seed, depth, d):
    w, alpha = _instance(seed + 10 * depth + d, depth, d)
    gaps = dynamics_gaps(w, alpha)
    want = brute_dynamics_gaps(w, alpha)
    assert list(gaps) == [DyadicIndex(*q) for q in want]
    assert list(gaps.values()) == list(want.values())
    subcubes = [(0, 0)] + [(depth, (1 << depth) - 1)] + ([(1, 1)] if depth >= 1 else [])
    for level, pos in subcubes:
        got = telescoping_certificate(w, alpha, DyadicIndex(level, pos))
        ref = brute_telescoping_certificate(w, alpha, level, pos)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
        assert got[2] == ref[2]
    if depth:
        cube = DyadicIndex(depth - 1, 0)
        cert = brute_cube_certificate(w, alpha, *cube)
        assert bellman_dynamics_gap(w, alpha, cube) == gaps[cube]
        assert gaps[cube] == float(np.linalg.eigh(cert)[0][0])


def test_dynamics_eigh_calls_do_not_depend_on_depth(monkeypatch):
    # D(K) is one stack: the certificates decompose as many stacks on a
    # tree of depth 6 as on one of depth 1
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(len(a)) or eigh(a))
    counts = {}
    for depth in (1, 6):
        w, alpha = _instance(depth, depth, 2)
        for certify in (dynamics_gaps, telescoping_certificate):
            calls.clear()
            certify(w, alpha)
            counts[certify, depth] = len(calls)
    assert counts[dynamics_gaps, 1] == counts[dynamics_gaps, 6]
    assert counts[telescoping_certificate, 1] == counts[telescoping_certificate, 6]


# -- errors name the first bad point -----------------------------------------

I2 = np.eye(2)
BAD = (1, 4)


def _stack_with(kind):
    """Six admissible d = 2 points; points 1 and 4 carry the defect ``kind``."""
    u = np.stack([2.0 * I2] * 6)
    v = np.stack([I2] * 6)
    m = np.full(6, 0.5)
    for i in BAD:
        if kind == "domain":
            u[i] = (0.4 if i == 1 else 0.1) * I2  # U < V^-1
        elif kind == "asymmetric":
            u[i] = [[2.0, 1.0], [0.0, 2.0]]
        else:  # V singular, yet V^1/2 U V^1/2 >= 1
            v[i] = np.diag([1e-13 if i == 1 else 1e-14, 1.0])
            u[i] = np.diag([2e13 if i == 1 else 2e14, 2.0])
    return u, v, m


STACK_CHECKS = {
    "size": size_gap_stack,
    "concavity": lambda s: concavity_gap_stack(s, s),
    "dm": lambda s: dm_gap_stack(s.with_m(np.minimum(s.m, 1.0 - H)), H),
}
ERRORS = {
    "domain": DomainError,
    "asymmetric": DimensionMismatchError,
    "singular": SingularMatrixError,
}


@pytest.mark.parametrize("check", sorted(STACK_CHECKS))
@pytest.mark.parametrize("kind", sorted(ERRORS))
def test_stack_errors_name_first_bad_point(check, kind):
    u, v, m = _stack_with(kind)
    with pytest.raises(ERRORS[kind]) as info:
        STACK_CHECKS[check](BellmanStack(u, v, m))
    assert info.value.point == 1
    assert "(point 1)" in str(info.value)
    # the same defect, one point at a time, with the same margins; a point
    # is a stack of one, but its error names no member
    with pytest.raises(ERRORS[kind]) as one:
        bellman_eval(BellmanPoint(u[1], v[1], m[1]))
    assert one.value.point is None and "(point" not in str(one.value)
    if kind == "domain":
        assert info.value.margins == one.value.margins
    if kind == "singular":
        assert info.value.lambda_min == one.value.lambda_min


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_stack_inverse_names_first_singular_point(dtype):
    # V is refused at points 1 and 4, at 4 with the smaller eigenvalue
    u, v, m = _stack_with("singular")
    s = BellmanStack(u.astype(dtype), v.astype(dtype), m)
    with pytest.raises(SingularMatrixError) as info:
        s.vinv
    assert info.value.point == 1
    assert info.value.lambda_min == pytest.approx(1e-13, rel=1e-9)


def test_sampled_errors_name_first_failing_sample():
    # d = 1 samples are evaluated first, but the d = 2 sample 1 fails before
    # the d = 1 sample 4 in draw order, at a later stage (B, not the
    # construction); the error must be sample 1's
    good = {1: (np.eye(1) * 2.0, np.eye(1), 0.5), 2: (2.0 * I2, I2, 0.5)}
    singular = _stack_with("singular")
    samples = [
        (2, good[2]),
        (2, (singular[0][1], singular[1][1], 0.5)),
        (1, good[1]),
        (1, good[1]),
        (1, (np.array([[0.1]]), np.eye(1), 0.5)),  # outside the domain
        (2, good[2]),
    ]

    def evaluate(store, sl):
        u, v, m = (np.stack(part) for part in zip(*map(store.get, range(sl.start, sl.stop))))
        return size_gap_stack(BellmanStack(u, v, m))

    with pytest.raises(SingularMatrixError) as info:
        _scripted_sampled(samples, evaluate)
    assert info.value.point == 1
    with pytest.raises(DomainError) as info:
        _scripted_sampled(samples[:1] + samples[2:], evaluate)
    assert info.value.point == 3


def _scripted_sampled(samples, evaluate):
    """``bellman._sampled`` on the (d, sample) pairs ``samples``: each d's
    draws are a dict, and a sample is stored under its row."""
    drawn = iter(samples)

    def draw_d():
        nonlocal sample
        d, sample = next(drawn)
        return d

    def draw_into(store, r):
        store[r] = sample

    sample = None
    return bellman._sampled(len(samples), lambda d: {}, draw_d, draw_into, evaluate)


def test_sampled_rows_restart_with_each_block(monkeypatch):
    # blocks of 4: d = 3 is drawn first in the second block, and d = 1 is
    # missing from it; each d's rows start at 0 in every block
    monkeypatch.setattr(bellman, "BLOCK", 4)
    dims = [1, 2, 1, 1, 3, 2, 3, 2, 1, 2]
    calls = []

    def evaluate(store, sl, bad=()):
        drawn = [store[r] for r in range(sl.start, sl.stop)]
        calls.append((drawn[0][0], sl.start, sl.stop))
        for p, (_, i) in enumerate(drawn):
            if i in bad:
                raise DomainError(f"sample {i}").at(p)
        return np.array([i for _, i in drawn], dtype=float)

    samples = [(d, (d, i)) for i, d in enumerate(dims)]
    gaps, got = _scripted_sampled(samples, evaluate)
    assert np.array_equal(gaps, np.arange(10)) and got.tolist() == dims
    # the first call of each block evaluates all of it, in increasing d
    assert calls == [(1, 0, 3), (2, 0, 1), (2, 0, 2), (3, 0, 2), (1, 0, 1), (2, 0, 1)]
    # d = 2 is evaluated first, but sample 6 (d = 3) precedes sample 7 in
    # draw order; sample 9, in the third block, is never reached
    with pytest.raises(DomainError) as info:
        _scripted_sampled(samples, lambda store, sl: evaluate(store, sl, bad={6, 7, 9}))
    assert info.value.point == 6


def test_sampler_errors_name_the_sample_behind_the_row(monkeypatch):
    # sample 30, the first with m > 0.95, is row 7 of the d = 3 draws in
    # the second block of 16; the error names it by its draw order
    monkeypatch.setattr(bellman, "BLOCK", 16)

    def gap(s):
        bad = s.m > 0.95
        if bad.any():
            raise DomainError("m above 0.95").at(int(np.argmax(bad)))
        return size_gap_stack(s)

    ref, first = np.random.default_rng(5), None
    for i in range(60):
        d = 1 + int(ref.integers(3))
        if first is None and brute_random_domain_point(d, ref).m > 0.95:
            first = i
    with pytest.raises(DomainError) as info:
        bellman._sample_points(np.random.default_rng(5), 60, 3, 1e4, gap)
    assert info.value.point == first == 30


def test_dynamics_error_names_cube():
    # D(K) is one stack in tree order: with (2, 0) out of the domain too, the
    # first in tree order, (1, 1), is named, as StepField.cube_power names
    # its cubes
    w, alpha = _instance(3, 2, 2)
    for bad in ([DyadicIndex(1, 1)], [DyadicIndex(2, 0), DyadicIndex(1, 1)]):
        data = list(bellman._dyadic_data(w, alpha))
        data[2] = data[2].copy()
        data[2][[tree_position(q) for q in bad]] = np.diag([1e-20, 1.0])  # out of the domain
        with pytest.raises(DomainError) as info:
            bellman._certificates(tuple(data), DyadicIndex(0, 0))
        assert info.value.point == DyadicIndex(1, 1)


# -- observability ------------------------------------------------------------

def test_worst_samples_rebuild_from_report():
    report = run_experiment(default_config("bellman-certify", samples=150, d=4, seeds=[11]))
    cfg, worst = report.config, report.aggregates["worst_samples"]
    rows = {r["check"]: r for r in report.rows}
    # replay the checks from the config alone, in the order they draw
    ref = np.random.default_rng(cfg["seeds"][0])
    d_max = min(cfg["d"], 4)
    replay = {
        "size": brute_size_gaps(ref, cfg["samples"], d_max),
        "concavity": brute_concavity_gaps(ref, cfg["samples"], d_max),
        "dm": brute_dm_gaps(ref, cfg["samples"], d_max, H),
    }
    for check, (gaps, dims) in replay.items():
        i = worst[check]["index"]
        assert gaps[i] == rows[check]["worst_gap"]
        assert dims[i] == worst[check]["d"]


# -- metamorphic properties of the stacked kernels ----------------------------

COND = 1e2


def _random_stack(seed, d, n=6):
    return _draw_points(np.random.default_rng(seed), n, d, COND).stack(0, slice(0, n))


def _tol(s, c=1.0):
    """Rounding allowance: 16 eps cond(V) times the largest entry of U and
    V^-1, per member, for B and the size and concavity gaps; the dm gap's
    difference quotient divides it by h."""
    scale = np.maximum(np.abs(s.u).max(axis=(1, 2)), np.abs(s.vinv).max(axis=(1, 2)))
    tol = 16 * np.finfo(float).eps * COND * c * scale
    return tol, np.stack([tol, tol, tol / H])


def _gaps(s):
    t = s.with_m(np.minimum(s.m, 1.0 - H))
    other = BellmanStack(s.u[::-1], s.v[::-1], s.m[::-1])
    return np.stack([size_gap_stack(s), concavity_gap_stack(s, other), dm_gap_stack(t, H)])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_stack_rotation_invariance(seed, d):
    # B(Q U Q^T, Q V Q^T, m) = Q B(U, V, m) Q^T, and the gaps are unchanged
    s = _random_stack(seed, d)
    q = random_orthogonal(d, np.random.default_rng(seed + 1))
    r = BellmanStack(q @ s.u @ q.T, q @ s.v @ q.T, s.m)
    tol, gap_tol = _tol(s)
    rotated = q @ bellman_eval_stack(s) @ q.T
    assert np.all(np.abs(bellman_eval_stack(r) - rotated).max(axis=(1, 2)) <= tol)
    assert np.all(np.abs(_gaps(r) - _gaps(s)) <= gap_tol)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.floats(1e-3, 1e3))
def test_stack_scaling(seed, d, c):
    # U -> cU, V -> V/c leaves V^1/2 U V^1/2 alone and scales B and the gaps by c
    s = _random_stack(seed, d)
    scaled = BellmanStack(c * s.u, s.v / c, s.m)
    tol, gap_tol = _tol(s, c)
    diff = bellman_eval_stack(scaled) - c * bellman_eval_stack(s)
    assert np.all(np.abs(diff).max(axis=(1, 2)) <= tol)
    assert np.all(np.abs(_gaps(scaled) - c * _gaps(s)) <= gap_tol)
