"""Numerical certification of the redundancy Bellman function.

The function is B(U, V, m) = U - (m+1)^-1 V^-1 on the domain
1 <= V^1/2 U V^1/2, 0 <= m <= 1.  This module evaluates it, measures its
midpoint-concavity and m-derivative margins in the PSD order, and runs the
one-step dyadic dynamics inequality whose telescoped form is the scalar
redundancy bound with constant 4.

Concavity is certified by midpoint sampling, not symbolically: the
perfect-square Hessian argument is a proof device, while the testable
statement is midpoint concavity on the convex domain.

There is one API, on stacks: ``BellmanStack`` holds n points of one
dimension d as arrays (n, d, d), (n, d, d), (n,), with V's
eigendecomposition taken once and V^-1 cached; ``bellman_eval_stack``,
``size_gap_stack``, ``concavity_gap_stack`` and ``dm_gap_stack`` work on it
with one LAPACK call per step, and a failed check names the first
offending member (``LabError.point``).  A ``BellmanPoint`` is a stack of
one, and ``bellman_eval`` and the scalar gap functions read their numbers
from it; their errors name no member.

The sampling certificates (``size_gaps``, ``concavity_gaps``, ``dm_gaps``)
are each one call of one sampler, which draws a sample's d and then its
domain points.  It and ``matrix_parameter_probe`` draw each sample's
random numbers in the order of the per-sample loop, ``BLOCK`` samples at a
time, and then build and evaluate the block as one stack per d; only the
points that drew a PSD bump build one (``_add_bumps``).  The dynamics
certificates (``dynamics_gaps``, ``telescoping_certificate``) evaluate one
stack per subtree D(K), in tree order, so each cube's B is formed once.
"""

from __future__ import annotations

import copy

import numpy as np

from . import matrices
from .characteristics import check_fits, cube_supremum_batch, ordered_sums, subtree_sums_batch
from .constructions import draw_spd, orthogonal_from_draws, spd_from_draws
from .dyadic import ROOT, check_index, subtree_positions, tree_cube, tree_level, tree_position
from .errors import (
    DimensionMismatchError, DomainError, PreconditionError, first_failure, relabel,
)

DOMAIN_TOL = 1e-10
M_TOL = 1e-9
# Samples drawn and evaluated together by the sampling certificates.  On
# bellman-certify at 1000 samples (2-core Xeon VM), 128 runs in 0.42 s with
# 0.6 MB more peak RSS than the per-sample loop; 32 needs no extra memory
# but takes 0.69 s, 256 takes 0.35 s.
BLOCK = 128


class BellmanPoint:
    """Admissible triple (U, V, m); membership is checked on construction.

    ``stack`` is the point as a ``BellmanStack`` of one, which runs the
    check and holds every number the point functions read.
    """

    def __init__(self, u, v, m):
        u, v = matrices.as_symmetric(u), matrices.as_symmetric(v)
        if u.shape != v.shape:
            raise DimensionMismatchError(f"U and V differ in shape: {u.shape} vs {v.shape}")
        self.u, self.v, self.m = u, v, float(m)
        self.stack = _one(BellmanStack, u[None], v[None], [self.m])

    @property
    def d(self):
        return self.u.shape[0]

    def domain_margins(self):
        """Signed slack of each domain constraint (negative = violated)."""
        return {"psd": float(self.stack.psd_margin[0]), "m": float(self.stack.m_margin[0])}


def _one(f, *args):
    """``f(*args)`` on stacks of one; an error's member index is cleared,
    since a point names no member."""
    with relabel(None):
        return f(*args)


def bellman_eval(p):
    """Matrix value B(U, V, m) = U - (m+1)^-1 V^-1."""
    return _one(bellman_eval_stack, p.stack)[0]


def bellman_concavity_gap(p0, p1):
    """Midpoint-concavity margin psd_gap(B(midpoint), (B(p0)+B(p1))/2).

    The domain is convex (operator convexity of inversion), so the midpoint
    is admissible; constructing it re-asserts membership.
    """
    return float(_one(concavity_gap_stack, p0.stack, p1.stack)[0])


def bellman_dm_derivative(p):
    """Analytic m-derivative (m+1)^-2 V^-1 (the finite-difference oracle)."""
    return _one(lambda: p.stack.vinv)[0] / (p.m + 1.0) ** 2


def bellman_dm_gap(p, h=1e-5):
    """Margin of the forward m-difference quotient against V^-1 / 4.

    Exact calculus gives dB/dm = (m+1)^-2 V^-1 >= V^-1 / 4 on 0 <= m <= 1;
    the forward quotient undershoots by O(h), so callers allow a slack
    proportional to h.
    """
    return float(_one(dm_gap_stack, p.stack, h)[0])


def bellman_second_derivative(p, dv, dm):
    """Second derivative of t -> B(U, V + t dV, m + t dm) at t = 0.

    Equals -2 [ (m+1)^-3 dm^2 V^-1 + (m+1)^-2 dm V^-1 dV V^-1
               + (m+1)^-1 V^-1 dV V^-1 dV V^-1 ],
    a positive multiple of the quadratic form certifying concavity.
    """
    dv = matrices.as_symmetric(dv)
    vinv = _one(lambda: p.stack.vinv)[0]
    s = 1.0 / (p.m + 1.0)
    vdv = vinv @ dv @ vinv
    out = -2.0 * (s**3 * dm * dm * vinv + s**2 * dm * vdv + s * vdv @ dv @ vinv)
    return matrices.symmetrize(out)


HESSIAN_CHECK = {
    "u": np.diag([5.0, 4.0]),
    "v": np.diag([0.4, 0.5]),
    "dv": np.diag([0.3, -0.35]),
    "m": 0.4,
    "dm": 40.0,
}


def hessian_richardson_ratio(ts=(1e-3, 1e-4)):
    """Error ratio of the centered second difference against the closed form.

    The second difference converges at rate t^2, so halving t by 10 must
    shrink the defect by about 100; the fixed direction has a large fourth
    derivative so the defect stays far above rounding noise at both steps.
    """
    u, v, dv = HESSIAN_CHECK["u"], HESSIAN_CHECK["v"], HESSIAN_CHECK["dv"]
    m, dm = HESSIAN_CHECK["m"], HESSIAN_CHECK["dm"]
    p = BellmanPoint(u, v, m)
    exact = bellman_second_derivative(p, dv, dm)
    errs = []
    for t in ts:
        plus = bellman_eval(BellmanPoint(u, v + t * dv, m + t * dm))
        minus = bellman_eval(BellmanPoint(u, v - t * dv, m - t * dm))
        center = bellman_eval(p)
        second = (plus - 2.0 * center + minus) / (t * t)
        errs.append(matrices.operator_norm(matrices.as_symmetric(second - exact)))
    return errs[0] / errs[1]


# ---------------------------------------------------------------------------
# Stacked points: n points of one dimension d.
# ---------------------------------------------------------------------------

def _py_min(a, b):
    """Elementwise ``min(a, b)`` with Python's tie rule (``a`` unless b < a)."""
    return np.where(b < a, b, a)


class BellmanStack:
    """Admissible triples (U_i, V_i, m_i), i < n, of one dimension d.

    ``u`` and ``v`` are (n, d, d), ``m`` is (n,).  Construction checks
    that every member lies in the domain, and a failure names the first
    bad member; ``psd_margin`` and ``m_margin`` keep each member's signed
    slack.  The eigendecomposition of V is taken once: V^1/2 for the domain
    check comes from it, and so does V^-1, which is formed on first use and
    cached.  ``_eig`` is that decomposition where the caller already holds
    it, for a ``v`` that is exactly symmetric (``domain_points``).
    """

    def __init__(self, u, v, m, _eig=None):
        u = matrices.as_symmetric_stack(u)
        v = matrices.as_symmetric_stack(v)
        if u.shape != v.shape:
            raise DimensionMismatchError(f"U and V differ in shape: {u.shape} vs {v.shape}")
        m = np.asarray(m, dtype=np.float64)
        if m.shape != u.shape[:1]:
            raise DimensionMismatchError(f"m has shape {m.shape}, expected {u.shape[:1]}")
        self.u, self.v = u, v
        self._eig = matrices.eigh_sym(v) if _eig is None else _eig
        self._vinv = None
        root = matrices.eig_power(*self._eig, 0.5)
        eye = np.broadcast_to(np.eye(self.d, dtype=root.dtype), root.shape)
        self.psd_margin = matrices.psd_gap_stack(root @ u @ root, eye)
        self._set_m(m)

    def _set_m(self, m):
        m_margin = _py_min(m, 1.0 - m)
        bad = (self.psd_margin < -DOMAIN_TOL) | (m_margin < -M_TOL)
        if bad.any():
            i = int(np.argmax(bad))
            margins = {"psd": float(self.psd_margin[i]), "m": float(m_margin[i])}
            raise DomainError("point outside the Bellman domain", margins=margins).at(i)
        self.m, self.m_margin = m, m_margin

    def __len__(self):
        return self.u.shape[0]

    @property
    def d(self):
        return self.u.shape[-1]

    @property
    def vinv(self):
        """V^-1 of every member (cached)."""
        if self._vinv is None:
            self._vinv = matrices.eig_power(*self._eig, -1.0)
        return self._vinv

    def with_m(self, m):
        """The same U and V at new m values; only the m constraint is checked again.

        Bitwise what rebuilding the points would give: U and V are already
        symmetric, so their checks and factors would come out the same.
        """
        out = copy.copy(self)
        out._set_m(np.broadcast_to(np.asarray(m, dtype=np.float64), self.m.shape))
        return out

    def point(self, i):
        """Member ``i`` as a BellmanPoint."""
        return BellmanPoint(self.u[i], self.v[i], float(self.m[i]))


def bellman_eval_stack(s):
    """B(U_i, V_i, m_i) of every member, as ``bellman_eval`` forms it."""
    return matrices.as_symmetric_stack(s.u - s.vinv / (s.m + 1.0)[:, None, None])


def size_gap_stack(s):
    """Size margins min(psd_gap(B, 0), psd_gap(U, B)): 0 <= B <= U."""
    b = bellman_eval_stack(s)
    return _py_min(matrices.psd_gap_stack(b, np.zeros_like(b)), matrices.psd_gap_stack(s.u, b))


def concavity_gap_stack(s0, s1):
    """``bellman_concavity_gap`` of each pair of members of two stacks."""
    if s0.d != s1.d:
        raise DimensionMismatchError("points have different dimensions")
    mid = BellmanStack((s0.u + s1.u) / 2, (s0.v + s1.v) / 2, (s0.m + s1.m) / 2)
    avg = (bellman_eval_stack(s0) + bellman_eval_stack(s1)) / 2
    return matrices.psd_gap_stack(bellman_eval_stack(mid), avg)


def dm_gap_stack(s, h=1e-5):
    """``bellman_dm_gap`` of every member."""
    if not 0.0 < h <= 1e-4:
        raise PreconditionError(f"step h must lie in (0, 1e-4], got {h}")
    shifted = s.with_m(s.m + h)
    quotient = (bellman_eval_stack(shifted) - bellman_eval_stack(s)) / h
    return matrices.psd_gap_stack(quotient, s.vinv / 4.0)


# ---------------------------------------------------------------------------
# Dyadic dynamics: data (U_K, V_K, m_K) from a weight and scalar sequence.
# ---------------------------------------------------------------------------

def _dyadic_data(w, alpha):
    """(W, <W>, <W^-1>, m, alpha) with every cube-indexed array in tree order."""
    w = check_fits(w.as_matrix(), alpha)
    a = alpha.dense()
    acc = subtree_sums_batch(a[None])
    intensity = float(cube_supremum_batch(acc)[0])
    if intensity > 1.0 + 1e-9:
        raise PreconditionError(
            f"dynamics requires Carleson intensity <= 1, got {intensity}"
        )
    m = np.ldexp(acc[0], tree_level(np.arange(len(a))))  # |K|^-1 sum over D(K)
    return w, w.pyramid(), w.inverse().pyramid(), m, a


def dyadic_point(w, alpha, k):
    """BellmanPoint (<W>_K, <W^-1>_K, |K|^-1 sum_{Q in D(K)} alpha_Q).

    Matrix Jensen guarantees <W>_K >= <W^-1>_K^-1, so generated points are
    always admissible; construction asserts this instead of repairing.
    """
    w, uavg, vavg, m, _ = _dyadic_data(w, alpha)
    i = tree_position(check_index(k, w.depth))
    return BellmanPoint(uavg[i], vavg[i], float(m[i]))


def _certificates(data, k):
    """Matrix slack of the one-step dynamics inequality at every cube of D(k).

    Non-leaf: |K| B(K) - V_K^-1 alpha_K / 4 - |K-| B(K-) - |K+| B(K+).
    Leaf:     |L| B(L) - V_L^-1 alpha_L / 4 - |L| B(U_L, V_L, 0).

    One stacked evaluation over D(k) in tree order (``subtree_positions``),
    where the children of the cube at index t sit at 2t + 1 and 2t + 2; each
    cube's B serves its own certificate and its parent's.  Returns alpha,
    the stack, |K| B(K), the leaf tails |L| B(U_L, V_L, 0) and the
    certificates, each over D(k) in tree order (the tails over its leaves).
    An inadmissible average names its cube, the first in tree order.
    """
    w, uavg, vavg, m, a = data
    cubes = subtree_positions(k, w.depth)
    measure = np.ldexp(1.0, -tree_level(cubes))[:, None, None]
    with relabel(lambda i: tree_cube(int(cubes[i]))):
        stack = BellmanStack(uavg[cubes], vavg[cubes], m[cubes])
        b = measure * bellman_eval_stack(stack)
        tail = (measure * bellman_eval_stack(stack.with_m(0.0)))[len(cubes) // 2:]
        lhs = b - (0.25 * a[cubes])[:, None, None] * stack.vinv
    children = np.zeros_like(b[1::2]) + b[1::2] + b[2::2]  # zero, then left, then right
    return a[cubes], stack, b, tail, matrices.symmetrize(lhs - np.concatenate([children, tail]))


def _gaps(cert):
    return matrices.psd_gap_stack(cert, np.zeros_like(cert))


def bellman_dynamics_gap(w, alpha, k):
    """PSD margin of the one-step dynamics inequality at a non-leaf cube;
    every cube of D(k) must be admissible."""
    data = _dyadic_data(w, alpha)
    k = check_index(k, data[0].depth)
    if k.level == data[0].depth:
        raise PreconditionError("dynamics step needs a non-leaf cube")
    return float(_gaps(_certificates(data, k)[-1][:1])[0])


def dynamics_gaps(w, alpha):
    """Dynamics margins for every non-leaf cube, as a dict in tree order."""
    cert = _certificates(_dyadic_data(w, alpha), ROOT)[-1]
    inner = len(cert) // 2  # the non-leaf cubes come first
    return dict(zip(map(tree_cube, range(inner)), _gaps(cert[:inner]).tolist()))


def telescoping_certificate(w, alpha, k=ROOT):
    """Two assemblies of the telescoped dynamics identity below cube ``k``.

    Returns (direct, accumulated, min_gap):

    * direct       = |K| B(K) - 1/4 sum_{Q in D(K)} alpha_Q <W^-1>_Q^-1
                     - sum_{leaves L in K} |L| B(U_L, V_L, 0)
    * accumulated  = sum of the per-cube certificates over D(K)
    * min_gap      = smallest PSD margin among those certificates.

    The two matrices agree exactly in exact arithmetic; since every
    certificate is PSD and B >= 0, the identity telescopes into
    sum alpha_Q <W^-1>_Q^-1 <= 4 |K| <W>_K, the redundancy bound.  Sums
    run over D(K) in ``descendants`` order (level by level, left to right).
    """
    data = _dyadic_data(w, alpha)
    alphas, stack, b, tail, certs = _certificates(data, check_index(k, data[0].depth))
    nonzero = alphas != 0
    sred_terms = alphas[nonzero][:, None, None] * stack.vinv[nonzero]
    sred_sum, leaf_tail, accumulated = ordered_sums(
        np.concatenate([sred_terms, tail, certs]), [len(sred_terms), len(tail), len(certs)])
    direct = b[0] - 0.25 * sred_sum - leaf_tail
    min_gap = float(_gaps(certs).min())
    return matrices.symmetrize(direct), matrices.symmetrize(accumulated), min_gap


# ---------------------------------------------------------------------------
# Random admissible points for the sampling certificates.
# ---------------------------------------------------------------------------

def _draw_point(d, rng, cond_cap, boundary_fraction=0.3):
    """The random numbers of one ``random_domain_point``, in its draw order.

    Returns (V draws, (scale, bump draws) or None on the boundary, m).
    """
    v = draw_spd(d, rng, cond_cap)
    if rng.uniform() < boundary_fraction:
        bump = None
    else:
        bump = (rng.uniform(0.0, 2.0), draw_spd(d, rng, min(cond_cap, 1e2)))
    return v, bump, float(rng.uniform(0.0, 1.0))


def _add_bumps(vinv, bumps):
    """``vinv`` with scale * random_spd added in place at each member whose
    bump is (scale, draws); a member whose bump is None keeps V^-1."""
    at = [i for i, bump in enumerate(bumps) if bump is not None]
    if at:
        scale, draws = zip(*(bumps[i] for i in at))
        vinv[at] += np.asarray(scale)[:, None, None] * spd_from_draws(draws)
    return vinv


def domain_points(draws):
    """BellmanStack of the points ``_draw_point`` drew, all of one d.

    Bitwise the points ``random_domain_point`` builds from the same draws.
    """
    v_draws, bumps, m = zip(*draws)
    v = spd_from_draws(v_draws)  # exactly symmetric: the stack's V is this v
    eig = matrices.eigh_sym(v)
    u = _add_bumps(matrices.eig_power(*eig, -1.0), bumps)
    return BellmanStack(u, v, m, _eig=eig)


def random_domain_point(d, rng, cond_cap=1e4, boundary_fraction=0.3):
    """Seeded random point of the Bellman domain.

    V is a random SPD matrix with condition at most ``cond_cap``; U sits at
    V^-1 plus a PSD bump, landing exactly on the boundary with the given
    probability so the size bound is exercised where it is tight.
    """
    return domain_points([_draw_point(d, rng, cond_cap, boundary_fraction)]).point(0)


def _by_d(samples, evaluate):
    """``evaluate`` on (d, draws) samples, one stack per d; errors name the sample."""
    dims = np.array([d for d, _ in samples])
    out = np.empty(len(samples))
    for d in sorted(set(dims.tolist())):  # np.unique would import numpy.ma (1 MB)
        idx = np.flatnonzero(dims == d)
        with relabel(lambda p: int(idx[p])):
            out[idx] = evaluate([samples[i][1] for i in idx])
    return out


def _sampled(n, draw, evaluate):
    """Gaps and dimensions of ``n`` samples, in draw order.

    ``draw()`` draws one sample: (d, raw numbers).  Samples are drawn
    ``BLOCK`` at a time, then evaluated; the error raised is the first
    failing sample's in draw order, and names its sample index.
    """
    gaps = np.empty(n)
    dims = np.empty(n, dtype=np.intp)
    for start in range(0, n, BLOCK):
        block = [draw() for _ in range(min(BLOCK, n - start))]
        dims[start:start + len(block)] = [d for d, _ in block]
        with relabel(lambda p: start + p):
            out, _, error = first_failure(lambda sl: _by_d(block[sl], evaluate), len(block))
            if error is not None:
                raise error
        gaps[start:start + len(block)] = out
    return gaps, dims


def _sample_points(rng, n, d_max, cond_cap, gap, points=1):
    """``gap`` of ``n`` samples, each ``points`` random domain points of one
    d in 1..d_max, evaluated as ``gap(stack_1, ..., stack_points)``: (gaps, dims)."""
    def draw():
        d = 1 + int(rng.integers(d_max))
        return d, [_draw_point(d, rng, cond_cap) for _ in range(points)]

    return _sampled(n, draw, lambda samples: gap(*map(domain_points, zip(*samples))))


def size_gaps(rng, n, d_max):
    """Size margins of ``n`` random points with d in 1..d_max: (gaps, dims)."""
    return _sample_points(rng, n, d_max, 1e4, size_gap_stack)


def concavity_gaps(rng, n, d_max):
    """Midpoint-concavity margins of ``n`` random pairs: (gaps, dims)."""
    return _sample_points(rng, n, d_max, 1e4, concavity_gap_stack, points=2)


def dm_gaps(rng, n, d_max, h):
    """m-derivative margins of ``n`` random points, m capped at 1 - h: (gaps, dims)."""
    return _sample_points(rng, n, d_max, 1024,
                          lambda s: dm_gap_stack(s.with_m(_py_min(s.m, 1.0 - h)), h))


def matrix_parameter_probe(d=2, n_pairs=2000, seed=0):
    """Experimental probe of U - V^-1/2 (M + 1)^-1 V^-1/2 with matrix M.

    Whether this candidate is concave is an open question; the probe samples
    midpoint gaps on the analogous domain (U >= V^-1, 0 <= M <= 1) and
    reports statistics.  Output is informational only and is never asserted
    by the acceptance suite.
    """
    rng = np.random.default_rng(seed)
    eye = np.eye(d)

    def draw_sample():
        v = draw_spd(d, rng, 1e3)
        bump = (rng.uniform(0.0, 1.5), draw_spd(d, rng, 1e2))
        return v, bump, rng.standard_normal((d, d)), rng.uniform(0.0, 1.0, size=d)

    def sample(draws):
        v_draws, bumps, gauss, eigs = zip(*draws)
        v = spd_from_draws(v_draws)
        v_eig = matrices.eigh_sym(v)
        u = _add_bumps(matrices.eig_power(*v_eig, -1.0), bumps)
        q = orthogonal_from_draws(np.stack(gauss))
        mm = matrices.as_symmetric_stack((q * np.stack(eigs)[:, None, :]) @ q.transpose(0, 2, 1))
        return u, v, mm, v_eig

    def value(u, mm, v_eig):
        vr = matrices.eig_power(*v_eig, -0.5)
        core = matrices.eig_power(*matrices.eigh_sym(mm + eye), -1.0)
        return matrices.as_symmetric_stack(u - vr @ core @ vr)

    def evaluate(pairs):
        first, second = zip(*pairs)
        u0, v0, m0, e0 = sample(first)
        u1, v1, m1, e1 = sample(second)
        mid = value((u0 + u1) / 2, (m0 + m1) / 2, matrices.eigh_sym((v0 + v1) / 2))
        avg = (value(u0, m0, e0) + value(u1, m1, e1)) / 2
        return matrices.psd_gap_stack(mid, avg)

    gaps, _ = _sampled(n_pairs, lambda: (d, (draw_sample(), draw_sample())), evaluate)
    return {
        "pairs": n_pairs,
        "min_gap": float(gaps.min()),
        "mean_gap": float(gaps.mean()),
        "negative_fraction": float((gaps < -1e-10).mean()),
    }
