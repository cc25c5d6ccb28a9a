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
and ``matrix_parameter_probe`` draw each sample's random numbers in the
order of the per-sample loop, ``BLOCK`` samples at a time, and then build
and evaluate the block as one stack per d.  The dynamics certificates
(``dynamics_gaps``, ``telescoping_certificate``) evaluate one stack per
tree level, so each cube's B is formed once.
"""

from __future__ import annotations

import copy
from typing import NamedTuple

import numpy as np

from . import matrices
from .characteristics import carleson_intensity, subtree_sums
from .constructions import draw_spd, orthogonal_from_draws, spd_from_draws
from .dyadic import DyadicIndex, ROOT, check_index
from .errors import DimensionMismatchError, DomainError, LabError, PreconditionError

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
    try:
        return f(*args)
    except LabError as exc:
        exc.point = None
        raise


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
    w = w.as_matrix()
    if alpha.depth != w.depth:
        raise DimensionMismatchError("sequence and weight live on different trees")
    intensity = carleson_intensity(alpha)
    if intensity > 1.0 + 1e-9:
        raise PreconditionError(
            f"dynamics requires Carleson intensity <= 1, got {intensity}"
        )
    uavg = w.pyramid()
    vavg = w.inverse().pyramid()
    a_levels = alpha.dense_levels()
    m_levels = subtree_sums(a_levels)
    for k in range(w.depth + 1):
        m_levels[k] = m_levels[k] * (1 << k)
    return w, uavg, vavg, m_levels, a_levels


def dyadic_point(w, alpha, k):
    """BellmanPoint (<W>_K, <W^-1>_K, |K|^-1 sum_{Q in D(K)} alpha_Q).

    Matrix Jensen guarantees <W>_K >= <W^-1>_K^-1, so generated points are
    always admissible; construction asserts this instead of repairing.
    """
    w, uavg, vavg, m_levels, _ = _dyadic_data(w, alpha)
    k = check_index(k, w.depth)
    return BellmanPoint(
        uavg[k.level][k.position], vavg[k.level][k.position], float(m_levels[k.level][k.position])
    )


class _Level(NamedTuple):
    """Dynamics certificates of the cubes (level, lo + i) of one level."""

    level: int
    lo: int
    stack: BellmanStack
    b: np.ndarray  # B at the cubes' points
    tail: np.ndarray | None  # |L| B(U_L, V_L, 0), leaves only
    cert: np.ndarray | None


def _certificates(data, k, levels, bottom=None):
    """Matrix slack of the one-step dynamics inequality on D(k), per level.

    Non-leaf: |K| B(K) - V_K^-1 alpha_K / 4 - |K-| B(K-) - |K+| B(K+).
    Leaf:     |L| B(L) - V_L^-1 alpha_L / 4 - |L| B(U_L, V_L, 0).

    One stacked evaluation per level, from level ``bottom`` (default: the
    leaves) up to k's; each level's B serves its own certificates and its
    parents'.  Certificates are formed at the levels in ``levels``.
    Returns a ``_Level`` per level, lowest first.  An inadmissible average
    names its cube.
    """
    w, uavg, vavg, m_levels, a_levels = data
    depth = w.depth
    out = []
    below = None
    for j in range(depth if bottom is None else bottom, k.level - 1, -1):
        lo = k.position << (j - k.level)
        hi = (k.position + 1) << (j - k.level)
        measure = 2.0 ** (-j)
        tail = cert = None
        try:
            stack = BellmanStack(uavg[j][lo:hi], vavg[j][lo:hi], m_levels[j][lo:hi])
            b = bellman_eval_stack(stack)
            if j in levels:
                lhs = measure * b - (0.25 * a_levels[j][lo:hi])[:, None, None] * stack.vinv
                if j == depth:
                    rest = tail = measure * bellman_eval_stack(stack.with_m(0.0))
                else:
                    rest = np.zeros_like(lhs)
                    for child in (0, 1):
                        rest = rest + 2.0 ** (-(j + 1)) * below[child::2]
                cert = matrices.symmetrize(lhs - rest)
        except LabError as exc:
            if exc.point is not None:
                exc.point = DyadicIndex(j, lo + exc.point)
            raise
        out.append(_Level(j, lo, stack, b, tail, cert))
        below = b
    return out


def _gaps(cert):
    return matrices.psd_gap_stack(cert, np.zeros_like(cert))


def bellman_dynamics_gap(w, alpha, k):
    """PSD margin of the one-step dynamics inequality at a non-leaf cube."""
    data = _dyadic_data(w, alpha)
    k = check_index(k, data[0].depth)
    if k.level == data[0].depth:
        raise PreconditionError("dynamics step needs a non-leaf cube")
    cert = _certificates(data, k, {k.level}, bottom=k.level + 1)[-1].cert
    return float(_gaps(cert)[0])


def dynamics_gaps(w, alpha):
    """Dynamics margins for every non-leaf cube, as a dict."""
    data = _dyadic_data(w, alpha)
    depth = data[0].depth
    out = {}
    for lv in reversed(_certificates(data, ROOT, range(depth))[1:]):
        for p, gap in enumerate(_gaps(lv.cert)):
            out[DyadicIndex(lv.level, lv.lo + p)] = float(gap)
    return out


def _sum_in_order(stack):
    """Left-to-right sum over the first axis, as a running ``+`` would add."""
    return np.add.accumulate(stack, axis=0)[-1]


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
    wm, a_levels = data[0], data[4]
    k = check_index(k, wm.depth)
    levels = _certificates(data, k, range(k.level, wm.depth + 1))[::-1]

    certs = np.concatenate([lv.cert for lv in levels])
    gaps = _gaps(certs)
    alphas = np.concatenate([a_levels[lv.level][lv.lo:lv.lo + len(lv.stack)] for lv in levels])
    vinvs = np.concatenate([lv.stack.vinv for lv in levels])
    nonzero = alphas != 0
    if nonzero.any():
        sred_sum = _sum_in_order(alphas[nonzero][:, None, None] * vinvs[nonzero])
    else:
        sred_sum = np.zeros((wm.d, wm.d))
    leaf_tail = _sum_in_order(levels[-1].tail)
    direct = k.measure * levels[0].b[0] - 0.25 * sred_sum - leaf_tail
    accumulated = _sum_in_order(certs)
    min_gap = gaps[np.argmin(gaps)]
    return matrices.symmetrize(direct), matrices.symmetrize(accumulated), float(min_gap)


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


def _spd_bumped(vinv, bumps):
    """vinv + scale * random_spd per member, from (scale, draws) bumps.

    A member whose bump is None gets scale 0 and the identity's draws, so
    the stack stays whole; the caller discards its result.
    """
    d = vinv.shape[-1]
    blank = (0.0, (np.zeros(d), np.eye(d)))
    scale, draws = zip(*(blank if b is None else b for b in bumps))
    bump = spd_from_draws(draws)
    return vinv + np.asarray(scale)[:, None, None] * bump


def domain_points(draws):
    """BellmanStack of the points ``_draw_point`` drew, all of one d.

    Bitwise the points ``random_domain_point`` builds from the same draws.
    """
    v_draws, bumps, m = zip(*draws)
    v = spd_from_draws(v_draws)  # exactly symmetric: the stack's V is this v
    eig = matrices.eigh_sym(v)
    vinv = matrices.eig_power(*eig, -1.0)
    bumped = np.array([b is not None for b in bumps])
    u = np.where(bumped[:, None, None], _spd_bumped(vinv, bumps), vinv)
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
        try:
            out[idx] = evaluate([samples[i][1] for i in idx])
        except LabError as exc:
            if exc.point is not None:
                exc.point = int(idx[exc.point])
            raise
    return out


def _evaluate(block, evaluate):
    """``_by_d`` on one block, failing as a per-sample loop would.

    If a sample fails, the samples before it are evaluated again, so that
    the error raised is the one of the first failing sample in draw order.
    """
    stop, error = len(block), None
    while True:
        try:
            out = _by_d(block[:stop], evaluate) if stop else None
        except LabError as exc:
            if exc.point is None:
                raise
            error, stop = exc, exc.point
            continue
        if error is not None:
            raise error
        return out


def _sampled(n, draw, evaluate):
    """Gaps and dimensions of ``n`` samples, in draw order.

    ``draw()`` draws one sample: (d, raw numbers).  Samples are drawn
    ``BLOCK`` at a time, then evaluated; an error names its sample index.
    """
    gaps = np.empty(n)
    dims = np.empty(n, dtype=np.intp)
    for start in range(0, n, BLOCK):
        block = [draw() for _ in range(min(BLOCK, n - start))]
        dims[start:start + len(block)] = [d for d, _ in block]
        try:
            gaps[start:start + len(block)] = _evaluate(block, evaluate)
        except LabError as exc:
            if exc.point is not None:
                exc.point += start
            raise
    return gaps, dims


def size_gaps(rng, n, d_max):
    """Size margins of ``n`` random points with d in 1..d_max: (gaps, dims)."""
    def draw():
        d = int(1 + rng.integers(d_max))
        return d, _draw_point(d, rng, 1e4)

    return _sampled(n, draw, lambda draws: size_gap_stack(domain_points(draws)))


def concavity_gaps(rng, n, d_max):
    """Midpoint-concavity margins of ``n`` random pairs: (gaps, dims)."""
    def draw():
        d = 1 + int(rng.integers(d_max))
        return d, (_draw_point(d, rng, 1e4), _draw_point(d, rng, 1e4))

    def evaluate(pairs):
        first, second = zip(*pairs)
        return concavity_gap_stack(domain_points(first), domain_points(second))

    return _sampled(n, draw, evaluate)


def dm_gaps(rng, n, d_max, h):
    """m-derivative margins of ``n`` random points, m capped at 1 - h: (gaps, dims)."""
    def draw():
        d = 1 + int(rng.integers(d_max))
        return d, _draw_point(d, rng, 1024)

    def evaluate(draws):
        s = domain_points(draws)
        return dm_gap_stack(s.with_m(_py_min(s.m, 1.0 - h)), h)

    return _sampled(n, draw, evaluate)


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
        u = _spd_bumped(matrices.eig_power(*v_eig, -1.0), bumps)
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
