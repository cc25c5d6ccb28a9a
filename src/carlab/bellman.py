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

The samplers keep the random stream of a per-sample loop, with one
generator call per run of draws of one kind, ``BLOCK`` samples at a time.
``size_gaps``, ``concavity_gaps`` and ``dm_gaps`` draw each sample's d, then
its points into the next row of the arrays of that d (``_Draws``), and
build each d's rows as one stack (``_sampled``); only the points that drew
a PSD bump build one.  ``matrix_parameter_probe`` draws into two tapes and
builds a block as one stack.  The dynamics certificates (``dynamics_gaps``,
``telescoping_certificate``) evaluate one stack per subtree D(K), in tree
order, so each cube's B is formed once; ``dynamics_gaps_batch`` stacks
whole trees of a ``FieldBatch``, and ``dynamics_gaps`` is its batch of one.
"""

from __future__ import annotations

import copy

import numpy as np

from . import matrices
from .characteristics import (
    check_fits, check_intensity_bound, cube_supremum_batch, ordered_sums, subtree_sums_batch,
)
from .constructions import _half_log_cap, orthogonal_from_draws, spd_from_unit, uniform
from .dyadic import ROOT, check_index, subtree_positions, tree_cube, tree_level, tree_position
from .errors import (
    DimensionMismatchError, DomainError, PreconditionError, first_failure, relabel,
)

DOMAIN_TOL = 1e-10
M_TOL = 1e-9
# Samples drawn and evaluated together by the sampling certificates.  On
# bellman-certify (2-vCPU VM, best of 7 runs at 1,000 samples and of 3 at
# 10,000, two rounds), 1024 takes 0.19-0.20 s and 0.78-0.89 s, 128 takes
# 0.26 s and 1.15-1.21 s, 512 0.20 s and 0.86-0.91 s; peak RSS grows by
# 1.3, 2.0 and 4.5 MB at 1,000, 10,000 and 100,000 samples, 0.5-0.8 MB more
# than with 128, and by 8.5 MB at 10,000 with 4096.
BLOCK = 1024


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
    center = bellman_eval(p)
    errs = []
    for t in ts:
        plus = bellman_eval(BellmanPoint(u, v + t * dv, m + t * dm))
        minus = bellman_eval(BellmanPoint(u, v - t * dv, m - t * dm))
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
    it, for a ``v`` that is exactly symmetric (``_Draws.stack``, ``_certificates``),
    and ``_vinv`` its ``eig_power(*_eig, -1.0)``, where the caller holds that too.
    """

    def __init__(self, u, v, m, _eig=None, _vinv=None):
        u = matrices.as_symmetric_stack(u)
        v = matrices.as_symmetric_stack(v)
        if u.shape != v.shape:
            raise DimensionMismatchError(f"U and V differ in shape: {u.shape} vs {v.shape}")
        m = np.asarray(m, dtype=np.float64)
        if m.shape != u.shape[:1]:
            raise DimensionMismatchError(f"m has shape {m.shape}, expected {u.shape[:1]}")
        self.u, self.v = u, v
        self._eig = matrices.eigh_sym(v) if _eig is None else _eig
        self._vinv = _vinv
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

def _dyadic_data(w, alphas):
    """(W, <W>, <W^-1>, m, alpha, W^-1's ``cube_eig``, V^-1) of a matrix
    ``FieldBatch`` and one scalar sequence per member, each cube-indexed one
    (B, cubes, ...) in tree order; V^-1 is W^-1's ``cube_power(-1.0)``.  A
    refusal in a batch of more than one names its member (``LabError.point``)."""
    check_fits(w, *alphas)
    a = np.stack([alpha.dense() for alpha in alphas])
    acc = subtree_sums_batch(a)
    check_intensity_bound(cube_supremum_batch(acc), "dynamics requires")
    m = np.ldexp(acc, tree_level(np.arange(a.shape[1])))  # |K|^-1 sum over D(K)
    inv = w.inverse()
    return w, w.pyramid(), inv.pyramid(), m, a, inv.cube_eig(), inv.cube_power(-1.0)


def _field_data(w, alpha):
    """``_dyadic_data`` of one field, its batch of one."""
    return _dyadic_data(w.as_matrix().batch, [alpha])


def dyadic_point(w, alpha, k):
    """BellmanPoint (<W>_K, <W^-1>_K, |K|^-1 sum_{Q in D(K)} alpha_Q).

    Matrix Jensen guarantees <W>_K >= <W^-1>_K^-1, so generated points are
    always admissible; construction asserts this instead of repairing.
    """
    w, uavg, vavg, m, _, _, _ = _field_data(w, alpha)
    i = tree_position(check_index(k, w.depth))
    return BellmanPoint(uavg[0, i], vavg[0, i], float(m[0, i]))


def _certificates(data, k):
    """Matrix slack of the one-step dynamics inequality at every cube of D(k),
    for every member of the batch of ``_dyadic_data``.

    Non-leaf: |K| B(K) - V_K^-1 alpha_K / 4 - |K-| B(K-) - |K+| B(K+).
    Leaf:     |L| B(L) - V_L^-1 alpha_L / 4 - |L| B(U_L, V_L, 0).

    One stacked evaluation over D(k) of every member, member by member and
    in tree order (``subtree_positions``), where the children of the cube
    at index t sit at 2t + 1 and 2t + 2; each cube's B serves its own
    certificate and its parent's.  V^-1 is sliced from W^-1's cached
    ``cube_power(-1.0)``, the ``eig_power`` of the same decomposition, so it
    is bitwise the stack's own.  Returns alpha, the stack (flat over the
    members), |K| B(K), the leaf tails |L| B(U_L, V_L, 0) and the
    certificates, each (B, D(k), ...) in tree order (the tails over its
    leaves).  An inadmissible average names its cube, the first in tree
    order, and in a batch of more than one, as the pair (member, cube),
    its member too.
    """
    w, uavg, vavg, m, a, veig, vinv = data
    cubes = subtree_positions(k, w.depth)
    n, nc, d = len(a), len(cubes), w.d
    measure = np.ldexp(1.0, -tree_level(cubes))[:, None, None]

    def flat(x):  # every member's D(k), as one stack
        return x[:, cubes].reshape(n * nc, *x.shape[2:])

    def name(j):
        cube = tree_cube(int(cubes[j % nc]))
        return cube if n == 1 else (j // nc, cube)

    with relabel(name):
        stack = BellmanStack(flat(uavg), flat(vavg), flat(m),
                             _eig=[flat(x) for x in veig], _vinv=flat(vinv))
        b = measure * bellman_eval_stack(stack).reshape(n, nc, d, d)
        tail = (measure * bellman_eval_stack(stack.with_m(0.0)).reshape(n, nc, d, d))[:, nc // 2:]
        lhs = b - (0.25 * a[:, cubes])[..., None, None] * stack.vinv.reshape(n, nc, d, d)
    children = np.zeros_like(b[:, 1::2]) + b[:, 1::2] + b[:, 2::2]  # zero, then left, then right
    certs = lhs - np.concatenate([children, tail], axis=1)
    return a[:, cubes], stack, b, tail, matrices.symmetrize(certs)


def _gaps(cert):
    """PSD margin of each certificate of a stack (..., d, d)."""
    flat = cert.reshape(-1, *cert.shape[-2:])
    return matrices.psd_gap_stack(flat, np.zeros_like(flat)).reshape(cert.shape[:-2])


def bellman_dynamics_gap(w, alpha, k):
    """PSD margin of the one-step dynamics inequality at a non-leaf cube;
    every cube of D(k) must be admissible."""
    data = _field_data(w, alpha)
    k = check_index(k, data[0].depth)
    if k.level == data[0].depth:
        raise PreconditionError("dynamics step needs a non-leaf cube")
    return float(_gaps(_certificates(data, k)[-1][0, :1])[0])


def dynamics_gaps_batch(w, alphas):
    """Dynamics margins of every non-leaf cube of each member of a matrix
    ``FieldBatch`` ``w``, with the scalar sequence ``alphas[b]`` of member b:
    (B, non-leaf cubes) in tree order, each row bitwise ``dynamics_gaps`` of
    its member alone.  One ``BellmanStack`` over every member's cubes, one
    evaluation of B and one PSD gap stack; a refusal in a batch of more
    than one names its member."""
    cert = _certificates(_dyadic_data(w, alphas), ROOT)[-1]
    return _gaps(cert[:, :cert.shape[1] // 2])  # the non-leaf cubes come first


def dynamics_gaps(w, alpha):
    """Dynamics margins for every non-leaf cube, as a dict in tree order:
    ``dynamics_gaps_batch`` of the field's batch of one."""
    gaps = dynamics_gaps_batch(w.as_matrix().batch, [alpha])[0]
    return dict(zip(map(tree_cube, range(len(gaps))), gaps.tolist()))


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
    data = _field_data(w, alpha)
    alphas, stack, b, tail, certs = _certificates(data, check_index(k, data[0].depth))
    alphas, b, tail, certs = alphas[0], b[0], tail[0], certs[0]
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

class _Draws:
    """The random numbers of up to ``rows`` samples of ``points`` random
    points of one d, packed in arrays in the order the samples draw them.

    Point j of row r holds the unit draws ``unit[k, j, r]`` (d,) of the
    eigenvalue exponents and the Gaussian draws ``gauss[k, j, r]`` (d, d)
    of its k-th random SPD matrix (V, then its bump), the boundary draw and
    the unit draw after it, ``coin[j, r]`` (the bump's scale if the point
    drew a bump, ``bumped[j, r]``, else m), and m's unit draw ``m[j, r]``.
    V's condition is capped at ``cond_cap``, the bump's at min(cond_cap, 100).
    """

    def __init__(self, rows, points, d, cond_cap):
        self.halves = _half_log_cap(cond_cap), _half_log_cap(min(cond_cap, 1e2))
        self.unit, self.gauss = np.empty((2, points, rows, d)), np.empty((2, points, rows, d, d))
        self.bumped = np.ones((points, rows), dtype=bool)
        self.coin, self.m = np.empty((points, rows, 2)), np.empty((points, rows))

    def draw_points(self, rng, r, boundary_fraction=0.3):
        """Draw the domain points of row r, each in the order of the
        per-sample loop: V, the boundary draw, the bump's scale and SPD
        matrix unless the point is on the boundary, then m; 3 generator
        calls for a boundary point and 6 for a bumped one."""
        for j in range(len(self.m)):
            rng.random(out=self.unit[0, j, r])
            rng.standard_normal(out=self.gauss[0, j, r])
            rng.random(out=self.coin[j, r])
            bumped = self.bumped[j, r] = self.coin[j, r, 0] >= boundary_fraction
            if bumped:
                rng.random(out=self.unit[1, j, r])
                rng.standard_normal(out=self.gauss[1, j, r])
            self.m[j, r] = rng.random() if bumped else self.coin[j, r, 1]

    def stack(self, j, sl):
        """BellmanStack of the domain points ``draw_points`` drew at point j of
        the rows ``sl``, each member bitwise the point its draws build alone:
        U is V^-1, plus scale * bump, scale in [0, 2), where a bump was drawn."""
        v = spd_from_unit(self.unit[0, j, sl], self.gauss[0, j, sl], self.halves[0])
        eig = matrices.eigh_sym(v)  # v is exactly symmetric: the stack's V is this v
        u = matrices.eig_power(*eig, -1.0)
        at = np.flatnonzero(self.bumped[j, sl])
        if at.size:
            bump = spd_from_unit(self.unit[1, j, sl][at], self.gauss[1, j, sl][at], self.halves[1])
            u[at] += uniform(0.0, 2.0, self.coin[j, sl, 1][at])[:, None, None] * bump
        return BellmanStack(u, v, uniform(0.0, 1.0, self.m[j, sl]), _eig=eig)


def random_domain_point(d, rng, cond_cap=1e4, boundary_fraction=0.3):
    """Seeded random point of the Bellman domain.

    V is a random SPD matrix with condition at most ``cond_cap``; U sits at
    V^-1 plus a PSD bump, landing exactly on the boundary with the given
    probability so the size bound is exercised where it is tight.
    """
    draws = _Draws(1, 1, d, cond_cap)
    draws.draw_points(rng, 0, boundary_fraction)
    s = draws.stack(0, slice(0, 1))
    return BellmanPoint(s.u[0], s.v[0], float(s.m[0]))


def _sampled(n, new, draw_d, draw_into, evaluate):
    """Gaps and dimensions of ``n`` samples, in draw order.

    Samples are drawn ``BLOCK`` at a time, then evaluated.  A sample draws
    its d (``draw_d()``), then its numbers into the next row r of that d's
    draws (``draw_into(draws, r)``), which ``new(d)`` makes on first use.
    The rows start over with each block, so the samples of one d in a
    draw-order slice of a block are one row range ``sl``, which
    ``evaluate(draws, sl)`` evaluates as one stack, in increasing d.  The
    error raised is the first failing sample's in draw order, by its index.
    """
    buffers = {}
    gaps, dims = np.empty(n), np.empty(n, dtype=np.intp)
    for start in range(0, n, BLOCK):
        block, rows, used = dims[start:start + BLOCK], [], {}
        for i in range(len(block)):
            d = block[i] = draw_d()
            if d not in buffers:
                buffers[d] = new(d)
            rows.append(used.get(d, 0))
            used[d] = rows[-1] + 1
            draw_into(buffers[d], rows[-1])

        def evaluate_slice(sl):
            ds, rs = block[sl], rows[sl]
            out = np.empty(len(ds))
            for d in sorted(set(ds.tolist())):  # np.unique would import numpy.ma (1 MB)
                idx = np.flatnonzero(ds == d)
                with relabel(lambda p: int(idx[p])):
                    out[idx] = evaluate(buffers[d], slice(rs[idx[0]], rs[idx[-1]] + 1))
            return out

        with relabel(lambda p: start + p):
            out, _, error = first_failure(evaluate_slice, len(block))
            if error is not None:
                raise error
        gaps[start:start + len(block)] = out
    return gaps, dims


def _sample_points(rng, n, d_max, cond_cap, gap, points=1):
    """``gap`` of ``n`` samples, each ``points`` random domain points of one
    d in 1..d_max, evaluated as ``gap(stack_1, ..., stack_points)``: (gaps, dims);
    ``d_max`` or ``n`` below 1 is refused by name."""
    for name, count in (("d_max", d_max), ("n", n)):
        if count < 1:
            raise PreconditionError(f"{name} must be at least 1, got {count}")
    return _sampled(
        n, lambda d: _Draws(min(BLOCK, n), points, d, cond_cap),
        lambda: 1 + int(rng.integers(d_max)), lambda draws, r: draws.draw_points(rng, r),
        lambda draws, sl: gap(*(draws.stack(j, sl) for j in range(points))))


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


def _probe_gaps(rng, d, n):
    """Midpoint gaps of ``matrix_parameter_probe``'s ``n`` random pairs.

    A point draws into two tapes in stream order, uniforms [V | scale | bump
    | M's eigenvalues] and normals [V | bump | M's rotation]; its last
    uniforms run on into the next point's: 1 + 8 calls per pair and block.
    The error raised is the first failing pair's in draw order."""
    halves, width, eye = (_half_log_cap(1e3), _half_log_cap(1e2)), 3 * d + 1, np.eye(d)
    gaps, m0 = np.empty(n), 2 * d + 1  # M's eigenvalues start at m0 in a point's uniforms

    def value(u, mm, v_eig):
        vr = matrices.eig_power(*v_eig, -0.5)
        core = matrices.eig_power(*matrices.eigh_sym(mm + eye), -1.0)
        return matrices.as_symmetric_stack(u - vr @ core @ vr)

    for start in range(0, n, BLOCK):
        k = min(BLOCK, n - start)
        unit, gauss = np.empty((k, 2, width)), np.empty((k, 2, 3, d, d))
        tape = unit.reshape(-1)
        rng.random(out=tape[:d])
        for o, normals in zip(range(0, tape.size, width), gauss.reshape(-1, 3, d, d)):
            rng.standard_normal(out=normals[0])
            rng.random(out=tape[o + d:o + m0])
            rng.standard_normal(out=normals[1:])
            rng.random(out=tape[o + m0:o + width + d])

        def evaluate(sl):  # point 2i + j of the stack is point j of pair i
            x, g = unit[sl].reshape(-1, width), gauss[sl].reshape(-1, 3, d, d)
            with relabel(lambda p: p // 2):
                v = spd_from_unit(x[:, :d], g[:, 0], halves[0])
                eig = matrices.eigh_sym(v)
                bump = spd_from_unit(x[:, d + 1:m0], g[:, 1], halves[1])
                u = matrices.eig_power(*eig, -1.0) + uniform(0.0, 1.5, x[:, d, None, None]) * bump
                q = orthogonal_from_draws(g[:, 2])  # M's eigenvalues are the unit draws
                mm = matrices.as_symmetric_stack((q * x[:, None, m0:]) @ q.transpose(0, 2, 1))
                u, v, mm, ends = ((y[0::2] + y[1::2]) / 2 for y in (u, v, mm, value(u, mm, eig)))
            return matrices.psd_gap_stack(value(u, mm, matrices.eigh_sym(v)), ends)

        with relabel(lambda p: start + p):
            out, _, error = first_failure(evaluate, k)
            if error is not None:
                raise error
        gaps[start:start + k] = out
    return gaps


def matrix_parameter_probe(d=2, n_pairs=2000, seed=0):
    """Experimental probe of U - V^-1/2 (M + 1)^-1 V^-1/2 with matrix M.

    Whether this candidate is concave is an open question; the probe samples
    midpoint gaps on the analogous domain (U >= V^-1, 0 <= M <= 1) and
    reports statistics, ``negatives`` being the count of gaps below -1e-10.
    Output is informational only and is never asserted by the acceptance
    suite.
    """
    for name, count in (("d", d), ("n_pairs", n_pairs)):
        if count < 1:
            raise PreconditionError(f"{name} must be at least 1, got {count}")
    gaps = _probe_gaps(np.random.default_rng(seed), d, n_pairs)
    negatives = int(np.count_nonzero(gaps < -1e-10))
    return {"pairs": n_pairs, "min_gap": float(gaps.min()), "mean_gap": float(gaps.mean()),
            "negative_fraction": negatives / n_pairs, "negatives": negatives}
