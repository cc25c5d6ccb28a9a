"""Brute-force oracles: independent computations of the quantities under
test, by direct enumeration over cubes, leaves and samples.  Deliberately
slow and structure-free so they share no code path with the kernels they
check (the Bellman loops below evaluate B one point at a time with their
own 2-D arithmetic, not through ``carlab.bellman``)."""

import math
from typing import NamedTuple

import numpy as np


def enum_cubes(depth):
    return [(k, p) for k in range(depth + 1) for p in range(1 << k)]


def enum_descendants(level, pos, depth):
    out = []
    for k in range(level, depth + 1):
        shift = k - level
        out.extend((k, p) for p in range(pos << shift, (pos + 1) << shift))
    return out


def leaf_range(level, pos, depth):
    shift = depth - level
    return pos << shift, (pos + 1) << shift


def brute_average(values, level, pos, depth):
    lo, hi = leaf_range(level, pos, depth)
    total = values[lo]
    for i in range(lo + 1, hi):
        total = total + values[i]
    return total / (hi - lo)


def brute_scalar_intensity(entries, depth):
    """sup_K |K|^-1 sum_{Q in D(K)} alpha_Q by full enumeration."""
    best = 0.0
    for level, pos in enum_cubes(depth):
        total = sum(entries.get(q, 0.0) for q in enum_descendants(level, pos, depth))
        best = max(best, total * (1 << level))
    return best


def brute_matrix_intensity(entries, depth, d):
    best = 0.0
    for level, pos in enum_cubes(depth):
        total = np.zeros((d, d))
        for q in enum_descendants(level, pos, depth):
            if q in entries:
                total = total + entries[q]
        best = max(best, float(np.linalg.eigvalsh(total)[-1]) * (1 << level))
    return best


def brute_scalar_a2(leaves):
    """sup_Q <w>_Q <w^-1>_Q for a scalar weight, the classical formula."""
    n = len(leaves)
    depth = n.bit_length() - 1
    inv = [1.0 / v for v in leaves]
    best = 0.0
    for level, pos in enum_cubes(depth):
        lo, hi = leaf_range(level, pos, depth)
        wq = sum(leaves[lo:hi]) / (hi - lo)
        vq = sum(inv[lo:hi]) / (hi - lo)
        best = max(best, wq * vq)
    return best


def brute_choquet_level_form(fvals, weights, grid=None):
    """Riemann staircase of mu({F > lambda}) on an explicit lambda grid.

    With the grid containing all distinct F values the result is exact.
    """
    positive = sorted(set(v for v in fvals if v > 0.0))
    total = 0.0
    prev = 0.0
    for v in positive:
        mu = sum(w for fv, w in zip(fvals, weights) if fv > prev + 1e-300)
        # mu is constant on (prev, v): measure of {F > lambda} for lambda just above prev
        mu = sum(w for fv, w in zip(fvals, weights) if fv >= v)
        total += (v - prev) * mu
        prev = v
    return total


def rank_one_inner_value(a, b):
    """<A q_f, q_g> for A = (a+b)(a+b)*/2, q_f = b, q_g = a, by expansion.

    A b = (a+b) <a+b, b> / 2 and <a+b, a> = 1 for orthonormal a, b, so the
    value is 1/2 exactly.
    """
    s = a + b
    return 0.5 * float(np.dot(s, b)) * float(np.dot(s, a))


def _eigh_power(m, p):
    vals, vecs = np.linalg.eigh((m + m.T) / 2)
    return (vecs * vals**p) @ vecs.T


def brute_red_constants(leaves, entries, depth):
    """(c1, c2, c3) of the matrix redundancy forms, one (K, Q) pair at a time.

    ``leaves`` is the (2^depth, d, d) weight and ``entries`` maps
    (level, position) to B_Q.  With R_K = <W>_K^-1/2 and P_Q = <W^-1>_Q^-1/2,
    c1 and c2 are sup_K 2^k lambda_max of the sums of P_Q R_K B_Q R_K P_Q
    and R_K P_Q B_Q P_Q R_K over the support cubes Q in D(K), taken only
    over cubes K whose D(K) meets the support; c3 is sup_K 2^k lambda_max
    of R_K (sum P_Q B_Q P_Q) R_K over every K.
    """
    inverse = np.array([_eigh_power(m, -1.0) for m in leaves])
    d = leaves.shape[1]
    c1 = c2 = c3 = -np.inf
    for level, pos in enum_cubes(depth):
        r_k = _eigh_power(brute_average(leaves, level, pos, depth), -0.5)
        sum1, sum2, sum3 = np.zeros((d, d)), np.zeros((d, d)), np.zeros((d, d))
        touched = False
        for q in enum_descendants(level, pos, depth):
            if q not in entries:
                continue
            touched = True
            p_q = _eigh_power(brute_average(inverse, q[0], q[1], depth), -0.5)
            b = entries[q]
            sum1 = sum1 + p_q @ r_k @ b @ r_k @ p_q
            sum2 = sum2 + r_k @ p_q @ b @ p_q @ r_k
            sum3 = sum3 + p_q @ b @ p_q
        scale = 1 << level
        c3 = max(c3, float(np.linalg.eigh(r_k @ sum3 @ r_k)[0][-1]) * scale)
        if touched:
            c1 = max(c1, float(np.linalg.eigh(sum1)[0][-1]) * scale)
            c2 = max(c2, float(np.linalg.eigh(sum2)[0][-1]) * scale)
    return c1, c2, c3


def _sandwich_supremum(leaves, depth, term):
    """sup_K 2^k lambda_max(R_K [sum_{Q in D(K)} term(Q)] R_K), R_K = <W>_K^-1/2."""
    d = leaves.shape[1]
    best = -np.inf
    for level, pos in enum_cubes(depth):
        r_k = _eigh_power(brute_average(leaves, level, pos, depth), -0.5)
        total = np.zeros((d, d))
        for q in enum_descendants(level, pos, depth):
            total = total + term(q)
        best = max(best, float(np.linalg.eigh(r_k @ total @ r_k)[0][-1]) * (1 << level))
    return best


def brute_sred_constant(leaves, entries, depth):
    """Scalar redundancy constant, one (K, Q) pair at a time.

    ``leaves`` is the (2^depth, d, d) weight and ``entries`` maps
    (level, position) to alpha_Q; the summand is alpha_Q <W^-1>_Q^-1.
    """
    inverse = np.array([_eigh_power(m, -1.0) for m in leaves])
    d = leaves.shape[1]

    def term(q):
        if q not in entries:
            return np.zeros((d, d))
        return entries[q] * _eigh_power(brute_average(inverse, q[0], q[1], depth), -1.0)

    return _sandwich_supremum(leaves, depth, term)


def brute_wcet_testing_constant(leaves, entries, depth):
    """Testing constant, one (K, Q) pair at a time.

    ``entries`` maps (level, position) to A_Q, a d x d matrix or a scalar
    alpha_Q standing for alpha_Q times the identity; the summand is
    <W>_Q A_Q <W>_Q.
    """
    d = leaves.shape[1]

    def term(q):
        if q not in entries:
            return np.zeros((d, d))
        a = entries[q] if np.ndim(entries[q]) else entries[q] * np.eye(d)
        w_q = brute_average(leaves, q[0], q[1], depth)
        return w_q @ a @ w_q

    return _sandwich_supremum(leaves, depth, term)


def brute_jacobi_eigh(a, max_sweeps=60):
    """Cyclic Jacobi eigendecomposition of one matrix, in the dtype of ``a``.

    The scalar loop the stacked longdouble solver must reproduce bit for
    bit: (eigenvalues ascending, eigenvector columns).
    """
    a = np.array(a, copy=True)
    n = a.shape[0]
    dt = a.dtype
    v = np.eye(n, dtype=dt)
    if n == 1:
        return np.array([a[0, 0]], dtype=dt), v
    eps = np.finfo(dt).eps
    one = dt.type(1.0)
    for _ in range(max_sweeps):
        offd = np.abs(a - np.diag(np.diag(a))).max()
        scale = max(np.abs(a).max(), np.finfo(dt).tiny)
        if offd <= eps * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 0.01 * eps * scale:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau == 0.0:
                    t = one
                else:
                    t = np.sign(tau) / (abs(tau) + np.sqrt(one + tau * tau))
                c = one / np.sqrt(one + t * t)
                s = t * c
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    else:
        raise ArithmeticError("Jacobi eigensolver did not converge")
    order = np.argsort(np.diag(a), kind="stable")
    return np.diag(a)[order].copy(), v[:, order].copy()


def brute_spd_power(m, p):
    """SPD power of every matrix of a stack (..., d, d), one matrix at a time.

    Per matrix: numpy ``eigh`` (longdouble: ``brute_jacobi_eigh``), the
    refusal rule (a negative power refuses lambda_min <= 1e-12, the square
    root lambda_min < -1e-12 and clips the rest at zero), then an einsum
    and the symmetrization.  A refused matrix raises SingularMatrixError
    with ``point`` its flat index in the stack.
    """
    from carlab.errors import SingularMatrixError

    m = np.asarray(m)
    flat = m.reshape(-1, *m.shape[-2:])
    out = np.empty_like(flat)
    for i, a in enumerate(flat):
        vals, vecs = brute_jacobi_eigh(a) if a.dtype == np.longdouble else np.linalg.eigh(a)
        if (vals[0] <= 1e-12) if p < 0 else (vals[0] < -1e-12):
            raise SingularMatrixError("refused", lambda_min=float(vals[0])).at(i)
        if p > 0:
            vals = np.clip(vals, 0.0, None)
        r = np.einsum("ij,j,lj->il", vecs, vals ** a.dtype.type(p), vecs)
        out[i] = (r + r.T) / 2
    return out.reshape(m.shape)


def brute_bet_vectors(wavg, winvavg, havg, gavg, support):
    """(u_Q, v_Q) of the bilinear sums, one support cube at a time.

    Per cube Q = (k, p): one numpy ``eigh`` of <W>_Q (resp. <W^-1>_Q), then
    the inverse applied to <W^1/2 f>_Q (resp. <W^-1/2 g>_Q) through the
    eigenvectors.  The pyramids are passed in, so the comparison isolates
    the solve.
    """
    out = []
    for k, p in support:
        pair = []
        for avg, rhs in ((wavg, havg), (winvavg, gavg)):
            vals, vecs = np.linalg.eigh(avg[k][p])
            pair.append(vecs @ ((vals ** -1.0) * (vecs.T @ rhs[k][p])))
        out.append(tuple(pair))
    return out


def brute_search_weight(logs, angles):
    """Leaf weights Q diag(exp(logs)) Q^T, one leaf at a time.

    Q is the product, in plane order (0, 1), (0, 2), ..., (d-2, d-1), of the
    Givens rotations by the leaf's angles.
    """
    n, d = logs.shape
    leaves = np.empty((n, d, d))
    for i in range(n):
        q = np.eye(d)
        idx = 0
        for a in range(d - 1):
            for b in range(a + 1, d):
                c, s = math.cos(angles[i, idx]), math.sin(angles[i, idx])
                g = np.eye(d)
                g[a, a] = c
                g[b, b] = c
                g[a, b] = -s
                g[b, a] = s
                q = q @ g
                idx += 1
        leaves[i] = (q * np.exp(logs[i])) @ q.T
    return leaves


# ---------------------------------------------------------------------------
# The Bellman function one point at a time: symmetrization, SPD power and
# PSD margin of single 2-D matrices, as the point API computed them before
# a point became a stack of one.
# ---------------------------------------------------------------------------

class BrutePoint(NamedTuple):
    u: np.ndarray
    v: np.ndarray
    m: float


def brute_symmetric(m):
    """(M + M^T)/2 of one matrix."""
    m = np.asarray(m)
    return (m + m.T) / 2


def brute_power(m, p):
    """SPD power of one matrix, symmetrized first."""
    return brute_spd_power(brute_symmetric(m), p)


def brute_psd_gap(a, b):
    """Smallest eigenvalue of the symmetrized a - b, from one full ``eigh``."""
    return float(np.linalg.eigh(brute_symmetric(a - b))[0][0])


def brute_point(u, v, m):
    """(U, V, m) with U and V symmetrized, refused outside the Bellman domain
    1 <= V^1/2 U V^1/2 (slack 1e-10), 0 <= m <= 1 (slack 1e-9)."""
    from carlab.errors import DomainError

    u, v, m = brute_symmetric(u), brute_symmetric(v), float(m)
    root = brute_power(v, 0.5)
    margins = {"psd": brute_psd_gap(root @ u @ root, np.eye(len(v))), "m": min(m, 1.0 - m)}
    if margins["psd"] < -1e-10 or margins["m"] < -1e-9:
        raise DomainError("point outside the Bellman domain", margins=margins)
    return BrutePoint(u, v, m)


def brute_eval(p):
    """B(U, V, m) = U - (m+1)^-1 V^-1."""
    return brute_symmetric(p.u - brute_power(p.v, -1.0) / (p.m + 1.0))


def brute_concavity_gap(p0, p1):
    mid = brute_point((p0.u + p1.u) / 2, (p0.v + p1.v) / 2, (p0.m + p1.m) / 2)
    return brute_psd_gap(brute_eval(mid), (brute_eval(p0) + brute_eval(p1)) / 2)


def brute_dm_gap(p, h):
    shifted = brute_point(p.u, p.v, p.m + h)
    quotient = (brute_eval(shifted) - brute_eval(p)) / h
    return brute_psd_gap(quotient, brute_power(p.v, -1.0) / 4.0)


# ---------------------------------------------------------------------------
# Per-sample random constructors and Bellman loops, as they were before the
# samplers drew first and built on stacks.
# ---------------------------------------------------------------------------

def brute_random_orthogonal(d, rng):
    m = rng.standard_normal((d, d))
    q, r = np.linalg.qr(m)
    return q * np.sign(np.diag(r))


def brute_random_spd(d, rng, cond_cap=1e4):
    half = 0.5 * np.log(cond_cap)
    lams = np.exp(rng.uniform(-half, half, size=d))
    q = brute_random_orthogonal(d, rng)
    m = (q * lams) @ q.T
    return (m + m.T) / 2


def brute_random_weight_field(depth, d, rng, cond_cap=1e4):
    """Leaf matrices (2^depth, d, d), one ``brute_random_spd`` each."""
    return np.stack([brute_random_spd(d, rng, cond_cap) for _ in range(1 << depth)])


def brute_random_domain_point(d, rng, cond_cap=1e4, boundary_fraction=0.3):
    v = brute_random_spd(d, rng, cond_cap)
    vinv = brute_power(v, -1.0)
    if rng.uniform() < boundary_fraction:
        u = vinv
    else:
        u = vinv + rng.uniform(0.0, 2.0) * brute_random_spd(d, rng, min(cond_cap, 1e2))
    return brute_point(u, v, float(rng.uniform(0.0, 1.0)))


def brute_size_gaps(rng, n, d_max):
    """Per-sample size margins of the bellman-certify loop: (gaps, dims)."""
    gaps, dims = [], []
    for _ in range(n):
        d = 1 + int(rng.integers(d_max))
        p = brute_random_domain_point(d, rng, cond_cap=1e4)
        b = brute_eval(p)
        gaps.append(min(brute_psd_gap(b, np.zeros_like(b)), brute_psd_gap(p.u, b)))
        dims.append(d)
    return np.array(gaps), np.array(dims)


def brute_concavity_gaps(rng, n, d_max):
    gaps, dims = [], []
    for _ in range(n):
        d = 1 + int(rng.integers(d_max))
        p0 = brute_random_domain_point(d, rng, cond_cap=1e4)
        p1 = brute_random_domain_point(d, rng, cond_cap=1e4)
        gaps.append(brute_concavity_gap(p0, p1))
        dims.append(d)
    return np.array(gaps), np.array(dims)


def brute_dm_gaps(rng, n, d_max, h):
    gaps, dims = [], []
    for _ in range(n):
        d = 1 + int(rng.integers(d_max))
        p = brute_random_domain_point(d, rng, cond_cap=1024)
        p = brute_point(p.u, p.v, min(p.m, 1.0 - h))
        gaps.append(brute_dm_gap(p, h))
        dims.append(d)
    return np.array(gaps), np.array(dims)


def brute_matrix_parameter_probe(d=2, n_pairs=2000, seed=0):
    rng = np.random.default_rng(seed)

    def sample():
        v = brute_random_spd(d, rng, 1e3)
        u = brute_power(v, -1.0) + rng.uniform(0.0, 1.5) * brute_random_spd(d, rng, 1e2)
        q = brute_random_orthogonal(d, rng)
        mm = (q * rng.uniform(0.0, 1.0, size=d)) @ q.T
        return u, v, brute_symmetric(mm)

    def value(u, v, mm):
        vr = brute_power(v, -0.5)
        core = brute_power(mm + np.eye(d), -1.0)
        return brute_symmetric(u - vr @ core @ vr)

    gaps = np.empty(n_pairs)
    for i in range(n_pairs):
        u0, v0, m0 = sample()
        u1, v1, m1 = sample()
        mid = value((u0 + u1) / 2, (v0 + v1) / 2, (m0 + m1) / 2)
        avg = (value(u0, v0, m0) + value(u1, v1, m1)) / 2
        gaps[i] = brute_psd_gap(mid, avg)
    return {
        "pairs": n_pairs,
        "min_gap": float(gaps.min()),
        "mean_gap": float(gaps.mean()),
        "negative_fraction": float((gaps < -1e-10).mean()),
    }


def _dynamics_data(w, alpha):
    from carlab.characteristics import subtree_sums

    w = w.as_matrix()
    m_levels = subtree_sums(alpha.dense_levels())
    for k in range(w.depth + 1):
        m_levels[k] = m_levels[k] * (1 << k)
    return w.pyramid(), w.inverse().pyramid(), m_levels


def brute_cube_certificate(w, alpha, level, pos):
    """Dynamics certificate of one cube, from points built per cube."""
    uavg, vavg, m_levels = _dynamics_data(w, alpha)
    depth = len(uavg) - 1

    def point(k, p, m=None):
        return brute_point(uavg[k][p], vavg[k][p], float(m_levels[k][p]) if m is None else m)

    pk = point(level, pos)
    vinv = brute_power(pk.v, -1.0)
    measure = 2.0 ** (-level)
    lhs = measure * brute_eval(pk) - 0.25 * alpha.get((level, pos)) * vinv
    if level == depth:
        rest = measure * brute_eval(point(level, pos, 0.0))
    else:
        rest = np.zeros_like(lhs)
        for child in (2 * pos, 2 * pos + 1):
            rest = rest + 2.0 ** (-(level + 1)) * brute_eval(point(level + 1, child))
    return brute_symmetric(lhs - rest)


def brute_dynamics_gaps(w, alpha):
    """{(level, pos): gap} over the non-leaf cubes, one cube at a time."""
    depth = w.depth
    out = {}
    for level, pos in enum_cubes(depth - 1) if depth else []:
        cert = brute_cube_certificate(w, alpha, level, pos)
        out[(level, pos)] = brute_psd_gap(cert, np.zeros_like(cert))
    return out


def brute_telescoping_certificate(w, alpha, level=0, pos=0):
    """(direct, accumulated, min_gap) summed cube by cube over D(level, pos)."""
    uavg, vavg, m_levels = _dynamics_data(w, alpha)
    depth = w.depth
    accumulated = sred_sum = leaf_tail = None
    min_gap = np.inf
    for k, p in enum_descendants(level, pos, depth):
        cert = brute_cube_certificate(w, alpha, k, p)
        accumulated = cert if accumulated is None else accumulated + cert
        min_gap = min(min_gap, brute_psd_gap(cert, np.zeros_like(cert)))
        a = alpha.get((k, p))
        if a:
            term = a * brute_power(vavg[k][p], -1.0)
            sred_sum = term if sred_sum is None else sred_sum + term
        if k == depth:
            tail = 2.0 ** (-k) * brute_eval(brute_point(uavg[k][p], vavg[k][p], 0.0))
            leaf_tail = tail if leaf_tail is None else leaf_tail + tail
    pk = brute_point(uavg[level][pos], vavg[level][pos], float(m_levels[level][pos]))
    if sred_sum is None:
        sred_sum = np.zeros((w.d, w.d))
    direct = 2.0 ** (-level) * brute_eval(pk) - 0.25 * sred_sum - leaf_tail
    return brute_symmetric(direct), brute_symmetric(accumulated), float(min_gap)


# ---------------------------------------------------------------------------
# The adversarial search as one restart after the other, one evaluation at
# a time through the public kernels, as it ran before the restarts moved in
# lockstep.  Leaf-derived values are reused across sequence-only moves.
# ---------------------------------------------------------------------------

def _brute_state_weight(state, cond_cap):
    from carlab.dyadic import StepField

    half = 0.5 * math.log(cond_cap)
    center = state.log_eigs.mean(axis=1, keepdims=True)
    logs = center + np.clip(state.log_eigs - center, -half, half)
    return StepField(brute_search_weight(logs, state.angles))


class _BruteState:
    def __init__(self, depth, d, log_eigs, angles, seq_weights, leaf=None):
        self.depth, self.d = depth, d
        self.log_eigs, self.angles, self.seq_weights = log_eigs, angles, seq_weights
        self.leaf = leaf  # (w, f, g, ||f|| ||g||, c2), shared until the leaves move

    def copy(self):
        return _BruteState(self.depth, self.d, self.log_eigs.copy(), self.angles.copy(),
                           self.seq_weights.copy(), self.leaf)


def _brute_leaf(state, objective, cond_cap):
    from carlab import matrices
    from carlab.characteristics import c2_conditioning
    from carlab.dyadic import StepField
    from carlab.embeddings import weighted_l2_norm

    if state.leaf is None:
        w = _brute_state_weight(state, cond_cap)
        if objective == "bet_norm_ratio":
            root_avg = w.pyramid()[0][0]
            _, vecs = matrices.eigh_sym(matrices.as_symmetric(root_avg))
            f = StepField(np.einsum("kij,j->ki", w.power(0.5).values, vecs[:, 0]))
            g = StepField(np.einsum("kij,j->ki", w.power(-0.5).values, vecs[:, -1]))
            norms = weighted_l2_norm(f) * weighted_l2_norm(g)
            state.leaf = (w, f, g, norms, c2_conditioning(w))
        else:
            state.leaf = (w, None, None, None, None)
    return state.leaf


def _brute_objective(state, objective, cond_cap):
    from carlab.characteristics import (
        MatrixSequence, ScalarSequence, cube_supremum, subtree_sums,
    )
    from carlab.dyadic import tree_cube
    from carlab.embeddings import bet_norm_sum
    from carlab.redundancy import red_constants, sred_constant

    leaf = _brute_leaf(state, objective, cond_cap)
    w, f, g, norms, _ = leaf
    weights = np.where(state.seq_weights > 0.0, state.seq_weights, 0.0)
    if not weights.any():
        weights[0] = 1.0
    levels = [weights[(1 << k) - 1:(1 << (k + 1)) - 1] for k in range(state.depth + 1)]
    scaled = weights * (1.0 / cube_supremum(subtree_sums(levels)))
    seq = ScalarSequence(
        state.depth, [(tree_cube(int(i)), scaled[i]) for i in np.flatnonzero(scaled)]
    )
    if objective == "bet_norm_ratio":
        return bet_norm_sum(w, seq, f, g) / norms, leaf
    if objective == "sred_ratio":
        return sred_constant(w, seq), leaf
    mseq = MatrixSequence(state.depth, state.d, {q: v * np.eye(state.d) for q, v in seq.items()})
    return max(red_constants(w, mseq)), leaf


def _brute_start(restart, depth, d, cond_cap, rng):
    n_leaves = 1 << depth
    n_angles = d * (d - 1) // 2
    n_cubes = sum(1 << k for k in range(depth + 1))
    if restart == 0 and d >= 2:
        log_eigs = np.zeros((n_leaves, d))
        log_eigs[:, 0] = -math.log(cond_cap)
        seq_weights = np.zeros(n_cubes)
        seq_weights[0] = 1.0
        return _BruteState(depth, d, log_eigs, np.zeros((n_leaves, n_angles)), seq_weights)
    half = 0.5 * math.log(cond_cap)
    log_eigs = rng.uniform(-half, half, size=(n_leaves, d))
    angles = rng.uniform(0.0, math.pi, size=(n_leaves, n_angles))
    seq_weights = np.where(rng.uniform(size=n_cubes) < 0.4, rng.uniform(0.1, 1.0, n_cubes), 0.0)
    return _BruteState(depth, d, log_eigs, angles, seq_weights)


def _brute_perturb(state, rng, scale=0.35):
    out = state.copy()
    kind = rng.uniform()
    if kind < 0.45:
        i = int(rng.integers(out.log_eigs.shape[0]))
        j = int(rng.integers(out.log_eigs.shape[1]))
        out.log_eigs[i, j] += rng.normal(0.0, 2.0 * scale)
        out.leaf = None
    elif kind < 0.7 and out.angles.shape[1]:
        i = int(rng.integers(out.angles.shape[0]))
        j = int(rng.integers(out.angles.shape[1]))
        out.angles[i, j] += rng.normal(0.0, scale)
        out.leaf = None
    else:
        i = int(rng.integers(out.seq_weights.shape[0]))
        out.seq_weights[i] = max(0.0, out.seq_weights[i] + rng.normal(0.0, scale))
    return out


def brute_adversarial_search(depth=3, d=2, seed=0, objective="bet_norm_ratio",
                             budget=10000, cond_cap=1e4, n_restarts=4):
    """``adversarial_search`` restart by restart; also returns the first
    evaluation reaching the best value and its restart."""
    rng = np.random.default_rng(seed)
    n_restarts = max(1, min(n_restarts, budget))
    per_restart = budget // n_restarts
    evals = 0
    best_value, best_weight, best_at, best_restart = -np.inf, None, None, None
    history = []
    checkpoint = max(1, budget // 25)
    sanity_max = 0.0
    for restart in range(n_restarts):
        state = _brute_start(restart, depth, d, cond_cap, rng)
        current = None
        while evals < per_restart * (restart + 1):
            candidate = state if current is None else _brute_perturb(state, rng)
            value, (w, _, _, _, c2) = _brute_objective(candidate, objective, cond_cap)
            evals += 1
            if value > best_value:
                best_value, best_weight, best_at, best_restart = value, w, evals, restart
            if current is None or value > current:
                state, current = candidate, value
            if objective == "bet_norm_ratio":
                sanity_max = max(sanity_max, value / math.sqrt(c2))
            if evals % checkpoint == 0 or evals == 1:
                history.append({"evaluations": evals, "best_objective": best_value,
                                "restart": restart, "seed": seed})
    return {
        "best_value": best_value,
        "sanity_max_over_sqrt_c2": sanity_max,
        "evaluations": evals,
        "history": history,
        "best_weight": best_weight,
        "best_restart": best_restart,
        "best_evaluation": best_at,
    }


# ---------------------------------------------------------------------------
# The random sequences, the sequence entry checks and the redundancy
# cross-checks entry by entry, as they ran before they moved to stacks.
# ---------------------------------------------------------------------------

def brute_matrix_sequence_entries(depth, d, entries):
    """The entries a ``MatrixSequence`` keeps, checked one entry at a time."""
    from carlab import matrices
    from carlab.dyadic import check_index
    from carlab.errors import DimensionMismatchError, SingularMatrixError

    checked = []
    for q, m in dict(entries).items():
        q = check_index(q, depth)
        m = matrices.as_symmetric(m)
        if m.shape != (d, d):
            raise DimensionMismatchError(f"entry at {q} has shape {m.shape}, expected {(d, d)}")
        checked.append((q, m))
    for q, m in checked:
        lmin = float(np.linalg.eigvalsh(m)[0])
        if lmin < -1e-12:
            raise SingularMatrixError(f"sequence entry at {q} is not PSD", lambda_min=lmin)
    return {q: m for q, m in checked if np.any(m != 0.0)}


def brute_random_scalar_sequence(depth, rng, density=0.35):
    """Entries of ``random_scalar_sequence``, drawn and rescaled one at a time."""
    from carlab.characteristics import ScalarSequence, carleson_intensity

    entries = {}
    for k in range(depth + 1):
        for p in range(1 << k):
            if rng.uniform() < density:
                entries[(k, p)] = float(rng.uniform(0.1, 1.0))
    if not entries:
        entries[(0, 0)] = 1.0
    factor = 1.0 / carleson_intensity(ScalarSequence(depth, entries))
    return {q: v * factor for q, v in entries.items()}


def brute_random_matrix_sequence(depth, d, rng, density=0.35):
    """Entries of ``random_matrix_sequence``, built and checked one at a time."""
    from carlab import matrices
    from carlab.characteristics import MatrixSequence, carleson_intensity

    entries = {}
    for k in range(depth + 1):
        for p in range(1 << k):
            if rng.uniform() >= density:
                continue
            if rng.uniform() < 0.5:
                v = rng.standard_normal(d)
                m = np.outer(v, v)
            else:
                q = brute_random_orthogonal(d, rng)
                m = (q * rng.uniform(0.05, 1.0, size=d)) @ q.T
            entries[(k, p)] = matrices.as_symmetric(m)
    if not entries:
        entries[(0, 0)] = np.eye(d)
    entries = brute_matrix_sequence_entries(depth, d, entries)
    factor = 1.0 / carleson_intensity(MatrixSequence(depth, d, entries))
    return brute_matrix_sequence_entries(depth, d, {q: m * factor for q, m in entries.items()})


def brute_trace_cycling_error(w, entries):
    """Worst relative trace-cycling defect over the entries, one cube at a time."""
    from carlab import matrices

    w = w.as_matrix()
    wavg = w.pyramid()
    vavg = w.inverse().pyramid()
    worst = 0.0
    for (level, pos), b in entries.items():
        b_q = matrices.operator_norm(b)
        r_k = matrices.spd_power(wavg[0][0], -0.5)
        p_q = matrices.spd_power(vavg[level][pos], -0.5)
        t1 = float(np.trace(r_k @ p_q @ (b_q * np.eye(w.d)) @ p_q @ r_k))
        t2 = float(np.trace(p_q @ r_k @ (b_q * np.eye(w.d)) @ r_k @ p_q))
        scale = max(abs(t1), abs(t2), 1e-30)
        worst = max(worst, abs(t1 - t2) / scale)
    return worst


def brute_red_quadratic_form(w, entries, k, e, order="corollary"):
    """``red_quadratic_form`` summed cube by cube in entry order."""
    from carlab import matrices

    w = w.as_matrix()
    level, pos = k
    e = np.asarray(e, dtype=float)
    wavg = w.pyramid()
    vavg = w.inverse().pyramid()
    r_k = matrices.spd_power(wavg[level][pos], -0.5)
    total = 0.0
    for (ql, qp), b in entries.items():
        if ql < level or qp >> (ql - level) != pos:
            continue
        p_q = matrices.spd_power(vavg[ql][qp], -0.5)
        if order == "first":
            x = r_k @ (p_q @ e)
        elif order == "second":
            x = p_q @ (r_k @ e)
        else:
            x = p_q @ e
        total += max(float(x @ (b @ x)), 0.0)
    return total / 2.0 ** -level


def brute_substitution_error(w, entries, rng, samples=5):
    """``substitution_error`` one sample at a time, each form summed cube by
    cube, with f = <W>_K^-1/2 e from one ``eigh`` of <W>_K."""
    w = w.as_matrix()
    wavg = w.pyramid()
    worst = 0.0
    for _ in range(samples):
        level = int(rng.integers(0, w.depth + 1))
        k = (level, int(rng.integers(0, 1 << level)))
        e = rng.standard_normal(w.d)
        e /= np.linalg.norm(e)
        second = brute_red_quadratic_form(w, entries, k, e, order="second")
        wk = wavg[level][k[1]]
        vals, vecs = np.linalg.eigh(wk)
        f = vecs @ ((vals ** -0.5) * (vecs.T @ e))
        corollary = brute_red_quadratic_form(w, entries, k, f, order="corollary")
        scale = max(second, corollary, 1e-30)
        worst = max(worst, abs(second - corollary) / scale)
        worst = max(worst, abs(float(e @ e) - float(f @ (wk @ f))) / max(float(e @ e), 1e-30))
    return worst
