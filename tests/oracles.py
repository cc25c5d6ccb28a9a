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


# ---------------------------------------------------------------------------
# The tree kernels on lists of levels, as they ran before every cube-indexed
# array became flat in tree order: level k of a tree is an array (2^k, ...).
# Each is a loop over levels that shares no indexing with the flat kernels,
# which are compared with them bitwise.
# ---------------------------------------------------------------------------

def split_levels(flat, axis=0):
    """The levels (.., 2^k, ..) of an array whose ``axis`` lists a tree's cubes in tree order."""
    lead = (slice(None),) * axis
    return [flat[lead + (slice((1 << k) - 1, (2 << k) - 1),)]
            for k in range(flat.shape[axis].bit_length())]


def loop_pyramid(values):
    """Per-level averages of leaf values (2^depth, ...), by pairwise halving
    from the leaves up: ``loop_pyramid(values)[k][p]`` averages over (k, p)."""
    depth = len(values).bit_length() - 1
    levels = [None] * (depth + 1)
    levels[depth] = np.asarray(values)
    for k in range(depth - 1, -1, -1):
        upper = levels[k + 1]
        levels[k] = upper.dtype.type(0.5) * (upper[0::2] + upper[1::2])
    return levels


def loop_subtree_sums(levels):
    """acc[k][p] = sum of the per-cube quantity over D((k, p)), one level at a time."""
    acc = [np.array(lv, copy=True) for lv in levels]
    for k in range(len(levels) - 2, -1, -1):
        acc[k] += acc[k + 1][0::2] + acc[k + 1][1::2]
    return acc


def loop_cube_supremum(levels, touched=None):
    """sup over cubes (k, p) of 2^k lambda_max(levels[k][p]), one eigenvalue
    call per level.  ``touched``, one boolean level per level when given,
    keeps only the cubes it marks; a level whose maximum is NaN is passed over."""
    from carlab import matrices

    best = -np.inf
    for k, level in enumerate(levels):
        if touched is not None:
            level = level[touched[k]]
        if not level.size:
            continue
        tops = matrices.lambda_max_stack(level) if level.ndim == 3 else level
        top = float(np.max(tops))
        if not math.isnan(top):
            best = max(best, top * 2.0 ** k)
    return best


def loop_testing_terms(wavg, seq):
    """Per-level <W>_Q A_Q <W>_Q from the per-level averages ``wavg``; a scalar
    sequence gives alpha_Q <W>_Q <W>_Q."""
    from carlab.characteristics import MatrixSequence

    alev = split_levels(seq.dense(dtype=wavg[0].dtype))
    if isinstance(seq, MatrixSequence):
        return [wk @ a @ wk for wk, a in zip(wavg, alev)]
    return [a[:, None, None] * (wk @ wk) for wk, a in zip(wavg, alev)]


def loop_maximal_function(w, f):
    """``maximal_function`` one level at a time: the level's u = <W>_Q^-1
    <W^1/2 f>_Q repeated onto its leaves, and a running maximum of the norms."""
    from carlab.embeddings import _halfweighted_averages

    w, f = w.as_matrix(), f.as_vector()
    havg = split_levels(_halfweighted_averages(w, f, +1))
    best = None
    for k, inv in enumerate(split_levels(w.cube_power(-1.0))):
        u = np.repeat(np.einsum("kij,kj->ki", inv, havg[k]), w.n_leaves >> k, axis=0)
        y = np.einsum("kij,kj->ki", w.power(0.5).values, u)
        norms = np.sqrt(np.einsum("ki,ki->k", y, y))
        best = norms if best is None else np.maximum(best, norms)
    return best


def level_powers_batch(eig, p):
    """SPD power of every cube average of a batch, from the eigendecomposition
    ``eig`` of its pyramids (B, cubes, d, d) in one solver call, as the
    constants took them before ``StepField.cube_power``.  A refused average
    names its cube: the first one in batch and tree order."""
    from carlab import matrices
    from carlab.dyadic import tree_cube

    vals, vecs = eig
    n_cubes = vals.shape[1]
    return matrices.eig_power(vals, vecs, p, context=lambda i: tree_cube(i % n_cubes))


def level_powers(pyramid, p):
    """SPD power of every cube of a per-level pyramid, by one stacked power
    per level; a refused average names its cube."""
    from carlab import matrices
    from carlab.dyadic import DyadicIndex

    return [matrices.eig_power(*matrices.eigh_sym(level), p,
                               context=lambda i, k=k: DyadicIndex(k, i))
            for k, level in enumerate(pyramid)]


def separate_powers(values, p):
    """``StepField.power`` and ``cube_power`` of the leaves ``values`` as they
    ran before they shared the leaf level: each decomposes a stack of its
    own, the leaves and every cube average, leaves included."""
    from carlab import matrices
    from carlab.dyadic import DyadicIndex, pyramid_batch, tree_cube

    depth = len(values).bit_length() - 1
    leaves = matrices.eig_power(*matrices.eigh_sym(values), p,
                                context=lambda i: DyadicIndex(depth, i))
    avgs = pyramid_batch(values[None])[0]
    return leaves, matrices.eig_power(*matrices.eigh_sym(avgs), p, context=tree_cube)


def two_check_scaled(seq, factor):
    """``CubeSequence.scaled`` as it ran before it kept each entry's
    lambda_min: the scaled entries go through the whole check again, as the
    sequence's construction checked them."""
    return type(seq).from_arrays(seq.depth, seq.positions, seq.values * factor)


def computed_intensity(seq):
    """``carleson_intensity`` as it ran before a sequence carried one: the
    intensity computed from the entries, and nothing kept on the sequence."""
    from carlab.characteristics import carleson_intensity_batch

    return float(carleson_intensity_batch(seq.dense()[None])[0]) if len(seq) else 0.0


def always_check_intensities(seqs):
    """The intensity refusal of ``sred_constant`` and ``red_constants`` before
    a sequence carried an intensity: the whole check on every one."""
    from carlab.characteristics import carleson_intensity_batch, check_intensity_bound

    intensity = carleson_intensity_batch(np.stack([seq.dense() for seq in seqs]))
    check_intensity_bound(intensity, "redundancy bounds assume")


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


def brute_red_sums(roots, proots, b):
    """The c1 and c2 sums of ``red_sums_batch``, by the loop over the level k
    of K and then the level j of Q that ``red_constants_batch`` ran before
    its loop over shifts: for each k down to the batch's deepest support
    level, R_K repeated onto the 2^(j-k) cubes Q of each level j below, the
    summands added level by level.  Takes the kernel's flat inputs; returns
    both sums as levels (B, 2^k, d, d).
    """
    roots, proots, b = (split_levels(a, axis=1) for a in (roots, proots, b))
    size, depth, d = len(b[0]), len(b) - 1, b[0].shape[-1]
    pbp = [p @ bj @ p for p, bj in zip(proots, b)]
    support = [np.any(bj != 0.0, axis=(-2, -1)) for bj in b]
    sums1, sums2 = [], []
    for k in range(max(k for k, s in enumerate(support) if s.any()) + 1):
        sum1 = np.zeros((size, 1 << k, d, d), dtype=roots[0].dtype)
        sum2 = np.zeros((size, 1 << k, d, d), dtype=roots[0].dtype)
        for j in range(k, depth + 1):
            rrep = np.repeat(roots[k], 1 << (j - k), axis=1)
            first = proots[j] @ (rrep @ b[j] @ rrep) @ proots[j]
            second = rrep @ pbp[j] @ rrep
            sum1 += first.reshape(size, 1 << k, -1, d, d).sum(axis=2)
            sum2 += second.reshape(size, 1 << k, -1, d, d).sum(axis=2)
        sums1.append(sum1)
        sums2.append(sum2)
    return sums1, sums2


def three_call_red_constants(roots, proots, b):
    """(c1, c2, c3) of ``red_constants_batch`` as it ran before its three
    suprema shared one eigenvalue call: one ``cube_supremum_batch`` call
    each, c3 over every cube and c1, c2 over the cubes with support below
    them, down to the batch's deepest support level."""
    from carlab.characteristics import cube_supremum_batch, subtree_sums_batch
    from carlab.dyadic import tree_level
    from carlab.redundancy import red_sums_batch

    support = np.any(b != 0.0, axis=(-2, -1))
    touched = subtree_sums_batch(support.astype(np.float64)) > 0.0
    pbp = proots @ b @ proots
    c3 = cube_supremum_batch(roots @ subtree_sums_batch(pbp) @ roots)
    deepest = int(tree_level(np.flatnonzero(support.any(axis=0))[-1]))
    sums = red_sums_batch(roots, proots, b, pbp, deepest)
    return (*(cube_supremum_batch(a, touched) for a in sums), c3)


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
    bit: (eigenvalues ascending, eigenvector columns).  Reads the lower
    triangle only, as LAPACK's ``eigh`` does.
    """
    a = np.asarray(a)
    n = a.shape[0]
    a = np.where(np.tri(n, dtype=bool), a, a.T)
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
    """(summary, per-pair gaps) of the per-pair probe loop; ``seed`` may be a
    generator, which the loop then draws from."""
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
        "negatives": int((gaps < -1e-10).sum()),
    }, gaps


def _dynamics_data(w, alpha):
    w = w.as_matrix()
    m_levels = loop_subtree_sums(split_levels(alpha.dense()))
    for k in range(w.depth + 1):
        m_levels[k] = m_levels[k] * (1 << k)
    return loop_pyramid(w.values), loop_pyramid(w.inverse().values), m_levels


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
# a time through the public kernels, as it ran before the restarts were
# batched; bet_norm_ratio in its closed form, whose evaluation through the
# bilinear sum is ``bilinear_bet_norm_ratio``, and red_ratio in its scalar
# form, whose evaluation through ``red_constants`` is
# ``matrix_form_red_ratio``.  Leaf-derived values are
# reused across sequence-only moves; everything else is computed afresh
# for every candidate.
# ---------------------------------------------------------------------------

def _brute_state_weight(state, cond_cap):
    from carlab.dyadic import StepField

    half = 0.5 * math.log(cond_cap)
    center = state.log_eigs.mean(axis=1, keepdims=True)
    logs = center + np.clip(state.log_eigs - center, -half, half)
    return StepField(brute_search_weight(logs, state.angles))


def bilinear_bet_norm_ratio(w, seq):
    """The search's bet_norm_ratio of one weight and scalar sequence through
    the public kernels: f = W^1/2 b and g = W^-1/2 a, from the bottom and top
    eigenvectors b, a of the root average <W>, then ``bet_norm_sum`` over
    ``weighted_l2_norm(f) * weighted_l2_norm(g)``."""
    from carlab import matrices
    from carlab.dyadic import StepField
    from carlab.embeddings import bet_norm_sum, weighted_l2_norm

    root_avg = loop_pyramid(w.values)[0][0]
    _, vecs = matrices.eigh_sym(matrices.as_symmetric(root_avg))
    f = StepField(np.einsum("kij,j->ki", w.power(0.5).values, vecs[:, 0]))
    g = StepField(np.einsum("kij,j->ki", w.power(-0.5).values, vecs[:, -1]))
    return bet_norm_sum(w, seq, f, g) / (weighted_l2_norm(f) * weighted_l2_norm(g))


def matrix_form_red_ratio(w, seq):
    """The search's red_ratio of one weight and scalar sequence through the
    public kernel for matrix sequences: max(c1, c2, c3) of ``red_constants``
    of the sequence alpha_Q I."""
    from carlab.characteristics import MatrixSequence
    from carlab.redundancy import red_constants

    return max(red_constants(w, MatrixSequence(w.depth, w.d, {q: v * np.eye(w.d)
                                                              for q, v in seq.items()})))


class _BruteState:
    def __init__(self, depth, d, log_eigs, angles, seq_weights, leaf=None):
        self.depth, self.d = depth, d
        self.log_eigs, self.angles, self.seq_weights = log_eigs, angles, seq_weights
        self.leaf = leaf  # (w, closed-form denominator, c2), shared until the leaves move

    def copy(self):
        return _BruteState(self.depth, self.d, self.log_eigs.copy(), self.angles.copy(),
                           self.seq_weights.copy(), self.leaf)


def _brute_leaf(state, objective, cond_cap):
    from carlab.characteristics import c2_conditioning

    if state.leaf is None:
        w = _brute_state_weight(state, cond_cap)
        if objective == "bet_norm_ratio":
            # the denominator of the closed form, with a the top eigenvector
            # of the root average <W>
            winv = w.inverse()
            vals, vecs = np.linalg.eigh(w.values.mean(axis=0))
            a = vecs[:, -1]
            norms = math.sqrt(vals[0] * (a @ (winv.values.mean(axis=0) @ a)))
            state.leaf = (w, norms, c2_conditioning(w))
        else:
            state.leaf = (w, None, None)
    return state.leaf


def _brute_objective(state, objective, cond_cap):
    from carlab.characteristics import ScalarSequence
    from carlab.dyadic import tree_cube
    from carlab.redundancy import red_ratio_batch, sred_constant

    leaf = _brute_leaf(state, objective, cond_cap)
    w, norms, _ = leaf
    weights = np.where(state.seq_weights > 0.0, state.seq_weights, 0.0)
    if not weights.any():
        weights[0] = 1.0
    scaled = weights * (1.0 / loop_cube_supremum(loop_subtree_sums(split_levels(weights))))
    seq = ScalarSequence(
        state.depth, [(tree_cube(int(i)), scaled[i]) for i in np.flatnonzero(scaled)]
    )
    if objective == "bet_norm_ratio":  # the closed form: sum_Q alpha_Q over the denominator
        return scaled.sum() / norms, leaf
    if objective == "sred_ratio":
        return sred_constant(w, seq), leaf
    # max(c1, c3) of red_constants(w, alpha I): the scalar form, as a batch of one
    roots, proots = (f.cube_power(-0.5)[None] for f in (w, w.inverse()))
    return float(red_ratio_batch(roots, proots, seq.dense()[None])[0]), leaf


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
            value, (w, _, c2) = _brute_objective(candidate, objective, cond_cap)
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
    wavg = loop_pyramid(w.values)
    vavg = loop_pyramid(w.inverse().values)
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
    wavg = loop_pyramid(w.values)
    vavg = loop_pyramid(w.inverse().values)
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
    wavg = loop_pyramid(w.values)
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


def loop_cet_sum(w, seq, f):
    """``cet_sum`` as a loop over ``seq.items()``, one cube at a time."""
    from carlab.characteristics import MatrixSequence
    from carlab.dyadic import tree_position
    from carlab.embeddings import _halfweighted_averages

    havg = _halfweighted_averages(w.as_matrix(), f.as_vector(), +1)
    total = 0.0
    for q, a in seq.items():
        v = havg[tree_position(q)]
        if isinstance(seq, MatrixSequence):
            total += max(float(v @ (a @ v)), 0.0)
        else:
            total += a * float(v @ v)
    return float(total)


def loop_necessity_probe(w, seq, k, e):
    """``necessity_probe`` summed cube by cube over ``seq.items()``, with a
    ``DyadicIndex.contains`` test per cube."""
    from carlab.characteristics import MatrixSequence

    w = w.as_matrix()
    e = np.asarray(e, dtype=w.values.dtype)
    wavg = loop_pyramid(w.values)
    numer = 0.0
    for q, a in seq.items():
        if not k.contains(q):
            continue
        we = wavg[q.level][q.position] @ e
        if isinstance(seq, MatrixSequence):
            numer += max(float(we @ (a @ we)), 0.0)
        else:
            numer += a * float(we @ we)
    wk = wavg[k.level][k.position]
    return float(numer / (k.measure * float(e @ (wk @ e))))


def loop_necessity_report(w, seq, rng, samples_per_cube=6):
    """``necessity_report`` one cube at a time: one ``eigh`` per cube and
    ``samples_per_cube`` draws of ``rng.standard_normal(d)`` after it."""
    from carlab import matrices
    from carlab.dyadic import DyadicIndex

    wm = w.as_matrix()
    acc = loop_subtree_sums(loop_testing_terms(loop_pyramid(wm.values), seq))
    testing = probe_sup = sampled_max = worst_rel = 0.0
    for k, roots in enumerate(split_levels(wm.cube_power(-0.5))):
        sandwich = roots @ acc[k] @ roots
        for p in range(1 << k):
            lam, vecs = matrices.eigh_sym(matrices.as_symmetric(sandwich[p] * (1 << k)))
            top = float(lam[-1])
            testing = max(testing, top)
            e_star = roots[p] @ vecs[:, -1]
            value = loop_necessity_probe(
                wm, seq, DyadicIndex(k, p), e_star / float(np.sqrt(e_star @ e_star)))
            probe_sup = max(probe_sup, value)
            if top > 1e-12:
                worst_rel = max(worst_rel, abs(value - top) / top)
            for _ in range(samples_per_cube):
                e = rng.standard_normal(wm.d)
                e /= np.linalg.norm(e)
                sampled_max = max(sampled_max, loop_necessity_probe(wm, seq, DyadicIndex(k, p), e))
    return testing, probe_sup, sampled_max, worst_rel


def loop_subtree_forms(seq, cubes, vectors):
    """``subtree_forms`` over ``seq.items()``: for each cube K, the clamped
    terms of the entries whose cube K contains, added in entry order."""
    from carlab.characteristics import MatrixSequence
    from carlab.dyadic import tree_cube

    out = []
    for i, pos in enumerate(cubes):
        k = tree_cube(int(pos))
        total = 0.0
        for j, (q, a) in enumerate(seq.items()):
            if not k.contains(q):
                continue
            x = vectors[i, j]
            if isinstance(seq, MatrixSequence):
                total += max(float(x @ (a @ x)), 0.0)
            else:
                total += a * float(x @ x)
        out.append(total / k.measure)
    return out


# ---------------------------------------------------------------------------
# The random sequences as they were built before they drew into arrays:
# a DyadicIndex per kept cube and the cube-keyed constructors, and the
# level form of the Choquet integral through ``np.unique``.
# ---------------------------------------------------------------------------

def loop_random_scalar_sequence(depth, rng, density=0.35):
    """``random_scalar_sequence`` through ``ScalarSequence(depth, pairs)``."""
    from carlab.characteristics import ScalarSequence, carleson_intensity
    from carlab.dyadic import ROOT, DyadicIndex

    cubes, values = [], []
    for k in range(depth + 1):
        for p in range(1 << k):
            if rng.random() < density:
                cubes.append(DyadicIndex(k, p))
                values.append(rng.uniform(0.1, 1.0))
    if not cubes:
        cubes, values = [ROOT], [1.0]
    seq = ScalarSequence(depth, zip(cubes, values))
    return seq.scaled(1.0 / carleson_intensity(seq))


def loop_random_matrix_sequence(depth, d, rng, density=0.35):
    """``random_matrix_sequence`` through ``MatrixSequence(depth, d, pairs)``."""
    from carlab.characteristics import MatrixSequence, carleson_intensity
    from carlab.constructions import orthogonal_from_draws
    from carlab.dyadic import ROOT, DyadicIndex

    cubes, rank_one, full = [], [], []
    for k in range(depth + 1):
        for p in range(1 << k):
            if rng.random() >= density:
                continue
            cubes.append(DyadicIndex(k, p))
            if rng.random() < 0.5:
                rank_one.append((len(cubes) - 1, rng.standard_normal(d)))
            else:
                full.append((len(cubes) - 1, rng.standard_normal((d, d)),
                             rng.uniform(0.05, 1.0, size=d)))
    mats = np.empty((len(cubes), d, d))
    if rank_one:
        at, v = (np.array(part) for part in zip(*rank_one))
        mats[at] = v[:, :, None] * v[:, None, :]
    if full:
        at, gauss, u = (np.array(part) for part in zip(*full))
        q = orthogonal_from_draws(gauss)
        mats[at] = (q * u[:, None, :]) @ q.transpose(0, 2, 1)
    seq = MatrixSequence(depth, d, zip(cubes, mats) if cubes else {ROOT: np.eye(d)})
    return seq.scaled(1.0 / carleson_intensity(seq))


def unique_choquet_level_form(seq, functional):
    """The level form of ``choquet_integral``, its distinct values from ``np.unique``."""
    positive = sorted((float(fv), seq.get(q)) for q, fv in functional.items() if fv > 0.0)
    level_form = 0.0
    if positive:
        values = np.array([fv for fv, _ in positive])
        weights = np.array([av for _, av in positive])
        distinct, start = np.unique(values, return_index=True)
        suffix = np.cumsum(weights[::-1])[::-1]
        prev = 0.0
        for v, mu in zip(distinct, suffix[start]):
            level_form += (v - prev) * mu
            prev = v
    return float(level_form)


def per_class_to_json(seq):
    """``to_json`` as each sequence class wrote it for itself."""
    from carlab.characteristics import MatrixSequence

    if isinstance(seq, MatrixSequence):
        return {
            "depth": seq.depth,
            "d": seq.d,
            "values": [
                {
                    "level": q.level,
                    "position": q.position,
                    "value": [float(x) for x in m.reshape(-1)],
                }
                for q, m in sorted(seq.entries.items(), key=lambda kv: kv[0])
            ],
        }
    return {
        "depth": seq.depth,
        "d": 1,
        "values": [
            {"level": q.level, "position": q.position, "value": v}
            for q, v in sorted(seq.entries.items())
        ],
    }


def per_class_from_json(cls, obj):
    """``cls.from_json`` as each sequence class read it for itself."""
    from carlab.characteristics import MatrixSequence
    from carlab.dyadic import DyadicIndex

    if cls is MatrixSequence:
        d = int(obj["d"])
        return cls(
            int(obj["depth"]),
            d,
            [
                (
                    DyadicIndex(int(e["level"]), int(e["position"])),
                    np.asarray(e["value"], dtype=float).reshape(d, d),
                )
                for e in obj["values"]
            ],
        )
    return cls(
        int(obj["depth"]),
        [
            (DyadicIndex(int(e["level"]), int(e["position"])), float(e["value"]))
            for e in obj["values"]
        ],
    )


def two_loop_redundancy_cross_check(cfg):
    """The cross-checks of redundancy-suite as two loops over the seeds.
    The first builds each suite instance and its constants, keeping those
    the second would build again; the second runs the Bellman telescoping
    cross-check on the first 50 seeds and the structural identities on the
    first 20.  Returns (telescoping_max_diff, telescoping_min_gap,
    trace_cycling_max_err, substitution_max_err, monotone)."""
    from carlab import matrices
    from carlab.bellman import telescoping_certificate
    from carlab.characteristics import MatrixSequence, carleson_intensity
    from carlab.constructions import random_instance
    from carlab.lab import suite_instance_params
    from carlab.redundancy import (
        red_constants,
        sred_constant,
        substitution_error,
        trace_cycling_error,
    )

    n_head = min(50, len(cfg.seeds))
    head = [(*suite_instance_params(i, cfg.d, min(cfg.depth, 6), depth_min=4),
             min(cfg.cond_cap, 1e4)) for i in range(n_head)]
    reused = {}
    for i, seed in enumerate(cfg.seeds):
        d, depth = suite_instance_params(i, cfg.d, cfg.depth, depth_min=4)
        inst = random_instance(depth, d, seed, cfg.cond_cap)
        sred_constant(inst.w, inst.sseq)
        c1, c2, c3 = red_constants(inst.w, inst.mseq)
        if i < n_head and head[i] == (d, depth, cfg.cond_cap):
            reused[i] = inst, (c1, c2, c3)

    telescope_diff = 0.0
    telescope_gap = np.inf
    rng = np.random.default_rng(cfg.seeds[0] + 77)
    mono_ok = True
    cycle_err = 0.0
    subst_err = 0.0
    for i, (d, depth, cond_cap) in enumerate(head):
        inst, c = reused.get(i) or (random_instance(depth, d, cfg.seeds[i], cond_cap), None)
        direct, accumulated, min_gap = telescoping_certificate(inst.w, inst.sseq)
        telescope_diff = max(telescope_diff, matrices.operator_norm(direct - accumulated))
        telescope_gap = min(telescope_gap, min_gap)
        if i >= 20:
            continue
        c1, c2, c3 = c or red_constants(inst.w, inst.mseq)
        norms = matrices.operator_norm_stack(inst.mseq.values)
        dominated = MatrixSequence.from_arrays(depth, inst.mseq.positions,
                                               norms[:, None, None] * np.eye(d))
        intensity = carleson_intensity(dominated)
        k1, k2, k3 = red_constants(inst.w, dominated.scaled(1.0 / intensity))
        k1, k2, k3 = k1 * intensity, k2 * intensity, k3 * intensity
        if min(k1 - c1, k2 - c2, k3 - c3) < -1e-8:
            mono_ok = False
        cycle_err = max(cycle_err, trace_cycling_error(inst.w, inst.mseq, norms))
        subst_err = max(subst_err, substitution_error(inst.w, inst.mseq, rng, samples=5))
    return telescope_diff, telescope_gap, cycle_err, subst_err, mono_ok


# ---------------------------------------------------------------------------
# Helpers used by the tests only.
# ---------------------------------------------------------------------------

def refine(field, depth):
    """The same function represented on a tree of the given, deeper depth."""
    from carlab.dyadic import StepField
    from carlab.errors import DimensionMismatchError

    if depth < field.depth:
        raise DimensionMismatchError("refinement cannot reduce depth")
    return StepField(np.repeat(field.values, 1 << (depth - field.depth), axis=0))


def random_orthogonal(d, rng):
    """Haar-distributed orthogonal matrix (QR of a Gaussian with sign fix)."""
    from carlab.constructions import orthogonal_from_draws

    return orthogonal_from_draws(rng.standard_normal((d, d)))


def domain_margins(p):
    """Signed slack of each domain constraint of a BellmanPoint (negative = violated)."""
    return {"psd": float(p.stack.psd_margin[0]), "m": float(p.stack.m_margin[0])}


def bellman_dm_derivative(p):
    """Analytic m-derivative (m+1)^-2 V^-1 of B at a BellmanPoint (the finite-difference oracle)."""
    return p.stack.vinv[0] / (p.m + 1.0) ** 2


# ---------------------------------------------------------------------------
# The per-seed loops of the grouped runners (lab._run_bellman's dynamics
# row and lab._run_redundancy): one instance at a time, in seed order.
# ---------------------------------------------------------------------------

def loop_bellman_dynamics(cfg):
    """(worst gap, violations) of bellman-certify's dynamics row: each seed's
    ``dynamics_gaps`` on its own instance, in seed order."""
    from carlab import lab
    from carlab.bellman import dynamics_gaps

    d_max, worst, violations = min(cfg.d, 4), np.inf, 0
    for i, seed in enumerate(cfg.seeds):
        d, depth = lab.suite_instance_params(i, d_max, min(cfg.depth, 5))
        rng = np.random.default_rng(seed)
        w = lab.random_weight_field(depth, d, rng, cond_cap=1e3)
        gaps = dynamics_gaps(w, lab.random_scalar_sequence(depth, rng))
        worst = min(worst, min(gaps.values(), default=np.inf))
        violations += sum(g < -1e-9 for g in gaps.values())
    return worst, violations


def loop_redundancy(cfg):
    """The rows of redundancy-suite and its cross-check aggregates
    (telescoping_max_diff, telescoping_min_gap, trace_cycling_max_err,
    substitution_max_err, monotone), from one loop over the instances:
    each instance's constants, then, on the first 50 seeds, its cross-checks."""
    from carlab import lab, matrices
    from carlab.bellman import telescoping_certificate
    from carlab.characteristics import MatrixSequence, ScalarSequence, carleson_intensity
    from carlab.redundancy import (
        red_constants, sred_constant, substitution_error, trace_cycling_error,
    )

    rows = []
    telescope_diff, telescope_gap, mono_ok, cycle_err, subst_err = 0.0, np.inf, True, 0.0, 0.0
    rng = np.random.default_rng(cfg.seeds[0] + 77)
    cross_cap = min(cfg.cond_cap, 1e4)
    stream = lab._suite_instances(cfg, "suite", cfg.depth, depth_min=4)
    for i, (kind, seed, w, alpha, mseq, _, _) in enumerate(stream):
        row = {"kind": kind, "seed": seed, "d": w.d, "depth": w.depth,
               "sred": "", "red_c1": "", "red_c2": "", "red_c3": ""}
        if alpha is not None:
            row["sred"] = sred_constant(w, alpha)
        if mseq is not None:
            row["red_c1"], row["red_c2"], row["red_c3"] = red_constants(w, mseq)
        rows.append(row)
        if i >= min(50, len(cfg.seeds)):
            continue
        d, depth = lab.suite_instance_params(i, cfg.d, min(cfg.depth, 6), depth_min=4)
        c = row["red_c1"], row["red_c2"], row["red_c3"]
        if (d, depth, cross_cap) != (w.d, w.depth, cfg.cond_cap):
            inst = lab.random_instance(depth, d, seed, cross_cap)
            (w, alpha, mseq), c = (inst.w, inst.sseq, inst.mseq), None
        direct, accumulated, min_gap = telescoping_certificate(w, alpha)
        telescope_diff = max(telescope_diff, matrices.operator_norm(direct - accumulated))
        telescope_gap = min(telescope_gap, min_gap)
        if i >= 20:
            continue
        norms = matrices.operator_norm_stack(mseq.values)
        intensity = carleson_intensity(ScalarSequence.from_arrays(depth, mseq.positions, norms))
        dominated = MatrixSequence.from_arrays(depth, mseq.positions,
                                               norms[:, None, None] * np.eye(d), intensity)
        c1, c2, c3 = c or red_constants(w, mseq)
        k1, k2, k3 = red_constants(w, dominated.scaled(1.0 / intensity))
        k1, k2, k3 = k1 * intensity, k2 * intensity, k3 * intensity
        if min(k1 - c1, k2 - c2, k3 - c3) < -1e-8:
            mono_ok = False
        cycle_err = max(cycle_err, trace_cycling_error(w, mseq, norms))
        subst_err = max(subst_err, substitution_error(w, mseq, rng, samples=5))
    return rows, (telescope_diff, telescope_gap, cycle_err, subst_err, mono_ok)
