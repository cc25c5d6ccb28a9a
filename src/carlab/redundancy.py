"""Best-constant verification of the redundancy inequalities.

The scalar-sequence redundancy bound carries the exact constant 4; its
matrix-sequence generalization comes in two conjugated testing forms plus a
corollary operator form.  Everything here returns best constants (suprema
of sandwiched eigenvalues over all cubes), never booleans; inputs are
required to have Carleson intensity at most 1 so the reported constants
carry no hidden intensity factor.
"""

from __future__ import annotations

import numpy as np

from . import matrices
from .characteristics import (
    MatrixSequence,
    ScalarSequence,
    batch_of_one,
    cube_supremum_batch,
    level_powers_batch,
    subtree_sums_batch,
)
from .dyadic import DyadicIndex, check_index
from .errors import DimensionMismatchError, PreconditionError

INTENSITY_SLACK = 1e-9


def check_intensity_batch(levels):
    """Refuse a batch of dense sequences whose Carleson intensity exceeds 1.

    ``levels`` are the sequences' dense levels with a leading batch axis;
    the first offending member is named by its intensity.
    """
    intensity = cube_supremum_batch(subtree_sums_batch(levels))
    bad = np.flatnonzero(intensity > 1.0 + INTENSITY_SLACK)
    if bad.size:
        raise PreconditionError(
            f"redundancy bounds assume Carleson intensity <= 1, got {float(intensity[bad[0]])}"
        )


def sred_constant_batch(wavg, vavg, alpha):
    """``sred_constant`` of a batch, from the pyramids of W and W^-1.

    ``wavg``, ``vavg`` and the dense sequence levels ``alpha`` carry a
    leading batch axis; returns one constant per member.
    """
    vinv = level_powers_batch(vavg, -1.0)
    acc = subtree_sums_batch([a[..., None, None] * v for a, v in zip(alpha, vinv)])
    roots = level_powers_batch(wavg, -0.5)
    return cube_supremum_batch([r @ a @ r for r, a in zip(roots, acc)])


def sred_constant(w, alpha):
    """Best constant in sum alpha_Q <W^-1>_Q^-1 <= C |K| <W>_K.

    sup over K of lambda_max(<W>_K^-1/2 [|K|^-1 sum_{Q in D(K)}
    alpha_Q <W^-1>_Q^-1] <W>_K^-1/2); the theory puts C <= 4 whenever the
    intensity of alpha is at most 1.
    """
    w = w.as_matrix()
    if not isinstance(alpha, ScalarSequence):
        raise DimensionMismatchError("sred_constant expects a scalar sequence")
    if alpha.depth != w.depth:
        raise DimensionMismatchError("sequence and weight live on different trees")
    check_intensity_batch(batch_of_one(alpha.dense_levels()))
    if len(alpha) == 0:
        return 0.0
    wavg = w.pyramid()
    vavg = w.inverse().pyramid()
    alev = alpha.dense_levels(dtype=wavg[0].dtype)
    return float(sred_constant_batch(*map(batch_of_one, (wavg, vavg, alev)))[0])


def red_constants_batch(wavg, vavg, b):
    """``red_constants`` of a batch, from the pyramids of W and W^-1.

    ``wavg``, ``vavg`` and the dense sequence levels ``b`` (B, 2^k, d, d)
    carry a leading batch axis; returns the arrays (c1, c2, c3), one entry
    per member.  The support of a member is its nonzero entries; no member
    may have an empty support.
    """
    dtype = wavg[0].dtype
    size, d = len(wavg[0]), wavg[0].shape[-1]
    depth = len(wavg) - 1

    roots = level_powers_batch(wavg, -0.5)
    proots = level_powers_batch(vavg, -0.5)
    pbp = [p @ bj @ p for p, bj in zip(proots, b)]
    support = [np.any(bj != 0.0, axis=(-2, -1)) for bj in b]
    touched = [acc > 0.0 for acc in subtree_sums_batch([s.astype(np.float64) for s in support])]

    # c3: accumulate P_Q B_Q P_Q, sandwich with <W>_K^-1/2 once per cube K.
    c3 = cube_supremum_batch([r @ a @ r for r, a in zip(roots, subtree_sums_batch(pbp))])

    # c1, c2: both conjugation orders depend on (K, Q) jointly.
    sums1, sums2 = [], []
    for k in range(max(k for k, s in enumerate(support) if s.any()) + 1):
        sum1 = np.zeros((size, 1 << k, d, d), dtype=dtype)
        sum2 = np.zeros((size, 1 << k, d, d), dtype=dtype)
        for j in range(k, depth + 1):
            rrep = np.repeat(roots[k], 1 << (j - k), axis=1)
            first = proots[j] @ (rrep @ b[j] @ rrep) @ proots[j]
            second = rrep @ pbp[j] @ rrep
            sum1 += first.reshape(size, 1 << k, -1, d, d).sum(axis=2)
            sum2 += second.reshape(size, 1 << k, -1, d, d).sum(axis=2)
        sums1.append(sum1)
        sums2.append(sum2)
    return (
        cube_supremum_batch(sums1, touched),
        cube_supremum_batch(sums2, touched),
        c3,
    )


def red_constants(w, bseq):
    """Best constants (c1, c2, c3) of the matrix redundancy statements.

    With R_K = <W>_K^-1/2 and P_Q = <W^-1>_Q^-1/2:

    * c1 bounds |K|^-1 sum_Q  P_Q R_K B_Q R_K P_Q  against the identity,
    * c2 bounds |K|^-1 sum_Q  R_K P_Q B_Q P_Q R_K  against the identity,
    * c3 bounds |K|^-1 sum_Q  P_Q B_Q P_Q          against <W>_K.

    P and R are one stacked power per tree level.  c1 and c2 are assembled
    summand by summand exactly as the quadratic forms read: for each level
    k of K and each descendant level j, R_K is repeated down to the 2^(j-k)
    cubes Q of level j below it, the summands are formed as one stack, and
    a reshape segment-sums them onto level k.  c3 instead accumulates the
    K-independent conjugations P_Q B_Q P_Q over the tree first and
    sandwiches once per K (which is also why c2 and c3 agree up to
    rounding: the substitution e = <W>_K^1/2 f maps one onto the other).
    Cubes K with no support cube in D(K) are left out of c1 and c2; every
    cube deeper than the deepest support cube is one of them.
    """
    w = w.as_matrix()
    if not isinstance(bseq, MatrixSequence):
        raise DimensionMismatchError("red_constants expects a matrix sequence")
    if bseq.depth != w.depth or bseq.d != w.d:
        raise DimensionMismatchError("sequence and weight are incompatible")
    check_intensity_batch(batch_of_one(bseq.dense_levels()))
    if len(bseq) == 0:
        return 0.0, 0.0, 0.0
    wavg = w.pyramid()
    vavg = w.inverse().pyramid()
    b = bseq.dense_levels(wavg[0].dtype)
    return tuple(
        float(c[0]) for c in red_constants_batch(*map(batch_of_one, (wavg, vavg, b)))
    )


def red_quadratic_form(w, bseq, k, e, order="corollary"):
    """One testing quadratic form of the matrix redundancy statement.

    ``order`` selects the summand shape:

    * "first":     <B_Q R_K P_Q e, R_K P_Q e>
    * "second":    <B_Q P_Q R_K e, P_Q R_K e>
    * "corollary": <B_Q P_Q f, P_Q f> with f = e taken literally

    summed over Q in D(K) and divided by |K|.  Used to verify that the
    substitution e = <W>_K^1/2 f turns the second form into the corollary.
    The summands of the support cubes in D(K) are formed with batched
    matmul, each bitwise the single-matrix product, clipped at zero and
    added left to right in entry order.
    """
    if order not in ("first", "second", "corollary"):
        raise ValueError(f"unknown order {order!r}")
    w = w.as_matrix()
    k = check_index(k, w.depth)
    e = np.asarray(e, dtype=float)
    r_k = matrices.spd_power(w.pyramid()[k.level][k.position], -0.5)
    return _quadratic_form(bseq, k, _support_powers(w, bseq), r_k, e, order)


def _support_powers(w, bseq):
    """P_Q = <W^-1>_Q^-1/2 of every support cube, in entry order, as one stack."""
    vavg = np.concatenate(w.inverse().pyramid())[bseq.positions]
    return matrices.eig_power(*matrices.eigh_sym(vavg), -0.5)


def _quadratic_form(bseq, k, p_q, r_k, e, order):
    """``red_quadratic_form`` from the ``_support_powers`` ``p_q`` and R_K."""
    levels, pos = np.array(list(bseq.entries), dtype=np.intp).reshape(-1, 2).T
    shift = np.maximum(levels - k.level, 0)
    inside = np.flatnonzero((levels >= k.level) & (pos >> shift == k.position))
    if not inside.size:
        return 0.0
    p_q = p_q[inside]
    if order == "first":
        x = (r_k @ (p_q @ e)[..., None])[..., 0]
    elif order == "second":
        x = p_q @ (r_k @ e)
    else:
        x = p_q @ e
    terms = (x[:, None, :] @ (bseq.values[inside] @ x[..., None]))[:, 0, 0]
    terms = np.maximum(terms.astype(np.float64), 0.0)
    return float(np.add.accumulate(np.concatenate(([0.0], terms)))[-1]) / k.measure


def trace_cycling_error(w, bseq, norms):
    """Worst relative defect of the trace-cycling identity over the support.

    tr(R P (b I) P R) = tr(P R (b I) R P) with R = R_root, P = P_Q and b
    the operator norm ``norms`` of each entry B_Q; the products are batched
    matmuls, each bitwise the single-matrix product.
    """
    w = w.as_matrix()
    r_k = matrices.spd_power(w.pyramid()[0][0], -0.5)
    p_q = _support_powers(w, bseq)
    scalar = norms[:, None, None] * np.eye(w.d)
    t1 = np.trace(r_k @ p_q @ scalar @ p_q @ r_k, axis1=1, axis2=2)
    t2 = np.trace(p_q @ r_k @ scalar @ r_k @ p_q, axis1=1, axis2=2)
    scale = np.maximum(np.maximum(np.abs(t1), np.abs(t2)), 1e-30)
    return float(np.max(np.abs(t1 - t2) / scale, initial=0.0))


def substitution_error(w, bseq, rng, samples=5):
    """Defect of the substitution e = <W>_K^1/2 f linking the two forms.

    Each sample draws a cube K and a unit vector e from ``rng``.  The
    support's P_Q are decomposed once for all samples, and each sample's
    <W>_K once, for both R_K and f = <W>_K^-1/2 e.
    """
    w = w.as_matrix()
    wavg = w.pyramid()
    p_q = _support_powers(w, bseq)
    worst = 0.0
    for _ in range(samples):
        level = int(rng.integers(0, w.depth + 1))
        k = DyadicIndex(level, int(rng.integers(0, 1 << level)))
        e = rng.standard_normal(w.d)
        e /= np.linalg.norm(e)
        wk = wavg[k.level][k.position]
        eig = matrices.eigh_sym(wk)
        second = _quadratic_form(bseq, k, p_q, matrices.eig_power(*eig, -0.5), e, "second")
        f = matrices.eig_apply_power(*eig, -0.5, e)
        corollary = _quadratic_form(bseq, k, p_q, None, f, "corollary")
        rhs_second = float(e @ e)
        rhs_corollary = float(f @ (wk @ f))
        scale = max(second, corollary, 1e-30)
        worst = max(worst, abs(second - corollary) / scale)
        worst = max(worst, abs(rhs_second - rhs_corollary) / max(rhs_second, 1e-30))
    return worst
