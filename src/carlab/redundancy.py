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
    check_fits,
    cube_supremum_batch,
    subtree_forms,
    subtree_sums_batch,
)
from .dyadic import DyadicIndex, check_index, tree_levels_batch, tree_position
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


def sred_constant_batch(roots, vinv, alpha):
    """``sred_constant`` of a batch, from the powers <W>_Q^-1/2 (``roots``)
    and <W^-1>_Q^-1 (``vinv``) of every cube (``StepField.cube_power``).

    ``roots``, ``vinv`` and the dense sequences ``alpha`` (B, cubes) are in
    tree order with a leading batch axis; returns one constant per member.
    """
    acc = subtree_sums_batch(tree_levels_batch(alpha[..., None, None] * vinv))
    return cube_supremum_batch([r @ a @ r for r, a in zip(tree_levels_batch(roots), acc)])


def sred_constant(w, alpha):
    """Best constant in sum alpha_Q <W^-1>_Q^-1 <= C |K| <W>_K.

    sup over K of lambda_max(<W>_K^-1/2 [|K|^-1 sum_{Q in D(K)}
    alpha_Q <W^-1>_Q^-1] <W>_K^-1/2); the theory puts C <= 4 whenever the
    intensity of alpha is at most 1.
    """
    w = w.as_matrix()
    if not isinstance(alpha, ScalarSequence):
        raise DimensionMismatchError("sred_constant expects a scalar sequence")
    check_fits(w, alpha)
    check_intensity_batch(batch_of_one(alpha.dense_levels()))
    if len(alpha) == 0:
        return 0.0
    vinv, roots = w.inverse().cube_power(-1.0)[None], w.cube_power(-0.5)[None]
    return float(sred_constant_batch(roots, vinv, alpha.dense(w.values.dtype)[None])[0])


def red_sums_batch(roots, proots, b, pbp, deepest):
    """The c1 and c2 sums of ``red_constants_batch``, over Q in D(K) of
    P_Q R_K B_Q R_K P_Q and of R_K P_Q B_Q P_Q R_K (``pbp`` holds each
    P_Q B_Q P_Q), for every cube K down to level ``deepest`` in tree order.

    One pass per shift s = level(Q) - level(K): the Q of the cubes K down to
    level kk are the cubes of levels s..kk + s in tree order, 2^s per K.
    Each K adds its terms in increasing s, which fixes the rounding.
    """
    size, n_cubes, d = b.shape[:3]
    sum1, sum2 = (np.zeros((size, (2 << deepest) - 1, d, d), dtype=roots.dtype) for _ in range(2))
    for s in range(n_cubes.bit_length()):
        ks = slice(0, (2 << min(deepest, n_cubes.bit_length() - 1 - s)) - 1)
        qs = slice((1 << s) - 1, ((ks.stop + 1) << s) - 1)
        rrep, p = np.repeat(roots[:, ks], 1 << s, axis=1), proots[:, qs]
        segments = (size, -1, 1 << s, d, d)  # the 2^s summands of each K
        sum1[:, ks] += (p @ (rrep @ b[:, qs] @ rrep) @ p).reshape(segments).sum(axis=2)
        sum2[:, ks] += (rrep @ pbp[:, qs] @ rrep).reshape(segments).sum(axis=2)
    return sum1, sum2


def red_constants_batch(roots, proots, b):
    """``red_constants`` of a batch, from the powers R = <W>_Q^-1/2
    (``roots``) and P = <W^-1>_Q^-1/2 (``proots``) of every cube
    (``StepField.cube_power``).

    ``roots``, ``proots`` and the dense sequences ``b`` (B, cubes, d, d) are
    in tree order with a leading batch axis; returns the arrays (c1, c2,
    c3), one entry per member.  The support of a member is its nonzero
    entries; no member may have an empty support.
    """
    support = tree_levels_batch(np.any(b != 0.0, axis=(-2, -1)))
    touched = [acc > 0.0 for acc in subtree_sums_batch([s.astype(np.float64) for s in support])]

    # c3: accumulate P_Q B_Q P_Q, sandwich with <W>_K^-1/2 once per cube K.
    pbp = proots @ b @ proots
    acc = subtree_sums_batch(tree_levels_batch(pbp))
    c3 = cube_supremum_batch([r @ a @ r for r, a in zip(tree_levels_batch(roots), acc)])
    del acc  # freed before the temporaries of the shift passes

    # c1, c2: both conjugation orders depend on (K, Q) jointly.
    deepest = max(k for k, s in enumerate(support) if s.any())
    sums = red_sums_batch(roots, proots, b, pbp, deepest)
    return (*(cube_supremum_batch(tree_levels_batch(a), touched) for a in sums), c3)


def red_constants(w, bseq):
    """Best constants (c1, c2, c3) of the matrix redundancy statements.

    With R_K = <W>_K^-1/2 and P_Q = <W^-1>_Q^-1/2:

    * c1 bounds |K|^-1 sum_Q  P_Q R_K B_Q R_K P_Q  against the identity,
    * c2 bounds |K|^-1 sum_Q  R_K P_Q B_Q P_Q R_K  against the identity,
    * c3 bounds |K|^-1 sum_Q  P_Q B_Q P_Q          against <W>_K.

    P and R are one stacked power over the tree each.  c1 and c2 are
    assembled summand by summand exactly as the quadratic forms read: for
    each shift s between the levels of K and Q, R_K is repeated onto the
    2^s cubes Q below it and a reshape segment-sums the summands onto K
    (``red_sums_batch``).  c3 instead accumulates the K-independent
    conjugations P_Q B_Q P_Q over the tree first and sandwiches once per K
    (which is also why c2 and c3 agree up to rounding: the substitution
    e = <W>_K^1/2 f maps one onto the other).
    Cubes K with no support cube in D(K) are left out of c1 and c2; every
    cube deeper than the deepest support cube is one of them.
    """
    w = w.as_matrix()
    if not isinstance(bseq, MatrixSequence):
        raise DimensionMismatchError("red_constants expects a matrix sequence")
    check_fits(w, bseq)
    check_intensity_batch(batch_of_one(bseq.dense_levels()))
    if len(bseq) == 0:
        return 0.0, 0.0, 0.0
    roots, proots = (f.cube_power(-0.5)[None] for f in (w, w.inverse()))
    b = bseq.dense(w.values.dtype)[None]
    return tuple(float(c[0]) for c in red_constants_batch(roots, proots, b))


def red_quadratic_form(w, bseq, k, e, order="corollary"):
    """One testing quadratic form of the matrix redundancy statement.

    ``order`` selects the summand shape:

    * "first":     <B_Q R_K P_Q e, R_K P_Q e>
    * "second":    <B_Q P_Q R_K e, P_Q R_K e>
    * "corollary": <B_Q P_Q f, P_Q f> with f = e taken literally

    summed over Q in D(K) and divided by |K|.  Used to verify that the
    substitution e = <W>_K^1/2 f turns the second form into the corollary.
    The summands are formed with batched matmul, each bitwise the
    single-matrix product, and summed by ``subtree_forms``.
    """
    if order not in ("first", "second", "corollary"):
        raise ValueError(f"unknown order {order!r}")
    w = w.as_matrix()
    check_fits(w, bseq)
    k = check_index(k, w.depth)
    e = np.asarray(e, dtype=float)
    r_k = matrices.spd_power(w.pyramid()[k.level][k.position], -0.5)
    p_q = _support_powers(w, bseq)
    if order == "first":
        return _form(bseq, k, (r_k @ (p_q @ e)[..., None])[..., 0])
    if order == "second":
        return _form(bseq, k, p_q @ (r_k @ e))
    return _form(bseq, k, p_q @ e)


def _support_powers(w, bseq):
    """P_Q = <W^-1>_Q^-1/2 of every support cube, in entry order, as one stack."""
    return w.inverse().cube_power(-0.5)[bseq.positions]


def _form(bseq, k, x):
    """|K|^-1 sum over Q in D(K) of <B_Q x_Q, x_Q>, from the x_Q of every support cube."""
    return float(subtree_forms(bseq, [tree_position(k)], lambda i, j: x[j])[0])


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
    <W>_K once, for both R_K and f = <W>_K^-1/2 e; both forms of every
    sample are one ``subtree_forms`` call.
    """
    w = w.as_matrix()
    wavg = w.pyramid()
    p_q = _support_powers(w, bseq)
    cubes, x, rhs = [], np.empty((2 * samples, len(bseq), w.d), dtype=p_q.dtype), []
    for s in range(samples):
        level = int(rng.integers(0, w.depth + 1))
        k = DyadicIndex(level, int(rng.integers(0, 1 << level)))
        e = rng.standard_normal(w.d)
        e /= np.linalg.norm(e)
        wk = wavg[k.level][k.position]
        eig = matrices.eigh_sym(wk)
        f = matrices.eig_apply_power(*eig, -0.5, e)
        cubes += [tree_position(k)] * 2
        x[2 * s], x[2 * s + 1] = p_q @ (matrices.eig_power(*eig, -0.5) @ e), p_q @ f
        rhs.append(abs(float(e @ e) - float(f @ (wk @ f))) / max(float(e @ e), 1e-30))
    second, corollary = subtree_forms(bseq, cubes, lambda i, j: x[i, j]).reshape(-1, 2).T
    forms = np.abs(second - corollary) / np.maximum(np.maximum(second, corollary), 1e-30)
    return float(np.max(np.concatenate([forms, rhs]), initial=0.0))
