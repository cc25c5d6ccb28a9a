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
    INTENSITY_SLACK, MatrixSequence, ScalarSequence, carleson_intensity_batch, check_fits,
    cube_supremum_batch, level_supremum, rowdot, subtree_forms, subtree_sums_batch,
)
from .dyadic import DyadicIndex, check_index, level_slice, tree_level, tree_position, tree_size
from .errors import DimensionMismatchError, PreconditionError


def check_intensity_batch(flat):
    """Refuse a batch of dense sequences whose Carleson intensity exceeds 1.

    ``flat`` holds the dense sequences (B, cubes[, d, d]) in tree order;
    the first offending member is named by its intensity, computed here.
    This is the whole check, which reads no carried intensity;
    ``sred_constant`` and ``red_constants_each`` reach it through
    ``check_intensities``, which first passes, with no solver call, each
    sequence whose carried intensity is at most 1 + ``INTENSITY_SLACK``/2.
    """
    intensity = carleson_intensity_batch(flat)
    bad = np.flatnonzero(intensity > 1.0 + INTENSITY_SLACK)
    if bad.size:
        raise PreconditionError(
            f"redundancy bounds assume Carleson intensity <= 1, got {float(intensity[bad[0]])}"
        )


def check_intensities(seqs):
    """``check_intensity_batch`` on the sequences ``seqs`` of one shape, passing
    with no solver call each one whose ``carried_intensity`` is at most
    1 + ``INTENSITY_SLACK``/2.

    The carried value of a sequence normalized by ``scaled`` sits within
    a few 1e-15 relative of the intensity the whole check would compute
    (``CubeSequence.scaled``), so the half slack of margin keeps the fast
    pass inside the whole check's acceptance.  Every other sequence (no
    carried value, a NaN or infinite one, or one above the margin) goes
    through the whole check, and a refusal names the first refused of
    those, the first refused of ``seqs``.
    """
    rest = [seq for seq in seqs if seq.carried_intensity is None
            or not seq.carried_intensity <= 1.0 + INTENSITY_SLACK / 2]
    if rest:
        check_intensity_batch(np.stack([seq.dense() for seq in rest]))


def sred_constant_batch(roots, vinv, alpha):
    """``sred_constant`` of a batch, from the powers <W>_Q^-1/2 (``roots``)
    and <W^-1>_Q^-1 (``vinv``) of every cube (``StepField.cube_power``).

    ``roots``, ``vinv`` and the dense sequences ``alpha`` (B, cubes) are in
    tree order with a leading batch axis; returns one constant per member.
    """
    return cube_supremum_batch(roots @ subtree_sums_batch(alpha[..., None, None] * vinv) @ roots)


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
    check_intensities([alpha])
    if len(alpha) == 0:
        return 0.0
    vinv, roots = w.inverse().cube_power(-1.0)[None], w.cube_power(-0.5)[None]
    return float(sred_constant_batch(roots, vinv, alpha.dense(w.values.dtype)[None])[0])


def group_constants(w, alphas, bseqs):
    """``sred_constant`` and ``red_constants`` of each member b of a matrix
    ``FieldBatch`` ``w``, with the scalar sequence ``alphas[b]`` and the
    matrix sequence ``bseqs[b]``, each nonempty: a list of (sred,
    (c1, c2, c3)), bitwise each member's alone.  The powers are the batch's,
    and each constant is one ``sred_constant_batch`` or
    ``red_constants_batch`` call over the whole batch.  A refusal is the
    batch's; which member refuses first alone is the caller's to find.
    """
    if not all(map(len, (*alphas, *bseqs))):
        raise PreconditionError("group_constants takes nonempty sequences")
    check_fits(w, *alphas, *bseqs)
    check_intensities(alphas)
    check_intensities(bseqs)
    roots, inv, dtype = w.cube_power(-0.5), w.inverse(), w.values.dtype
    sred = sred_constant_batch(roots, inv.cube_power(-1.0),
                               np.stack([a.dense(dtype) for a in alphas]))
    red = red_constants_batch(roots, inv.cube_power(-0.5),
                              np.stack([b.dense(dtype) for b in bseqs]))
    return [(float(s), tuple(map(float, c))) for s, c in zip(sred, zip(*red))]


def red_sums_batch(roots, proots, b, pbp, deepest):
    """The c1 and c2 sums of ``red_constants_batch``, over Q in D(K) of
    P_Q R_K B_Q R_K P_Q and of R_K P_Q B_Q P_Q R_K (``pbp`` holds each
    P_Q B_Q P_Q), for every cube K down to level ``deepest`` in tree order.

    One pass per shift s = level(Q) - level(K): the Q of the cubes K down to
    level kk are the cubes of levels s..kk + s in tree order, 2^s per K.
    Each K adds its terms in increasing s, which fixes the rounding.
    """
    size, n_cubes, d = b.shape[:3]
    depth = n_cubes.bit_length() - 1
    sum1, sum2 = (np.zeros((size, tree_size(deepest), d, d), dtype=roots.dtype) for _ in range(2))
    for s in range(depth + 1):
        kk = min(deepest, depth - s)
        ks, qs = slice(0, tree_size(kk)), slice(level_slice(s).start, level_slice(kk + s).stop)
        rrep, p = np.repeat(roots[:, ks], 1 << s, axis=1), proots[:, qs]
        segments = (size, -1, 1 << s, d, d)  # the 2^s summands of each K
        sum1[:, ks] += (p @ (rrep @ b[:, qs] @ rrep) @ p).reshape(segments).sum(axis=2)
        sum2[:, ks] += (rrep @ pbp[:, qs] @ rrep).reshape(segments).sum(axis=2)
    return sum1, sum2


def red_constants_batch(roots, proots, b):
    """``red_constants`` of a batch, from the powers R = <W>_Q^-1/2
    (``roots``) and P = <W^-1>_Q^-1/2 (``proots``) of every cube
    (``StepField.cube_power``).

    ``roots``, ``proots`` (batch axis of length 1 for members of one weight)
    and the dense sequences ``b`` (B, cubes, d, d) are in tree order with a
    leading batch axis; returns the arrays (c1, c2, c3), one entry per
    member.  A member's support, its nonzero entries, may not be empty.
    """
    d, support = b.shape[-1], np.any(b != 0.0, axis=(-2, -1))
    touched = subtree_sums_batch(support.astype(np.float64)) > 0.0

    # c3: accumulate P_Q B_Q P_Q, sandwich with <W>_K^-1/2 once per cube K.
    pbp = proots @ b @ proots
    c3 = roots @ subtree_sums_batch(pbp) @ roots

    # c1, c2: both conjugation orders depend on (K, Q) jointly; one lambda_max call for all three
    deepest = int(tree_level(np.flatnonzero(support.any(axis=0))[-1]))
    sum1, sum2 = red_sums_batch(roots, proots, b, pbp, deepest)
    keep, n = touched[:, :len(sum1[0])], np.count_nonzero(touched)
    lmax = matrices.lambda_max_stack(np.concatenate([sum1[keep], sum2[keep], c3.reshape(-1, d, d)]))
    tops = np.full((3, *touched.shape), -np.inf, dtype=c3.dtype)
    tops[:2, touched], tops[2] = lmax[:2 * n].reshape(2, n), lmax[2 * n:].reshape(touched.shape)
    return tuple(level_supremum(tops.reshape(-1, touched.shape[1])).reshape(3, -1))


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
    return red_constants_each(w, [bseq])[0]


def red_constants_each(w, bseqs):
    """``red_constants`` of each matrix sequence in the list ``bseqs`` on the weight ``w``,
    the nonempty ones as one batch, bitwise each alone; a refusal names the first refused."""
    w = w.as_matrix()
    if not all(isinstance(bseq, MatrixSequence) for bseq in bseqs):
        raise DimensionMismatchError("red_constants expects a matrix sequence")
    check_fits(w, *bseqs)
    check_intensities(bseqs)
    full, consts = [bseq.dense(w.values.dtype) for bseq in bseqs if len(bseq)], iter(())
    if full:
        roots, proots = (f.cube_power(-0.5)[None] for f in (w, w.inverse()))
        consts = zip(*red_constants_batch(roots, proots, np.stack(full)))
    return [tuple(map(float, next(consts))) if len(bseq) else (0.0,) * 3 for bseq in bseqs]


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
    w = check_fits(w.as_matrix(), bseq)
    k = check_index(k, w.depth)
    e = np.asarray(e, dtype=float)
    r_k = matrices.spd_power(w.pyramid()[tree_position(k)], -0.5)
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
    r_k = w.cube_power(-0.5)[0]
    p_q = _support_powers(w, bseq)
    scalar = norms[:, None, None] * np.eye(w.d)
    t1 = np.trace(r_k @ p_q @ scalar @ p_q @ r_k, axis1=1, axis2=2)
    t2 = np.trace(p_q @ r_k @ scalar @ r_k @ p_q, axis1=1, axis2=2)
    scale = np.maximum(np.maximum(np.abs(t1), np.abs(t2)), 1e-30)
    return float(np.max(np.abs(t1 - t2) / scale, initial=0.0))


def substitution_error(w, bseq, rng, samples=5):
    """Defect of the substitution e = <W>_K^1/2 f linking the two forms.

    Each sample draws a cube K and a unit vector e from ``rng``.  The
    support's P_Q and every <W>_K come decomposed from the field's caches
    (``StepField.cube_eig``); after the draws, R_K, f = <W>_K^-1/2 e and
    both forms of every sample are one stacked pass each.
    """
    w = w.as_matrix()
    p_q = _support_powers(w, bseq)
    ks, e = [], np.empty((samples, w.d))
    for s in range(samples):
        level = int(rng.integers(0, w.depth + 1))
        ks.append(DyadicIndex(level, int(rng.integers(0, 1 << level))))
        e[s] = rng.standard_normal(w.d)
        e[s] /= np.linalg.norm(e[s])
    cubes = list(map(tree_position, ks))
    eig = tuple(a[cubes] for a in w.cube_eig())
    f = matrices.eig_apply_power(*eig, -0.5, e, ks.__getitem__)
    re = (matrices.eig_power(*eig, -0.5, ks.__getitem__) @ e[:, :, None])[..., 0]
    x = (p_q @ np.stack([re, f])[:, :, None, :, None]).reshape(2 * samples, len(bseq), w.d)
    ee, wf = rowdot(e, e), rowdot(f, (w.pyramid()[cubes] @ f[:, :, None])[..., 0])
    rhs = np.abs(ee - wf.astype(np.float64)) / np.maximum(ee, 1e-30)
    second, corollary = subtree_forms(bseq, cubes * 2, lambda i, j: x[i, j]).reshape(2, -1)
    forms = np.abs(second - corollary) / np.maximum(np.maximum(second, corollary), 1e-30)
    return float(np.max(np.concatenate([forms, rhs]), initial=0.0))
