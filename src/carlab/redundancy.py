"""Best-constant verification of the redundancy inequalities.

The scalar-sequence redundancy bound carries the exact constant 4; its
matrix-sequence generalization comes in two conjugated testing forms plus a
corollary operator form.  Everything here returns best constants (suprema
of sandwiched eigenvalues over all cubes), never booleans; inputs are
required to have Carleson intensity at most 1 so the reported constants
carry no hidden intensity factor.

Each constant has one checked entry over a matrix ``FieldBatch`` of one
member per sequence or of one weight they share (``sred_constants_checked``,
``red_constants_checked``), whose batches of one are ``sred_constant`` and
``red_constants``; the kernels under them take cube powers and check nothing.
"""

from __future__ import annotations

import numpy as np

from . import matrices
from .characteristics import (
    INTENSITY_SLACK, MatrixSequence, ScalarSequence, carleson_intensity_batch, check_fits,
    check_intensity_bound, cube_supremum_batch, level_supremum, rowdot, subtree_forms,
    subtree_sums_batch,
)
from .dyadic import DyadicIndex, check_index, level_slice, tree_level, tree_position, tree_size
from .errors import DimensionMismatchError


def check_intensity_batch(flat):
    """Refuse a batch of dense sequences whose Carleson intensity exceeds 1.

    ``flat`` holds the dense sequences (B, cubes[, d, d]) in tree order;
    the first offending member is named by its intensity, computed here,
    and in a batch of more than one by its index (``check_intensity_bound``).
    This is the whole check, which reads no carried intensity.
    """
    check_intensity_bound(carleson_intensity_batch(flat), "redundancy bounds assume")


def check_intensities(seqs):
    """The whole check on the sequences ``seqs`` of one shape, passing
    with no solver call each one whose ``carried_intensity`` is at most
    1 + ``INTENSITY_SLACK``/2.

    The carried value of a sequence normalized by ``scaled`` sits within
    a few 1e-15 relative of the intensity the whole check would compute
    (``CubeSequence.scaled``), so the half slack of margin keeps the fast
    pass inside the whole check's acceptance.  Every other sequence (no
    carried value, a NaN or infinite one, or one above the margin) goes
    through the whole check, and a refusal names the first refused of
    ``seqs``, by its index in a list of more than one.
    """
    rest = [b for b, seq in enumerate(seqs) if seq.carried_intensity is None
            or not seq.carried_intensity <= 1.0 + INTENSITY_SLACK / 2]
    if rest:
        intensity = np.zeros(len(seqs), dtype=np.longdouble)  # holds either dtype exactly
        intensity[rest] = carleson_intensity_batch(np.stack([seqs[b].dense() for b in rest]))
        check_intensity_bound(intensity, "redundancy bounds assume")


def _checked(w, seqs, kind, refusal, zero, constants):
    """The constant of each sequence of ``seqs`` (``kind``, else ``refusal``) on
    its member of the matrix ``FieldBatch`` ``w``, or on its one member, once
    checked: ``constants(w, flat)`` of the nonempty ones' weights and dense
    sequences; an empty one gives ``zero`` and, as alone, decomposes nothing."""
    if not all(isinstance(seq, kind) for seq in seqs):
        raise DimensionMismatchError(refusal)
    if len(w.values) not in (1, len(seqs)):
        raise DimensionMismatchError(f"{len(seqs)} sequences on a batch of {len(w.values)}")
    check_fits(w, *seqs)
    check_intensities(seqs)
    full = [b for b, seq in enumerate(seqs) if len(seq)]
    if not full:
        return [zero] * len(seqs)
    if len(w.values) > 1 and len(full) < len(seqs):
        w = w.member(full)
    got = iter(constants(w, np.stack([seqs[b].dense(w.values.dtype) for b in full])))
    return [next(got) if len(seq) else zero for seq in seqs]


def sred_constant_batch(roots, vinv, alpha):
    """``sred_constant`` of a batch, from the powers <W>_Q^-1/2 (``roots``)
    and <W^-1>_Q^-1 (``vinv``) of every cube (``StepField.cube_power``).

    ``roots``, ``vinv`` and the dense sequences ``alpha`` (B, cubes) are in
    tree order with a leading batch axis; returns one constant per member.
    """
    return cube_supremum_batch(roots @ subtree_sums_batch(alpha[..., None, None] * vinv) @ roots)


def sred_constants_checked(w, alphas):
    """``sred_constant`` of each scalar sequence ``alphas[b]`` on member b of a
    matrix ``FieldBatch`` ``w``, or on its one member, bitwise each alone, as
    one ``sred_constant_batch`` call; a refusal names the first refused."""
    def constants(w, flat):
        vinv, roots = w.inverse().cube_power(-1.0), w.cube_power(-0.5)
        return list(map(float, sred_constant_batch(roots, vinv, flat)))

    return _checked(w, alphas, ScalarSequence, "sred_constant expects a scalar sequence", 0.0,
                    constants)


def sred_constant(w, alpha):
    """Best constant in sum alpha_Q <W^-1>_Q^-1 <= C |K| <W>_K.

    sup over K of lambda_max(<W>_K^-1/2 [|K|^-1 sum_{Q in D(K)}
    alpha_Q <W^-1>_Q^-1] <W>_K^-1/2); the theory puts C <= 4 whenever the
    intensity of alpha is at most 1.  The batch of one of ``sred_constants_checked``.
    """
    return sred_constants_checked(w.as_matrix().batch, [alpha])[0]


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
    The batch of one of ``red_constants_checked``.
    """
    return red_constants_checked(w.as_matrix().batch, [bseq])[0]


def red_constants_checked(w, bseqs):
    """``red_constants`` (c1, c2, c3) of each matrix sequence ``bseqs[b]`` on
    member b of a matrix ``FieldBatch`` ``w``, or on its one member, bitwise each
    alone, as one ``red_constants_batch`` call; a refusal names the first refused."""
    def constants(w, flat):
        roots, proots = (f.cube_power(-0.5) for f in (w, w.inverse()))
        return [tuple(map(float, c)) for c in zip(*red_constants_batch(roots, proots, flat))]

    return _checked(w, bseqs, MatrixSequence, "red_constants expects a matrix sequence",
                    (0.0,) * 3, constants)


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
