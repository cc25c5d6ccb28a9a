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
    carleson_intensity,
    cube_supremum,
    level_powers,
    subtree_sums,
)
from .dyadic import check_index
from .errors import DimensionMismatchError, PreconditionError

INTENSITY_SLACK = 1e-9


def _check_intensity(seq):
    intensity = carleson_intensity(seq)
    if intensity > 1.0 + INTENSITY_SLACK:
        raise PreconditionError(
            f"redundancy bounds assume Carleson intensity <= 1, got {intensity}"
        )


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
    _check_intensity(alpha)
    if len(alpha) == 0:
        return 0.0
    wavg = w.pyramid()
    vinv = level_powers(w.inverse().pyramid(), -1.0)
    alev = alpha.dense_levels(dtype=wavg[0].dtype)
    acc = subtree_sums([a[:, None, None] * v for a, v in zip(alev, vinv)])
    roots = level_powers(wavg, -0.5)
    return cube_supremum([r @ a @ r for r, a in zip(roots, acc)])


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
    Cubes K with no support cube in D(K) are skipped for c1 and c2; every
    cube deeper than the deepest support cube is one of them.
    """
    w = w.as_matrix()
    if not isinstance(bseq, MatrixSequence):
        raise DimensionMismatchError("red_constants expects a matrix sequence")
    if bseq.depth != w.depth or bseq.d != w.d:
        raise DimensionMismatchError("sequence and weight are incompatible")
    _check_intensity(bseq)
    if len(bseq) == 0:
        return 0.0, 0.0, 0.0
    wavg = w.pyramid()
    vavg = w.inverse().pyramid()
    dtype = wavg[0].dtype
    depth, d = w.depth, w.d

    roots = level_powers(wavg, -0.5)
    proots = level_powers(vavg, -0.5)
    b = bseq.dense_levels(dtype)
    pbp = [p @ bj @ p for p, bj in zip(proots, b)]
    indicator = [np.zeros(1 << k) for k in range(depth + 1)]
    for q in bseq.entries:
        indicator[q.level][q.position] = 1.0
    touched = [acc > 0.0 for acc in subtree_sums(indicator)]

    # c3: accumulate P_Q B_Q P_Q, sandwich with <W>_K^-1/2 once per cube K.
    c3 = cube_supremum([r @ a @ r for r, a in zip(roots, subtree_sums(pbp))])

    # c1, c2: both conjugation orders depend on (K, Q) jointly.
    sums1, sums2 = [], []
    for k in range(max(q.level for q in bseq.entries) + 1):
        sum1 = np.zeros((1 << k, d, d), dtype=dtype)
        sum2 = np.zeros((1 << k, d, d), dtype=dtype)
        for j in range(k, depth + 1):
            rrep = np.repeat(roots[k], 1 << (j - k), axis=0)
            first = proots[j] @ (rrep @ b[j] @ rrep) @ proots[j]
            second = rrep @ pbp[j] @ rrep
            sum1 += first.reshape(1 << k, -1, d, d).sum(axis=1)
            sum2 += second.reshape(1 << k, -1, d, d).sum(axis=1)
        sums1.append(sum1[touched[k]])
        sums2.append(sum2[touched[k]])
    return cube_supremum(sums1), cube_supremum(sums2), c3


def red_quadratic_form(w, bseq, k, e, order="corollary"):
    """One testing quadratic form of the matrix redundancy statement.

    ``order`` selects the summand shape:

    * "first":     <B_Q R_K P_Q e, R_K P_Q e>
    * "second":    <B_Q P_Q R_K e, P_Q R_K e>
    * "corollary": <B_Q P_Q f, P_Q f> with f = e taken literally

    summed over Q in D(K) and divided by |K|.  Used to verify that the
    substitution e = <W>_K^1/2 f turns the second form into the corollary.
    """
    w = w.as_matrix()
    k = check_index(k, w.depth)
    e = np.asarray(e, dtype=float)
    wavg = w.pyramid()
    vavg = w.inverse().pyramid()
    r_k = matrices.spd_power(wavg[k.level][k.position], -0.5)
    total = 0.0
    for q, b in bseq.items():
        if not k.contains(q):
            continue
        p_q = matrices.spd_power(vavg[q.level][q.position], -0.5)
        if order == "first":
            x = r_k @ (p_q @ e)
        elif order == "second":
            x = p_q @ (r_k @ e)
        elif order == "corollary":
            x = p_q @ e
        else:
            raise ValueError(f"unknown order {order!r}")
        total += max(float(x @ (b @ x)), 0.0)
    return total / k.measure
