"""Embedding sums and the proof machinery around them.

Covers the weighted embedding sum, both bilinear sums (inner-product and
norm form), the weighted maximal function, the cube functional F with its
Choquet-integral identity, and the pointwise product of two maximal
functions.  Sums iterate the sparse sequence support; per-cube averages
come from the cached field pyramids.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from . import matrices
from .characteristics import (
    MatrixSequence, ScalarSequence, _weight_field, batch_of_one, level_powers,
)
from .dyadic import StepField, pyramid_batch, tree_cube
from .errors import DimensionMismatchError


def _vector_field(f):
    if f.kind == "matrix":
        raise DimensionMismatchError("expected a scalar or vector field")
    return f.as_vector()


def _check_shapes(w, *fields):
    for f in fields:
        if f.depth != w.depth:
            raise DimensionMismatchError("fields live on different trees")
        if f.d != w.d:
            raise DimensionMismatchError(f"dimension mismatch: weight d={w.d}, field d={f.d}")


def weighted_l2_norm(f, w=None):
    """L2(W) norm of a vector field; plain L2 norm when ``w`` is None."""
    f = _vector_field(f)
    if w is None:
        return float(l2_norm_batch(f.values[None])[0])
    w = _weight_field(w)
    _check_shapes(w, f)
    sq = np.einsum("ki,kij,kj->k", f.values, w.values, f.values)
    return float(_norm_from_squares(sq))


def l2_norm_batch(values):
    """Plain L2 norms of a batch of vector fields (B, 2^depth, d)."""
    return _norm_from_squares(np.einsum("...ki,...ki->...k", values, values))


def _norm_from_squares(sq):
    """sqrt(sum_k |Q_k| sq_k) over the leaves, the last axis of ``sq``."""
    meas = sq.dtype.type(2.0) ** -(sq.shape[-1].bit_length() - 1)
    return np.sqrt(sq.sum(axis=-1) * meas)


def halfweighted_pyramid_batch(wh, f):
    """Pyramids of <W^{+-1/2} f> for a batch of leaf powers (B, n, d, d) and
    fields (B, n, d)."""
    return pyramid_batch(np.einsum("...ij,...j->...i", wh, f))


def _halfweighted_averages(w, f, sign):
    """Pyramid of <W^{sign/2} f>: the half-weighted averages of f."""
    wh = w.power(0.5 * sign)
    return [lv[0] for lv in halfweighted_pyramid_batch(wh.values[None], f.values[None])]


def _entry_quadratic(a, v):
    """<A v, v> with tiny negative round-off clamped to zero."""
    return max(float(v @ (a @ v)), 0.0)


def cet_sum(w, seq, f):
    """Embedding sum sum_Q ||A_Q^1/2 <W^1/2 f>_Q||^2 over the sequence support."""
    w, f = _weight_field(w), _vector_field(f)
    _check_shapes(w, f)
    if seq.depth != w.depth:
        raise DimensionMismatchError("sequence and fields live on different trees")
    havg = _halfweighted_averages(w, f, +1)
    total = 0.0
    for q, a in seq.items():
        v = havg[q.level][q.position]
        if isinstance(seq, MatrixSequence):
            total += _entry_quadratic(a, v)
        else:
            total += a * float(v @ v)
    return float(total)


def _bet_pyramids(w, f, g, seq=None):
    """The pyramids of <W>, <W^-1> and both half-weighted averages of a
    bilinear sum, each a batch of one; ``seq``, when given, must live on
    the weight's tree."""
    w, f, g = _weight_field(w), _vector_field(f), _vector_field(g)
    _check_shapes(w, f, g)
    if seq is not None and seq.depth != w.depth:
        raise DimensionMismatchError("sequence and fields live on different trees")
    havg = _halfweighted_averages(w, f, +1)
    gavg = _halfweighted_averages(w, g, -1)
    return [batch_of_one(lv) for lv in (w.pyramid(), w.inverse().pyramid(), havg, gavg)]


def bet_vectors_batch(wavg, vavg, havg, gavg, support):
    """u_Q and v_Q of a batch of bilinear sums, stacked over the support.

    u_Q = <W>_Q^-1 <W^1/2 f>_Q and v_Q = <W^-1>_Q^-1 <W^-1/2 g>_Q.  The four
    pyramids carry a leading batch axis; ``support`` holds flat indices
    into the batch's cubes, member by member (b * cubes + tree position).
    Both sides are one stacked eigendecomposition, <W>_Q and <W^-1>_Q
    interleaved per support cube, so a singular average names the first
    such cube in support order, the <W> side before the <W^-1> side.
    """
    n_cubes = sum(lv.shape[1] for lv in wavg)

    def on_support(levels):
        flat = np.concatenate(levels, axis=1)
        return flat.reshape(-1, *flat.shape[2:])[support]

    mats = np.stack([on_support(wavg), on_support(vavg)], axis=1)
    rhs = np.stack([on_support(havg), on_support(gavg)], axis=1)
    out = matrices.eig_apply_power(
        *matrices.eigh_sym(mats), -1.0, rhs,
        context=lambda i: tree_cube(int(support[i // 2]) % n_cubes),
    )
    return out[:, 0], out[:, 1]


def _rowdot(x, y):
    """x_i . y_i for each row, as a batched matmul: bitwise the 1-D dot."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _ordered_sums(terms, counts):
    """Left-to-right sum of each run of ``counts`` consecutive terms: the
    order of a Python loop over each member's support."""
    terms = iter(terms.tolist())
    sums = []
    for count in counts:
        total = 0.0
        for t in islice(terms, count):
            total += t
        sums.append(total)
    return np.array(sums)


def bet_norm_sum_batch(wavg, vavg, havg, gavg, support, entries, counts):
    """``bet_norm_sum`` of a batch; one sum per member.

    ``support`` and ``entries`` are stacked member by member (see
    ``bet_vectors_batch``), ``counts`` holds each member's support size.
    Entries (S,) are scalar, (S, d, d) matrix.
    """
    u, v = bet_vectors_batch(wavg, vavg, havg, gavg, support)
    if entries.ndim == 3:
        qu, qv = (
            np.maximum(_rowdot(x, (entries @ x[:, :, None])[..., 0]).astype(np.float64), 0.0)
            for x in (u, v)
        )
        terms = np.sqrt(qu) * np.sqrt(qv)
    else:
        terms = entries * np.sqrt(_rowdot(u, u) * _rowdot(v, v)).astype(np.float64)
    return _ordered_sums(terms, counts)


def bet_norm_sum(w, seq, f, g):
    """Norm-form bilinear sum.

    sum_Q ||A_Q^1/2 <W>_Q^-1 <W^1/2 f>_Q|| * ||A_Q^1/2 <W^-1>_Q^-1 <W^-1/2 g>_Q||;
    scalar sequences specialize to alpha_Q times the product of plain norms.
    """
    pyramids = _bet_pyramids(w, f, g, seq)
    if not len(seq):
        return 0.0
    return float(bet_norm_sum_batch(*pyramids, seq.positions, seq.values, [len(seq)])[0])


def bet_inner_sum(w, seq, f, g):
    """Inner-product bilinear sum.

    sum_Q |<A_Q <W>_Q^-1 <W^1/2 f>_Q, <W^-1>_Q^-1 <W^-1/2 g>_Q>|; scalar
    sequences contribute alpha_Q |<u, v>|.
    """
    pyramids = _bet_pyramids(w, f, g, seq)
    if not len(seq):
        return 0.0
    u, v = bet_vectors_batch(*pyramids, seq.positions)
    if isinstance(seq, MatrixSequence):
        terms = np.abs(_rowdot((seq.values @ u[:, :, None])[..., 0], v).astype(np.float64))
    else:
        terms = seq.values * np.abs(_rowdot(u, v).astype(np.float64))
    return float(_ordered_sums(terms, [len(seq)])[0])


def bet_cube_functional(w, f, g):
    """The cube functional F driving the level-set argument.

    F(Q) = ||<W>_Q^-1 <W^1/2 f>_Q|| * ||<W^-1>_Q^-1 <W^-1/2 g>_Q|| for every
    cube of the tree, returned as a dict.  It is the scalar term of
    ``bet_norm_sum`` with alpha_Q = 1, formed as that sum forms it.
    """
    pyramids = _bet_pyramids(w, f, g)
    cubes = np.arange(sum(lv.shape[1] for lv in pyramids[0]))
    u, v = bet_vectors_batch(*pyramids, cubes)
    values = np.sqrt(_rowdot(u, u) * _rowdot(v, v)).astype(np.float64)
    return {tree_cube(i): float(x) for i, x in enumerate(values)}


def maximal_function(w, f):
    """Weighted maximal function as a scalar field on the leaves.

    M_W f(x) = sup over cubes Q containing x of
    ||W^1/2(x) <W>_Q^-1 <W^1/2 f>_Q||, exact on the finite tree.
    """
    w, f = _weight_field(w), _vector_field(f)
    _check_shapes(w, f)
    havg = _halfweighted_averages(w, f, +1)
    wh = w.power(0.5)
    n = w.n_leaves
    best = None
    for k, inv in enumerate(level_powers(w.pyramid(), -1.0)):
        u = np.einsum("kij,kj->ki", inv, havg[k])
        u_leaf = np.repeat(u, n >> k, axis=0)
        y = np.einsum("kij,kj->ki", wh.values, u_leaf)
        norms = np.sqrt(np.einsum("ki,ki->k", y, y))
        best = norms if best is None else np.maximum(best, norms)
    return StepField(best)


def phi_product(w, f, g):
    """Pointwise product M_W f * M_{W^-1} g as a scalar field."""
    w = _weight_field(w)
    mf = maximal_function(w, f)
    mg = maximal_function(w.inverse(), g)
    return StepField(mf.values * mg.values)


def choquet_integral(seq, functional):
    """Both sides of the Choquet identity for a cube functional.

    Returns (sum_form, level_form): the direct sum sum_Q F(Q) alpha_Q and
    the exact staircase integral of lambda -> mu({F > lambda}), where mu
    weights cube collections by alpha.  The two agree to rounding because F
    takes finitely many values.
    """
    if not isinstance(seq, ScalarSequence):
        raise DimensionMismatchError("the Choquet measure is a scalar sequence")
    pairs = []
    for q, fval in functional.items():
        fval = float(fval)
        if fval < 0.0:
            raise DimensionMismatchError(f"cube functional is negative at {q}: {fval}")
        pairs.append((fval, seq.get(q)))
    sum_form = float(sum(fv * av for fv, av in pairs))

    positive = sorted((fv, av) for fv, av in pairs if fv > 0.0)
    level_form = 0.0
    if positive:
        values = np.array([fv for fv, _ in positive])
        weights = np.array([av for _, av in positive])
        # mu({F >= v_i}) via suffix sums over the sorted distinct values.
        distinct, start = np.unique(values, return_index=True)
        suffix = np.cumsum(weights[::-1])[::-1]
        mu_at_least = suffix[start]
        prev = 0.0
        for v, mu in zip(distinct, mu_at_least):
            level_form += (v - prev) * mu
            prev = v
    return sum_form, float(level_form)
