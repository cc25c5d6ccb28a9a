"""Embedding sums and the proof machinery around them.

Covers the weighted embedding sum, both bilinear sums (inner-product and
norm form), the weighted maximal function, the cube functional F with its
Choquet-integral identity, and the pointwise product of two maximal
functions.  Sums iterate the sparse sequence support; per-cube averages
come from the cached field pyramids.  Each entry point takes its weight as
a matrix field and f, g as vector fields (``StepField.as_matrix``,
``as_vector``), then checks that they fit (``check_fits``).
"""

from __future__ import annotations

import numpy as np

from . import matrices
from .characteristics import (
    MatrixSequence, ScalarSequence, check_fits, ordered_sums, rowdot, subtree_forms, support_terms,
)
from .dyadic import StepField, level_slice, pyramid_batch, tree_ancestor, tree_cube, tree_size
from .errors import DimensionMismatchError


def weighted_l2_norm(f, w=None):
    """L2(W) norm of a vector field; plain L2 norm when ``w`` is None."""
    f = f.as_vector()
    if w is None:
        return float(l2_norm_batch(f.values[None])[0])
    w = check_fits(w.as_matrix(), f)
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
    """Pyramids (B, cubes, d) of <W^{+-1/2} f> for a batch of leaf powers
    (B, n, d, d) and fields (B, n, d)."""
    return pyramid_batch(np.einsum("...ij,...j->...i", wh, f))


def _halfweighted_averages(w, f, sign):
    """Pyramid (cubes, d) of <W^{sign/2} f>: the half-weighted averages of f."""
    wh = w.power(0.5 * sign)
    return halfweighted_pyramid_batch(wh.values[None], f.values[None])[0]


def cet_sum(w, seq, f):
    """Embedding sum sum_Q ||A_Q^1/2 <W^1/2 f>_Q||^2 over the sequence support.

    Matrix terms <A_Q v, v> are clamped at zero against round-off; the
    terms are added in entry order (``subtree_forms`` at the root).
    """
    w, f = w.as_matrix(), f.as_vector()
    check_fits(w, f, seq)
    if not len(seq):
        return 0.0
    v = _halfweighted_averages(w, f, +1)[seq.positions]
    return float(subtree_forms(seq, [0], lambda i, j: v[j])[0])


def _bet_inputs(w, f, g, support, *seqs):
    """The inputs of ``bet_vectors_batch`` for one bilinear sum over the
    flat cubes ``support``, each a batch of one but the eigendecompositions,
    which are stacked over the support; f, g and ``seqs`` must fit the
    weight (``check_fits``)."""
    w, f, g = w.as_matrix(), f.as_vector(), g.as_vector()
    check_fits(w, f, g, *seqs)
    havg = _halfweighted_averages(w, f, +1)
    gavg = _halfweighted_averages(w, g, -1)
    vals, vecs = matrices.eigh_sym(np.stack([v.pyramid()[support] for v in (w, w.inverse())]))
    return (vals[0], vecs[0]), (vals[1], vecs[1]), havg[None], gavg[None]


def bet_vectors_batch(weig, veig, havg, gavg, support):
    """u_Q and v_Q of a batch of bilinear sums, stacked over the support.

    u_Q = <W>_Q^-1 <W^1/2 f>_Q and v_Q = <W^-1>_Q^-1 <W^-1/2 g>_Q.  The
    half-weighted pyramids ``havg`` and ``gavg`` are (B, cubes, d) in tree
    order; ``support`` holds flat indices into the batch's cubes, member by
    member (b * cubes + tree position), and ``weig``, ``veig`` are the
    eigendecompositions (vals, vecs) of <W>_Q and <W^-1>_Q over it.  Both
    sides are one stacked power, <W>_Q and <W^-1>_Q interleaved per support
    cube, so a singular average names the first such cube in support
    order, the <W> side before the <W^-1> side.
    """
    n_cubes, d = havg.shape[1:]
    vals, vecs = (np.stack(pair, axis=1) for pair in zip(weig, veig))
    rhs = np.stack([havg.reshape(-1, d)[support], gavg.reshape(-1, d)[support]], axis=1)
    out = matrices.eig_apply_power(
        vals, vecs, -1.0, rhs, context=lambda i: tree_cube(int(support[i // 2]) % n_cubes),
    )
    return out[:, 0], out[:, 1]


def bet_norm_sum_batch(weig, veig, havg, gavg, support, entries, counts):
    """``bet_norm_sum`` of a batch; one sum per member.

    ``weig``, ``veig``, ``support`` and ``entries`` are stacked member by
    member (see ``bet_vectors_batch``), ``counts`` holds each member's
    support size.  Entries (S,) are scalar, (S, d, d) matrix.
    """
    u, v = bet_vectors_batch(weig, veig, havg, gavg, support)
    if entries.ndim == 3:
        terms = np.sqrt(support_terms(entries, u)) * np.sqrt(support_terms(entries, v))
    else:
        terms = entries * np.sqrt(rowdot(u, u) * rowdot(v, v)).astype(np.float64)
    return ordered_sums(terms, counts)


def bet_norm_sum(w, seq, f, g):
    """Norm-form bilinear sum.

    sum_Q ||A_Q^1/2 <W>_Q^-1 <W^1/2 f>_Q|| * ||A_Q^1/2 <W^-1>_Q^-1 <W^-1/2 g>_Q||;
    scalar sequences specialize to alpha_Q times the product of plain norms.
    """
    inputs = _bet_inputs(w, f, g, seq.positions, seq)
    if not len(seq):
        return 0.0
    return float(bet_norm_sum_batch(*inputs, seq.positions, seq.values, [len(seq)])[0])


def bet_inner_sum(w, seq, f, g):
    """Inner-product bilinear sum.

    sum_Q |<A_Q <W>_Q^-1 <W^1/2 f>_Q, <W^-1>_Q^-1 <W^-1/2 g>_Q>|; scalar
    sequences contribute alpha_Q |<u, v>|.
    """
    inputs = _bet_inputs(w, f, g, seq.positions, seq)
    if not len(seq):
        return 0.0
    u, v = bet_vectors_batch(*inputs, seq.positions)
    if isinstance(seq, MatrixSequence):
        terms = np.abs(rowdot((seq.values @ u[:, :, None])[..., 0], v).astype(np.float64))
    else:
        terms = seq.values * np.abs(rowdot(u, v).astype(np.float64))
    return float(ordered_sums(terms, [len(seq)])[0])


def bet_cube_functional(w, f, g):
    """The cube functional F driving the level-set argument.

    F(Q) = ||<W>_Q^-1 <W^1/2 f>_Q|| * ||<W^-1>_Q^-1 <W^-1/2 g>_Q|| for every
    cube of the tree, returned as a dict.  It is the scalar term of
    ``bet_norm_sum`` with alpha_Q = 1, formed as that sum forms it.
    """
    cubes = np.arange(tree_size(w.depth))
    u, v = bet_vectors_batch(*_bet_inputs(w, f, g, cubes), cubes)
    values = np.sqrt(rowdot(u, u) * rowdot(v, v)).astype(np.float64)
    return {tree_cube(i): float(x) for i, x in enumerate(values)}


def maximal_function(w, f):
    """Weighted maximal function as a scalar field on the leaves.

    M_W f(x) = sup over cubes Q containing x of
    ||W^1/2(x) <W>_Q^-1 <W^1/2 f>_Q||, exact on the finite tree: each leaf
    takes the largest norm over its depth + 1 ancestors, all at once.
    """
    w, f = w.as_matrix(), f.as_vector()
    check_fits(w, f)
    u = np.einsum("kij,kj->ki", w.cube_power(-1.0), _halfweighted_averages(w, f, +1))
    leaves = np.arange(tree_size(w.depth))[level_slice(w.depth), None]
    y = np.einsum("kij,kaj->kai", w.power(0.5).values,
                  u[tree_ancestor(leaves, np.arange(w.depth + 1))])
    return StepField(np.sqrt(np.einsum("kai,kai->ka", y, y)).max(axis=1))


def phi_product(w, f, g):
    """Pointwise product M_W f * M_{W^-1} g as a scalar field."""
    w = w.as_matrix()
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
        # mu({F >= v_i}) via suffix sums over the sorted distinct values,
        # found where each run of equal values starts.
        start = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
        suffix = np.cumsum(weights[::-1])[::-1]
        mu_at_least = suffix[start]
        prev = 0.0
        for v, mu in zip(values[start], mu_at_least):
            level_form += (v - prev) * mu
            prev = v
    return sum_form, float(level_form)
