"""Weight characteristics and Carleson intensities.

All the "<=" conditions of the theory are exposed here as best-constant
computations: suprema of generalized Rayleigh quotients over every cube of
the tree, computed exhaustively (trees are small, and exactness removes a
source of test flakiness).  Boolean verdicts belong to the caller.
"""

from __future__ import annotations

import copy
from itertools import accumulate

import numpy as np

from . import matrices
from .dyadic import DyadicIndex, check_index, tree_cube, tree_levels, tree_position, tree_size
from .errors import DimensionMismatchError, SingularMatrixError


PSD_TOL = 1e-12


def check_scalar_entries(values, cube_of):
    """Refuse scalar sequence entries that are non-finite, then negative ones.

    ``values`` is a flat array of entries, returned when they pass; an
    error names the cube ``cube_of(i)`` of the first offending entry i.
    """
    for bad, what in ((~np.isfinite(values), "non-finite"), (values < 0.0, "negative")):
        hits = np.flatnonzero(bad)
        if hits.size:
            i = int(hits[0])
            raise DimensionMismatchError(f"{what} sequence entry {values[i]} at {cube_of(i)}")
    return values


def check_matrix_entries(mats, cube_of):
    """Check a stack (n, d, d) of matrix sequence entries; returns it symmetrized.

    The entries must be finite, then symmetric (one ``as_symmetric_stack``),
    then PSD to within ``PSD_TOL`` (one ``lambda_min_stack``); an error
    names the cube ``cube_of(i)`` of the first entry i that fails a check.
    """
    hits = np.flatnonzero(~np.isfinite(mats).all(axis=(1, 2)))
    if hits.size:
        raise DimensionMismatchError(f"non-finite sequence entry at {cube_of(int(hits[0]))}")
    try:
        mats = matrices.as_symmetric_stack(mats)
    except DimensionMismatchError as exc:
        raise DimensionMismatchError(
            f"sequence entry at {cube_of(exc.point)}: {exc.args[0]}"
        ) from None
    lmins = matrices.lambda_min_stack(mats)
    hits = np.flatnonzero(lmins.astype(np.float64) < -PSD_TOL)
    if hits.size:
        i = int(hits[0])
        raise SingularMatrixError(
            f"sequence entry at {cube_of(i)} is not PSD", lambda_min=float(lmins[i])
        )
    return mats


class CubeSequence:
    """Cube-indexed entries, sparse with default zero.

    Only the nonzero entries are kept: ``entries`` maps each cube to its
    entry, in entry order; ``values`` stacks the entries in that order and
    ``positions`` holds their cubes' flat tree positions.  The stack is
    checked as one by ``_check``.
    """

    def _store(self, cubes, values):
        keep = np.flatnonzero(np.any(values != 0.0, axis=tuple(range(1, values.ndim))))
        cubes = [cubes[i] for i in keep]
        self.values = self._check(values[keep], cubes.__getitem__)
        self.positions = np.array([tree_position(q) for q in cubes], dtype=np.intp)
        rows = self.values.tolist() if self.values.ndim == 1 else self.values
        self.entries = dict(zip(cubes, rows))

    def items(self):
        return self.entries.items()

    def __len__(self):
        return len(self.entries)

    def scaled(self, factor):
        """The sequence times ``factor``, checked again as one stack."""
        seq = copy.copy(self)
        seq._store(list(self.entries), self.values * factor)
        return seq

    def _levels(self, values):
        """Dense tree levels of one value per kept entry, zero elsewhere."""
        flat = np.zeros((tree_size(self.depth),) + values.shape[1:], dtype=values.dtype)
        flat[self.positions] = values
        return tree_levels(flat)

    def dense_levels(self, dtype=None):
        if dtype is None:
            dtype = np.result_type(np.float64, self.values)
        return self._levels(self.values.astype(dtype, copy=False))


class ScalarSequence(CubeSequence):
    """Cube-indexed non-negative scalars, sparse with default zero."""

    _check = staticmethod(check_scalar_entries)

    def __init__(self, depth, entries=()):
        self.depth = int(depth)
        items = entries.items() if isinstance(entries, dict) else entries
        checked = {check_index(q, self.depth): float(v) for q, v in items}
        self._store(list(checked), np.array(list(checked.values()), dtype=np.float64))

    def get(self, q, default=0.0):
        return self.entries.get(DyadicIndex(*q), default)

    def to_json(self):
        return {
            "depth": self.depth,
            "d": 1,
            "values": [
                {"level": q.level, "position": q.position, "value": v}
                for q, v in sorted(self.entries.items())
            ],
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            int(obj["depth"]),
            [
                (DyadicIndex(int(e["level"]), int(e["position"])), float(e["value"]))
                for e in obj["values"]
            ],
        )


class MatrixSequence(CubeSequence):
    """Cube-indexed positive semidefinite d x d matrices, sparse with default zero."""

    _check = staticmethod(check_matrix_entries)

    def __init__(self, depth, d, entries=()):
        self.depth = int(depth)
        self.d = int(d)
        items = entries.items() if isinstance(entries, dict) else entries
        checked = {check_index(q, self.depth): np.asarray(m) for q, m in items}
        for q, m in checked.items():
            if m.shape != (self.d, self.d):
                raise DimensionMismatchError(
                    f"entry at {q} has shape {m.shape}, expected {(self.d, self.d)}"
                )
        mats = list(checked.values())
        self._store(list(checked), np.stack(mats) if mats else np.zeros((0, self.d, self.d)))

    def get(self, q, default=None):
        q = DyadicIndex(*q)
        if q in self.entries:
            return self.entries[q]
        return np.zeros((self.d, self.d)) if default is None else default

    def to_json(self):
        return {
            "depth": self.depth,
            "d": self.d,
            "values": [
                {
                    "level": q.level,
                    "position": q.position,
                    "value": [float(x) for x in m.reshape(-1)],
                }
                for q, m in sorted(self.entries.items(), key=lambda kv: kv[0])
            ],
        }

    @classmethod
    def from_json(cls, obj):
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


def check_sequence_batch(levels):
    """The entry checks of the sequence classes on dense levels of a batch.

    Scalar levels (B, 2^k) must be finite and non-negative, matrix levels
    (B, 2^k, d, d) finite, symmetric and PSD, as ``ScalarSequence`` and
    ``MatrixSequence`` require of their entries.
    """
    flat = np.concatenate(levels, axis=1)
    n_cubes = flat.shape[1]
    flat = flat.reshape(-1, *flat.shape[2:])
    if flat.ndim == 1:
        check_scalar_entries(flat, lambda i: tree_cube(i % n_cubes))
        return
    support = np.flatnonzero(np.any(flat != 0.0, axis=(-2, -1)))
    check_matrix_entries(flat[support], lambda i: tree_cube(int(support[i]) % n_cubes))


# ---------------------------------------------------------------------------
# Tree accumulation: acc[k][p] = sum of the per-cube quantity over D((k, p)).
# ---------------------------------------------------------------------------

def batch_of_one(levels):
    """The levels of one tree as a batch of one: a leading axis of length 1."""
    return [lv[None] for lv in levels]


def subtree_sums_batch(levels):
    """``subtree_sums`` of a batch: every level carries a leading batch axis."""
    acc = [np.array(lv, copy=True) for lv in levels]
    for k in range(len(levels) - 2, -1, -1):
        acc[k] += acc[k + 1][:, 0::2] + acc[k + 1][:, 1::2]
    return acc


def subtree_sums(levels):
    return [acc[0] for acc in subtree_sums_batch(batch_of_one(levels))]


# ---------------------------------------------------------------------------
# The best-constant kernel.  Every constant below is
#     sup over K of |K|^-1 lambda_max(R_K [sum_{Q in D(K)} T_Q] R_K),
# built from three pieces: per-level powers R of a pyramid, the subtree sums
# of the per-cube terms T, and the supremum of 2^k lambda_max over cubes.
# Each piece has a batch core, whose levels carry a leading batch axis
# (B, 2^k, ...), and a single-tree form that is its batch of one.
# ---------------------------------------------------------------------------

def _tree_stack(levels, kernel):
    """``kernel`` on all levels of a batch concatenated, in one call, split back by level."""
    bounds = list(accumulate((lv.shape[1] for lv in levels), initial=0))
    out = kernel(np.concatenate(levels, axis=1))
    return [out[:, lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def level_powers_batch(pyramids, p):
    """Stacked SPD power of every cube average of a batch, one solver call.

    A refused average names its cube: the first one in batch and tree
    order (member by member, level by level, left to right).
    """
    n_cubes = sum(lv.shape[1] for lv in pyramids)
    return _tree_stack(
        pyramids,
        lambda stack: matrices.eig_power(
            *matrices.eigh_sym(stack), p, context=lambda i: tree_cube(i % n_cubes)
        ),
    )


def level_powers(pyramid, p):
    return [lv[0] for lv in level_powers_batch(batch_of_one(pyramid), p)]


def cube_supremum_batch(levels, touched=None):
    """sup over cubes (k, p) of 2^k lambda_max(levels[k][b, p]), for each member b.

    A scalar level is its own lambda_max; matrix levels go to one stacked
    eigenvalue call.  ``touched``, when given, holds one boolean level per
    level and restricts the supremum to the cubes it marks.  A level whose
    maximum is NaN is passed over.
    """
    starts = list(accumulate((lv.shape[1] for lv in levels[:-1]), initial=0))
    tops = np.concatenate(levels, axis=1)
    if tops.ndim == 4:
        tops = matrices.lambda_max_stack(tops)
    if touched is not None:
        tops = np.where(np.concatenate(touched[:len(levels)], axis=1), tops, -np.inf)
    level_max = np.maximum.reduceat(tops, starts, axis=1).astype(np.float64)
    return np.fmax.reduce(level_max * 2.0 ** np.arange(len(levels)), axis=1, initial=-np.inf)


def cube_supremum(levels):
    return float(cube_supremum_batch(batch_of_one(levels))[0])


def testing_terms(wavg, seq):
    """Per-level <W>_Q A_Q <W>_Q; a scalar sequence gives alpha_Q <W>_Q <W>_Q."""
    alev = seq.dense_levels(dtype=wavg[0].dtype)
    if isinstance(seq, MatrixSequence):
        return [wk @ a @ wk for wk, a in zip(wavg, alev)]
    return [a[:, None, None] * (wk @ wk) for wk, a in zip(wavg, alev)]


def _weight_field(w):
    """A scalar or matrix field as a matrix weight; vector fields are refused."""
    if w.kind == "vector":
        raise DimensionMismatchError("a weight must be a scalar or matrix field")
    return w.as_matrix()


def carleson_intensity(seq):
    """Best constant in the Carleson condition of a cube-indexed sequence.

    sup over K of lambda_max(|K|^-1 sum_{Q in D(K)} A_Q); for scalar
    sequences the inner quantity is just the scalar sum.
    """
    if len(seq) == 0:
        return 0.0
    return cube_supremum(subtree_sums(seq.dense_levels()))


def carleson_equivalents(seq):
    """Operator-norm and trace intensities of a matrix Carleson sequence.

    Returns (op_norm_intensity, trace_intensity).  Together with
    ``carleson_intensity`` these realize the equivalence of the three
    Carleson conditions at the cost of dimensional constants:

        matrix <= op <= trace <= d * matrix.
    """
    if not isinstance(seq, MatrixSequence):
        raise DimensionMismatchError("carleson_equivalents expects a matrix sequence")
    if len(seq) == 0:
        return 0.0, 0.0
    op = matrices.operator_norm_stack(seq.values)
    tr = np.trace(seq.values, axis1=1, axis2=2)
    return tuple(
        cube_supremum(subtree_sums(seq._levels(v.astype(np.float64)))) for v in (op, tr)
    )


def wcet_testing_constant(w, seq):
    """Best constant of the weighted testing condition.

    sup over K of lambda_max(<W>_K^-1/2 S_K <W>_K^-1/2) with
    S_K = |K|^-1 sum_{Q in D(K)} <W>_Q A_Q <W>_Q.  Scalar sequences embed
    as alpha_Q * identity.
    """
    w = _weight_field(w)
    if seq.depth != w.depth:
        raise DimensionMismatchError("sequence and weight live on different trees")
    if len(seq) == 0:
        return 0.0
    if isinstance(seq, MatrixSequence) and seq.d != w.d:
        raise DimensionMismatchError("sequence and weight dimensions differ")
    wavg = w.pyramid()
    roots = level_powers(wavg, -0.5)
    acc = subtree_sums(testing_terms(wavg, seq))
    return cube_supremum([r @ a @ r for r, a in zip(roots, acc)])


def a2_characteristic(w):
    """Matrix A2 characteristic: sup_Q ||<W>_Q^1/2 <W^-1>_Q^1/2||_op^2.

    Always >= 1; computed as lambda_max(<W^-1>^1/2 <W> <W^-1>^1/2), which
    needs one eigendecomposition per cube instead of two.
    """
    w = _weight_field(w)
    winvavg = np.concatenate(w.inverse().pyramid())
    roots = matrices.eig_power(*matrices.eigh_sym(winvavg), 0.5, context=tree_cube)
    avgs = np.concatenate(w.pyramid())
    return float(matrices.lambda_max_stack(roots @ avgs @ roots).max())


def c2_conditioning_batch(leaves):
    """``c2_conditioning`` of a batch of leaf arrays (B, 2^depth, d, d).

    Returns one value per member.  A leaf with lambda_min <= 0 is refused,
    and the error names the first such leaf in stack order (member by
    member, then leaf by leaf), as the SPD powers name theirs.
    """
    vals = matrices.eigvalsh_stack(leaves)
    lmin = vals[..., 0]
    bad = np.flatnonzero(lmin <= 0.0)
    if bad.size:
        i, n = int(bad[0]), leaves.shape[1]
        raise SingularMatrixError(
            "weight leaf is not SPD",
            lambda_min=float(lmin.flat[i]),
            cube=DyadicIndex(n.bit_length() - 1, i % n),
        )
    return (vals[..., -1] / lmin).max(axis=-1).astype(np.float64)


def c2_conditioning(w):
    """Conditioning number of the weight: sup over leaves of lmax/lmin.

    The pointwise condition number kappa(W(x)), supped over the tree's
    leaves; identically 1 for d = 1.
    """
    return float(c2_conditioning_batch(_weight_field(w).values[None])[0])
