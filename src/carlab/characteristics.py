"""Weight characteristics and Carleson intensities.

All the "<=" conditions of the theory are exposed here as best-constant
computations: suprema of generalized Rayleigh quotients over every cube of
the tree, computed exhaustively (trees are small, and exactness removes a
source of test flakiness).  Boolean verdicts belong to the caller.
Cube-indexed arrays are flat in tree order (``dyadic``).  Both Carleson
sequence classes share one body, ``CubeSequence``; ``check_fits`` is the
one check that a field or sequence fits its weight.
"""

from __future__ import annotations

import copy

import numpy as np

from . import matrices
from .dyadic import (
    DyadicIndex, check_index, json_int, level_slice, tree_ancestor, tree_cube, tree_level,
    tree_position, tree_size,
)
from .errors import DimensionMismatchError, PreconditionError, SingularMatrixError


PSD_TOL = 1e-12
INTENSITY_SLACK = 1e-9  # the Carleson intensity refusals accept up to 1 + INTENSITY_SLACK


def check_scalar_entries(values, cube_of):
    """Refuse scalar sequence entries that are non-finite, then negative ones.

    ``values`` is a flat array of entries, returned as (entries, lambda_min)
    when they pass; an error names the cube ``cube_of(i)`` of the first offending entry i.
    """
    for bad, what in ((~np.isfinite(values), "non-finite"), (values < 0.0, "negative")):
        hits = np.flatnonzero(bad)
        if hits.size:
            i = int(hits[0])
            raise DimensionMismatchError(f"{what} sequence entry {values[i]} at {cube_of(i)}")
    return values, values


def check_matrix_entries(mats, cube_of):
    """Check matrix sequence entries (n, d, d); returns them symmetrized, and their lambda_min.

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
    return mats, lmins


class CubeSequence:
    """Cube-indexed entries of one shape, sparse with default zero.

    Only the nonzero entries are kept, read-only: ``values`` stacks them in
    entry order and ``positions`` holds their cubes' flat tree positions;
    ``_check`` checks the stack as one and gives the lambda_min ``scaled``
    reads.  ``entries``, which maps each cube to its entry in entry order,
    is built on first read.  Each entry is read by ``_read`` and has ``_rank`` axes of length d.

    ``carried_intensity`` is the Carleson intensity the sequence carries,
    or None: the value ``carleson_intensity`` last computed on it, c times
    its source's for a sequence made by ``scaled(c)``, or the one given to
    ``from_arrays``.  It only lets an intensity refusal
    (``redundancy.check_intensities``) pass a sequence with no solver call;
    ``carleson_intensity`` always computes.
    """

    _read = staticmethod(np.asarray)

    def __init__(self, depth, d, entries=()):
        self.depth, shape = int(depth), (int(d),) * self._rank
        items = entries.items() if isinstance(entries, dict) else entries
        checked = {check_index(q, self.depth): self._read(v) for q, v in items}
        for q, v in checked.items():
            if np.shape(v) != shape:
                raise DimensionMismatchError(
                    f"entry at {q} has shape {np.shape(v)}, expected {shape}"
                )
        values = np.array(list(checked.values())) if checked else np.zeros((0, *shape))
        self._store(list(map(tree_position, checked)), values)

    @classmethod
    def from_arrays(cls, depth, positions, values, intensity=None):
        """Entries ``values`` at distinct flat tree ``positions``, checked as ``__init__`` does;
        ``intensity``, when given, is the computed Carleson intensity the sequence carries."""
        seq = cls.__new__(cls)
        seq.depth = int(depth)
        seq._store(positions, values, intensity=intensity)
        return seq

    def _store(self, positions, values, lmin=None, intensity=None):
        """Keep the nonzero entries, checked unless their ``lmin`` is given."""
        if lmin is None:
            keep = np.flatnonzero(np.any(values != 0.0, axis=tuple(range(1, values.ndim))))
            positions = np.asarray(positions, dtype=np.intp)[keep]
            values, lmin = self._check(values[keep], lambda i: tree_cube(int(positions[i])))
        positions.setflags(write=False)
        values.setflags(write=False)
        self.positions, self.values, self._lmin, self._entries = positions, values, lmin, None
        self.carried_intensity = intensity

    @property
    def d(self):
        return self.values.shape[-1] if self._rank else 1

    @property
    def entries(self):
        if self._entries is None:
            rows = self.values if self._rank else self.values.tolist()
            self._entries = dict(zip(map(tree_cube, self.positions.tolist()), rows))
        return self._entries

    def items(self):
        return self.entries.items()

    def __len__(self):
        return len(self.positions)

    def get(self, q, default=None):
        """The entry at cube ``q``; off the support ``default``, or zero if None."""
        zero = np.zeros((self.d,) * self._rank)[()] if default is None else default
        return self.entries.get(DyadicIndex(*q), zero)

    def to_json(self):
        """{"depth", "d", "values": [{"level", "position", "value"}, ...]}, the
        entries in tree order as floats, matrices flattened row-major."""
        order = np.argsort(self.positions)
        values = self.values[order].astype(np.float64)
        rows = (values.reshape(len(self), self.d ** self._rank) if self._rank else values).tolist()
        cubes = map(tree_cube, self.positions[order].tolist())
        return {"depth": self.depth, "d": self.d, "values": [
            {"level": q.level, "position": q.position, "value": v} for q, v in zip(cubes, rows)]}

    @classmethod
    def from_json(cls, obj):
        """The sequence of ``to_json``; depth, d, level and position must be
        JSON integers (``json_int``), depth at least 0 and d, defaulting to
        1, at least 1."""
        depth, d = json_int(obj, "depth", low=0), json_int(obj, "d", 1, low=1)
        shape, seq = (d,) * cls._rank, cls.__new__(cls)
        CubeSequence.__init__(seq, depth, d, [
            (DyadicIndex(json_int(e, "level"), json_int(e, "position")),
             np.asarray(e["value"], dtype=float).reshape(shape) if shape else e["value"])
            for e in obj["values"]
        ])
        return seq

    def scaled(self, factor):
        """The sequence times ``factor``.  A positive finite factor is checked
        for finite, nonzero entries and against ``factor`` times the kept
        lambda_min, with no solver call; any other case, and a refusal, goes
        through the whole check, which names the cube as ``__init__`` does.

        The result carries ``factor`` times this sequence's carried
        intensity, when it has one.  That product is not the intensity
        ``carleson_intensity`` computes on the result: the entries, their
        subtree sums and the eigenvalue solve each round, so the two differ
        by a few units in the last place times the depth and d: under 2e-15
        relative on 1,350 generated sequences normalized to intensity 1, at
        depths 0-8 and d 1-4.  The refusals that read it keep a margin of
        ``INTENSITY_SLACK``/2, five orders of magnitude above that gap
        (``redundancy.check_intensities``)."""
        seq, values, lmin = copy.copy(self), self.values * factor, factor * self._lmin
        checked = (0.0 < factor < np.inf and np.isfinite(values).all()
                   and np.any(values != 0.0, axis=tuple(range(1, values.ndim))).all()
                   and np.all(lmin >= -PSD_TOL))
        carried = None if self.carried_intensity is None else factor * self.carried_intensity
        seq._store(self.positions, values, lmin if checked else None, carried)
        return seq

    def _dense(self, values):
        """One value per kept entry at its cube, zero elsewhere, in tree order."""
        flat = np.zeros((tree_size(self.depth),) + values.shape[1:], dtype=values.dtype)
        flat[self.positions] = values
        return flat

    def dense(self, dtype=None):
        """Every cube's entry, zero off the support, in tree order."""
        if dtype is None:
            dtype = np.result_type(np.float64, self.values)
        return self._dense(self.values.astype(dtype, copy=False))


class ScalarSequence(CubeSequence):
    """Cube-indexed non-negative scalars, sparse with default zero."""

    _check, _read, _rank = staticmethod(check_scalar_entries), float, 0

    def __init__(self, depth, entries=()):
        super().__init__(depth, 1, entries)


class MatrixSequence(CubeSequence):
    """Cube-indexed positive semidefinite d x d matrices, sparse with default zero."""

    _check, _rank = staticmethod(check_matrix_entries), 2


def check_fits(w, *parts):
    """Refuse a field or sequence off the weight's tree, and a vector field
    or matrix sequence of another d; a scalar sequence fits any d.  ``w`` is
    a matrix field and the fields are vector fields (``StepField.as_matrix``,
    ``StepField.as_vector``); returns ``w``."""
    for part in parts:
        if part.depth != w.depth:
            raise DimensionMismatchError(
                f"different trees: depth {part.depth}, the weight's depth {w.depth}"
            )
        if part.d != w.d and not isinstance(part, ScalarSequence):
            raise DimensionMismatchError(f"dimensions differ: d={part.d}, the weight's d={w.d}")
    return w


def check_sequence_batch(flat):
    """The entry checks of the sequence classes on a batch of dense sequences.

    Scalar entries (B, cubes) must be finite and non-negative, matrix
    entries (B, cubes, d, d) finite, symmetric and PSD, as ``ScalarSequence``
    and ``MatrixSequence`` require of their entries.
    """
    n_cubes = flat.shape[1]
    flat = flat.reshape(-1, *flat.shape[2:])
    if flat.ndim == 1:
        check_scalar_entries(flat, lambda i: tree_cube(i % n_cubes))
        return
    support = np.flatnonzero(np.any(flat != 0.0, axis=(-2, -1)))
    check_matrix_entries(flat[support], lambda i: tree_cube(int(support[i]) % n_cubes))


# ---------------------------------------------------------------------------
# The best-constant kernel.  Every constant below is
#     sup over K of |K|^-1 lambda_max(R_K [sum_{Q in D(K)} T_Q] R_K),
# that is cube_supremum_batch(R @ subtree_sums_batch(T) @ R), built from
# three pieces: the powers R of every cube average of a weight
# (``StepField.cube_power``), the subtree sums of the per-cube terms T, and
# the supremum of 2^k lambda_max over cubes.  The last two take a batch of
# trees, (B, cubes, ...) in tree order; one tree is the batch x[None].
# ---------------------------------------------------------------------------

def subtree_sums_batch(flat):
    """acc[b, K] = sum of ``flat[b, Q]`` over Q in D(K), for every cube K.

    Level by level from the leaves up, each cube adds its two children's sums.
    """
    acc = np.array(flat, copy=True)
    for k in range(flat.shape[1].bit_length() - 2, -1, -1):
        below = acc[:, level_slice(k + 1)]
        acc[:, level_slice(k)] += below[:, 0::2] + below[:, 1::2]
    return acc


def cube_supremum_batch(flat, touched=None):
    """sup over cubes K of 2^level(K) lambda_max(flat[b, K]), for each member b.

    Scalar entries (B, cubes) are their own lambda_max; matrix entries
    (B, cubes, d, d) go to one stacked eigenvalue call.  ``touched``, when
    given, is a boolean (B, cubes') with cubes' >= cubes and restricts the
    supremum, and the eigenvalue call, to the cubes it marks.  A level whose
    maximum is NaN is passed over.
    """
    if touched is not None:
        keep = touched[:, :flat.shape[1]]
        tops, kept = np.full(keep.shape, -np.inf, dtype=flat.dtype), flat[keep]
        tops[keep] = matrices.lambda_max_stack(kept) if kept.ndim == 3 else kept
    else:
        tops = matrices.lambda_max_stack(flat) if flat.ndim == 4 else flat
    return level_supremum(tops)


def level_supremum(tops):
    """sup over cubes K of 2^level(K) tops[b, K] for each member b of (B, cubes)
    in tree order, level k starting at 2^k - 1; a NaN level is passed over."""
    levels = np.arange(tops.shape[1].bit_length())
    level_max = np.maximum.reduceat(tops, (1 << levels) - 1, axis=1).astype(np.float64)
    return np.fmax.reduce(level_max * 2.0 ** levels, axis=1, initial=-np.inf)


def testing_terms(wavg, seq):
    """<W>_Q A_Q <W>_Q of every cube, from the averages ``wavg`` (cubes, d, d);
    a scalar sequence gives alpha_Q <W>_Q <W>_Q."""
    a = seq.dense(dtype=wavg.dtype)
    if isinstance(seq, MatrixSequence):
        return wavg @ a @ wavg
    return a[:, None, None] * (wavg @ wavg)


def rowdot(x, y):
    """x_i . y_i for each row, as a batched matmul: bitwise the 1-D dot."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def support_terms(values, x):
    """The one form of a support term: <A_Q x_Q, x_Q> clamped at 0 for matrix
    entries ``values`` (S, d, d), alpha_Q |x_Q|^2 for scalar ones (S,)."""
    if values.ndim == 3:
        return np.maximum(rowdot(x, (values @ x[:, :, None])[..., 0]).astype(np.float64), 0.0)
    return values * rowdot(x, x).astype(np.float64)


def ordered_sums(terms, counts):
    """Left-to-right sum of each run of ``counts`` consecutive terms (n, ...),
    as a loop adds them."""
    sums = np.zeros((len(counts), *terms.shape[1:]))
    np.add.at(sums, np.repeat(np.arange(len(counts)), counts), terms)
    return sums


def subtree_forms(seq, cubes, vectors):
    """|K|^-1 sum over the support cubes Q in D(K) of ``support_terms``, for
    each cube K in ``cubes`` (flat tree positions); ``vectors(i, j)`` gives
    the x_Q (m, d) of the pairs (cubes[i], entry j) with Q in D(K).  Terms
    are added left to right in entry order, as a loop over ``seq.items()``
    does."""
    cubes = np.asarray(cubes, dtype=np.intp)
    # every entry's ancestors, entry by entry; -1 past the root
    above = tree_ancestor(seq.positions[:, None], np.arange(seq.depth + 1)).ravel()
    order = np.argsort(above, kind="stable")  # by ancestor, then in entry order
    ranked = above[order]
    lo = np.searchsorted(ranked, cubes)
    n = np.searchsorted(ranked, cubes, "right") - lo
    i = np.repeat(np.arange(len(cubes)), n)
    j = order[np.arange(i.size) + (lo - np.cumsum(n) + n)[i]] // (seq.depth + 1)
    terms = support_terms(seq.values[j], vectors(i, j))
    return np.ldexp(ordered_sums(terms, n), tree_level(cubes))  # times 1 / |K|


def carleson_intensity_batch(flat):
    """``carleson_intensity`` of each member of a batch of dense sequences (B, cubes[, d, d]) in
    tree order; a matrix sum is solved only where support below makes it nonzero."""
    sums = subtree_sums_batch(flat)
    if flat.ndim == 2:
        return cube_supremum_batch(sums)
    return cube_supremum_batch(sums, np.any(sums != 0.0, axis=(-2, -1)))


def check_intensity_bound(intensity, prefix):
    """Refuse Carleson intensities ``intensity`` (B,) above 1 + ``INTENSITY_SLACK``:
    "<prefix> Carleson intensity <= 1, got <the first refused>", naming that
    member (``LabError.point``) in a batch of more than one."""
    bad = np.flatnonzero(intensity > 1.0 + INTENSITY_SLACK)
    if bad.size:
        err = PreconditionError(f"{prefix} Carleson intensity <= 1, got {float(intensity[bad[0]])}")
        raise err.at(int(bad[0])) if len(intensity) > 1 else err


def carleson_intensity(seq):
    """Best constant in the Carleson condition of a cube-indexed sequence.

    sup over K of lambda_max(|K|^-1 sum_{Q in D(K)} A_Q); for scalar
    sequences the inner quantity is just the scalar sum.  Always computed,
    never read from ``carried_intensity``; the sequence then carries the
    computed value, which ``scaled`` passes on.
    """
    intensity = float(carleson_intensity_batch(seq.dense()[None])[0]) if len(seq) else 0.0
    seq.carried_intensity = intensity
    return intensity


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
    dense = (seq._dense(v.astype(np.float64))[None] for v in (op, tr))
    return tuple(float(carleson_intensity_batch(a)[0]) for a in dense)


def wcet_testing_constant(w, seq):
    """Best constant of the weighted testing condition.

    sup over K of lambda_max(<W>_K^-1/2 S_K <W>_K^-1/2) with
    S_K = |K|^-1 sum_{Q in D(K)} <W>_Q A_Q <W>_Q.  Scalar sequences embed
    as alpha_Q * identity.
    """
    w = check_fits(w.as_matrix(), seq)
    if len(seq) == 0:
        return 0.0
    roots, terms = w.cube_power(-0.5)[None], testing_terms(w.pyramid(), seq)[None]
    return float(cube_supremum_batch(roots @ subtree_sums_batch(terms) @ roots)[0])


def a2_characteristic(w):
    """Matrix A2 characteristic: sup_Q ||<W>_Q^1/2 <W^-1>_Q^1/2||_op^2.

    Always >= 1; computed as lambda_max(<W^-1>^1/2 <W> <W^-1>^1/2), which
    needs one eigendecomposition per cube instead of two.
    """
    w = w.as_matrix()
    roots = w.inverse().cube_power(0.5)
    return float(matrices.lambda_max_stack(roots @ w.pyramid() @ roots).max())


def c2_conditioning_batch(vals):
    """``c2_conditioning`` of a batch, from the ascending eigenvalues
    (B, 2^depth, d) of its leaves (``eigvalsh_stack``).

    Returns one value per member.  A leaf with lambda_min <= 0 is refused,
    and the error names the first such leaf in stack order (member by
    member, then leaf by leaf), as the SPD powers name theirs.
    """
    lmin = vals[..., 0]
    bad = np.flatnonzero(lmin <= 0.0)
    if bad.size:
        i, n = int(bad[0]), vals.shape[1]
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
    return float(c2_conditioning_batch(matrices.eigvalsh_stack(w.as_matrix().values[None]))[0])
