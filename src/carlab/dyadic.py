"""Dyadic grid on the unit interval with piecewise-constant fields.

The root cube is [0, 1]; the cube at (level k, position p) is
[p 2^-k, (p+1) 2^-k] and has measure 2^-k.  A StepField assigns one value
(scalar, vector or symmetric matrix) to each leaf of a tree of fixed depth,
and all averages are exact finite sums of leaf values scaled by powers of
two, so the averaging itself introduces no meaningful rounding.  A
FieldBatch holds B fields of one shape and every cache of theirs; a
StepField is its batch of one.

Every cube-indexed array is flat in tree order: the cubes level by level, as
``cubes`` lists them, cube (k, p) at index 2^k - 1 + p (``tree_position``),
level k at ``level_slice(k)``, the subtree D(q) at ``subtree_positions(q)``,
and a batch axis, if any, first.  All of the index arithmetic of that layout
lives in this module.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import NamedTuple

import numpy as np

from . import matrices
from .errors import AddressError, DimensionMismatchError, first_failure


class DyadicIndex(NamedTuple):
    """Address of a dyadic subinterval: (level, position)."""

    level: int
    position: int

    @property
    def measure(self):
        return 2.0 ** (-self.level)

    @property
    def left(self):
        return DyadicIndex(self.level + 1, 2 * self.position)

    @property
    def right(self):
        return DyadicIndex(self.level + 1, 2 * self.position + 1)

    @property
    def parent(self):
        if self.level == 0:
            raise AddressError("the root cube has no parent")
        return DyadicIndex(self.level - 1, self.position // 2)

    def ancestor(self, level):
        """The unique cube at ``level`` containing this one."""
        if not 0 <= level <= self.level:
            raise AddressError(f"no ancestor of {self} at level {level}")
        return DyadicIndex(level, self.position >> (self.level - level))

    def contains(self, other):
        return other.level >= self.level and other.ancestor(self.level) == self


ROOT = DyadicIndex(0, 0)


def check_index(q, depth):
    """Validate that ``q`` addresses a cube on a tree of the given depth."""
    q = DyadicIndex(*q)
    if not 0 <= q.level <= depth:
        raise AddressError(f"level {q.level} out of range for depth {depth}")
    if not 0 <= q.position < (1 << q.level):
        raise AddressError(f"position {q.position} out of range at level {q.level}")
    return q


def cubes(depth, level=0):
    """All cubes of the tree, level by level, starting at ``level``."""
    for k in range(level, depth + 1):
        for p in range(1 << k):
            yield DyadicIndex(k, p)


def descendants(q, depth):
    """All cubes of D(q) on a tree of the given depth, q included, in tree order."""
    return map(tree_cube, subtree_positions(q, depth).tolist())


def tree_position(q):
    """Index of cube ``q`` in the tree listed level by level, as ``cubes`` does."""
    return (1 << q.level) - 1 + q.position


def tree_cube(i):
    """The cube at index ``i`` of the tree listed level by level."""
    k = (i + 1).bit_length() - 1
    return DyadicIndex(k, i + 1 - (1 << k))


def subtree_positions(q, depth):
    """The indices of D(q), q included, in tree order: D(q) is itself a tree,
    and its i-th cube, l levels below q, is at index (tree_position(q) << l) + i."""
    q = check_index(q, depth)
    i = np.arange(tree_size(depth, q.level))
    return (tree_position(q) << tree_level(i)) + i


def level_slice(k):
    """The indices of level ``k`` in tree order: 2^k - 1 up to 2^(k+1) - 1."""
    return slice((1 << k) - 1, (2 << k) - 1)


def tree_level(i):
    """Level of the cube at tree index ``i``, elementwise for an index array."""
    return np.frexp(np.asarray(i) + 1)[1] - 1


def tree_ancestor(i, up):
    """Index of the cube ``up`` levels above the one at index ``i``, -1 past the
    root, elementwise: index + 1 numbers the children of t as 2t and 2t + 1."""
    return ((i + 1) >> up) - 1


def tree_size(depth, level=0):
    """Number of cubes in D(K) for a cube K at ``level``: 2^(depth-level+1) - 1."""
    return (1 << (depth - level + 1)) - 1


class FieldBatch:
    """Leaf values (B, 2^depth, ...) of B piecewise-constant fields of one
    kind, depth and dtype: scalar (B, 2^depth), vector (B, 2^depth, d) or
    symmetric matrix (B, 2^depth, d, d) leaves.

    Instances are treated as immutable.  The cube averages and, for matrix
    fields, the eigendecompositions and SPD powers of the leaves and of the
    cube averages are cached, each one stacked call over the whole batch.
    A refused power names its cube (``SingularMatrixError.cube``) and, in
    a batch of more than one, the first refused member (``LabError.point``);
    so do the constructor's refusals.
    """

    def __init__(self, values):
        values = np.asarray(values)
        if values.dtype not in (np.float64, np.longdouble):
            values = values.astype(np.float64)
        if values.ndim < 2:
            raise DimensionMismatchError(f"a batch holds (B, leaves, ...), got {values.shape}")
        n = values.shape[1]
        if n < 1 or n & (n - 1):
            raise DimensionMismatchError(f"leaf count must be a power of two, got {n}")
        if values.ndim == 4 and values.shape[2] != values.shape[3]:
            raise DimensionMismatchError(f"matrix leaves must be square, got {values.shape[2:]}")
        if values.ndim > 4:
            raise DimensionMismatchError(f"unsupported leaf shape {values.shape[2:]}")
        if values.ndim > 2 and values.shape[2] == 0:
            raise DimensionMismatchError("vector and matrix leaves need d >= 1, got d=0")
        # halves first: (M + M^T) / 2 overflows for finite entries above max / 2
        values = values / 2 + values.swapaxes(-1, -2) / 2 if values.ndim == 4 else values.copy()
        bad = np.flatnonzero(~np.isfinite(values).all(axis=tuple(range(2, values.ndim))))
        if bad.size:
            i = int(bad[0])
            leaf = DyadicIndex(n.bit_length() - 1, i % n)
            err = DimensionMismatchError(f"non-finite field value at {leaf}")
            raise err.at(i // n) if len(values) > 1 else err
        self._hold(values)

    def _hold(self, values):
        values.setflags(write=False)
        self.values, self.depth = values, values.shape[1].bit_length() - 1
        self._pyramid = self._eig = self._cube_eig = None
        self._powers, self._cube_powers = {}, {}

    @classmethod
    def stack(cls, fields):
        """The batch of ``fields``, StepFields of one kind, depth and dtype,
        holding their values as they are: each was checked when it was built."""
        batch = cls.__new__(cls)
        batch._hold(np.stack([f.values for f in fields]))
        return batch

    def member(self, b):
        """Member ``b``, or the members of the list ``b``, as a batch holding a
        copy of every cache computed so far."""
        def take(x):
            if x is None:
                return None
            x = x[np.atleast_1d(b)]
            x.setflags(write=False)
            return x

        one = FieldBatch.__new__(FieldBatch)
        one._hold(take(self.values))
        one._pyramid = take(self._pyramid)
        one._eig, one._cube_eig = (None if e is None else tuple(map(take, e))
                                   for e in (self._eig, self._cube_eig))
        one._powers = {p: f.member(b) for p, f in self._powers.items()}
        one._cube_powers = {p: take(x) for p, x in self._cube_powers.items()}
        return one

    @property
    def d(self):
        return 1 if self.values.ndim == 2 else int(self.values.shape[2])

    def pyramid(self):
        """Every cube average (B, cubes, ...) in tree order, ``pyramid_batch``
        of the leaves, read-only (cached)."""
        if self._pyramid is None:
            self._pyramid = pyramid_batch(self.values)
            self._pyramid.setflags(write=False)
        return self._pyramid

    def _matrix(self):
        if self.values.ndim != 4:
            raise DimensionMismatchError("powers are defined for matrix fields only")

    def power(self, p):
        """Leafwise SPD power of a matrix batch, as a batch (cached).

        Every embedding sum reuses the same powers across all cubes, hence
        the cache; the leaves are decomposed once, for every power and for
        ``cube_eig``.  A refused leaf raises SingularMatrixError naming the
        first, member by member.
        """
        self._matrix()
        if p not in self._powers:
            if self._eig is None:
                self._eig = matrices.eigh_sym(self.values)
            leaf = functools.partial(DyadicIndex, self.depth)
            self._powers[p] = FieldBatch(_batch_power(self._eig, p, leaf))
        return self._powers[p]

    def inverse(self):
        return self.power(-1.0)

    def cube_eig(self):
        """Eigendecomposition (vals, vecs) of every cube average, (B, cubes, ...)
        in tree order, read-only (cached).  Its leaf level is that of the
        leaves, shared with ``power``: a solver decomposes each stack member
        as it would alone, so whichever of the two runs first decomposes the
        leaves, for every member at once."""
        self._matrix()
        if self._cube_eig is None:
            n, leaves = self.values.shape[1], self._eig
            eig = matrices.eigh_sym(self.pyramid()[:, :None if leaves is None else n - 1])
            if leaves is not None:
                eig = tuple(np.concatenate(pair, axis=1) for pair in zip(eig, leaves))
            for x in eig:
                x.setflags(write=False)
            self._cube_eig, self._eig = eig, tuple(x[:, n - 1:] for x in eig)
        return self._cube_eig

    def cube_power(self, p):
        """SPD power of every cube average, (B, cubes, d, d) in tree order
        (cached), from ``cube_eig``; a refused average raises
        SingularMatrixError naming the first, member by member, in tree order."""
        if p not in self._cube_powers:
            out = _batch_power(self.cube_eig(), p, tree_cube)
            out.setflags(write=False)
            self._cube_powers[p] = out
        return self._cube_powers[p]


def _batch_power(eig, p, cube):
    """``eig_power`` of a batch's decomposition (B, m, ...); a refusal names
    the first refused member's first refused matrix j as ``cube(j)``, as
    that member refuses alone, and in a batch of more than one the member
    (``LabError.point``)."""
    n, m = eig[0].shape[:2]
    out, b, error = first_failure(
        lambda sl: matrices.eig_power(*(x[sl] for x in eig), p, context=lambda i: cube(i % m)), n)
    if error is not None:
        raise error.at(b) if n > 1 else error
    return out


class StepField:
    """Leaf-indexed piecewise-constant field on the dyadic tree.

    ``values`` has shape (2^depth,) for scalar fields, (2^depth, d) for
    vector fields and (2^depth, d, d) for matrix fields.  Instances are
    treated as immutable.  A field is the batch of one ``batch``
    (``FieldBatch``), which checks the values and holds every cache; a
    batch of one names no member.
    """

    def __init__(self, values):
        self._hold(FieldBatch(np.asarray(values)[None]))

    def _hold(self, batch):
        self.batch, self.values, self.depth = batch, batch.values[0], batch.depth
        self._powers = batch._powers  # the power cache, whose hits perfbench/spans.py counts

    @classmethod
    def of(cls, batch):
        """The field of the batch of one ``batch``, sharing its caches."""
        field = cls.__new__(cls)
        field._hold(batch)
        return field

    # -- basic structure ----------------------------------------------------

    @property
    def kind(self):
        return ("scalar", "vector", "matrix")[self.values.ndim - 1]

    @property
    def d(self):
        return 1 if self.values.ndim == 1 else int(self.values.shape[1])

    @property
    def n_leaves(self):
        return self.values.shape[0]

    @classmethod
    def constant(cls, depth, value, dtype=None):
        """Field equal to ``value`` on every leaf."""
        value = np.asarray(value, dtype=dtype)
        reps = (1 << depth,) + (1,) * value.ndim
        return cls(np.tile(value, reps))

    def leaf_slice(self, q):
        """Half-open leaf position range [a, b) covered by cube ``q``."""
        q = check_index(q, self.depth)
        shift = self.depth - q.level
        return q.position << shift, (q.position + 1) << shift

    # -- the batch's cached derived data ------------------------------------

    def pyramid(self):
        """Every cube average (cubes, ...), that over q at ``tree_position(q)``, read-only."""
        return self.batch.pyramid()[0]

    def power(self, p):
        """Leafwise SPD power of a matrix-valued weight field, as a field
        (``FieldBatch.power``); a refused leaf raises SingularMatrixError naming the first."""
        return StepField.of(self.batch.power(p))

    def cube_eig(self):
        """Eigendecomposition (vals, vecs) of every cube average in tree order,
        read-only (``FieldBatch.cube_eig``)."""
        return tuple(x[0] for x in self.batch.cube_eig())

    def cube_power(self, p):
        """SPD power of every cube average, (cubes, d, d) in tree order, read-only
        (``FieldBatch.cube_power``); a refused average raises SingularMatrixError
        naming the first in tree order."""
        return self.batch.cube_power(p)[0]

    def inverse(self):
        return self.power(-1.0)

    def as_matrix(self):
        """Scalar fields viewed as 1x1 matrix weights (shared for d = 1)."""
        if self.kind == "matrix":
            return self
        if self.kind == "scalar":
            return StepField(self.values.reshape(-1, 1, 1))
        raise DimensionMismatchError("vector fields have no matrix view")

    def as_vector(self):
        """Scalar fields viewed as 1-vector fields."""
        if self.kind == "vector":
            return self
        if self.kind == "scalar":
            return StepField(self.values.reshape(-1, 1))
        raise DimensionMismatchError("matrix fields have no vector view")

    def __repr__(self):
        return f"StepField(kind={self.kind}, depth={self.depth}, d={self.d})"


def pyramid_batch(values):
    """Every cube average (B, cubes, ...) of a batch of leaf arrays (B, 2^depth, ...):
    level k is the pairwise halving of level k + 1, exact dyadic arithmetic."""
    depth = values.shape[1].bit_length() - 1
    out = np.empty((len(values), tree_size(depth), *values.shape[2:]), dtype=values.dtype)
    out[:, level_slice(depth)] = values
    half = values.dtype.type(0.5)
    for k in range(depth - 1, -1, -1):
        upper = out[:, level_slice(k + 1)]
        out[:, level_slice(k)] = half * (upper[:, 0::2] + upper[:, 1::2])
    return out


def average(field, q):
    """Exact average of ``field`` over the cube ``q``.

    Scalar fields return a float; vector/matrix fields return an array copy.
    """
    q = check_index(q, field.depth)
    value = field.pyramid()[tree_position(q)]
    if field.kind == "scalar":
        return float(value)
    return np.array(value, copy=True)


def integral(field, q):
    """Integral of ``field`` over ``q``: |Q| times the average."""
    q = check_index(q, field.depth)
    return average(field, q) * q.measure


# ---------------------------------------------------------------------------
# JSON serialization: {"depth": n, "d": d, "kind": ..., "values": [...]},
# matrices flattened row-major.  The "kind" key disambiguates d = 1 payloads;
# loaders infer it when absent.
# ---------------------------------------------------------------------------

def json_int(obj, key, default=None, low=None):
    """``obj[key]``, or ``default`` when given and the key is absent, refused
    unless an integer (a float such as 1.9 or 1.0, or a bool, is not one)
    and, when ``low`` is given, unless at least ``low``."""
    value = obj[key] if default is None else obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DimensionMismatchError(f"{key} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise DimensionMismatchError(f"{key} must be at least {low}, got {value}")
    return int(value)


def stepfield_to_json(field):
    d = field.d
    if field.kind == "scalar":
        values = [float(v) for v in field.values]
    elif field.kind == "vector":
        values = [[float(x) for x in row] for row in field.values]
    else:
        values = [[float(x) for x in leaf.reshape(-1)] for leaf in field.values]
    return {"depth": field.depth, "d": d, "kind": field.kind, "values": values}


def stepfield_from_json(obj):
    depth, d = json_int(obj, "depth", low=0), json_int(obj, "d", 1, low=1)
    values = obj["values"]
    if len(values) != 1 << depth:
        raise DimensionMismatchError(
            f"expected {1 << depth} leaf values for depth {depth}, got {len(values)}"
        )
    kind = obj.get("kind")
    if kind is None:
        if values and not isinstance(values[0], (list, tuple)):
            kind = "scalar"
        elif values and len(values[0]) == d * d and d > 1:
            kind = "matrix"
        else:
            kind = "vector"
    shapes = {"scalar": (), "vector": (d,), "matrix": (d, d)}
    if not isinstance(kind, str) or kind not in shapes:
        raise DimensionMismatchError(f"unknown field kind {kind!r} (scalar, vector or matrix)")
    arr, shape = np.asarray(values, dtype=float), shapes[kind]
    if arr.size != len(values) * math.prod(shape):
        raise DimensionMismatchError(f"{kind} leaves of d={d} take {math.prod(shape)} value(s)")
    return StepField(arr.reshape(len(values), *shape))
