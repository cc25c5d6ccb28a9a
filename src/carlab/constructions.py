"""Instance generators: the two-eigenvalue counterexample family, seeded
random instances, and the testing-vector probe with its report, which
probes every cube at once (``characteristics.subtree_forms``).

The family is built in extended precision because the sweep reaches
condition number 1e8, where the acceptance tolerances (1e-9 .. 1e-10) sit
below what double precision can deliver at a general rotation angle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrices
from .characteristics import (
    MatrixSequence,
    ScalarSequence,
    carleson_intensity,
    check_fits,
    rowdot,
    subtree_forms,
    subtree_sums_batch,
    testing_terms,
)
from .dyadic import ROOT, StepField, check_index, tree_level, tree_position, tree_size
from .errors import NumericError, PreconditionError

# The family's acceptance tolerances (1e-9 .. 1e-10) need a longdouble wider
# than float64, such as the 80-bit x87 format; on platforms where longdouble
# is float64 the sweep would only end in spurious failed verdicts.
EXTENDED_PRECISION = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps


@dataclass(frozen=True)
class EpsilonInstance:
    """One member of the counterexample family.

    The weight is the constant field a a* + eps^2 b b* for orthonormal
    (a, b); f and g are the extreme test functions W^1/2 b and W^-1/2 a on
    the whole interval; the three Carleson sequences (identity at the root,
    the rank-one choice, and the scalar unit) all have intensity exactly 1,
    and their computed intensities are kept as ``intensity_*``.
    """

    eps: float
    theta: float
    a: np.ndarray
    b: np.ndarray
    w: StepField
    f: StepField
    g: StepField
    seq_norm: MatrixSequence
    seq_inner: MatrixSequence
    alpha: ScalarSequence
    intensity_norm: float
    intensity_inner: float
    intensity_alpha: float


def epsilon_family(eps, rotation=0.0, depth=4):
    """Build the family member at eccentricity ``eps`` and rotation angle.

    rotation = 0 puts (a, b) on the standard basis; any other angle rules
    out axis-aligned shortcuts since every derived quantity is rotation
    invariant.  The weight is constant, but it is represented on a tree of
    the requested depth so the full machinery is exercised (deeper cubes
    contribute zero).
    """
    if not 0.0 < eps <= 1.0:
        raise PreconditionError(f"eps must lie in (0, 1], got {eps}")
    if depth < 0:
        raise PreconditionError(f"depth must be >= 0, got {depth}")
    if not EXTENDED_PRECISION:
        info = np.finfo(np.longdouble)
        raise NumericError(
            "the family needs a longdouble finer than float64; this platform's "
            f"longdouble is {info.bits}-bit with eps {info.eps:.3e}"
        )
    ld = np.longdouble
    th = ld(rotation)
    a = np.array([np.cos(th), np.sin(th)], dtype=ld)
    b = np.array([-np.sin(th), np.cos(th)], dtype=ld)
    e = ld(eps)
    wmat = np.outer(a, a) + e * e * np.outer(b, b)
    w = StepField.constant(depth, (wmat + wmat.T) / 2)
    # f and g derive from the stored weight (not from the closed form) so
    # that the embedding identities hold for the matrix as represented.
    wh = w.power(0.5)
    wmh = w.power(-0.5)
    f = StepField.constant(depth, wh.values[0] @ b)
    g = StepField.constant(depth, wmh.values[0] @ a)
    seq_norm = MatrixSequence(depth, 2, {ROOT: np.eye(2, dtype=ld)})
    apb = a + b
    seq_inner = MatrixSequence(depth, 2, {ROOT: 0.5 * np.outer(apb, apb)})
    alpha = ScalarSequence(depth, {ROOT: 1.0})
    intensities = [carleson_intensity(seq) for seq in (seq_norm, seq_inner, alpha)]
    for intensity in intensities:
        assert abs(intensity - 1.0) <= 1e-10, f"family intensity {intensity} != 1"
    return EpsilonInstance(
        eps=float(eps), theta=float(rotation), a=a, b=b, w=w, f=f, g=g,
        seq_norm=seq_norm, seq_inner=seq_inner, alpha=alpha,
        intensity_norm=intensities[0], intensity_inner=intensities[1],
        intensity_alpha=intensities[2],
    )


EPS_SWEEP = (1e-1, 1e-2, 1e-3, 1e-4)


# ---------------------------------------------------------------------------
# Seeded random generators.  Everything is a deterministic function of the
# seed; weights are drawn as Q diag(exp(u)) Q^T with Haar-random Q and
# log-uniform eigenvalues spanning at most log(cond_cap), so the per-leaf
# condition number respects the cap by construction.  The samplers of whole
# fields and sequences draw leaf by leaf, or cube by cube in tree order, in
# place into arrays and build every leaf or entry at once; they map unit
# draws of ``rng.random()`` to [low, high) with ``uniform``.
# ---------------------------------------------------------------------------

COND_CAP_LIMIT = 1e8


def orthogonal_from_draws(gauss):
    """Haar orthogonal matrices from Gaussian draws (..., d, d).

    QR with the sign of R's diagonal moved into Q; LAPACK factors every
    member of a stack as it would factor it alone.
    """
    q, r = np.linalg.qr(gauss)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def uniform(low, high, unit):
    """``rng.uniform(low, high)`` from the unit draws of ``rng.random()``, bitwise."""
    return low + (high - low) * unit


def _half_log_cap(cond_cap):
    if cond_cap > COND_CAP_LIMIT:
        raise PreconditionError(f"cond_cap must be <= {COND_CAP_LIMIT:g}")
    return 0.5 * np.log(cond_cap)


def spd_from_unit(unit, gauss, half):
    """SPD matrices Q diag(exp(expo)) Q^T from the draws of ``random_spd``.

    ``unit`` (n, d) are the unit draws of the exponents, mapped to
    [-half, half) by ``uniform``, and ``gauss`` (n, d, d) the Gaussian draws
    of Q.  One QR, one sign fix and one matmul for the whole stack, each
    member bitwise the one built alone.
    """
    q, expo = orthogonal_from_draws(gauss), uniform(-half, half, unit)
    return matrices.as_symmetric_stack((q * np.exp(expo)[:, None, :]) @ q.transpose(0, 2, 1))


def random_spd(d, rng, cond_cap=1e4):
    """Random SPD matrix with condition number at most ``cond_cap``."""
    half = _half_log_cap(cond_cap)
    return spd_from_unit(rng.random((1, d)), rng.standard_normal((1, d, d)), half)[0]


def random_weight_field(depth, d, rng, cond_cap=1e4):
    """Leaves drawn as ``random_spd`` draws them, built as one stack."""
    half = _half_log_cap(cond_cap)
    unit, gauss = np.empty((1 << depth, d)), np.empty((1 << depth, d, d))
    for u, g in zip(unit, gauss):
        rng.random(out=u)
        rng.standard_normal(out=g)
    return StepField(spd_from_unit(unit, gauss, half))


def random_vector_field(depth, d, rng):
    return StepField(rng.standard_normal((1 << depth, d)))


def random_scalar_sequence(depth, rng, density=0.35):
    """Sparse non-negative sequence rescaled to Carleson intensity exactly 1.

    Each cube in tree order draws whether it is kept, then a kept one its value, from a
    block of 2 draws per cube; the generator is then rewound and advanced by those used."""
    values = np.zeros(tree_size(depth))
    state, unit = rng.bit_generator.state, iter(rng.random(2 * len(values)).tolist())
    for i in range(len(values)):
        if next(unit) < density:
            values[i] = uniform(0.1, 1.0, next(unit))
    rng.bit_generator.state = state
    rng.random(2 * len(values) - len(list(unit)))
    if not values.any():
        values[0] = 1.0
    seq = ScalarSequence.from_arrays(depth, np.arange(len(values)), values)
    return seq.scaled(1.0 / carleson_intensity(seq))


def random_matrix_sequence(depth, d, rng, density=0.35):
    """Sparse PSD sequence rescaled to Carleson intensity exactly 1.

    Entries mix full-rank and rank-one matrices; rank-one entries matter
    because they drive the inner-product sums hardest.  All rank-one
    entries are built as one outer product, and all full-rank ones as one
    orthogonal stack Q and one batched Q diag(u) Q^T.  If no cube is kept,
    the root gets the identity.
    """
    n = tree_size(depth)
    vecs, gauss, unit = np.zeros((n, d)), np.empty((n, d, d)), np.empty((n, d))
    full = []
    for i in range(n):
        if rng.random() >= density:
            continue
        if rng.random() < 0.5:
            rng.standard_normal(out=vecs[i])
        else:
            full.append(i)
            rng.standard_normal(out=gauss[i])
            rng.random(out=unit[i])
    mats = vecs[:, :, None] * vecs[:, None, :]
    q = orthogonal_from_draws(gauss[full])
    mats[full] = (q * uniform(0.05, 1.0, unit[full])[:, None, :]) @ q.transpose(0, 2, 1)
    if not mats.any():
        mats[0] = np.eye(d)
    seq = MatrixSequence.from_arrays(depth, np.arange(n), mats)
    return seq.scaled(1.0 / carleson_intensity(seq))


@dataclass(frozen=True)
class RandomInstance:
    seed: int
    depth: int
    d: int
    cond_cap: float
    w: StepField
    mseq: MatrixSequence
    sseq: ScalarSequence
    f: StepField
    g: StepField


def random_instance(depth=6, d=2, seed=0, cond_cap=1e6):
    """Deterministic random instance: weight, both sequences, and f, g."""
    rng = np.random.default_rng(seed)
    w = random_weight_field(depth, d, rng, cond_cap)
    mseq = random_matrix_sequence(depth, d, rng)
    sseq = random_scalar_sequence(depth, rng)
    f = random_vector_field(depth, d, rng)
    g = random_vector_field(depth, d, rng)
    return RandomInstance(
        seed=seed, depth=depth, d=d, cond_cap=cond_cap,
        w=w, mseq=mseq, sseq=sseq, f=f, g=g,
    )


def necessity_probe(w, seq, k, e):
    """Rayleigh quotient of the testing condition at cube ``k``, vector ``e``.

    [sum_{Q in D(K)} ||A_Q^1/2 <W>_Q e||^2] / (|K| <<W>_K e, e>), a lower
    bound for the testing constant with equality at the maximizing (K, e).
    The numerator is a ``subtree_forms`` sum over the support, independent
    of the accumulation path used by the testing-constant computation.
    """
    w = check_fits(w.as_matrix(), seq)
    k = check_index(k, w.depth)
    e = np.asarray(e, dtype=w.values.dtype)
    norm = float(np.sqrt(e @ e))
    if abs(norm - 1.0) > 1e-8:
        raise PreconditionError(f"probe vector must be unit norm, got {norm}")
    return float(_probes(w, seq, [tree_position(k)], e[None])[0])


def _probes(w, seq, cubes, e):
    """``necessity_probe`` at each cube (flat tree position) in ``cubes`` and row of ``e``."""
    avgs = w.pyramid()
    on_support = avgs[seq.positions]
    numer = subtree_forms(seq, cubes, lambda i, j: (on_support[j] @ e[i][..., None])[..., 0])
    quad = rowdot(e, (avgs[cubes] @ e[:, :, None])[..., 0]).astype(np.float64)
    if np.any(quad <= 0.0):
        raise PreconditionError("degenerate weight average under the probe")
    return numer / quad


SAMPLES_PER_CUBE = 6


def necessity_report(w, seq, rng):
    """Compare the testing constant against its testing-vector probes.

    Returns (testing, probe_sup, sampled_max, worst_cube_rel_err): the
    eigenvalue route, the probe at each cube's top testing vector, the
    largest of ``SAMPLES_PER_CUBE`` random probes per cube, and the worst
    per-cube relative gap between the two routes.  One stacked ``eigh``
    takes every cube; the samples are one draw, cube by cube in tree order.
    """
    wm = check_fits(w.as_matrix(), seq)
    roots = wm.cube_power(-0.5)
    cubes = np.arange(len(roots))
    sandwich = roots @ subtree_sums_batch(testing_terms(wm.pyramid(), seq)[None])[0] @ roots
    scale = 2.0 ** tree_level(cubes)  # 1 / |K|
    lam, vecs = matrices.eigh_sym(matrices.as_symmetric_stack(sandwich * scale[:, None, None]))
    top = lam[:, -1].astype(np.float64)
    e_star = (roots @ vecs[:, :, -1:])[..., 0]
    samples = rng.standard_normal((len(cubes) * SAMPLES_PER_CUBE, wm.d))
    e = [x / np.sqrt(rowdot(x, x)).astype(np.float64)[:, None] for x in (e_star, samples)]
    probes = _probes(
        wm, seq, np.concatenate([cubes, cubes.repeat(SAMPLES_PER_CUBE)]), np.concatenate(e))
    at_star, big = probes[:len(cubes)], top > 1e-12
    rel = np.abs(at_star[big] - top[big]) / top[big]
    return tuple(float(np.max(x, initial=0.0)) for x in (top, at_star, probes[len(cubes):], rel))
