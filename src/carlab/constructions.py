"""Instance generators: the two-eigenvalue counterexample family, seeded
random instances, and the testing-vector probe.

The family is built in extended precision because the sweep reaches
condition number 1e8, where the acceptance tolerances (1e-9 .. 1e-10) sit
below what double precision can deliver at a general rotation angle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrices
from .characteristics import MatrixSequence, ScalarSequence, carleson_intensity
from .dyadic import DyadicIndex, ROOT, StepField, check_index
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
# condition number respects the cap by construction.
# ---------------------------------------------------------------------------

COND_CAP_LIMIT = 1e8


def orthogonal_from_draws(gauss):
    """Haar orthogonal matrices from Gaussian draws (..., d, d).

    QR with the sign of R's diagonal moved into Q; LAPACK factors every
    member of a stack as it would factor it alone.
    """
    q, r = np.linalg.qr(gauss)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def random_orthogonal(d, rng):
    """Haar-distributed orthogonal matrix (QR of a Gaussian with sign fix)."""
    return orthogonal_from_draws(rng.standard_normal((d, d)))


def draw_spd(d, rng, cond_cap=1e4):
    """The random numbers of one ``random_spd``, in its draw order.

    Returns (eigenvalue exponents (d,), Gaussian (d, d)).  Samplers draw
    these one sample at a time and then build every matrix at once with
    ``spd_from_draws``, which keeps the generator's sequence.
    """
    if cond_cap > COND_CAP_LIMIT:
        raise PreconditionError(f"cond_cap must be <= {COND_CAP_LIMIT:g}")
    half = 0.5 * np.log(cond_cap)
    return rng.uniform(-half, half, size=d), rng.standard_normal((d, d))


def spd_from_draws(draws):
    """SPD matrices Q diag(exp(expo)) Q^T from a list of ``draw_spd`` results.

    One QR, one sign fix and one matmul for the whole (n, d, d) stack, each
    member bitwise the one ``random_spd`` builds from the same draws.
    """
    expo, gauss = (np.stack(part) for part in zip(*draws))
    q = orthogonal_from_draws(gauss)
    return matrices.as_symmetric_stack((q * np.exp(expo)[:, None, :]) @ q.transpose(0, 2, 1))


def random_spd(d, rng, cond_cap=1e4):
    """Random SPD matrix with condition number at most ``cond_cap``."""
    return spd_from_draws([draw_spd(d, rng, cond_cap)])[0]


def random_weight_field(depth, d, rng, cond_cap=1e4):
    return StepField(spd_from_draws([draw_spd(d, rng, cond_cap) for _ in range(1 << depth)]))


def random_vector_field(depth, d, rng):
    return StepField(rng.standard_normal((1 << depth, d)))


def random_scalar_sequence(depth, rng, density=0.35):
    """Sparse non-negative sequence rescaled to Carleson intensity exactly 1."""
    cubes, values = [], []
    for k in range(depth + 1):
        for p in range(1 << k):
            if rng.random() < density:
                cubes.append(DyadicIndex(k, p))
                values.append(rng.uniform(0.1, 1.0))
    if not cubes:
        cubes, values = [ROOT], [1.0]
    seq = ScalarSequence(depth, zip(cubes, values))
    return seq.scaled(1.0 / carleson_intensity(seq))


def random_matrix_sequence(depth, d, rng, density=0.35):
    """Sparse PSD sequence rescaled to Carleson intensity exactly 1.

    Entries mix full-rank and rank-one matrices; rank-one entries matter
    because they drive the inner-product sums hardest.  Each cube's numbers
    are drawn in tree order (``rng.random()`` is the draw of
    ``rng.uniform()``, without its argument handling); then all rank-one
    entries are built as one outer product, and all full-rank ones as one
    orthogonal stack Q and one batched Q diag(u) Q^T.
    """
    cubes, rank_one, full = [], [], []
    for k in range(depth + 1):
        for p in range(1 << k):
            if rng.random() >= density:
                continue
            cubes.append(DyadicIndex(k, p))
            if rng.random() < 0.5:
                rank_one.append((len(cubes) - 1, rng.standard_normal(d)))
            else:
                full.append((len(cubes) - 1, rng.standard_normal((d, d)),
                             rng.uniform(0.05, 1.0, size=d)))
    mats = np.empty((len(cubes), d, d))
    if rank_one:
        at, v = (np.array(part) for part in zip(*rank_one))
        mats[at] = v[:, :, None] * v[:, None, :]
    if full:
        at, gauss, u = (np.array(part) for part in zip(*full))
        q = orthogonal_from_draws(gauss)
        mats[at] = (q * u[:, None, :]) @ q.transpose(0, 2, 1)
    seq = MatrixSequence(depth, d, zip(cubes, mats) if cubes else {ROOT: np.eye(d)})
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
    The numerator is summed cube by cube, independently of the accumulation
    path used by the testing-constant computation.
    """
    w = w.as_matrix()
    k = check_index(k, w.depth)
    e = np.asarray(e, dtype=w.values.dtype)
    norm = float(np.sqrt(e @ e))
    if abs(norm - 1.0) > 1e-8:
        raise PreconditionError(f"probe vector must be unit norm, got {norm}")
    wavg = w.pyramid()
    numer = 0.0
    for q, a in seq.items():
        if not k.contains(q):
            continue
        we = wavg[q.level][q.position] @ e
        if isinstance(seq, MatrixSequence):
            numer += max(float(we @ (a @ we)), 0.0)
        else:
            numer += a * float(we @ we)
    wk = wavg[k.level][k.position]
    denom = k.measure * float(e @ (wk @ e))
    if denom <= 0.0:
        raise PreconditionError("degenerate weight average under the probe")
    return float(numer / denom)
