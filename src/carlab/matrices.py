"""Dense symmetric matrix primitives: spectra, SPD powers, PSD-order margins.

The symmetric eigendecomposition is the single primitive here; operator
norms, fractional powers and order comparisons all derive from it.
Matrices are small (d <= 8), so robustness wins over raw speed.

Two precision regimes coexist:

* float64 arrays go through LAPACK (``np.linalg.eigh``), including stacked
  batches, which is what the randomized suites use;
* longdouble arrays go through a cyclic Jacobi solver implemented below,
  because LAPACK has no extended-precision path.  Extended precision is
  needed where acceptance tolerances sit below the ``eps * cond`` floor of
  double arithmetic (condition numbers up to 1e8 appear in the
  counterexample sweep).

Every SPD power goes through one core, ``eig_power`` (W^p) and
``eig_apply_power`` (W^p x), from an eigendecomposition of a stack
(..., d, d); ``spd_power`` adds the asymmetry check for input from outside
the package.  The core has one refusal rule: a negative power refuses
lambda_min <= ``SPD_REJECT``, the square root refuses lambda_min <
-``PSD_CLAMP`` and clips the rest to zero.  It has one naming rule: the
first offending member in stack order, as the cube its caller's
``context`` gives it or else as ``LabError.point``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NumericError, SingularMatrixError

# Construction-time asymmetry rejection (relative to the largest entry).
SYM_REJECT_RTOL = 1e-9
# Eigenvalue floor below which negative powers are refused.
SPD_REJECT = 1e-12
# Tolerated negative part under the square root (clamped to zero).
PSD_CLAMP = 1e-12

ALLOWED_POWERS = (0.5, -0.5, -1.0)


def as_symmetric(m, rtol=SYM_REJECT_RTOL):
    """Return the symmetrized copy (M + M^T)/2 of a square matrix.

    Rejects input whose asymmetric part exceeds ``rtol`` relative to the
    largest entry; silent symmetrization of genuinely asymmetric data would
    hide bugs upstream.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    scale = float(np.abs(m).max())
    if scale > 0.0:
        asym = float(np.abs(m - m.T).max())
        if asym > rtol * scale:
            raise DimensionMismatchError(
                f"matrix is not symmetric: |M - M^T| = {asym:.3e} vs scale {scale:.3e}"
            )
    return (m + m.T) / 2


def symmetrize(m):
    """(M + M^T)/2 with no asymmetry check.

    For matrices produced by symmetric arithmetic (differences, products of
    symmetric factors), whose asymmetry is rounding noise that can exceed
    any relative threshold when the result is near zero.
    """
    m = np.asarray(m)
    return (m + m.swapaxes(-1, -2)) / 2


def _jacobi_eigh(a, max_sweeps=60):
    """Cyclic Jacobi eigendecomposition of a stack of symmetric matrices.

    ``a`` has shape (..., n, n); returns (eigenvalues ascending, eigenvector
    columns) of shapes (..., n) and (..., n, n), like ``np.linalg.eigh``,
    in the dtype of ``a``.  Used for longdouble input.

    Every matrix goes through the scalar cyclic Jacobi iteration: a
    convergence test at the start of each sweep, then the (p, q) rotations
    in row order, each skipped when |a_pq| is negligible.  The stack is
    processed together: a converged matrix leaves the working set, and a
    rotation is applied at once to every remaining matrix that needs it.
    The per-matrix arithmetic is unchanged, so each result is bitwise the
    one the matrix would get on its own.
    """
    a = np.array(a, copy=True)
    batch, n = a.shape[:-2], a.shape[-1]
    dt = a.dtype
    a = a.reshape(-1, n, n)
    v = np.broadcast_to(np.eye(n, dtype=dt), a.shape).copy()
    if n > 1:
        _jacobi_sweeps(a, v, max_sweeps)
    diag = np.diagonal(a, axis1=-2, axis2=-1)
    order = np.argsort(diag, axis=-1, kind="stable")
    vals = np.take_along_axis(diag, order, axis=-1)
    vecs = np.take_along_axis(v, order[:, None, :], axis=-1)
    return vals.reshape(*batch, n), vecs.reshape(*batch, n, n)


def _jacobi_sweeps(a, v, max_sweeps):
    """Rotate the (m, n, n) stacks ``a`` and ``v`` in place until converged."""
    n = a.shape[-1]
    dt = a.dtype
    eps = np.finfo(dt).eps
    tiny = np.finfo(dt).tiny
    one = dt.type(1.0)
    ii = np.arange(n)
    live = np.arange(a.shape[0])
    wa, wv = a, v
    for _ in range(max_sweeps):
        diag = np.zeros_like(wa)
        diag[:, ii, ii] = wa[:, ii, ii]
        offd = np.abs(wa - diag).max(axis=(-2, -1))
        scale = np.maximum(np.abs(wa).max(axis=(-2, -1)), tiny)
        done = offd <= eps * scale
        if done.any():
            a[live[done]] = wa[done]
            v[live[done]] = wv[done]
            keep = ~done
            live, wa, wv, scale = live[keep], wa[keep], wv[keep], scale[keep]
        if not live.size:
            return
        skip = 0.01 * eps * scale
        for p in range(n - 1):
            for q in range(p + 1, n):
                rot = ~(np.abs(wa[:, p, q]) <= skip)
                if not rot.any():
                    continue
                sel = slice(None) if rot.all() else np.flatnonzero(rot)
                apq = wa[sel, p, q]
                tau = (wa[sel, q, q] - wa[sel, p, p]) / (2.0 * apq)
                t = np.where(
                    tau == 0.0, one, np.sign(tau) / (np.abs(tau) + np.sqrt(one + tau * tau))
                )
                c = (one / np.sqrt(one + t * t))[:, None]
                s = t[:, None] * c
                cp, cq = wa[sel, :, p].copy(), wa[sel, :, q].copy()
                wa[sel, :, p] = c * cp - s * cq
                wa[sel, :, q] = s * cp + c * cq
                rp, rq = wa[sel, p, :].copy(), wa[sel, q, :].copy()
                wa[sel, p, :] = c * rp - s * rq
                wa[sel, q, :] = s * rp + c * rq
                wa[sel, p, q] = 0.0
                wa[sel, q, p] = 0.0
                vp, vq = wv[sel, :, p].copy(), wv[sel, :, q].copy()
                wv[sel, :, p] = c * vp - s * vq
                wv[sel, :, q] = s * vp + c * vq
    raise NumericError("Jacobi eigensolver did not converge")


def eigh_sym(m):
    """Eigendecomposition of a symmetric matrix, dispatched on dtype.

    float64 goes to LAPACK; longdouble goes to the Jacobi solver so that
    extended precision is preserved end to end.
    """
    m = np.asarray(m)
    if m.dtype == np.longdouble:
        return _jacobi_eigh(m)
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NumericError(f"eigendecomposition failed: {exc}") from exc


def spectrum(m):
    """Eigenvalues of a symmetric matrix in descending order."""
    m = as_symmetric(m)
    vals, _ = eigh_sym(m)
    return vals[::-1].copy()


def operator_norm(m):
    """Operator (spectral) norm of a symmetric matrix."""
    return float(operator_norm_stack(as_symmetric(m)[None])[0])


def operator_norm_stack(mats):
    """Operator norm of each member of a stack of symmetric matrices.

    Takes the full ``eigh``: LAPACK's eigenvalue-only routine can differ
    from it in the last bits.
    """
    vals = eigh_sym(mats)[0]
    return np.maximum(np.abs(vals[..., 0]), np.abs(vals[..., -1]))


def psd_gap(a, b):
    """Smallest eigenvalue of a - b: the margin of a >= b in the PSD order.

    Margins, not booleans, so the caller owns the threshold.  The stack of
    one of ``psd_gap_stack``.
    """
    return float(psd_gap_stack(np.asarray(a)[None], np.asarray(b)[None])[0])


# ---------------------------------------------------------------------------
# Stacked helpers.  Leading axes are batch axes; a whole batch goes to one
# solver call, LAPACK for float64 and the Jacobi solver for longdouble.
# ---------------------------------------------------------------------------

def _first(bad):
    """Flat index of the first true entry of a boolean stack, or None."""
    hits = np.flatnonzero(bad)
    return int(hits[0]) if hits.size else None


def as_symmetric_stack(mats, rtol=SYM_REJECT_RTOL):
    """``as_symmetric`` over a stack (..., d, d), naming the first asymmetric member."""
    mats = np.asarray(mats)
    if mats.ndim < 3 or mats.shape[-1] != mats.shape[-2]:
        raise DimensionMismatchError(f"expected a stack of square matrices, got shape {mats.shape}")
    trans = mats.swapaxes(-1, -2)
    scale = np.abs(mats).max(axis=(-2, -1))
    asym = np.abs(mats - trans).max(axis=(-2, -1))
    i = _first((scale > 0.0) & (asym > rtol * scale))
    if i is not None:
        raise DimensionMismatchError(
            f"matrix is not symmetric: |M - M^T| = {asym.flat[i]:.3e} vs scale {scale.flat[i]:.3e}"
        ).at(i)
    return (mats + trans) / 2


# ---------------------------------------------------------------------------
# SPD powers, from an eigendecomposition (vals, vecs) of a stack (..., d, d);
# a 2-D matrix is a stack with no batch axes.
# ---------------------------------------------------------------------------

def _powered(vals, p, context):
    """vals ** p of ascending spectra (..., d), refusing what the power cannot take.

    A negative power refuses lambda_min <= SPD_REJECT; the square root
    refuses lambda_min < -PSD_CLAMP and clips the rest of the spectrum at
    zero.  The error names the first offending member in stack order, the
    flat index i over the batch axes: as cube ``context(i)`` when a context
    is given, else as ``LabError.point = i`` (a single matrix names none).
    """
    if p not in ALLOWED_POWERS:
        raise ValueError(f"power must be one of {ALLOWED_POWERS}, got {p}")
    lmin = vals[..., 0].reshape(-1)
    if p < 0:
        i, what = _first(lmin <= SPD_REJECT), "matrix not SPD under negative power"
    else:
        i, what = _first(lmin < -PSD_CLAMP), "matrix not PSD under square root"
    if i is not None:
        cube = None if context is None else context(i)
        err = SingularMatrixError(what, lambda_min=float(lmin[i]), cube=cube)
        raise err if context is not None or vals.ndim == 1 else err.at(i)
    if p > 0:
        vals = np.clip(vals, 0.0, None)
    return vals ** vals.dtype.type(p)


def eig_power(vals, vecs, p, context=None):
    """W^p of every member of a stack, from W's eigendecomposition (vals, vecs).

    ``p`` is one of ``ALLOWED_POWERS``; refusal and naming follow
    ``_powered``.  The contraction is one ``einsum`` for both dtypes: its
    float64 result is bitwise independent of the batch size, and its
    longdouble result bitwise that of matmul.
    """
    out = np.einsum("...ij,...j,...lj->...il", vecs, _powered(vals, p, context), vecs)
    return (out + out.swapaxes(-1, -2)) / 2


def eig_apply_power(vals, vecs, p, x, context=None):
    """W^p x for vectors x (..., d), from W's eigendecomposition, without forming W^p."""
    scaled = _powered(vals, p, context)[..., None] * (vecs.swapaxes(-1, -2) @ x[..., None])
    return (vecs @ scaled)[..., 0]


def spd_power(m, p):
    """Fractional power of a symmetric matrix or stack (..., d, d).

    Refuses asymmetric input first, since it comes from outside the
    package; then ``eig_power``.  The tree kernels call ``eig_power``
    themselves on their stacks, which are symmetric by construction.
    """
    m = np.asarray(m)
    m = as_symmetric(m) if m.ndim == 2 else as_symmetric_stack(m)
    return eig_power(*eigh_sym(m), p)


def psd_gap_stack(a, b):
    """``psd_gap`` of each pair of members of two stacks (n, d, d).

    Takes the full ``eigh``: LAPACK's eigenvalue-only routine can differ
    from it in the last bits.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    return eigh_sym(symmetrize(a - b))[0][:, 0]


def eigvalsh_stack(mats):
    """Ascending eigenvalues of a stack of symmetric matrices."""
    mats = np.asarray(mats)
    if mats.dtype == np.longdouble:
        return _jacobi_eigh(mats)[0]
    try:
        return np.linalg.eigvalsh(mats)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericError(f"eigendecomposition failed: {exc}") from exc


def lambda_max_stack(mats):
    """Largest eigenvalue of each matrix in a stack."""
    return eigvalsh_stack(mats)[..., -1]


def lambda_min_stack(mats):
    """Smallest eigenvalue of each matrix in a stack."""
    return eigvalsh_stack(mats)[..., 0]
