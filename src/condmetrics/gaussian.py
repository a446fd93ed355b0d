"""Gaussian population statistics and the Fréchet distance between Gaussians.

Each Gaussian is held as its mean and one row factor F (r x d, r <= d) with
covariance F^T F, built once.  Estimates start from rows whose Gram matrix is
the covariance (the centred samples over sqrt(N), or sqrt(pi_c) (mu_c - mu)
for the Gaussian over class means).  Two regimes, by the row count N:

* N <= d: the rows are the factor itself.
* N > d: the factor is the d x d ``_gram_factor`` of the rows' Gram matrix,
  which a sample estimate accumulates over centred blocks of ``_GRAM_BLOCK``
  rows in one reused buffer, so no centred N x d copy is made.

So r is at most min(N, d), memory is O(min(N, d) * d) per Gaussian, and the
covariance is PSD by construction.  The Fréchet cross-term reads only the
singular values of Fa Fb^T, which a left rotation of either factor leaves
unchanged, so any F with F^T F equal to the covariance gives the same distance
up to round-off.

A supplied covariance (``GaussianStats(mean, cov)``) takes the same
``_gram_factor`` as an estimate, whose ``eigh`` fallback is the only place a
non-PSD matrix raises NotPSDError (the CLI's exit code 3).  ``_as_finite``
coerces and checks every array input of the package (tensor files aside) for
numbers and finiteness.

The covariance estimator uses the population divisor N (not N-1) so that the
pooled covariance of a labelled dataset decomposes exactly into its
between-class and within-class parts; the conditional-metric bound tests rely
on that identity holding to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NotPSDError

# Negative eigenvalues within -EIG_TOL * max(1, scale) are round-off and get
# clamped to zero; anything lower is treated as genuinely non-PSD input.
EIG_TOL = 1e-8

# Rows per centred block of a sample estimate's Gram accumulation: large
# enough that each block is one efficient BLAS call at any d.
_GRAM_BLOCK = 4096


def _as_array(x, what: str, kinds: str = "biuf") -> np.ndarray:
    """x as an array of a dtype kind in ``kinds``: never ragged, text, complex or object."""
    try:
        a = np.asarray(x)
    except ValueError:
        raise InvalidInputError(f"{what} is ragged: its rows differ in length") from None
    if a.dtype.kind not in kinds:
        raise InvalidInputError(f"{what} has unsupported dtype {a.dtype}")
    return a


def _as_finite(x, what: str) -> tuple[np.ndarray, float, float]:
    """x as a float64 array of finite values, with its min and max ((0, 0) if
    empty).  min and max propagate NaN and +-inf, so they settle finiteness
    with no temporary of the array's size."""
    a = _as_array(x, what).astype(np.float64, copy=False)
    lo, hi = (float(a.min()), float(a.max())) if a.size else (0.0, 0.0)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise InvalidInputError(f"{what} contains non-finite entries")
    return a, lo, hi


def as_feature_matrix(features) -> np.ndarray:
    """Validate and return an N x d float64 feature matrix (N, d >= 1, finite)."""
    x = _as_finite(features, "feature matrix")[0]
    if x.ndim != 2:
        raise InvalidInputError(f"feature matrix must be 2-D, got shape {x.shape}")
    n, d = x.shape
    if n < 1 or d < 1:
        raise InvalidInputError(f"feature matrix must be non-empty, got shape {x.shape}")
    return x


@dataclass(frozen=True, init=False, eq=False)
class GaussianStats:
    """Mean vector and population covariance of one (sub)population.

    ``GaussianStats(mean, cov)`` symmetrizes ``cov``, which must be PSD up to
    the round-off floor, and keeps its ``_gram_factor`` as ``factor``, as an
    estimate does; ``cov`` is rebuilt from the factor when read.
    """

    mean: np.ndarray
    factor: np.ndarray

    def __init__(self, mean, cov):
        mean = _as_finite(mean, "mean vector")[0].reshape(-1)
        cov = _as_finite(cov, "covariance")[0]
        if mean.size < 1:
            raise InvalidInputError("mean vector must be non-empty")
        if cov.shape != (mean.size, mean.size):
            raise InvalidInputError(
                f"covariance shape {cov.shape} does not match mean length {mean.size}"
            )
        self.__dict__.update(mean=mean, factor=_gram_factor(0.5 * (cov + cov.T)))

    @classmethod
    def _from_rows(cls, mean: np.ndarray, rows: np.ndarray) -> GaussianStats:
        """Gaussian with covariance rows^T rows, for a fresh array of rows: up
        to d rows are the factor itself, more give ``_gram_factor(rows^T rows)``."""
        n, d = rows.shape
        if n > d:
            rows = _gram_factor(rows.T @ rows)
        stats = cls.__new__(cls)
        stats.__dict__.update(mean=mean, factor=rows)
        return stats

    @property
    def cov(self) -> np.ndarray:
        return self.factor.T @ self.factor

    @property
    def dim(self) -> int:
        return self.mean.size


def estimate_gaussian(features) -> GaussianStats:
    """Estimate mean and population covariance (divisor N) from sample rows."""
    return _estimate_gaussian(as_feature_matrix(features))


def _estimate_gaussian(x: np.ndarray) -> GaussianStats:
    n, d = x.shape
    mean = x.mean(axis=0)
    if n <= d:
        rows = (x - mean) / np.sqrt(n)
    else:  # d rows, which _from_rows keeps: no centred n x d copy is made
        rows = _gram_factor(_centred_gram(x, mean) / n)
    return GaussianStats._from_rows(mean, rows)


def _centred_gram(x: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """(x - mean)^T (x - mean), accumulated over row blocks of ``_GRAM_BLOCK``
    centred in one reused buffer."""
    n, d = x.shape
    buf = np.empty((min(_GRAM_BLOCK, n), d))
    gram, prod = np.zeros((d, d)), np.empty((d, d))
    for start in range(0, n, _GRAM_BLOCK):
        block = x[start:start + _GRAM_BLOCK]
        c = np.subtract(block, mean, out=buf[:len(block)])
        gram += np.matmul(c.T, c, out=prod)  # c^T c runs as one symmetric rank-k update
    return gram


def _gram_factor(g: np.ndarray) -> np.ndarray:
    """A d x d factor R with R^T R = g of a symmetric covariance g: its
    Cholesky factor, unless g is singular to round-off (Cholesky fails or a
    pivot^2 is at most d eps max(diag g)).  Then it is diag(sqrt(w)) V^T of
    g = V diag(w) V^T with every w at most d eps max(w) set to zero: kept,
    those round-off eigenvalues would add sqrt(eps)-sized directions.  An
    eigenvalue below -EIG_TOL * max(1, spectral radius) raises NotPSDError;
    an estimate's Gram matrix never has one."""
    tol = len(g) * np.finfo(np.float64).eps
    try:
        r = np.linalg.cholesky(g).T
        if float(np.diagonal(r).min()) ** 2 > tol * float(np.diagonal(g).max()):
            return r
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh(g)
    floor = -EIG_TOL * max(1.0, float(np.abs(w).max()))
    if float(w[0]) < floor:
        raise NotPSDError(
            f"covariance has eigenvalue {float(w[0]):.6e} below the PSD floor {floor:.6e}")
    w[w <= tol * w[-1]] = 0.0
    return np.sqrt(w)[:, None] * v.T


def frechet_distance_raw(a: GaussianStats, b: GaussianStats) -> float:
    """Fréchet distance before the final clamp to zero (round-off can dip below)."""
    if a.dim != b.dim:
        raise InvalidInputError(
            f"dimension mismatch: {a.dim} vs {b.dim}"
        )
    delta = a.mean - b.mean
    # With Sa = Fa^T Fa and Sb = Fb^T Fb, Tr((Sa^1/2 Sb Sa^1/2)^1/2) equals the
    # nuclear norm of Fa Fb^T (FastFID, arXiv:2009.14075).  The SVD reads the
    # singular values off directly instead of recovering them from their
    # squares, which would square the condition number and break the
    # self-distance and symmetry tolerances.
    cross = float(np.linalg.svd(a.factor @ b.factor.T, compute_uv=False).sum())
    traces = float(np.vdot(a.factor, a.factor)) + float(np.vdot(b.factor, b.factor))
    return float(delta @ delta) + traces - 2.0 * cross


def frechet_distance(a: GaussianStats, b: GaussianStats) -> float:
    """Squared Fréchet (2-Wasserstein) distance between two Gaussians.

    The trace cross-term is the nuclear norm of the product of the two
    covariance factors, r_a x r_b, so no d x d matrix and no matrix root is
    formed per call.  The result is clamped to be non-negative.
    """
    return max(frechet_distance_raw(a, b), 0.0)
