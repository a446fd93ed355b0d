"""Unconditional and class-conditional generation metrics.

Score families
--------------
* Probability-based: ``inception_score`` plus its between-class (``bcis``)
  and within-class (``wcis``) components.  With empirical class weights the
  three satisfy ``log IS = log BCIS + log WCIS`` exactly, because the mean
  sample-to-marginal KL splits into a between-class KL plus the class-weighted
  within-class KL.  They are computed from two quantities of the floored,
  renormalized rows q: each row's negative entropy h_i = sum_j q_ij log q_ij
  and the class averages a_c.  Then log IS = mean(h) - m . log m for the
  marginal m, the log per-class score is mean_{i in c} h_i - a_c . log a_c,
  and BCIS needs only the K x K averages; rows are cleaned in fixed-size
  blocks, so no second array of the matrix's size is made.
* Feature-based: ``fid`` plus its between-class (``bcfid``) and within-class
  (``wcfid``) components.  With population covariances and empirical class
  weights, ``fid <= bcfid + wcfid`` holds up to round-off.

Class weights default to empirical frequencies ("empirical"); passing
``weighting="uniform"`` averages classes with equal weight instead, which is
also meaningful for unbalanced data but forfeits the exact identities above.

Each input array is checked once, where it enters a public function; private
kernels take checked arrays and labels in [0, k) and check nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .gaussian import (
    GaussianStats,
    _as_array,
    _as_finite,
    _estimate_gaussian,
    as_feature_matrix,
    frechet_distance,
)

# Probabilities are floored here and rows renormalized before any log, so
# hard one-hot rows stay finite; the perturbation is < 1e-10 relative.
PROB_FLOOR = 1e-12

WEIGHTINGS = ("empirical", "uniform")

# Entries per row block of the IS family's passes (see ``_is_family``).
_IS_BLOCK = 2**15


# ---------------------------------------------------------------------------
# input validation


def as_probability_matrix(probs) -> np.ndarray:
    """Validate an N x K probability matrix (entries in [0,1], rows sum to 1)."""
    p, lo, hi = _as_finite(probs, "probability matrix")
    if p.ndim != 2:
        raise InvalidInputError(f"probability matrix must be 2-D, got shape {p.shape}")
    n, k = p.shape
    if n < 1:
        raise InvalidInputError("probability matrix has no rows")
    if k < 2:
        raise InvalidInputError(f"probability matrix needs at least 2 classes, got {k}")
    if lo < -1e-9 or hi > 1.0 + 1e-9:
        bad = int(np.argmax((p < -1e-9) | (p > 1.0 + 1e-9), axis=None) // k)
        raise InvalidInputError(f"probability entries outside [0, 1] at row {bad}")
    sums = p.sum(axis=1)
    off = np.abs(sums - 1.0)
    if float(off.max()) > 1e-6:
        bad = int(np.argmax(off))
        raise InvalidInputError(
            f"probability row {bad} sums to {sums[bad]:.9f}, expected 1 within 1e-6"
        )
    # an in-range matrix is returned as is: clipping it would copy it unchanged
    return p if lo >= 0.0 and hi <= 1.0 else np.clip(p, 0.0, 1.0)


def as_label_vector(labels, k: int | None, *, n: int | None = None) -> np.ndarray:
    """Validate a vector of class indices in [0, k); k=None skips the upper bound."""
    y = _as_int_vector(labels, "label vector")
    if y.size < 1:
        raise InvalidInputError("label vector is empty")
    if y.min() < 0:
        raise InvalidInputError(f"labels must be non-negative, got {y.min()}")
    if k is not None:
        if k < 1:
            raise InvalidInputError(f"class count must be >= 1, got {k}")
        if y.max() >= k:
            raise InvalidInputError(
                f"labels must lie in [0, {k}), got values up to {y.max()}"
            )
    if n is not None:
        _check_rows(y, n)
    return y


def _as_int_vector(values, what: str) -> np.ndarray:
    """values as a 1-D int64 vector: integers, or floats with integral values."""
    y = _as_array(values, what, "iuf")
    if y.ndim != 1:
        raise InvalidInputError(f"{what} must be 1-D, got shape {y.shape}")
    if y.dtype.kind == "f":
        y = _as_finite(y, what)[0]
        bad = (y != np.floor(y)) | (np.abs(y) >= 2.0**63)  # not an int64 value
        if bad.any():
            raise InvalidInputError(f"{what} must be integers (row {int(np.argmax(bad))} is not)")
    return y.astype(np.int64, copy=False)


def _as_int(value, what: str) -> int:
    """value as an int: the scalar twin of ``_as_int_vector``."""
    a = _as_array(value, what, "iuf")
    if a.ndim:
        raise InvalidInputError(f"{what} must be one integer, got shape {a.shape}")
    try:
        return int(_as_int_vector(a.reshape(1), what)[0])
    except InvalidInputError:  # not finite, or not integral
        raise InvalidInputError(f"{what} must be an integer, got {a.item()!r}") from None


def _check_rows(labels: np.ndarray, n: int) -> None:
    if labels.size != n:
        raise InvalidInputError(f"label count {labels.size} does not match row count {n}")


def class_index_lists(
    labels: np.ndarray, k: int, *, min_count: int = 1, side: str = ""
) -> list[np.ndarray]:
    """Per-class row indices; raises naming the lowest class smaller than min_count."""
    counts = np.bincount(labels, minlength=k)[:k]
    small = np.flatnonzero(counts < min_count)
    if small.size:
        c = int(small[0])
        where = side and f" on the {side} side" or ""
        need = "no samples" if min_count == 1 else f"{counts[c]} sample(s), needs >= {min_count}"
        raise InvalidInputError(f"class {c} has {need}{where}")
    # a stable sort keeps each class's rows in ascending order
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(counts)
    return [order[end - n:end] for n, end in zip(counts, ends)]


def class_priors(counts: np.ndarray, weighting: str = "empirical") -> np.ndarray:
    if weighting == "empirical":
        return counts / counts.sum()
    if weighting == "uniform":
        return np.full(counts.size, 1.0 / counts.size)
    raise InvalidInputError(f"unknown weighting {weighting!r}, expected one of {WEIGHTINGS}")


# ---------------------------------------------------------------------------
# probability-based scores


def _clean_rows(p: np.ndarray, buf: np.ndarray, index=None) -> np.ndarray:
    """The floored, renormalized rows of p (or p[index]), in the first rows of buf."""
    q = buf[:len(p) if index is None else index.size]
    if index is not None:
        # the indices are in range: mode "clip" spares the copy take makes of out
        p = np.take(p, index, axis=0, out=q, mode="clip")
    np.clip(p, PROB_FLOOR, None, out=q)
    return np.divide(q, q.sum(axis=1, keepdims=True), out=q)


def _neg_entropy_rows(q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise sum_j q_ij log q_ij of strictly positive rows (products in out)."""
    return np.sum(np.multiply(q, np.log(q, out=out), out=out), axis=1)


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise KL(p_i || q) for strictly positive p rows and q."""
    return np.sum(p * (np.log(p) - np.log(q)), axis=1)


def _is_family(p: np.ndarray, y=None, k: int | None = None, weighting: str = "empirical"):
    """IS, BCIS, WCIS and the per-class IS vector of a checked probability
    matrix and checked labels in [0, k); without labels the last three are None.

    One pass over row blocks of about ``_IS_BLOCK`` entries gives each row's
    negative entropy and the marginal; labels add one pass over each class's
    rows, in blocks of the same size, for its average (see the module
    docstring for the identities).
    """
    n, width = p.shape
    if y is not None:
        # Conditioned classes live in their own index space: usually it matches
        # the probability columns, but e.g. one condition covering several
        # predicted classes is legal.  Every conditioned class must be non-empty.
        idx = class_index_lists(y, k, min_count=1, side="conditioned")
        priors = class_priors(np.array([i.size for i in idx]), weighting)
    rows = max(1, _IS_BLOCK // width)
    # reused block buffers: fresh ones are returned to the OS and faulted in per block
    buf, prod = np.empty((2, min(rows, n), width))
    neg_entropy = np.empty(n)
    col_sum = np.zeros(width)
    for start in range(0, n, rows):
        q = _clean_rows(p[start:start + rows], buf)
        neg_entropy[start:start + rows] = _neg_entropy_rows(q, prod[:len(q)])
        col_sum += q.sum(axis=0)
    marginal = col_sum / n
    is_ = float(np.exp(np.mean(neg_entropy) - marginal @ np.log(marginal)))
    if y is None:
        return is_, None, None, None
    averages = np.stack([
        sum(_clean_rows(p, buf, i[s:s + rows]).sum(axis=0) for s in range(0, i.size, rows))
        / i.size for i in idx])
    within = np.array([np.mean(neg_entropy[i]) for i in idx]) - _neg_entropy_rows(averages)
    between = priors @ _kl_rows(averages, priors @ averages)
    return is_, float(np.exp(between)), float(np.exp(priors @ within)), np.exp(within)


def _checked_is_family(probs, labels, weighting: str, class_count: int | None):
    p = as_probability_matrix(probs)
    k = None if class_count is None else _as_int(class_count, "class count")
    y = as_label_vector(labels, k, n=p.shape[0])
    return _is_family(p, y, int(y.max()) + 1 if k is None else k, weighting)


def inception_score(probs) -> float:
    """exp of the mean KL from each predicted distribution to their average.

    Equals exp of the mutual information between samples and predicted
    labels at the empirical level; always in [1, K].
    """
    return _is_family(as_probability_matrix(probs))[0]


def bcis(probs, labels, weighting: str = "empirical",
         class_count: int | None = None) -> float:
    """Between-class score: inception score of the per-class average distributions."""
    return _checked_is_family(probs, labels, weighting, class_count)[1]


def wcis(probs, labels, weighting: str = "empirical",
         class_count: int | None = None) -> float:
    """Within-class score: exp of the class-weighted mean within-class KL."""
    return _checked_is_family(probs, labels, weighting, class_count)[2]


def per_class_is(probs, labels, class_count: int | None = None) -> np.ndarray:
    """Per-class within-class score; class weights combine these into wcis."""
    return _checked_is_family(probs, labels, "empirical", class_count)[3]


def _accuracy(p: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    k = p.shape[1]
    hits = np.argmax(p, axis=1) == y
    counts = np.bincount(y, minlength=k)
    per = np.divide(np.bincount(y, weights=hits, minlength=k), counts,
                    out=np.full(k, np.nan), where=counts > 0)
    return float(hits.mean()), per


def accuracy(probs, labels) -> tuple[float, np.ndarray]:
    """Fraction of rows whose argmax matches the conditioned label.

    Argmax ties break to the lowest class index.  Also returns the per-class
    vector; classes with no members get NaN.
    """
    p = as_probability_matrix(probs)
    return _accuracy(p, as_label_vector(labels, p.shape[1], n=p.shape[0]))


# ---------------------------------------------------------------------------
# feature-based scores


@dataclass(frozen=True)
class ClassConditionalStats:
    """Per-class Gaussians, the Gaussian over class means, and class weights.

    With empirical weights, ``between.mean`` equals the pooled mean and the
    pooled covariance equals ``between.cov + sum_c priors[c] * per_class[c].cov``
    (law of total covariance, exact for population covariances).
    """

    per_class: tuple[GaussianStats, ...]
    between: GaussianStats
    priors: np.ndarray

    @property
    def k(self) -> int:
        return len(self.per_class)


def class_conditional_stats(
    features,
    labels,
    k: int,
    *,
    weighting: str = "empirical",
) -> ClassConditionalStats:
    """Estimate per-class and between-class Gaussian statistics from samples."""
    x = as_feature_matrix(features)
    k = _as_int(k, "class count")
    y = as_label_vector(labels, k, n=x.shape[0])
    return _class_conditional_stats(x, y, k, weighting, 1, "")


def _class_conditional_stats(x, y, k: int, weighting: str, min_count: int, side: str):
    idx = class_index_lists(y, k, min_count=min_count, side=side)
    priors = class_priors(np.array([i.size for i in idx]), weighting)
    return _with_between(tuple(_estimate_gaussian(x[i]) for i in idx), priors)


def _with_between(per_class, priors: np.ndarray) -> ClassConditionalStats:
    """Add the Gaussian over class means, weighted by priors, to per-class stats."""
    means = np.stack([s.mean for s in per_class])
    mu_b = priors @ means
    rows = np.sqrt(priors)[:, None] * (means - mu_b)
    between = GaussianStats._from_rows(mu_b, rows, sum(s.count for s in per_class))
    return ClassConditionalStats(per_class=per_class, between=between, priors=priors)


def class_conditional_from_moments(means, covs, priors) -> ClassConditionalStats:
    """Build ClassConditionalStats from explicit per-class moments.

    Useful for population-level checks where the moments are known
    analytically rather than estimated from samples.
    """
    means = _as_finite(means, "means")[0]
    priors = _as_finite(priors, "priors")[0]
    if means.ndim != 2 or means.shape[0] != priors.size:
        raise InvalidInputError("means must be a K x d matrix matching the priors")
    if np.any(priors < 0) or abs(float(priors.sum()) - 1.0) > 1e-9:
        raise InvalidInputError("priors must be non-negative and sum to 1")
    per_class = tuple(GaussianStats(means[c], covs[c]) for c in range(priors.size))
    return _with_between(per_class, priors)


def pooled_gaussian(stats: ClassConditionalStats) -> GaussianStats:
    """Pooled Gaussian via the law of total covariance, as stacked factors."""
    rows = np.vstack([stats.between.factor] + [
        np.sqrt(p) * s.factor for p, s in zip(stats.priors, stats.per_class)])
    count = sum(s.count for s in stats.per_class)
    return GaussianStats._from_rows(stats.between.mean, rows, count)


def _resolve_mapping(pairing, k: int | None = None) -> np.ndarray:
    """pairing (None, a ClassAssignment or a sequence) as a permutation of [0, k or its length)."""
    if pairing is None and k is not None:
        return np.arange(k, dtype=np.int64)
    mapping = _as_int_vector(getattr(pairing, "mapping", pairing), "pairing")
    k = mapping.size if k is None else k
    if mapping.size != k or not np.array_equal(np.sort(mapping), np.arange(k)):
        raise InvalidInputError(f"pairing must be a permutation of [0, {k})")
    return mapping


def _checked_features(real_features, real_labels, gen_features, gen_labels, k):
    """Both feature matrices, of one dimension, and both label vectors unless both are None."""
    rf = as_feature_matrix(real_features)
    gf = as_feature_matrix(gen_features)
    if rf.shape[1] != gf.shape[1]:
        raise InvalidInputError(f"feature dimension mismatch: {rf.shape[1]} vs {gf.shape[1]}")
    if real_labels is None and gen_labels is None:
        return rf, None, gf, None
    return (rf, as_label_vector(real_labels, k, n=rf.shape[0]),
            gf, as_label_vector(gen_labels, k, n=gf.shape[0]))


def fid(real_features, gen_features) -> float:
    """Fréchet distance between the Gaussian fits of two feature populations."""
    rf, _, gf, _ = _checked_features(real_features, None, gen_features, None, None)
    return frechet_distance(_estimate_gaussian(rf), _estimate_gaussian(gf))


def bcfid_from_stats(real: ClassConditionalStats, gen: ClassConditionalStats) -> float:
    if real.k != gen.k:
        raise InvalidInputError(f"class count mismatch: {real.k} vs {gen.k}")
    return frechet_distance(real.between, gen.between)


def wcfid_from_stats(
    real: ClassConditionalStats,
    gen: ClassConditionalStats,
    pairing=None,
) -> tuple[float, np.ndarray]:
    """Class-weighted mean per-class Fréchet distance, plus the per-class vector.

    ``pairing[c]`` names the real class compared against conditioned class c;
    weights are the real-side priors of the paired classes.
    """
    if real.k != gen.k:
        raise InvalidInputError(f"class count mismatch: {real.k} vs {gen.k}")
    mapping = _resolve_mapping(pairing, real.k)
    per = np.array([frechet_distance(real.per_class[mapping[c]], gen.per_class[c])
                    for c in range(real.k)])
    weights = real.priors[mapping]
    return float(weights @ per), per


def _stats_pair(real_features, real_labels, gen_features, gen_labels, k: int,
                weighting: str, min_count: int = 2):
    k = _as_int(k, "class count")
    rf, ry, gf, gy = _checked_features(real_features, real_labels, gen_features, gen_labels, k)
    return (_class_conditional_stats(rf, ry, k, weighting, min_count, "real"),
            _class_conditional_stats(gf, gy, k, weighting, min_count, "generated"))


def _fid_side(x: np.ndarray, y, cols, k: int | None, weighting: str, side: str):
    """Pooled Gaussian of the checked x[:, cols] and, with labels in [0, k),
    its class-conditional statistics (None without labels)."""
    x = x[:, cols]
    pooled = _estimate_gaussian(x)  # first: its temporaries are the largest
    classes = None if y is None else _class_conditional_stats(x, y, k, weighting, 2, side)
    return pooled, classes


def _fid_scores(real_side, gen_side, pairing) -> tuple:
    """One trial's (fid,), or with labels (fid, bcfid, wcfid, per-class vector)."""
    (real_pooled, real), (gen_pooled, gen) = real_side, gen_side
    f = frechet_distance(real_pooled, gen_pooled)
    return (f,) if real is None else (
        f, bcfid_from_stats(real, gen), *wcfid_from_stats(real, gen, pairing))


def bcfid(
    real_features, real_labels, gen_features, gen_labels, k: int,
    *, weighting: str = "empirical",
) -> float:
    """Fréchet distance between the real and generated class-mean distributions."""
    return bcfid_from_stats(*_stats_pair(
        real_features, real_labels, gen_features, gen_labels, k, weighting, min_count=1))


def wcfid(
    real_features, real_labels, gen_features, gen_labels, k: int,
    *, pairing=None, weighting: str = "empirical",
) -> tuple[float, np.ndarray]:
    """Class-weighted mean of per-class Fréchet distances (needs >= 2 per class)."""
    return wcfid_from_stats(*_stats_pair(
        real_features, real_labels, gen_features, gen_labels, k, weighting), pairing)


def cfid_sum(
    real_features, real_labels, gen_features, gen_labels, k: int,
    *, pairing=None, weighting: str = "empirical",
) -> float:
    """bcfid + wcfid: a single conditional score that upper-bounds fid."""
    real, gen = _stats_pair(
        real_features, real_labels, gen_features, gen_labels, k, weighting)
    return bcfid_from_stats(real, gen) + wcfid_from_stats(real, gen, pairing)[0]


# ---------------------------------------------------------------------------
# reporting


@dataclass
class MetricReport:
    """All scalar metrics plus per-class component vectors.

    ``None`` marks a metric whose inputs were not provided.  ``dims_used`` is
    the per-dimension normalization divisor: the subset size under the
    subsampled protocol, otherwise the full feature dimension (full-dimension
    scores are reported raw, not divided).
    """

    is_: float | None = None
    bcis: float | None = None
    wcis: float | None = None
    fid: float | None = None
    bcfid: float | None = None
    wcfid: float | None = None
    cfid_sum: float | None = None
    accuracy: float | None = None
    per_class_fid: np.ndarray | None = None
    per_class_is: np.ndarray | None = None
    per_class_accuracy: np.ndarray | None = None
    dims_used: int | None = None
    pairing: str = "identity"
    seed: int = 0
    warnings: list[str] = field(default_factory=list)

