"""Unconditional and class-conditional generation metrics.

Score families
--------------
* Probability-based: the inception score plus its between-class (bcis) and
  within-class (wcis) components.  With empirical class weights the
  three satisfy ``log IS = log BCIS + log WCIS`` exactly, because the mean
  sample-to-marginal KL splits into a between-class KL plus the class-weighted
  within-class KL.  They are computed from two quantities of the floored,
  renormalized rows q: each row's negative entropy h_i = sum_j q_ij log q_ij
  and the class averages a_c.  Then log IS = mean(h) - m . log m for the
  marginal m, the log per-class score is mean_{i in c} h_i - a_c . log a_c,
  and BCIS needs only the K x K averages.  One pass over the rows of a
  ``ProbabilityRows`` (``_is_pass``) computes them for every label vector of a
  row set: each row block is checked, used for the argmax that accuracy
  compares with every label vector, cleaned once, used for h and m, and added
  into each label vector's K x K class sums, exactly whatever the blocks'
  boundaries.  Rows go by in blocks, so no second array of the matrix's size
  is made, and a probability file is never held whole; only each label
  vector's class sums are held until the pass ends.
* Feature-based: fid plus its between-class (bcfid) and within-class (wcfid)
  components.  With population covariances and empirical class weights,
  ``fid <= bcfid + wcfid`` holds up to round-off.  Samples reach them through
  one kernel, ``_class_scores``, which streams the classes; the
  ``*_from_stats`` functions are the reference path for analytic populations.

Classes are weighted by their empirical frequencies, the class prior p(c)
of the paper's expectations.

Each input array is checked once, where it enters a public function (the
score functions other than ``accuracy`` are one-report wrappers in
``evaluate``); private kernels take checked arrays, labels in [0, K) and the K
their caller read off the inputs, and check nothing.
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

# Entries per row block of the IS family's passes (see ``_is_pass``).
_IS_BLOCK = 2**15


# ---------------------------------------------------------------------------
# input validation


def _probability_rows(probs) -> ProbabilityRows:
    """probs as ``ProbabilityRows``: as they are, or an N x K probability
    matrix (entries in [0,1], rows sum to 1) checked whole."""
    if isinstance(probs, ProbabilityRows):
        return probs
    p, lo, hi = _as_finite(probs, "probability matrix")
    if p.ndim != 2:
        raise InvalidInputError(f"probability matrix must be 2-D, got shape {p.shape}")
    _check_probability_shape(p.shape)
    return ProbabilityRows(_checked_probability_rows(p, lo, hi, 0))


def _check_probability_shape(shape) -> None:
    n, k = shape
    if n < 1:
        raise InvalidInputError("probability matrix has no rows")
    if k < 2:
        raise InvalidInputError(f"probability matrix needs at least 2 classes, got {k}")


def _checked_probability_rows(p: np.ndarray, lo: float, hi: float, start: int,
                              out: np.ndarray | None = None) -> np.ndarray:
    """Finite rows of a probability matrix, from its row ``start`` on, with
    min lo and max hi, clipped to [0, 1] into out (a new array without out).
    Raises naming the matrix's row for an entry outside [0, 1] or a row that
    does not sum to 1."""
    if lo < -1e-9 or hi > 1.0 + 1e-9:
        bad = int(np.argmax((p < -1e-9) | (p > 1.0 + 1e-9), axis=None) // p.shape[1])
        raise InvalidInputError(f"probability entries outside [0, 1] at row {start + bad}")
    sums = p.sum(axis=1)
    off = np.abs(sums - 1.0)
    if float(off.max()) > 1e-6:
        bad = int(np.argmax(off))
        raise InvalidInputError(
            f"probability row {start + bad} sums to {sums[bad]:.9f}, expected 1 within 1e-6"
        )
    # in-range rows are returned as they are: clipping them would copy them unchanged
    return p if lo >= 0.0 and hi <= 1.0 else np.clip(p, 0.0, 1.0, out=out)


class ProbabilityRows:
    """A checked N x K probability matrix, read by the IS family's passes in
    row blocks.  This form slices one array that ``_probability_rows``
    checked; ``tensorfile.ProbabilityFile`` reads and checks each block of a
    file as a pass reaches it."""

    def __init__(self, p: np.ndarray):
        self.p = p
        self.shape = p.shape

    def blocks(self, rows: int):
        """(first row, checked rows) blocks of ``rows`` rows, in order.  A
        pass takes any in-order blocks of at most ``rows`` rows."""
        for start in range(0, self.shape[0], rows):
            yield start, self.p[start:start + rows]

    def take(self, index: np.ndarray) -> ProbabilityRows:
        """The checked rows ``index``, in memory, from one read of the blocks."""
        order = np.argsort(index, kind="stable")
        wanted = index[order]
        out = np.empty((index.size, self.shape[1]))
        for start, block in self.blocks(_block_rows(self.shape[1])):
            lo, hi = np.searchsorted(wanted, [start, start + len(block)])
            out[order[lo:hi]] = block[wanted[lo:hi] - start]
        return ProbabilityRows(out)


def as_label_vector(labels, k: int | None, *, n: int | None = None) -> np.ndarray:
    """Validate a vector of class indices in [0, k); k=None skips the upper bound."""
    y = _as_int_vector(labels, "label vector")
    if y.size < 1:
        raise InvalidInputError("label vector is empty")
    if y.min() < 0:
        raise InvalidInputError(f"labels must be non-negative, got {y.min()}")
    if k is not None and y.max() >= k:
        raise InvalidInputError(f"labels must lie in [0, {k}), got values up to {y.max()}")
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
    elif y.dtype == np.uint64 and y.size and y.max() > np.iinfo(np.int64).max:
        # the int64 cast would wrap these to negative numbers
        raise InvalidInputError(f"{what} must be below 2^63, got {int(y.max())}")
    return y.astype(np.int64, copy=False)


def _as_int(value, what: str) -> int:
    """value as an int: the scalar twin of ``_as_int_vector``."""
    a = _as_array(value, what, "iuf")
    if a.ndim:
        raise InvalidInputError(f"{what} must be one integer, got shape {a.shape}")
    try:
        return int(_as_int_vector(a.reshape(1), what)[0])
    except InvalidInputError:
        if a.dtype.kind != "f":  # an unsigned value beyond int64, already named
            raise
        raise InvalidInputError(f"{what} must be an integer, got {a.item()!r}") from None


def _class_count(*labels: np.ndarray) -> int:
    """K where no probability columns fix it: the largest checked label + 1."""
    return max(int(y.max()) for y in labels) + 1


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


def _class_split(y: np.ndarray, k: int, min_count: int, side: str):
    """Per-class row indices of labels in [0, k) and the class priors, their
    empirical frequencies."""
    idx = class_index_lists(y, k, min_count=min_count, side=side)
    counts = np.array([i.size for i in idx])
    return idx, counts / counts.sum()


# ---------------------------------------------------------------------------
# probability-based scores


def _clean_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The floored, renormalized rows of p, in q."""
    np.clip(p, PROB_FLOOR, None, out=q)
    return np.divide(q, q.sum(axis=1, keepdims=True), out=q)


def _neg_entropy_rows(q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise sum_j q_ij log q_ij of strictly positive rows (products in out)."""
    return np.sum(np.multiply(q, np.log(q, out=out), out=out), axis=1)


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise KL(p_i || q) for strictly positive p rows and q."""
    return np.sum(p * (np.log(p) - np.log(q)), axis=1)


def _is_pass(source: ProbabilityRows, labelled, k: int | None):
    """The row quantities and class sums of the checked rows of ``source``,
    from one read of its blocks.

    Returns ((negative entropies, argmaxes, IS), sums).  sums has, for each
    label vector in ``labelled`` (labels in [0, k)), its k x K class sums of
    the cleaned rows: the rows every score and the class alignment read.

    Row blocks hold about ``_IS_BLOCK`` entries; ``source`` may cut them
    anywhere, in order, at most that many rows each.  Each block is cleaned
    once for every quantity and added into every class sum in row order, bit
    for bit as ``np.add.at`` would add it, in two adds.  A plain fancy-index
    add is exact where its labels are distinct, so it adds each label's first
    row in the block, found from the block alone, with every other row sent
    to a spare row k.  One ``np.add.at`` on the flattened sums then adds the
    later rows, if any, entry by entry, in row order.
    """
    n, width = source.shape
    rows = _block_rows(width)
    # row 0 carries the running column sum: one in-order sum, whatever the blocks
    buf, prod = np.empty((1 + min(rows, n), width)), np.empty((min(rows, n), width))
    neg_entropy, predicted = np.empty(n), np.empty(n, dtype=np.intp)
    col_sum = np.zeros(width)
    sums = [np.zeros((k + 1, width)) for _ in labelled]  # row k is the spare
    offsets, at = np.arange(width), np.empty(k or 0, dtype=np.intp)
    for start, p in source.blocks(rows):
        stop = start + len(p)
        q = _clean_rows(p, buf[1:1 + len(p)])
        np.argmax(p, axis=1, out=predicted[start:stop])
        neg_entropy[start:stop] = _neg_entropy_rows(q, prod[:len(p)])
        buf[0] = col_sum
        col_sum = buf[:1 + len(p)].sum(axis=0)
        here = np.arange(len(p))
        for labels, s in zip(labelled, sums):
            # at[c] becomes the block's first row of label c: ufunc.at fixes
            # the order of repeated labels, where a fancy assignment does not
            y = labels[start:stop]
            at[y] = len(p)
            np.minimum.at(at, y, here)
            first = at[y] == here
            s[np.where(first, y, k)] += q
            rest = np.flatnonzero(~first)
            if rest.size:  # a 1-D index keeps np.add.at on its fast path
                np.add.at(s.reshape(-1), (y[rest, None] * width + offsets).ravel(),
                          q[rest].ravel())
    marginal = col_sum / n
    is_ = float(np.exp(np.mean(neg_entropy) - marginal @ np.log(marginal)))
    return (neg_entropy, predicted, is_), [s[:k] for s in sums]


def _block_rows(width: int) -> int:
    """Rows per block of ``width`` entries each: about ``_IS_BLOCK`` entries,
    which a block's passes over it find in cache."""
    return max(1, _IS_BLOCK // max(1, width))


def _is_classes(neg_entropy: np.ndarray, sums: np.ndarray, idx, priors: np.ndarray):
    """BCIS, WCIS and the per-class IS vector from the row pass's negative
    entropies, one label vector's k x K class sums of cleaned rows, and its
    classes' row indices and priors."""
    averages = sums / np.array([i.size for i in idx])[:, None]
    within = np.array([np.mean(neg_entropy[i]) for i in idx]) - _neg_entropy_rows(averages)
    between = priors @ _kl_rows(averages, priors @ averages)
    return float(np.exp(between)), float(np.exp(priors @ within)), np.exp(within)


def _accuracy(predicted: np.ndarray, y: np.ndarray, k: int) -> tuple[float, np.ndarray]:
    """Overall and per-class accuracy of labels y in [0, k) against each row's
    predicted class."""
    hits = predicted == y
    counts = np.bincount(y, minlength=k)
    per = np.divide(np.bincount(y, weights=hits, minlength=k), counts,
                    out=np.full(k, np.nan), where=counts > 0)
    return float(hits.mean()), per


def accuracy(probs, labels) -> tuple[float, np.ndarray]:
    """Fraction of rows whose argmax matches the conditioned label.

    Argmax ties break to the lowest class index.  Also returns the per-class
    vector; classes with no members get NaN.
    """
    rows = _probability_rows(probs)
    n, k = rows.shape
    y = as_label_vector(labels, k, n=n)
    predicted = np.concatenate([np.argmax(b, axis=1) for _, b in rows.blocks(_block_rows(k))])
    return _accuracy(predicted, y, k)


# ---------------------------------------------------------------------------
# feature-based scores


@dataclass(frozen=True, eq=False)
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


def class_conditional_stats(features, labels) -> ClassConditionalStats:
    """Estimate per-class and between-class Gaussian statistics from samples;
    the classes are 0 to the largest label."""
    x = as_feature_matrix(features)
    y = as_label_vector(labels, None, n=x.shape[0])
    idx, priors = _class_split(y, _class_count(y), 1, "")
    return _with_between(tuple(_estimate_gaussian(x[i]) for i in idx), priors)


def _between(means: np.ndarray, priors: np.ndarray) -> GaussianStats:
    """The Gaussian over the K x d class means, weighted by priors."""
    mu_b = priors @ means
    rows = np.sqrt(priors)[:, None] * (means - mu_b)
    return GaussianStats._from_rows(mu_b, rows)


def _with_between(per_class, priors: np.ndarray) -> ClassConditionalStats:
    """Add the Gaussian over class means, weighted by priors, to per-class stats."""
    return ClassConditionalStats(
        per_class, _between(np.stack([s.mean for s in per_class]), priors), priors)


def class_conditional_from_moments(means, covs, priors) -> ClassConditionalStats:
    """Build ClassConditionalStats from explicit per-class moments.

    Useful for population-level checks where the moments are known
    analytically rather than estimated from samples.
    """
    means = _as_finite(means, "means")[0]
    covs = _as_finite(covs, "covariances")[0]
    priors = _as_finite(priors, "priors")[0]
    if priors.ndim != 1 or means.ndim != 2 or means.shape[0] != priors.size:
        raise InvalidInputError(f"means must be a K x d matrix matching K priors, "
                                f"got means {means.shape} and priors {priors.shape}")
    k, d = means.shape
    if covs.shape != (k, d, d):
        raise InvalidInputError(f"covariances must be K x d x d matching means {means.shape}, "
                                f"got covariances {covs.shape}")
    if np.any(priors < 0) or abs(float(priors.sum()) - 1.0) > 1e-9:
        raise InvalidInputError("priors must be non-negative and sum to 1")
    per_class = tuple(GaussianStats(means[c], covs[c]) for c in range(k))
    return _with_between(per_class, priors)


def pooled_gaussian(stats: ClassConditionalStats) -> GaussianStats:
    """Pooled Gaussian via the law of total covariance, as stacked factors."""
    rows = np.vstack([stats.between.factor] + [
        np.sqrt(p) * s.factor for p, s in zip(stats.priors, stats.per_class)])
    return GaussianStats._from_rows(stats.between.mean, rows)


def _resolve_mapping(pairing, k: int | None = None) -> np.ndarray:
    """pairing (None, a ClassAssignment or a sequence) as a permutation of [0, k or its length)."""
    if pairing is None and k is not None:
        return np.arange(k, dtype=np.int64)
    mapping = _as_int_vector(getattr(pairing, "mapping", pairing), "pairing")
    k = mapping.size if k is None else k
    if mapping.size != k or not np.array_equal(np.sort(mapping), np.arange(k)):
        raise InvalidInputError(f"pairing must be a permutation of [0, {k})")
    return mapping


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


def _class_scores(rx: np.ndarray, real, gx: np.ndarray, points, *, means_only: bool = False):
    """(bcfid, wcfid, per-class vector) of each point (rows, (row indices, priors),
    mapping) on gx's rows ``rows`` (all if None) against the classes ``real`` of
    rx, its class c against real class mapping[c].  Each real class is estimated
    once, then each point's class paired with it; only their means are kept.
    With ``means_only`` each point gets (bcfid, None, None) from the class means
    alone, and no class's Gaussian is estimated."""
    ridx, rpriors = real
    if means_only:
        between = _between(np.stack([rx[i].mean(axis=0) for i in ridx]), rpriors)
        return [(frechet_distance(between, _between(np.stack(
            [gx[i if rows is None else rows[i]].mean(axis=0) for i in gidx]), gpriors)), None, None)
            for rows, (gidx, gpriors), _ in points]
    means = np.empty((1 + len(points), len(ridx), rx.shape[1]))  # real, then each point
    per = np.empty((len(points), len(ridx)))
    paired = [np.argsort(mapping) for _, _, mapping in points]  # real class -> point's class
    for c, i in enumerate(ridx):
        r = _estimate_gaussian(rx[i])
        means[0, c] = r.mean
        for j, ((rows, (gidx, _), _), to) in enumerate(zip(points, paired)):
            g = to[c]
            gen = _estimate_gaussian(gx[gidx[g] if rows is None else rows[gidx[g]]])
            means[1 + j, g] = gen.mean
            per[j, g] = frechet_distance(r, gen)
    between = _between(means[0], rpriors)
    return [(frechet_distance(between, _between(m, gpriors)), float(rpriors[mapping] @ p), p)
            for (_, (_, gpriors), mapping), m, p in zip(points, means[1:], per)]


# ---------------------------------------------------------------------------
# reporting


@dataclass(eq=False)
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

