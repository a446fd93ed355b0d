"""Seeded synthetic datasets: Gaussian mixtures, analytic counterexamples,
label noising, and staged mode collapse.

The Gaussian constructions (mixtures, the matched-moment pair, the tightness
case) are defined by their per-class Gaussians, ``GaussianStats`` built from
their moments, and drawn from them by one sampler, ``_draw``.

All randomness flows from one explicit seed, an integer in [0, 2^63), through
``rng_for``.  Independent pieces (collapse steps, sweep points) draw from
``rng_for(seed, index)`` so they are reproducible and order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError
from .gaussian import GaussianStats, _as_finite
from .metrics import (
    ClassConditionalStats,
    _as_int,
    _as_int_vector,
    _class_count,
    as_label_vector,
    class_conditional_from_moments,
    class_index_lists,
)


def _as_seed(seed, what: str = "seed") -> int:
    """seed as an integer in [0, 2^63) by the ``_as_int`` rule; an integer is
    taken exactly, so one beyond int64 fails on the range, by name."""
    exact = isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
    value = int(seed) if exact else _as_int(seed, what)
    if not 0 <= value < 2**63:
        raise InvalidInputError(f"{what} must be an integer in [0, 2^63), got {value}")
    return value


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """PCG64 generator of ``SeedSequence(seed, spawn_key=key)``: the one place a
    seed becomes a stream.  Each key follows the seed's integer rule."""
    key = tuple(_as_seed(x, f"key {i}") for i, x in enumerate(key))
    return np.random.default_rng(np.random.SeedSequence(_as_seed(seed), spawn_key=key))


# ---------------------------------------------------------------------------
# Gaussian mixtures


@dataclass(frozen=True, eq=False)
class MixtureSpec:
    """Per-class means, covariances (diagonal vectors accepted), and counts.
    Drawn from one ``GaussianStats`` per class: a non-PSD covariance raises NotPSDError."""

    means: np.ndarray
    covs: np.ndarray
    counts: np.ndarray
    seed: int = 0
    _population: tuple[GaussianStats, ...] = field(init=False, repr=False)

    def __post_init__(self):
        means = np.atleast_2d(_as_finite(self.means, "means")[0])
        if means.ndim != 2:
            raise InvalidInputError(f"means must be a K x d matrix, got shape {means.shape}")
        k, d = means.shape
        try:
            covs_in = list(self.covs)
        except TypeError:
            raise InvalidInputError("covs must be a sequence of covariances, one per class, "
                                    f"got {type(self.covs).__name__}") from None
        covs_in = [_as_finite(cov, f"covariance {c}")[0] for c, cov in enumerate(covs_in)]
        if len(covs_in) != k:
            raise InvalidInputError(f"expected {k} covariances, got {len(covs_in)}")
        covs = np.empty((k, d, d))
        for c, cov in enumerate(covs_in):
            if cov.ndim == 1:
                if cov.size != d:
                    raise InvalidInputError(f"diagonal covariance {c} has wrong length")
                cov = np.diag(cov)
            if cov.shape != (d, d):
                raise InvalidInputError(f"covariance {c} has shape {cov.shape}, expected ({d}, {d})")
            covs[c] = 0.5 * (cov + cov.T)
        counts = _as_int_vector(self.counts, "counts")
        if counts.shape != (k,) or np.any(counts < 2):
            raise InvalidInputError("each class needs a sample count >= 2")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covs", covs)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "_population", tuple(map(GaussianStats, means, covs)))


def _sigmas(sigma) -> np.ndarray:
    """sigma as 2 finite non-negative standard deviations."""
    s = _as_finite(sigma, "sigma")[0].reshape(-1)
    if s.size != 2 or np.any(s < 0):
        raise InvalidInputError(f"sigma must be 2 non-negative real(s), got {s.tolist()}")
    return s


def _as_number(value, what: str) -> float:
    """value as one finite float: the scalar twin of ``_as_finite``."""
    a = _as_finite(value, what)[0]
    if a.ndim:
        raise InvalidInputError(f"{what} must be one number, got shape {a.shape}")
    return float(a)


def _draw(rng: np.random.Generator, per_class, counts) -> tuple[np.ndarray, np.ndarray]:
    """Class-blocked rows z F_c + mu_c (z standard normal from rng, mu_c and F_c
    the mean and factor of per_class[c]), counts[c] of class c, and their labels."""
    features = np.concatenate([rng.standard_normal((n, g.factor.shape[0])) @ g.factor + g.mean
                               for g, n in zip(per_class, counts)], axis=0)
    return features, np.repeat(np.arange(len(counts), dtype=np.int64), counts)


def gen_mixture(spec: MixtureSpec) -> tuple[np.ndarray, np.ndarray]:
    """Draw the mixture: class-blocked features and matching labels."""
    return _draw(rng_for(spec.seed), spec._population, spec.counts)


# ---------------------------------------------------------------------------
# analytic constructions


class LabeledPair(NamedTuple):
    real_features: np.ndarray
    real_labels: np.ndarray
    gen_features: np.ndarray
    gen_labels: np.ndarray


# (means, covariances) of mixtures A and B of the matched-moment pair
_MATCHED = (
    (np.array([[-1.0, 0.0], [1.0, 0.0]]), [np.diag([1.0, 1.0]), np.diag([1.0, 3.0])]),
    (np.array([[0.0, -1.0], [0.0, 1.0]]), [np.diag([2.0, 1.0]), np.diag([2.0, 1.0])]),
)


def _draw_pair(seed: int, n_per_class: int, sides) -> LabeledPair:
    """Both sides of a two-class construction, side i from its population by
    ``rng_for(seed, i)``.  Lazy ``sides`` are built in turn, after n_per_class."""
    n_per_class = _as_int(n_per_class, "n_per_class")
    if n_per_class < 2:
        raise InvalidInputError("n_per_class must be >= 2")
    (rx, ry), (gx, gy) = (_draw(rng_for(seed, i), population.per_class, (n_per_class,) * 2)
                          for i, population in enumerate(sides))
    return LabeledPair(rx, ry, gx, gy)


def matched_moments_population() -> tuple[ClassConditionalStats, ClassConditionalStats]:
    """Population statistics of the matched-moment pair.

    Both mixtures have mean (0, 0) and covariance diag(2, 2), so their
    unconditional Fréchet distance is zero even though every per-class
    statistic differs.
    """
    return tuple(class_conditional_from_moments(means, covs, np.full(2, 0.5))
                 for means, covs in _MATCHED)


def gen_matched_moments(seed: int, n_per_class: int) -> LabeledPair:
    """Sample the matched-moment pair (A as 'real', B as 'generated') from its population."""
    return _draw_pair(seed, n_per_class, matched_moments_population())


def tightness_population(sigma) -> ClassConditionalStats:
    """Population statistics of one side of the bound-tightness construction."""
    s = _sigmas(sigma)
    return class_conditional_from_moments(
        np.ones((2, 2)), [np.diag([0.0, s[0] ** 2]), np.diag([s[1] ** 2, 0.0])], np.full(2, 0.5))


def gen_tightness_case(
    sigma_real, sigma_gen, n_per_class: int, seed: int
) -> LabeledPair:
    """Sample the construction where fid = bcfid + wcfid holds with equality.

    Drawn from ``tightness_population``: class 0 rows are
    (1, 1 + eps), class 1 rows are (1 + eps, 1), with eps zero-mean normal of
    the per-class sigma and the constant coordinate exactly 1.  All class
    means are (1, 1), so the between-class part vanishes and the within-class
    part carries the whole distance.
    """
    return _draw_pair(seed, n_per_class,
                      (tightness_population(sigma) for sigma in (sigma_real, sigma_gen)))


# ---------------------------------------------------------------------------
# degradations


def label_noise(labels, p: float, seed: int) -> np.ndarray:
    """Randomly permute the labels of a floor(p*N)-sized subset.

    Permuting (rather than resampling) preserves the label multiset exactly,
    so per-class counts never change.  p=0 is the identity; p=1 permutes all.
    """
    return _label_noise(as_label_vector(labels, None), _as_number(p, "noise fraction"), seed)


def _label_noise(y: np.ndarray, p: float, seed: int) -> np.ndarray:
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError(f"noise fraction must be in [0, 1], got {p}")
    n_sel = int(math.floor(p * y.size))
    if n_sel < 2:
        return y.copy()
    rng = rng_for(seed)
    idx = rng.choice(y.size, size=n_sel, replace=False)
    out = y.copy()
    out[idx] = out[idx][rng.permutation(n_sel)]
    return out


@dataclass(frozen=True)
class CollapseSchedule:
    """Staged shrinking of per-class sample pools to simulate mode collapse."""

    steps: int = 11
    shrink_factor: float = 2.0 / 3.0
    per_class_sample: int = 100
    collapsed_classes: tuple[int, ...] = (0,)

    def __post_init__(self):
        for name in ("steps", "per_class_sample"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        object.__setattr__(self, "shrink_factor", _as_number(self.shrink_factor, "shrink_factor"))
        if self.steps < 1:
            raise InvalidInputError("steps must be >= 1")
        if not 0.0 < self.shrink_factor < 1.0:
            raise InvalidInputError("shrink_factor must be in (0, 1)")
        if self.per_class_sample < 1:
            raise InvalidInputError("per_class_sample must be >= 1")
        classes = tuple(_as_int_vector(self.collapsed_classes, "collapsed_classes").tolist())
        if len(set(classes)) != len(classes) or min(classes, default=0) < 0:
            raise InvalidInputError(f"collapsed_classes must be distinct and >= 0, got {classes}")
        object.__setattr__(self, "collapsed_classes", classes)


def collapse_pool_sizes(initial: int, schedule: CollapseSchedule) -> list[int]:
    """Deterministic collapsed-pool size per step: ceil(shrink * previous)."""
    sizes = [int(initial)]
    for _ in range(schedule.steps - 1):
        sizes.append(math.ceil(schedule.shrink_factor * sizes[-1]))
    return sizes


def mode_collapse_indices(labels, schedule: CollapseSchedule, seed: int) -> list[np.ndarray]:
    """Row indices of each step's emitted dataset; the classes are 0 to the
    largest label.

    Step 0 draws from the full pools.  Before each later step, every collapsed
    class's pool is subsampled (without replacement) to ceil(shrink * size).
    Each step then draws ``per_class_sample`` rows per class from the current
    pool, switching to with-replacement once a pool is smaller than the draw.
    """
    y = as_label_vector(labels, None)
    return _mode_collapse_indices(y, _class_count(y), schedule, seed)


def _mode_collapse_indices(y: np.ndarray, k: int, schedule: CollapseSchedule, seed: int):
    if not isinstance(schedule, CollapseSchedule):
        raise InvalidInputError(
            f"schedule must be a CollapseSchedule, got {type(schedule).__name__}")
    for c in schedule.collapsed_classes:
        if not 0 <= c < k:
            raise InvalidInputError(f"collapsed class {c} outside [0, {k})")
    pools = class_index_lists(y, k)
    steps = []
    for step in range(schedule.steps):
        rng = rng_for(seed, step)
        if step > 0:
            for c in schedule.collapsed_classes:
                size = math.ceil(schedule.shrink_factor * pools[c].size)
                pools[c] = np.sort(rng.choice(pools[c], size=size, replace=False))
        picks = []
        for c in range(k):
            pool = pools[c]
            replace = pool.size < schedule.per_class_sample
            picks.append(rng.choice(pool, size=schedule.per_class_sample, replace=replace))
        steps.append(np.concatenate(picks))
    return steps


def dirichlet_rows(alpha, n: int, seed: int) -> np.ndarray:
    """n seeded Dirichlet(alpha) rows; valid probability rows by construction."""
    a = _as_finite(alpha, "alpha")[0].reshape(-1)
    if a.size < 2 or np.any(a <= 0):
        raise InvalidInputError("alpha must have length >= 2 with positive entries")
    n = _as_int(n, "n")
    if n < 1:
        raise InvalidInputError("n must be >= 1")
    return rng_for(seed).dirichlet(a, size=n)
