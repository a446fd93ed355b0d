import numpy as np
import pytest

from condmetrics import (
    CollapseSchedule,
    InvalidInputError,
    MixtureSpec,
    NotPSDError,
    accuracy,
    bcis,
    dirichlet_rows,
    gen_matched_moments,
    gen_mixture,
    gen_tightness_case,
    inception_score,
    label_noise,
    matched_moments_population,
    mode_collapse_indices,
    pooled_gaussian,
    sweep_mode_collapse,
    tightness_population,
    wcis,
)
from condmetrics.synth import rng_for


class TestGenMixture:
    def test_zero_covariance_collapses_to_means(self):
        spec = MixtureSpec(
            [[1.0, 2.0], [3.0, 4.0]], [np.zeros((2, 2)), np.zeros(2)], [5, 5], seed=1)
        x, y = gen_mixture(spec)
        assert np.allclose(x[y == 0], [1.0, 2.0])
        assert np.allclose(x[y == 1], [3.0, 4.0])

    def test_moment_convergence(self):
        n = 40_000
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        spec = MixtureSpec([[1.0, -1.0]], [cov], [n], seed=2)
        x, _ = gen_mixture(spec)
        scale = 3.0 / np.sqrt(n)
        assert np.all(np.abs(x.mean(axis=0) - [1.0, -1.0]) < scale * 2.0)
        emp = np.cov(x, rowvar=False)
        assert np.all(np.abs(emp - cov) < scale * 6.0)

    def test_seeded_reproducibility(self):
        spec = MixtureSpec([[0.0], [5.0]], [np.ones(1), np.ones(1)], [10, 10], seed=3)
        x1, y1 = gen_mixture(spec)
        x2, y2 = gen_mixture(spec)
        assert np.array_equal(x1, x2)
        assert np.array_equal(y1, y2)

    def test_non_psd_covariance_rejected(self):
        with pytest.raises(NotPSDError, match=r"^covariance has eigenvalue -1\.0+e\+00 below"):
            MixtureSpec([[0.0, 0.0]], [np.diag([1.0, -1.0])], [5], seed=0)

    def test_tiny_counts_rejected(self):
        with pytest.raises(InvalidInputError):
            MixtureSpec([[0.0]], [np.ones(1)], [1], seed=0)


class TestMatchedMoments:
    def test_population_moments_match_exactly(self):
        a, b = matched_moments_population()
        pa, pb = pooled_gaussian(a), pooled_gaussian(b)
        assert np.array_equal(pa.mean, pb.mean)
        assert np.allclose(pa.cov, np.diag([2.0, 2.0]), atol=1e-15)
        assert np.allclose(pb.cov, np.diag([2.0, 2.0]), atol=1e-15)
        # per-class statistics differ even though the pooled ones agree
        assert not np.allclose(a.per_class[0].mean, b.per_class[0].mean)
        assert not np.allclose(a.per_class[1].cov, b.per_class[1].cov)

    def test_sampled_shapes_and_determinism(self):
        pair1 = gen_matched_moments(seed=6, n_per_class=50)
        pair2 = gen_matched_moments(seed=6, n_per_class=50)
        assert pair1.real_features.shape == (100, 2)
        assert np.array_equal(pair1.real_features, pair2.real_features)
        assert np.array_equal(pair1.gen_features, pair2.gen_features)
        assert not np.array_equal(pair1.real_features, pair1.gen_features)


class TestTightnessCase:
    def test_equal_sigmas_population_distance_zero(self):
        from condmetrics import bcfid_from_stats, frechet_distance, wcfid_from_stats

        r = tightness_population([1.0, 2.0])
        g = tightness_population([1.0, 2.0])
        assert frechet_distance(pooled_gaussian(r), pooled_gaussian(g)) == 0.0
        assert bcfid_from_stats(r, g) == 0.0
        assert wcfid_from_stats(r, g)[0] == 0.0

    def test_sampled_structure(self):
        pair = gen_tightness_case([1.0, 2.0], [2.0, 1.0], n_per_class=20, seed=7)
        # class 0 keeps the first axis pinned at 1, class 1 the second axis
        assert np.all(pair.real_features[:20, 0] == 1.0)
        assert np.all(pair.real_features[20:, 1] == 1.0)
        assert np.array_equal(pair.real_labels, np.repeat([0, 1], 20))

    def test_constant_coordinates_are_exact(self):
        # drawn from the population moments, the zero-variance coordinates
        # stay exactly 1 on both sides, and a zero-sigma side is all ones
        pair = gen_tightness_case([0.0, 0.0], [2.0, 0.5], n_per_class=25, seed=11)
        assert np.all(pair.real_features == 1.0)
        gen = pair.gen_features
        assert np.all(gen[:25, 0] == 1.0) and np.all(gen[25:, 1] == 1.0)
        assert np.all(gen[:25, 1] != 1.0) and np.all(gen[25:, 0] != 1.0)


class TestLabelNoise:
    def test_zero_noise_is_identity(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        assert np.array_equal(label_noise(labels, 0.0, seed=1), labels)

    def test_multiset_preserved(self):
        rng = rng_for(8)
        labels = rng.integers(0, 7, 500).astype(np.int64)
        for p in (0.1, 0.4, 0.9, 1.0):
            noised = label_noise(labels, p, seed=11)
            assert np.array_equal(np.bincount(noised, minlength=7),
                                  np.bincount(labels, minlength=7))

    def test_full_noise_trends(self):
        k, per_class = 10, 400
        probs = np.repeat(np.eye(k), per_class, axis=0)
        labels = np.repeat(np.arange(k), per_class)
        noised = label_noise(labels, 1.0, seed=12)
        overall, _ = accuracy(probs, noised)
        assert overall == pytest.approx(1.0 / k, abs=0.03)
        assert bcis(probs, noised) == pytest.approx(1.0, abs=0.05)
        assert wcis(probs, noised) == pytest.approx(inception_score(probs), rel=0.05)

    def test_integral_float_labels_equal_integer_labels(self):
        labels = rng_for(13).integers(0, 5, 200)
        for p in (0.0, 0.3, 1.0):
            assert np.array_equal(label_noise(labels.astype(np.float64), p, seed=14),
                                  label_noise(labels, p, seed=14))

    def test_negative_labels_rejected(self):
        with pytest.raises(InvalidInputError, match="non-negative"):
            label_noise(np.array([0, -1, 1]), 0.5, seed=0)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(InvalidInputError):
            label_noise(np.array([0, 1]), 1.5, seed=0)


class TestModeCollapse:
    @staticmethod
    def _dataset(n_per_class=300, k=3, seed=9):
        spec = MixtureSpec(
            np.arange(k * 2, dtype=float).reshape(k, 2) * 3.0,
            [np.eye(2)] * k, [n_per_class] * k, seed=seed)
        return gen_mixture(spec)

    def test_single_step_counts(self):
        x, y = self._dataset()
        schedule = CollapseSchedule(steps=1, per_class_sample=50, collapsed_classes=(0,))
        runs = [(x[i], y[i]) for i in mode_collapse_indices(y, schedule, seed=1)]
        assert len(runs) == 1
        fx, fy = runs[0]
        assert fx.shape == (150, 2)
        assert np.array_equal(np.bincount(fy), [50, 50, 50])

    def test_every_step_emits_exact_per_class_counts(self):
        _, y = self._dataset()
        schedule = CollapseSchedule(steps=6, per_class_sample=40, collapsed_classes=(1,))
        for idx in mode_collapse_indices(y, schedule, seed=2):
            assert np.array_equal(np.bincount(y[idx], minlength=3), [40, 40, 40])

    def test_pool_shrinks_monotonically_below_two_percent(self):
        from condmetrics.synth import collapse_pool_sizes

        schedule = CollapseSchedule(steps=11, collapsed_classes=(0,))
        sizes = collapse_pool_sizes(1000, schedule)
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] / sizes[0] < 0.02
        # the default schedule factor matches the headline (2/3)^10 < 2%
        assert (2.0 / 3.0) ** 10 < 0.02

        y = np.repeat(np.arange(2), 1000)
        steps = mode_collapse_indices(y, schedule, seed=3)
        class0 = np.flatnonzero(y == 0)
        # the final emitted class-0 draw comes from a pool of sizes[-1] rows
        final = steps[-1][:100]
        assert np.all(np.isin(final, class0))
        assert len(np.unique(final)) <= sizes[-1]

    def test_with_replacement_when_pool_small(self):
        x, y = self._dataset(n_per_class=30)
        schedule = CollapseSchedule(steps=8, per_class_sample=25, collapsed_classes=(0,))
        runs = [(x[i], y[i]) for i in mode_collapse_indices(y, schedule, seed=4)]
        fx, fy = runs[-1]
        # pool shrank below 25, so the draw must repeat rows
        class0 = fx[fy == 0]
        assert len(np.unique(class0, axis=0)) < 25

    def test_pools_are_the_ascending_rows_of_each_class(self):
        # one step, every pool smaller than the draw: the draw sees each pool
        # in ascending row order, as np.flatnonzero(labels == c) lists it
        y = rng_for(15).permutation(np.repeat(np.arange(3), [4, 5, 6]))
        schedule = CollapseSchedule(steps=1, per_class_sample=7)
        (step,) = mode_collapse_indices(y, schedule, seed=16)
        rng = rng_for(16, 0)
        expected = [rng.choice(np.flatnonzero(y == c), size=7, replace=True) for c in range(3)]
        assert np.array_equal(step, np.concatenate(expected))

    def test_empty_class_and_length_mismatch_rejected(self):
        y = np.array([0, 0, 2, 2])
        with pytest.raises(InvalidInputError, match="class 1 has no samples"):
            mode_collapse_indices(y, CollapseSchedule(collapsed_classes=(2,)), seed=0)
        with pytest.raises(InvalidInputError, match="label count 4 does not match row count 3"):
            sweep_mode_collapse(real_features=np.zeros((4, 2)), real_labels=y,
                                gen_features=np.zeros((3, 2)), gen_labels=y,
                                schedule=CollapseSchedule())

    def test_missing_collapsed_class_rejected(self):
        y = np.repeat(np.arange(2), 10)
        schedule = CollapseSchedule(collapsed_classes=(5,))
        with pytest.raises(InvalidInputError):
            mode_collapse_indices(y, schedule, seed=0)

    @pytest.mark.parametrize("classes", [(0, 0), (1, 0, 1), (-1,), (0, -2)],
                             ids=["repeated", "repeated-later", "negative", "negative-later"])
    def test_repeated_or_negative_collapsed_classes_rejected(self, classes):
        with pytest.raises(InvalidInputError, match="distinct and >= 0"):
            CollapseSchedule(collapsed_classes=classes)


class TestDirichletRows:
    def test_rows_sum_to_one(self):
        rows = dirichlet_rows([0.5, 1.5, 3.0], 200, seed=13)
        assert np.all(np.abs(rows.sum(axis=1) - 1.0) < 1e-9)

    def test_large_alpha_approaches_uniform(self):
        rows = dirichlet_rows([1e6] * 4, 50, seed=14)
        assert np.all(np.abs(rows - 0.25) < 0.01)

    def test_seeded_reproducibility(self):
        a = dirichlet_rows([1.0, 2.0], 20, seed=15)
        b = dirichlet_rows([1.0, 2.0], 20, seed=15)
        assert np.array_equal(a, b)

    def test_rejects_bad_alpha(self):
        with pytest.raises(InvalidInputError):
            dirichlet_rows([1.0, 0.0], 5, seed=0)


class TestRngDerivation:
    def test_distinct_keys_distinct_streams(self):
        a = rng_for(1, 0).standard_normal(4)
        b = rng_for(1, 1).standard_normal(4)
        c = rng_for(1, 0).standard_normal(4)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)
