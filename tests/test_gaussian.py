import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgWarning, sqrtm

from condmetrics import (
    GaussianStats,
    InvalidInputError,
    NotPSDError,
    estimate_gaussian,
    frechet_distance,
    frechet_distance_raw,
)
from condmetrics.gaussian import as_feature_matrix
from condmetrics.synth import rng_for


def random_stats(rng, d, scale=1.0):
    b = rng.normal(0.0, scale, (d, d))
    return GaussianStats(rng.normal(0.0, scale, d), b @ b.T)


def diagonal_frechet(mu1, var1, mu2, var2):
    # closed form for commuting (diagonal) covariances
    mu1, mu2 = np.asarray(mu1, float), np.asarray(mu2, float)
    var1, var2 = np.asarray(var1, float), np.asarray(var2, float)
    return float(np.sum((mu1 - mu2) ** 2) + np.sum((np.sqrt(var1) - np.sqrt(var2)) ** 2))


class TestAsFeatureMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_are_rejected(self, bad):
        x = np.ones((5, 3))
        x[3, 1] = bad
        with pytest.raises(InvalidInputError, match="feature matrix contains non-finite entries"):
            as_feature_matrix(x)

    def test_finiteness_check_allocates_no_matrix_sized_temporary(self):
        x = np.zeros((20000, 1024))  # 164 MB of untouched pages; reading them maps no memory
        tracemalloc.start()
        try:
            assert as_feature_matrix(x) is x
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestEstimateGaussian:
    def test_single_row_zero_covariance(self):
        stats = estimate_gaussian([[3.0, 5.0]])
        assert np.array_equal(stats.mean, [3.0, 5.0])
        assert np.array_equal(stats.cov, np.zeros((2, 2)))

    def test_two_rows_population_covariance(self):
        stats = estimate_gaussian([[0.0, 0.0], [2.0, 0.0]])
        assert np.array_equal(stats.mean, [1.0, 0.0])
        # population divisor: var = ((0-1)^2 + (2-1)^2) / 2 = 1
        assert np.allclose(stats.cov, np.diag([1.0, 0.0]), atol=0)

    def test_seeded_standard_normal_moments(self):
        rng = np.random.default_rng(20240101)
        x = rng.standard_normal((10_000, 2))
        stats = estimate_gaussian(x)
        assert np.all(np.abs(stats.mean) < 0.05)
        assert np.all(np.abs(stats.cov - np.eye(2)) < 0.1)

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidInputError):
            estimate_gaussian(np.empty((0, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            estimate_gaussian([[1.0, np.nan]])


class TestFrechetDistance:
    def test_identical_stats(self):
        rng = np.random.default_rng(11)
        s = random_stats(rng, 4)
        assert frechet_distance(s, s) <= 1e-9

    def test_one_dimensional_closed_form(self):
        a = GaussianStats([0.0], [[1.0]])
        b = GaussianStats([1.0], [[1.0]])
        assert frechet_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_two_dimensional_diagonal(self):
        a = GaussianStats([0.0, 0.0], np.diag([1.0, 4.0]))
        b = GaussianStats([0.0, 0.0], np.diag([4.0, 1.0]))
        expected = diagonal_frechet([0, 0], [1, 4], [0, 0], [4, 1])
        assert expected == 2.0
        assert frechet_distance(a, b) == pytest.approx(2.0, abs=1e-9)

    def test_dimension_mismatch(self):
        a = GaussianStats([0.0], [[1.0]])
        b = GaussianStats([0.0, 0.0], np.eye(2))
        with pytest.raises(InvalidInputError):
            frechet_distance(a, b)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_nonnegativity(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 7))
        a = random_stats(rng, d, scale=rng.uniform(0.2, 3.0))
        b = random_stats(rng, d, scale=rng.uniform(0.2, 3.0))
        ab = frechet_distance(a, b)
        ba = frechet_distance(b, a)
        assert abs(ab - ba) <= 1e-8
        assert ab >= 0.0
        assert frechet_distance_raw(a, b) >= -1e-6
        assert frechet_distance_raw(a, a) >= -1e-6
        assert frechet_distance(a, a) <= 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_diagonal_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 9))
        mu1, mu2 = rng.normal(0, 2, d), rng.normal(0, 2, d)
        v1, v2 = rng.uniform(0.0, 5.0, d), rng.uniform(0.0, 5.0, d)
        a = GaussianStats(mu1, np.diag(v1))
        b = GaussianStats(mu2, np.diag(v2))
        assert frechet_distance(a, b) == pytest.approx(
            diagonal_frechet(mu1, v1, mu2, v2), abs=1e-9)


class TestGaussianStats:
    def test_cov_symmetrized_exactly(self):
        cov = np.array([[1.0, 0.3 + 1e-12], [0.3, 1.0]])
        s = GaussianStats([0.0, 0.0], cov)
        assert np.array_equal(s.cov, s.cov.T)

    def test_non_psd_covariance_rejected(self):
        with pytest.raises(NotPSDError):
            GaussianStats([0.0, 0.0], np.diag([1.0, -1.0]))

    def test_roundoff_negative_eigenvalue_clamped(self):
        # within the floor: clamped to zero instead of raising
        s = GaussianStats([0.0, 0.0], np.diag([1.0, -1e-12]))
        assert s.cov[1, 1] == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            GaussianStats([0.0, 0.0], np.eye(3))

    def test_explicit_covariance_takes_one_eigh_and_no_root(self, monkeypatch):
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        b = rng_for(31).standard_normal((6, 6))
        GaussianStats(np.zeros(6), b @ b.T)
        assert len(calls) == 1

    @pytest.mark.parametrize("d", [1, 5, 40])
    def test_cov_equals_the_symmetrized_input(self, d):
        b = rng_for(32, d).standard_normal((d, d + 3))
        cov = b @ b.T
        cov[0, -1] += 1e-13  # asymmetric within round-off
        sym = 0.5 * (cov + cov.T)
        s = GaussianStats(np.ones(d), cov)
        assert np.abs(s.cov - sym).max() <= 1e-12 * np.trace(sym)


def covariance_frechet(mean_a, cov_a, mean_b, cov_b):
    # reference: the Fréchet distance from d x d covariances, through scipy's
    # principal square roots of both and the SVD of their product; sample
    # covariances with n <= d are singular, which scipy warns of
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        a_half, b_half = sqrtm(cov_a).real, sqrtm(cov_b).real
    delta = mean_a - mean_b
    cross = np.linalg.svd(a_half @ b_half, compute_uv=False).sum()
    return float(delta @ delta + np.trace(cov_a) + np.trace(cov_b) - 2.0 * cross)


def covariance_moments(x):
    # reference: mean and d x d population covariance of sample rows
    mean = x.mean(axis=0)
    centred = x - mean
    cov = centred.T @ centred / x.shape[0]
    return mean, 0.5 * (cov + cov.T)


def feature_sample(rng, n, d, kind):
    x = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0, d) + rng.normal(0.0, 1.0, d)
    if kind == "constant":
        x[:, 0] = 3.0
        x[:, -1] = -1.5
    elif kind == "duplicated":
        x[:, 1] = x[:, 0]
        x[:, 2] = 2.0 * x[:, 0]
    elif kind == "offset":
        x = x - x.mean(axis=0) + 1e8 + rng.standard_normal(d)
    return x


class TestFactorKernel:
    """The factor kernel against the covariance formula and closed forms."""

    # Both sides share n whenever n < d: when a singular covariance meets one
    # of higher rank, the covariance formula's square roots keep sqrt(eps)-sized
    # eigenvalues and it is itself only good to ~1e-9 (those pairs are
    # checked against the Gram-space reference below instead).
    @pytest.mark.parametrize("kind", ["plain", "constant", "duplicated", "offset"])
    @pytest.mark.parametrize("na,nb,d", [
        (5, 5, 12),      # n < d
        (50, 50, 256),   # n < d
        (12, 12, 12),    # n = d
        (40, 60, 6),     # n > d
        (1, 1, 7),       # one row per side: zero covariances
        (1, 30, 7),      # n = 1 against n > d
    ])
    def test_sample_pairs_match_covariance_formula(self, kind, na, nb, d):
        rng = np.random.default_rng([na, nb, d, len(kind)])
        for _ in range(3):
            xa, xb = feature_sample(rng, na, d, kind), feature_sample(rng, nb, d, kind)
            new = frechet_distance_raw(estimate_gaussian(xa), estimate_gaussian(xb))
            reference = covariance_frechet(*covariance_moments(xa), *covariance_moments(xb))
            assert new == pytest.approx(reference, rel=1e-10)

    # n > d, so the sample covariance (rank n - 1 after centring) is as
    # regular as the explicit one
    @pytest.mark.parametrize("kind", ["plain", "constant", "offset"])
    @pytest.mark.parametrize("n,d", [(9, 8), (40, 6), (300, 32)])
    def test_mixed_pairs_match_covariance_formula(self, kind, n, d):
        rng = np.random.default_rng([n, d, len(kind)])
        for _ in range(3):
            x = feature_sample(rng, n, d, kind)
            b = rng.standard_normal((d, d))
            cov = b @ b.T / d
            if kind == "constant":  # share the sample side's null space
                cov[[0, -1], :] = cov[:, [0, -1]] = 0.0
            mean = rng.normal(0.0, 1.0, d) + (1e8 if kind == "offset" else 0.0)
            explicit = GaussianStats(mean, cov)
            reference = covariance_frechet(*covariance_moments(x), mean, cov)
            assert frechet_distance_raw(estimate_gaussian(x), explicit) == pytest.approx(
                reference, rel=1e-10)
            assert frechet_distance_raw(explicit, estimate_gaussian(x)) == pytest.approx(
                reference, rel=1e-10)

    @pytest.mark.parametrize("na,nb,d", [(5, 40, 12), (3, 8, 12), (11, 3, 12), (2, 500, 64)])
    def test_unequal_ranks_match_gram_space_reference(self, na, nb, d):
        # cross term = ||Xa Xb^T||_* / sqrt(na nb) on the centred samples
        rng = np.random.default_rng([na, nb, d])
        for _ in range(3):
            xa, xb = feature_sample(rng, na, d, "plain"), feature_sample(rng, nb, d, "plain")
            ca, cb = xa - xa.mean(axis=0), xb - xb.mean(axis=0)
            delta = xa.mean(axis=0) - xb.mean(axis=0)
            cross = np.linalg.svd(ca @ cb.T, compute_uv=False).sum() / np.sqrt(na * nb)
            reference = (delta @ delta + np.sum(ca * ca) / na + np.sum(cb * cb) / nb
                         - 2.0 * cross)
            new = frechet_distance_raw(estimate_gaussian(xa), estimate_gaussian(xb))
            assert new == pytest.approx(reference, rel=1e-10)

    @pytest.mark.parametrize("n,d", [(5, 12), (12, 12), (40, 6)])
    def test_sample_against_explicit_diagonal_closed_form(self, n, d):
        # with Sb = diag(s^2): cross term = ||Xc diag(s)||_* / sqrt(n)
        rng = np.random.default_rng([n, d])
        x = feature_sample(rng, n, d, "plain")
        s = rng.uniform(0.1, 3.0, d)
        mean = rng.normal(0.0, 1.0, d)
        centred = x - x.mean(axis=0)
        delta = x.mean(axis=0) - mean
        cross = np.linalg.svd(centred * s, compute_uv=False).sum() / np.sqrt(n)
        reference = delta @ delta + np.sum(centred * centred) / n + s @ s - 2.0 * cross
        got = frechet_distance_raw(estimate_gaussian(x), GaussianStats(mean, np.diag(s * s)))
        assert got == pytest.approx(reference, rel=1e-10)

    @pytest.mark.parametrize("n,d", [(1, 4), (5, 12), (12, 12), (40, 6)])
    def test_sample_factor_is_small_and_reproduces_covariance(self, n, d):
        x = feature_sample(np.random.default_rng([n, d]), n, d, "plain")
        stats = estimate_gaussian(x)
        assert stats.factor.shape == (min(n, d), d)
        assert np.allclose(stats.cov, covariance_moments(x)[1], rtol=0, atol=1e-12 * d)


def with_qr_factor(stats):
    # the same Gaussian held as the triangular QR factor of its rows
    twin = GaussianStats.__new__(GaussianStats)
    twin.__dict__.update(mean=stats.mean, factor=np.linalg.qr(stats.factor, mode="r"))
    return twin


def qr_estimate(x):
    # the sample estimate as a QR of its centred rows over sqrt(n), whatever n is
    rows = GaussianStats.__new__(GaussianStats)
    mean = x.mean(axis=0)
    rows.__dict__.update(mean=mean, factor=(x - mean) / np.sqrt(len(x)))
    return with_qr_factor(rows)


def spectrum_sample(rng, n, d, cond):
    # rows of a Gaussian whose covariance has log-spaced eigenvalues 1 .. 1/cond
    # along random directions
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    scale = np.sqrt(np.logspace(0.0, -np.log10(cond), d))
    return (rng.standard_normal((n, d)) * scale) @ q.T + rng.normal(0.0, 1.0, d)


def trace(stats):
    return float(np.vdot(stats.factor, stats.factor))


def power_law_sample(rng, n, d, power, constant):
    # rows of a Gaussian whose covariance has eigenvalues i^-power along random
    # directions, with two constant columns if asked
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    x = (rng.standard_normal((n, d)) * np.arange(1.0, d + 1) ** (-power / 2)) @ q.T
    if constant:
        x[:, 0], x[:, -1] = 3.0, -1.5
    return x


def assert_matches_qr_twins(xa, xb):
    a, b = estimate_gaussian(xa), estimate_gaussian(xb)
    qa, qb = qr_estimate(xa), qr_estimate(xb)
    d = xa.shape[1]
    assert a.factor.shape == b.factor.shape == (d, d)
    scale = 1e-12 * (trace(qa) + trace(qb))
    want = frechet_distance_raw(qa, qb)
    assert abs(frechet_distance_raw(a, b) - want) <= scale
    assert abs(frechet_distance_raw(a, qb) - want) <= scale
    assert abs(frechet_distance_raw(a, a)) <= 1e-12 * trace(a)
    assert np.allclose(a.cov, qa.cov, rtol=0, atol=scale)


class TestGramFactor:
    """Estimates of more than d rows against their QR twins."""

    # (50, 50, 32): a class of the classes benchmark; (128, 128, 64): the
    # discovery sweep's class means; (9000, 4100, 8): both sides span several
    # accumulation blocks
    @pytest.mark.parametrize("kind", ["plain", "constant", "duplicated", "offset", 1e8, 1e12])
    @pytest.mark.parametrize("na,nb,d", [(48, 60, 12), (300, 200, 32), (9000, 4100, 8),
                                         (50, 50, 32), (128, 128, 64)])
    def test_distances_match_the_qr_factor(self, kind, na, nb, d):
        rng = np.random.default_rng([na, nb, d, 3])
        for _ in range(3):
            if isinstance(kind, str):
                xa, xb = feature_sample(rng, na, d, kind), feature_sample(rng, nb, d, kind)
            else:
                xa, xb = spectrum_sample(rng, na, d, kind), spectrum_sample(rng, nb, d, kind)
            assert_matches_qr_twins(xa, xb)

    # n = 8d, eigenvalues i^-2 to i^-4: forming the Gram matrix squares their
    # condition number
    @pytest.mark.parametrize("constant", [False, True], ids=["varying", "constant"])
    @pytest.mark.parametrize("power", [2, 3, 4])
    @pytest.mark.parametrize("d", [256, 512])
    def test_power_law_spectra_match_the_qr_factor(self, d, power, constant):
        rng = np.random.default_rng([d, power, int(constant)])
        assert_matches_qr_twins(power_law_sample(rng, 8 * d, d, power, constant),
                                power_law_sample(rng, 8 * d, d, power, constant))

    def test_rows_of_the_class_means_match_the_qr_factor(self):
        # K = 40 class means at d = 8: the between-class and pooled Gaussians
        # take the Gram path through _from_rows
        from condmetrics import class_conditional_stats, pooled_gaussian

        k, d = 40, 8
        rng = np.random.default_rng(4)
        y = np.repeat(np.arange(k), 3)
        x = rng.standard_normal((y.size, d)) + 3.0 * rng.standard_normal((k, d))[y]
        stats = class_conditional_stats(x, y)
        means = np.stack([s.mean for s in stats.per_class])
        twin = qr_estimate(means)  # equal priors: the rows sqrt(1/k)(mu_c - mu)
        assert stats.between.factor.shape == (d, d)
        assert abs(frechet_distance_raw(stats.between, twin)) <= 1e-12 * trace(twin)
        pooled = pooled_gaussian(stats)
        assert abs(frechet_distance_raw(pooled, qr_estimate(x))) <= 1e-12 * trace(pooled)

    def test_tall_estimate_makes_no_centred_copy(self):
        # one block buffer (1 MB) and d x d matrices; a QR of the centred rows
        # would hold the centred copy and the QR's own copy, about 20 MB
        x = np.random.default_rng(6).standard_normal((40000, 32))
        tracemalloc.start()
        try:
            stats = estimate_gaussian(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.factor.shape == (32, 32)
        assert peak < 2 * 2**20


def repeated_rows(rng, n, unique, d):
    # n rows drawn from `unique` distinct ones, as a mode-collapse step draws
    # them: more rows than columns, but a Gram matrix of rank below d
    return (rng.standard_normal((unique, d)) + rng.normal(0.0, 1.0, d))[rng.integers(0, unique, n)]


class TestSingularGram:
    """Estimates with n > d whose Gram matrix is singular, against their QR twins."""

    # rank 9 or less: round-off eigenvalues left in the factor would put the
    # distance to a full-rank partner 1e-8 relative away from the QR twin's
    @pytest.mark.parametrize("d", [16, 32, 64])
    def test_repeated_rows_against_a_full_rank_partner(self, d):
        rng = np.random.default_rng([d, 9])
        for _ in range(3):
            assert_matches_qr_twins(repeated_rows(rng, 100, 10, d),
                                    feature_sample(rng, 100, d, "plain"))

    def test_singular_gram_that_cholesky_accepts(self, monkeypatch):
        # a few such draws in a hundred pass Cholesky with a round-off pivot;
        # the pivot guard sends them to the floored eigh
        import condmetrics.gaussian as gaussian_mod

        d = 16
        for seed in range(200):
            rng = np.random.default_rng([seed, 10])
            x = repeated_rows(rng, 37, 15, d)
            try:
                np.linalg.cholesky(gaussian_mod._centred_gram(x, x.mean(axis=0)) / len(x))
                break
            except np.linalg.LinAlgError:
                pass
        else:
            pytest.fail("Cholesky refused every draw")
        calls = TestFactorRule._count_decompositions(monkeypatch)
        assert_matches_qr_twins(x, feature_sample(rng, 37, d, "plain"))
        assert calls == {"qr": 2, "cholesky": 2, "eigh": 1}  # both QRs build the twins


class TestFactorRule:
    """Up to d rows are the factor, and one Cholesky of the Gram matrix factors
    any more."""

    @pytest.mark.parametrize("n,d", [(1, 4), (5, 12), (12, 12)])
    def test_rows_up_to_the_dimension_are_the_factor(self, n, d):
        x = feature_sample(np.random.default_rng([n, d, 1]), n, d, "plain")
        centred = (x - x.mean(axis=0)) / np.sqrt(n)
        assert np.array_equal(estimate_gaussian(x).factor, centred)

    def test_report_with_every_n_up_to_d_runs_no_qr(self, monkeypatch):
        from condmetrics import build_report, class_conditional_stats, pooled_gaussian

        k, n_c, d = 3, 8, 48  # per class 8, pooled 24, between 3, stacked 27 rows: all <= d
        rng = np.random.default_rng(5)
        y = np.repeat(np.arange(k), n_c)
        x = rng.standard_normal((y.size, d)) + y[:, None]
        g = rng.standard_normal((y.size, d)) * 1.2

        def forbidden(*_args, **_kwargs):
            raise AssertionError("a decomposition ran on a factor it cannot shrink")

        for name in ("qr", "cholesky", "eigh"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        rep = build_report(real_features=x, real_labels=y, gen_features=g, gen_labels=y)
        pooled = pooled_gaussian(class_conditional_stats(x, y))
        assert rep.fid > 0.0 and rep.wcfid > 0.0 and pooled.factor.shape == (k + k * n_c, d)

    # n < d and n = d; the QR twin is what the factor was before the rule
    @pytest.mark.parametrize("kind", ["plain", "constant", "duplicated", "offset"])
    @pytest.mark.parametrize("na,nb,d", [(5, 5, 12), (3, 9, 12), (50, 50, 256), (12, 12, 12)])
    def test_distances_match_the_qr_factor(self, kind, na, nb, d):
        rng = np.random.default_rng([na, nb, d, len(kind), 2])
        for _ in range(3):
            a = estimate_gaussian(feature_sample(rng, na, d, kind))
            b = estimate_gaussian(feature_sample(rng, nb, d, kind))
            want = frechet_distance_raw(with_qr_factor(a), with_qr_factor(b))
            assert frechet_distance_raw(a, b) == pytest.approx(want, rel=1e-12)
            assert frechet_distance_raw(a, with_qr_factor(b)) == pytest.approx(want, rel=1e-12)
            assert np.allclose(a.cov, with_qr_factor(a).cov, rtol=0, atol=1e-12 * d)

    @staticmethod
    def _count_decompositions(monkeypatch):
        calls = {"qr": 0, "cholesky": 0, "eigh": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        return calls

    # n = d keeps its rows; from n = d + 1 on, four rows per column included,
    # every estimate takes the Gram path
    @pytest.mark.parametrize("d", [1, 3, 16])
    @pytest.mark.parametrize("per_dim,extra,cholesky", [(1, 0, 0), (1, 1, 1), (4, -1, 1), (4, 0, 1)],
                             ids=["d", "d+1", "4d-1", "4d"])
    def test_more_rows_than_columns_take_one_cholesky(self, monkeypatch, d, per_dim, extra,
                                                      cholesky):
        x = feature_sample(np.random.default_rng([d, per_dim, 1 + extra]), per_dim * d + extra,
                           d, "plain")
        calls = self._count_decompositions(monkeypatch)
        assert estimate_gaussian(x).factor.shape == (d, d)
        assert calls == {"qr": 0, "cholesky": cholesky, "eigh": 0}

    def test_report_runs_one_cholesky_per_tall_estimate(self, monkeypatch):
        from condmetrics import build_report

        # d = 4: pooled 60 and 36 rows and every class's 20 or 12 rows take
        # the Gram path, the 3 class means stay rows
        k, d = 3, 4
        rng = np.random.default_rng(8)
        y, gy = np.repeat(np.arange(k), 20), np.repeat(np.arange(k), 12)
        x = rng.standard_normal((y.size, d)) + y[:, None]
        g = rng.standard_normal((gy.size, d)) * 1.2 + gy[:, None]
        calls = self._count_decompositions(monkeypatch)
        rep = build_report(real_features=x, real_labels=y, gen_features=g, gen_labels=gy)
        assert calls == {"qr": 0, "cholesky": 2 + 2 * k, "eigh": 0}
        assert rep.fid > 0.0 and rep.wcfid > 0.0
