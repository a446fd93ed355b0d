import math

import numpy as np
import pytest

from condmetrics import (
    ConfigError,
    MixtureSpec,
    accuracy,
    align_discovered,
    bcfid,
    bcis,
    build_report,
    cfid_sum,
    fid,
    gen_mixture,
    inception_score,
    per_class_is,
    subsampled_fid_suite,
    wcfid,
    wcis,
)
from condmetrics.evaluate import _point_seed, sweep_label_noise, sweep_mode_collapse
from condmetrics.report import report_to_json
from condmetrics.synth import (
    CollapseSchedule,
    dirichlet_rows,
    label_noise,
    mode_collapse_indices,
    rng_for,
)


def make_instance(seed=0, k=3, d=4, n_per_class=60, shift=0.0):
    means = rng_for(seed, 99).normal(0.0, 3.0, (k, d)) + shift
    spec = MixtureSpec(means, [np.eye(d)] * k, [n_per_class] * k, seed=seed)
    return gen_mixture(spec)


def one_hot_dominant(labels, k, strength=0.9, seed=0):
    rng = rng_for(seed)
    rows = rng.uniform(0.0, 1.0 - strength, (labels.size, k))
    rows[np.arange(labels.size), labels] += strength
    return rows / rows.sum(axis=1, keepdims=True)


class TestBuildReport:
    def test_identical_sides_give_zero_distances(self):
        x, y = make_instance(seed=1)
        probs = one_hot_dominant(y, 3, seed=2)
        rep = build_report(
            real_features=x, real_labels=y, gen_features=x, gen_labels=y,
            probs=probs, k=3)
        assert rep.fid <= 1e-9
        assert rep.bcfid <= 1e-9
        assert rep.wcfid <= 1e-9
        assert rep.cfid_sum == rep.bcfid + rep.wcfid
        assert rep.is_ == pytest.approx(rep.bcis * rep.wcis, rel=1e-9)
        assert rep.dims_used == 4
        assert rep.warnings == []
        assert rep.accuracy == 1.0

    @pytest.mark.parametrize("weighting", ["empirical", "uniform"])
    @pytest.mark.parametrize("pairing", ["identity", "hungarian"])
    def test_fields_equal_standalone_functions(self, pairing, weighting):
        k, d = 3, 4
        means = rng_for(20).normal(0.0, 3.0, (k, d))
        x, y = gen_mixture(MixtureSpec(means, [np.eye(d)] * k, [30, 50, 70], seed=21))
        g, gy = gen_mixture(MixtureSpec(means + 0.3, [np.eye(d)] * k, [40, 50, 60], seed=22))
        # generated condition c is predicted as class (c + 1) % k
        probs = one_hot_dominant((gy + 1) % k, k, strength=0.6, seed=23)
        rep = build_report(
            real_features=x, real_labels=y, gen_features=g, gen_labels=gy,
            probs=probs, k=k, weighting=weighting, pairing=pairing)
        mapping = align_discovered(probs, gy).mapping if pairing == "hungarian" else None
        if mapping is not None:
            assert mapping.tolist() == [1, 2, 0]

        assert rep.is_ == inception_score(probs)
        assert rep.bcis == bcis(probs, gy, weighting, class_count=k)
        assert rep.wcis == wcis(probs, gy, weighting, class_count=k)
        assert np.array_equal(rep.per_class_is, per_class_is(probs, gy, class_count=k))
        overall, per_acc = accuracy(probs, gy)
        assert rep.accuracy == overall
        assert np.array_equal(rep.per_class_accuracy, per_acc)
        assert rep.fid == fid(x, g)
        assert rep.bcfid == bcfid(x, y, g, gy, k, weighting=weighting)
        total, per_fid = wcfid(x, y, g, gy, k, pairing=mapping, weighting=weighting)
        assert rep.wcfid == total
        assert np.array_equal(rep.per_class_fid, per_fid)
        assert rep.cfid_sum == cfid_sum(x, y, g, gy, k, pairing=mapping, weighting=weighting)

    def test_probs_only_skips_fid_family(self):
        _, y = make_instance(seed=3)
        probs = one_hot_dominant(y, 3, seed=4)
        rep = build_report(probs=probs, gen_labels=y)
        assert rep.fid is None and rep.bcfid is None and rep.wcfid is None
        assert rep.per_class_fid is None
        assert rep.dims_used is None
        assert rep.is_ is not None and rep.bcis is not None

    def test_features_only_skips_is_family(self):
        x, y = make_instance(seed=5)
        g, gy = make_instance(seed=6)
        rep = build_report(
            real_features=x, real_labels=y, gen_features=g, gen_labels=gy, k=3)
        assert rep.is_ is None and rep.bcis is None and rep.accuracy is None
        assert rep.fid is not None and rep.cfid_sum is not None

    def test_feature_inputs_need_no_eigendecomposition(self, monkeypatch):
        # sample covariances are PSD factors by construction: no PSD check, no root
        def forbidden(*_args, **_kwargs):
            raise AssertionError("eigendecomposition on the feature path")

        x, y = make_instance(seed=7, d=12, n_per_class=5)
        g, gy = make_instance(seed=8, d=12, n_per_class=5, shift=0.5)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        rep = build_report(real_features=x, real_labels=y, gen_features=g, gen_labels=gy, k=3)
        assert rep.fid > 0.0 and rep.bcfid > 0.0 and rep.wcfid > 0.0

    def test_unmatched_counts_warn(self):
        x, y = make_instance(seed=7, n_per_class=50)
        g, gy = make_instance(seed=8, n_per_class=60)
        rep = build_report(
            real_features=x, real_labels=y, gen_features=g, gen_labels=gy, k=3)
        assert any("counts differ" in w for w in rep.warnings)

    def test_one_sided_features_rejected(self):
        x, y = make_instance(seed=9)
        with pytest.raises(ConfigError, match="both sides"):
            build_report(real_features=x, real_labels=y, k=3)

    def test_one_sided_labels_rejected(self):
        x, y = make_instance(seed=10)
        g, _ = make_instance(seed=11)
        with pytest.raises(ConfigError, match="labels"):
            build_report(real_features=x, real_labels=y, gen_features=g, k=3)

    def test_hungarian_needs_probs(self):
        x, y = make_instance(seed=12)
        g, gy = make_instance(seed=13)
        with pytest.raises(ConfigError, match="hungarian"):
            build_report(
                real_features=x, real_labels=y, gen_features=g, gen_labels=gy,
                k=3, pairing="hungarian")

    def test_hungarian_recovers_shifted_classes(self):
        x, y = make_instance(seed=14, k=4)
        # generated side: same features, labels cyclically shifted
        gy = (y + 1) % 4
        probs = one_hot_dominant(y, 4, seed=15)  # predictions follow true classes
        rep = build_report(
            real_features=x, real_labels=y, gen_features=x, gen_labels=gy,
            probs=probs, k=4, pairing="hungarian")
        assert rep.wcfid <= 1e-9
        identity = build_report(
            real_features=x, real_labels=y, gen_features=x, gen_labels=gy,
            probs=probs, k=4, pairing="identity")
        assert identity.wcfid > 1.0

    def test_hungarian_validates_probs_once(self, monkeypatch):
        import condmetrics.evaluate as evaluate_mod
        import condmetrics.matching as matching_mod

        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(1)
                return fn(*args, **kwargs)
            return wrapper

        for mod in (evaluate_mod, matching_mod):
            monkeypatch.setattr(mod, "as_probability_matrix", counted(mod.as_probability_matrix))
        x, y = make_instance(seed=14, k=4)
        gy = (y + 1) % 4
        probs = one_hot_dominant(y, 4, seed=15)
        build_report(
            real_features=x, real_labels=y, gen_features=x, gen_labels=gy,
            probs=probs, k=4, pairing="hungarian")
        assert len(calls) == 1

    def test_swapping_sides_preserves_fid_family(self):
        x, y = make_instance(seed=16)
        g, gy = make_instance(seed=17)
        fwd = build_report(
            real_features=x, real_labels=y, gen_features=g, gen_labels=gy, k=3)
        rev = build_report(
            real_features=g, real_labels=gy, gen_features=x, gen_labels=y, k=3)
        assert abs(fwd.fid - rev.fid) <= 1e-8
        assert abs(fwd.bcfid - rev.bcfid) <= 1e-8
        assert abs(fwd.wcfid - rev.wcfid) <= 1e-8

    def test_subset_size_path_sets_dims_used(self):
        x, y = make_instance(seed=18)
        g, gy = make_instance(seed=19)
        rep = build_report(
            real_features=x, real_labels=y, gen_features=g, gen_labels=gy,
            k=3, subset_size=2, trials=3, seed=7)
        assert rep.dims_used == 2
        assert rep.fid is not None and rep.per_class_fid.shape == (3,)

    @pytest.mark.parametrize("labelled", [True, False])
    def test_subset_fields_equal_subsampled_suite(self, labelled):
        x, y = make_instance(seed=18, d=6)
        g, gy = make_instance(seed=19, d=6, shift=0.4)
        labels = dict(real_labels=y, gen_labels=gy) if labelled else {}
        rep = build_report(real_features=x, gen_features=g, k=3, subset_size=4,
                           trials=3, seed=7, **labels)
        sub = subsampled_fid_suite(x, labels.get("real_labels"), g, labels.get("gen_labels"),
                                   4, 3, 7, k=3)
        assert report_to_json(rep) == report_to_json(sub)
        assert (rep.bcfid is None) == (not labelled)

    def test_no_inputs_is_config_error(self):
        with pytest.raises(ConfigError):
            build_report(k=3)

    def test_report_identity_holds(self):
        probs = dirichlet_rows([0.8, 1.2, 2.0, 0.5], 400, seed=20)
        labels = rng_for(21).integers(0, 4, 400).astype(np.int64)
        labels[:4] = np.arange(4)
        rep = build_report(probs=probs, gen_labels=labels, k=4)
        assert abs(math.log(rep.is_) - math.log(rep.bcis) - math.log(rep.wcis)) <= 1e-8


class TestSweeps:
    def test_zero_noise_row_equals_plain_report(self):
        x, y = make_instance(seed=22)
        g, gy = make_instance(seed=23)
        probs = one_hot_dominant(gy, 3, seed=24)
        base = build_report(
            real_features=x, real_labels=y, gen_features=g, gen_labels=gy,
            probs=probs, k=3, seed=5)
        rows = sweep_label_noise(
            real_features=x, real_labels=y, gen_features=g, gen_labels=gy,
            probs=probs, k=3, seed=5, grid=[0.0])
        assert len(rows) == 1
        assert rows[0][0] == 0.0
        assert report_to_json(rows[0][1]) == report_to_json(base)

    @pytest.mark.parametrize("options", [
        dict(pairing="hungarian"),
        dict(pairing="hungarian", weighting="uniform", subset_size=3, trials=4),
        dict(subset_size=4, trials=2),
    ])
    def test_label_noise_rows_equal_pointwise_reports(self, options):
        # the differential gate of the shared preparation: every sweep row is
        # the report of that point's inputs scored from scratch
        x, y = make_instance(seed=25, k=4, d=5)
        g, gy = make_instance(seed=26, k=4, d=5, shift=0.3)
        probs = one_hot_dominant((gy + 1) % 4, 4, strength=0.5, seed=27)
        inputs = dict(real_features=x, real_labels=y, gen_features=g, probs=probs,
                      k=4, seed=9, **options)
        grid = [0.0, 0.25, 0.5, 1.0]
        rows = sweep_label_noise(gen_labels=gy, grid=grid, **inputs)
        assert [p for p, _ in rows] == grid
        for i, (p, rep) in enumerate(rows):
            noised = label_noise(gy, p, _point_seed(9, i))
            assert report_to_json(rep) == report_to_json(
                build_report(gen_labels=noised, **inputs))

    @pytest.mark.parametrize("options", [{}, dict(pairing="hungarian", subset_size=3, trials=2)])
    def test_mode_collapse_rows_equal_pointwise_reports(self, options):
        x, y = make_instance(seed=28, k=3, d=4, n_per_class=40)
        g, gy = make_instance(seed=29, k=3, d=4, n_per_class=40, shift=0.2)
        probs = one_hot_dominant(gy, 3, strength=0.6, seed=30)
        schedule = CollapseSchedule(steps=4, shrink_factor=0.5, per_class_sample=12,
                                    collapsed_classes=(1,))
        inputs = dict(real_features=x, real_labels=y, k=3, seed=2, **options)
        rows = sweep_mode_collapse(gen_features=g, gen_labels=gy, probs=probs,
                                   schedule=schedule, **inputs)
        steps = mode_collapse_indices(gy, 3, schedule, 2)
        assert [p for p, _ in rows] == [0.0, 1.0, 2.0, 3.0]
        for (_, rep), idx in zip(rows, steps):
            assert report_to_json(rep) == report_to_json(build_report(
                gen_features=g[idx], gen_labels=gy[idx], probs=probs[idx], **inputs))

    def test_sweep_prepares_the_real_side_once(self, monkeypatch):
        import condmetrics.evaluate as evaluate_mod
        import condmetrics.matching as matching_mod
        import condmetrics.metrics as metrics_mod

        calls = {"validate": 0, "estimate": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for mod in (evaluate_mod, matching_mod, metrics_mod):
            monkeypatch.setattr(mod, "as_probability_matrix",
                                counted("validate", mod.as_probability_matrix))
        monkeypatch.setattr(metrics_mod, "estimate_gaussian",
                            counted("estimate", metrics_mod.estimate_gaussian))
        x, y = make_instance(seed=31, k=3)
        g, gy = make_instance(seed=32, k=3)
        probs = one_hot_dominant(gy, 3, seed=33)
        sweep_label_noise(real_features=x, real_labels=y, gen_features=g, gen_labels=gy,
                          probs=probs, k=3, grid=[0.0, 0.3, 0.6, 1.0], pairing="hungarian")
        # real side once (pooled + 3 classes), generated side at each of 4 points
        assert calls == {"validate": 1, "estimate": 4 + 4 * 4}
