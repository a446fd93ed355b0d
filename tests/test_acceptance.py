"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check is deterministic (fixed seeds throughout).
"""

import itertools
import json
import math
import time

import numpy as np

import condmetrics as cm
from condmetrics.cli import main
from condmetrics.evaluate import sweep_label_noise, sweep_mode_collapse
from condmetrics.synth import collapse_pool_sizes, rng_for


def check(criterion: str, **conditions) -> None:
    ok = all(bool(v) for v in conditions.values())
    detail = ", ".join(f"{name}={bool(v)}" for name, v in conditions.items())
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def non_increasing(xs):
    return all(a >= b for a, b in zip(xs, xs[1:]))


def non_decreasing(xs):
    return all(a <= b for a, b in zip(xs, xs[1:]))


def test_c01_is_product_identity():
    t0 = time.monotonic()
    worst = 0.0
    cases = itertools.cycle(itertools.product([2, 5, 10], [50, 1000], [False, True]))
    for i in range(200):
        k, n, balanced = next(cases)
        rng = rng_for(1_000 + i)
        probs = cm.dirichlet_rows(rng.uniform(0.2, 3.0, k), n, 2_000 + i)
        if balanced:
            labels = np.arange(n, dtype=np.int64) % k
        else:
            labels = np.concatenate(
                [np.arange(k), rng.integers(0, k, n - k)]).astype(np.int64)
        gap = abs(
            math.log(cm.inception_score(probs))
            - math.log(cm.bcis(probs, labels))
            - math.log(cm.wcis(probs, labels)))
        worst = max(worst, gap)
    elapsed = time.monotonic() - t0
    check("1 IS product identity",
          max_gap_below_1e8=worst <= 1e-8,
          runtime_under_5s=elapsed < 5.0)


def test_c02_fid_upper_bound():
    t0 = time.monotonic()
    worst_slack = math.inf
    cases = itertools.cycle(itertools.product([2, 8], [2, 5]))
    for i in range(200):
        d, k = next(cases)
        rng = rng_for(3_000 + i)
        counts = rng.integers(5, 40, k)  # matched between the two sides
        means = [rng.normal(0, 2, (k, d)) for _ in range(2)]
        covs = [[_rand_cov(rng, d) for _ in range(k)] for _ in range(2)]
        rx, ry = cm.gen_mixture(cm.MixtureSpec(means[0], covs[0], counts, seed=2 * i))
        gx, gy = cm.gen_mixture(cm.MixtureSpec(means[1], covs[1], counts, seed=2 * i + 1))
        slack = cm.cfid_sum(rx, ry, gx, gy) - cm.fid(rx, gx)
        worst_slack = min(worst_slack, slack)
    elapsed = time.monotonic() - t0
    check("2 FID upper bound",
          bound_holds=worst_slack >= -1e-6,
          runtime_under_30s=elapsed < 30.0)


def _rand_cov(rng, d):
    b = rng.normal(0, 1, (d, d))
    return b @ b.T / d + 0.1 * np.eye(d)


def test_c03_tightness_construction():
    # population level: analytic per-class moments, exact equality
    real = cm.tightness_population([1.0, 2.0])
    gen = cm.tightness_population([2.0, 1.0])
    pop_fid = cm.frechet_distance(cm.pooled_gaussian(real), cm.pooled_gaussian(gen))
    pop_bcfid = cm.bcfid_from_stats(real, gen)
    pop_wcfid = cm.wcfid_from_stats(real, gen)[0]
    # sampled level
    pair = cm.gen_tightness_case([1.0, 2.0], [2.0, 1.0], n_per_class=100_000, seed=42)
    fid = cm.fid(pair.real_features, pair.gen_features)
    bcfid = cm.bcfid(*pair)
    wcfid = cm.wcfid(*pair)[0]
    check("3 bound tightness",
          population_fid_is_one=abs(pop_fid - 1.0) <= 1e-12,
          population_wcfid_is_one=abs(pop_wcfid - 1.0) <= 1e-12,
          population_bcfid_is_zero=abs(pop_bcfid) <= 1e-12,
          population_equality=abs(pop_fid - (pop_bcfid + pop_wcfid)) <= 1e-12,
          sampled_equality=abs(fid - (bcfid + wcfid)) < 0.02,
          sampled_bcfid_small=bcfid < 0.01)


def test_c04_matched_moment_counterexample():
    # population values against the diagonal closed-form oracle
    wcfid_oracle = 0.5 * (
        (2.0 + (1.0 - math.sqrt(2.0)) ** 2)
        + (2.0 + (1.0 - math.sqrt(2.0)) ** 2 + (math.sqrt(3.0) - 1.0) ** 2))
    a, b = cm.matched_moments_population()
    pop_fid = cm.frechet_distance(cm.pooled_gaussian(a), cm.pooled_gaussian(b))
    pop_bcfid = cm.bcfid_from_stats(a, b)
    pop_wcfid = cm.wcfid_from_stats(a, b)[0]
    # sampled level
    pair = cm.gen_matched_moments(seed=7, n_per_class=100_000)
    fid = cm.fid(pair.real_features, pair.gen_features)
    bcfid = cm.bcfid(*pair)
    wcfid = cm.wcfid(*pair)[0]
    check("4 matched-moment counterexample",
          population_fid_zero=abs(pop_fid) <= 1e-12,
          population_bcfid_two=abs(pop_bcfid - 2.0) <= 1e-12,
          population_wcfid_matches_oracle=abs(pop_wcfid - wcfid_oracle) <= 1e-9,
          sampled_fid_small=fid < 0.02,
          sampled_bcfid_large=bcfid > 1.8,
          sampled_wcfid_large=wcfid > 2.2)


def _label_noise_instance():
    k, d, n_per = 10, 8, 500
    means = np.zeros((k, d))
    for c in range(k):
        means[c, c % d] = 5.0 if c < d else -5.0
    real = cm.gen_mixture(cm.MixtureSpec(means, [np.eye(d)] * k, [n_per] * k, seed=101))
    gen = cm.gen_mixture(cm.MixtureSpec(means, [np.eye(d)] * k, [n_per] * k, seed=202))
    labels = gen[1]
    rows = rng_for(303).uniform(0.0, 0.05, (labels.size, k))
    rows[np.arange(labels.size), labels] += 0.95
    probs = rows / rows.sum(axis=1, keepdims=True)
    return real, gen, probs, k


def test_c05_label_noise_trends():
    t0 = time.monotonic()
    real, gen, probs, _ = _label_noise_instance()
    rows = sweep_label_noise(
        real_features=real[0], real_labels=real[1],
        gen_features=gen[0], gen_labels=gen[1], probs=probs, seed=7,
        grid=[i / 10 for i in range(11)])
    is_ = [r.is_ for _, r in rows]
    bcis = [r.bcis for _, r in rows]
    wcis = [r.wcis for _, r in rows]
    fid = [r.fid for _, r in rows]
    bcfid = [r.bcfid for _, r in rows]
    wcfid = [r.wcfid for _, r in rows]
    elapsed = time.monotonic() - t0
    check("5 label-noise trends",
          is_varies_under_2pct=(max(is_) - min(is_)) / min(is_) < 0.02,
          bcis_non_increasing=non_increasing(bcis),
          bcis_ends_near_one=abs(bcis[-1] - 1.0) <= 0.1,
          wcis_non_decreasing=non_decreasing(wcis),
          bcfid_non_decreasing=non_decreasing(bcfid),
          wcfid_non_decreasing=non_decreasing(wcfid),
          fid_varies_under_5pct=(max(fid) - min(fid)) / min(fid) < 0.05,
          runtime_under_60s=elapsed < 60.0)


def test_c06_mode_collapse_trends():
    k, d, sep, gen_pool = 2, 16, 6.0, 600
    means = np.zeros((k, d))
    means[1, 0] = sep
    offset = rng_for(77).normal(0, 1, d)
    offset *= 0.6 / np.linalg.norm(offset)  # imperfect generator baseline
    real = cm.gen_mixture(cm.MixtureSpec(means, [np.eye(d)] * k, [1000] * k, seed=11))
    gen = cm.gen_mixture(
        cm.MixtureSpec(means + offset, [np.eye(d) * 1.1] * k, [gen_pool] * k, seed=22))
    schedule = cm.CollapseSchedule(
        steps=11, shrink_factor=2.0 / 3.0, per_class_sample=100, collapsed_classes=(1,))
    rows = sweep_mode_collapse(
        real_features=real[0], real_labels=real[1],
        gen_features=gen[0], gen_labels=gen[1], seed=0, schedule=schedule)
    wcfid = [r.wcfid for _, r in rows]
    bcfid = [r.bcfid for _, r in rows]
    sizes = collapse_pool_sizes(gen_pool, schedule)
    check("6 mode-collapse trends",
          wcfid_grows_over_3x=wcfid[10] / wcfid[0] > 3.0,
          wcfid_more_sensitive_than_bcfid=wcfid[10] / wcfid[0] > bcfid[10] / bcfid[0],
          schedule_factor_below_2pct=(2.0 / 3.0) ** 10 < 0.02,
          final_pool_below_2pct=sizes[-1] / sizes[0] < 0.02)


def test_c07_hungarian_optimality():
    exact = True
    for k in range(2, 7):
        for i in range(100):
            value = rng_for(40_000 + 100 * k + i).uniform(0.0, 1.0, (k, k))
            best = max(
                float(value[np.arange(k), list(perm)].sum())
                for perm in itertools.permutations(range(k)))
            exact = exact and cm.hungarian_max(value).score == best
    check("7 hungarian optimality", matches_brute_force_exactly=exact)


def test_c08_numerical_core():
    worst_sqrtm = 0.0
    for i in range(100):
        rng = rng_for(50_000 + i)
        d = int(rng.integers(2, 33))
        b = rng.standard_normal((d, d))
        a = b @ b.T
        root = cm.sqrtm_psd(a)
        worst_sqrtm = max(worst_sqrtm, float(np.linalg.norm(root @ root - a, "fro")))
    worst_diag, worst_self = 0.0, 0.0
    for i in range(100):
        rng = rng_for(60_000 + i)
        d = int(rng.integers(1, 9))
        mu1, mu2 = rng.normal(0, 2, d), rng.normal(0, 2, d)
        v1, v2 = rng.uniform(0.0, 5.0, d), rng.uniform(0.0, 5.0, d)
        a = cm.GaussianStats(mu1, np.diag(v1))
        g = cm.GaussianStats(mu2, np.diag(v2))
        closed = float(np.sum((mu1 - mu2) ** 2)
                       + np.sum((np.sqrt(v1) - np.sqrt(v2)) ** 2))
        worst_diag = max(worst_diag, abs(cm.frechet_distance(a, g) - closed))
        worst_self = max(worst_self, cm.frechet_distance(a, a), cm.frechet_distance(g, g))
    check("8 numerical core",
          sqrtm_reproduction_below_1e8=worst_sqrtm < 1e-8,
          diagonal_closed_form_within_1e9=worst_diag <= 1e-9,
          self_distance_below_1e9=worst_self <= 1e-9)


def _write_cli_dataset(tmp_path):
    k, d = 3, 4
    means = rng_for(42).normal(0.0, 3.0, (k, d))
    real = cm.gen_mixture(cm.MixtureSpec(means, [np.eye(d)] * k, [60] * k, seed=1))
    gen = cm.gen_mixture(cm.MixtureSpec(means + 0.2, [np.eye(d)] * k, [60] * k, seed=2))
    rows = rng_for(3).uniform(0.0, 0.1, (gen[1].size, k))
    rows[np.arange(gen[1].size), gen[1]] += 0.9
    probs = rows / rows.sum(axis=1, keepdims=True)
    paths = {}
    for name, arr in [("real_features", real[0]), ("real_labels", real[1]),
                      ("gen_features", gen[0]), ("gen_labels", gen[1]),
                      ("probs", probs)]:
        paths[name] = tmp_path / f"{name}.cfm"
        cm.save_tensor(paths[name], arr)
    return paths


def test_c09_determinism(tmp_path):
    paths = _write_cli_dataset(tmp_path)
    flags = [
        "--real-features", str(paths["real_features"]),
        "--real-labels", str(paths["real_labels"]),
        "--gen-features", str(paths["gen_features"]),
        "--gen-labels", str(paths["gen_labels"]),
        "--probs", str(paths["probs"]),
        "--seed", "5", "--subset-size", "3", "--trials", "8",
    ]
    metrics_outputs, sweep_outputs = [], []
    for run in range(4):
        m_out = tmp_path / f"metrics{run}.json"
        s_out = tmp_path / f"sweep{run}.csv"
        assert main(["metrics", *flags, "--out", str(m_out)]) == 0
        assert main(["sweep", "--experiment", "label_noise",
                     "--grid", "0,0.5,1", *flags, "--out", str(s_out)]) == 0
        metrics_outputs.append(m_out.read_bytes())
        sweep_outputs.append(s_out.read_bytes())
    parsed = json.loads(metrics_outputs[0])
    check("9 determinism",
          metrics_byte_identical=len(set(metrics_outputs)) == 1,
          sweep_byte_identical=len(set(sweep_outputs)) == 1,
          report_is_valid_json="fid" in parsed)


def test_c10_subsampling_protocol():
    k, d = 3, 32
    rng = rng_for(404)
    means = rng.normal(0, 1.5, (k, d))
    real = cm.gen_mixture(cm.MixtureSpec(means, [np.eye(d)] * k, [300] * k, seed=1))
    gen = cm.gen_mixture(cm.MixtureSpec(
        means + rng.normal(0, 0.3, (k, d)), [np.eye(d) * 1.2] * k, [300] * k, seed=2))

    # full subset, one trial: exactly the full scores divided by d
    rep = cm.build_report(real_features=real[0], real_labels=real[1], gen_features=gen[0],
                          gen_labels=gen[1], subset_size=d, trials=1, seed=9)
    full_fid = cm.fid(real[0], gen[0])
    full_bcfid = cm.bcfid(real[0], real[1], gen[0], gen[1])
    full_wcfid = cm.wcfid(real[0], real[1], gen[0], gen[1])[0]
    exact = (abs(rep.fid - full_fid / d) <= 1e-10
             and abs(rep.bcfid - full_bcfid / d) <= 1e-10
             and abs(rep.wcfid - full_wcfid / d) <= 1e-10)

    # small subsets, many trials: stable across outer seeds
    stable = True
    for metric in ("fid", "bcfid", "wcfid"):
        vals = np.array([
            getattr(cm.build_report(
                real_features=real[0], real_labels=real[1], gen_features=gen[0],
                gen_labels=gen[1], subset_size=10, trials=100, seed=1000 + outer), metric)
            for outer in range(10)])
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        stable = stable and se < 0.10 * vals.mean()
    check("10 subsampling protocol",
          full_subset_equals_scaled_full=exact,
          trial_mean_se_under_10pct=stable)
