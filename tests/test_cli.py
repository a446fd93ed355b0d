import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import condmetrics
from condmetrics import MixtureSpec, gen_mixture, load_labels, load_tensor, save_csv, save_tensor
from condmetrics.cli import main
from condmetrics.report import JSON_KEYS
from condmetrics.synth import rng_for


def one_hot_dominant(labels, k, strength=0.9, seed=0):
    rng = rng_for(seed)
    rows = rng.uniform(0.0, 1.0 - strength, (labels.size, k))
    rows[np.arange(labels.size), labels] += strength
    return rows / rows.sum(axis=1, keepdims=True)


@pytest.fixture
def dataset(tmp_path):
    k, d = 3, 4
    means = rng_for(42).normal(0.0, 3.0, (k, d))
    real = gen_mixture(MixtureSpec(means, [np.eye(d)] * k, [50] * k, seed=1))
    gen = gen_mixture(MixtureSpec(means + 0.2, [np.eye(d)] * k, [50] * k, seed=2))
    probs = one_hot_dominant(gen[1], k, seed=3)
    paths = {}
    for name, arr in [
        ("real_features", real[0]), ("real_labels", real[1]),
        ("gen_features", gen[0]), ("gen_labels", gen[1]), ("probs", probs),
    ]:
        paths[name] = tmp_path / f"{name}.cfm"
        save_tensor(paths[name], arr)
    return paths


def metrics_args(paths, out, extra=()):
    return [
        "metrics",
        "--real-features", str(paths["real_features"]),
        "--real-labels", str(paths["real_labels"]),
        "--gen-features", str(paths["gen_features"]),
        "--gen-labels", str(paths["gen_labels"]),
        "--probs", str(paths["probs"]),
        "--k", "3", "--seed", "11", "--out", str(out), *extra,
    ]


class TestCmdMetrics:
    def test_json_keys_and_values(self, dataset, tmp_path):
        out = tmp_path / "report.json"
        assert main(metrics_args(dataset, out)) == 0
        payload = json.loads(out.read_text())
        assert list(payload.keys()) == list(JSON_KEYS)
        assert payload["cfid_sum"] == payload["bcfid"] + payload["wcfid"]
        assert payload["dims_used"] == 4
        assert payload["pairing"] == "identity"
        assert payload["seed"] == 11
        assert payload["warnings"] == []
        assert len(payload["per_class_fid"]) == 3

    def test_unlabelled_features_need_no_k(self, dataset, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["metrics", "--real-features", str(dataset["real_features"]),
                   "--gen-features", str(dataset["gen_features"]), "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["fid"] == condmetrics.fid(
            load_tensor(dataset["real_features"]), load_tensor(dataset["gen_features"]))
        assert payload["bcfid"] is None and payload["is"] is None

    def test_byte_identical_across_runs_and_threads(self, dataset, tmp_path):
        outputs = []
        for run in range(4):
            out = tmp_path / f"report{run}.json"
            assert main(metrics_args(dataset, out)) == 0
            outputs.append(out.read_bytes())
        assert len(set(outputs)) == 1

    def test_seventeen_digit_floats(self, dataset, tmp_path):
        out = tmp_path / "report.json"
        main(metrics_args(dataset, out))
        payload = json.loads(out.read_text())
        # round-trip: parsing and re-formatting with %.17g is stable
        text = out.read_text()
        assert format(payload["fid"], ".17g") in text

    def test_csv_output_format(self, dataset, tmp_path):
        out = tmp_path / "report.csv"
        assert main(metrics_args(dataset, out, extra=["--format", "csv"])) == 0
        header, row = out.read_text().strip().splitlines()
        assert header == "is,bcis,wcis,fid,bcfid,wcfid,cfid_sum,accuracy,dims_used"
        cells = row.split(",")
        assert len(cells) == 9
        assert float(cells[3]) >= 0  # fid

    def test_csv_inputs_accepted(self, dataset, tmp_path):
        csv_paths = {}
        for name, path in dataset.items():
            arr = load_tensor(path)
            csv_paths[name] = tmp_path / f"{name}.csv"
            save_csv(csv_paths[name], arr)
        out_bin = tmp_path / "from_bin.json"
        out_csv = tmp_path / "from_csv.json"
        assert main(metrics_args(dataset, out_bin)) == 0
        assert main(metrics_args(csv_paths, out_csv)) == 0
        assert out_bin.read_bytes() == out_csv.read_bytes()

    def test_module_entrypoint(self, dataset, tmp_path):
        # the child imports the same package as this test, installed or not
        src = str(Path(condmetrics.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "condmetrics", *metrics_args(dataset, out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["fid"] >= 0


class TestExitCodes:
    def test_missing_file_is_config_error(self, tmp_path):
        rc = main(["metrics", "--probs", str(tmp_path / "absent.cfm")])
        assert rc == 4

    def test_no_inputs_is_config_error(self):
        assert main(["metrics"]) == 4

    def test_bad_magic_is_invalid_input(self, tmp_path):
        bad = tmp_path / "bad.cfm"
        bad.write_bytes(b"JUNKJUNKJUNK")
        assert main(["metrics", "--probs", str(bad)]) == 2

    def test_invalid_probabilities_is_invalid_input(self, tmp_path):
        bad = tmp_path / "p.cfm"
        save_tensor(bad, np.array([[0.9, 0.3], [0.5, 0.5]]))
        assert main(["metrics", "--probs", str(bad)]) == 2

    @pytest.mark.parametrize("command", ["metrics", "match"])
    def test_probability_file_with_bad_row_sum_is_invalid_input(
            self, dataset, tmp_path, capsys, command):
        bad = tmp_path / "p.cfm"
        probs = load_tensor(dataset["probs"])
        probs[7] *= 0.5
        save_tensor(bad, probs)
        rc = main([command, "--probs", str(bad), "--gen-labels", str(dataset["gen_labels"]),
                   "--out", str(tmp_path / "out.json")])
        assert rc == 2
        assert "probability row 7 sums to" in capsys.readouterr().err

    def test_trials_without_subset_size_is_invalid_input(self, dataset, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(metrics_args(dataset, out, ["--trials", "7"])) == 2
        assert "trials must be 1 without subset_size, got 7" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra, rc", [
        (["--subset-size", "5", "--trials", "7"], 4),
        (["--trials", "7"], 4),
        ([], 0),
        (["--trials", "1"], 0),
    ])
    def test_subsampling_flags_without_features(self, dataset, tmp_path, capsys, extra, rc):
        out = tmp_path / "report.json"
        assert main(["metrics", "--probs", str(dataset["probs"]),
                     "--gen-labels", str(dataset["gen_labels"]),
                     "--out", str(out), *extra]) == rc
        if rc:
            assert "needs features on both sides" in capsys.readouterr().err
        assert out.exists() == (rc == 0)

    @pytest.mark.parametrize("inputs", [
        ["real_features", "gen_features"],
        ["probs"],
        ["real_features", "real_labels", "gen_features", "gen_labels"],
    ])
    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_non_positive_k_is_invalid_input(self, dataset, tmp_path, capsys, inputs, k):
        flags = [arg for name in inputs
                 for arg in ("--" + name.replace("_", "-"), str(dataset[name]))]
        out = tmp_path / "report.json"
        assert main(["metrics", *flags, "--k", k, "--out", str(out)]) == 2
        assert f"class count must be >= 1, got {k}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, extra, seed", [
        ("metrics", ["--subset-size", "3"], "-1"),
        ("metrics", [], "-1"),
        ("sweep", ["--experiment", "label_noise"], "-2"),
        ("sweep", ["--experiment", "mode_collapse", "--steps", "2"], "-2"),
        ("metrics", [], str(2**63)),
    ], ids=["metrics-subset", "metrics", "label-noise", "mode-collapse", "2^63"])
    def test_seed_outside_the_rule_is_invalid_input(
            self, dataset, tmp_path, capsys, command, extra, seed):
        out = tmp_path / "out"
        flags = metrics_args(dataset, out)[1:]
        assert main([command, *flags, *extra, "--seed", seed]) == 2
        assert capsys.readouterr().err == (
            f"invalid input: seed must be an integer in [0, 2^63), got {seed}\n")
        assert not out.exists()

    def test_probability_columns_other_than_k_is_config_error(self, dataset, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["metrics", "--probs", str(dataset["probs"]), "--k", "5",
                     "--out", str(out)]) == 4
        assert "probability matrix has 3 classes, expected k=5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment, flags, message", [
        ("label_noise", ["probs"], "label_noise sweep needs generated labels"),
        ("mode_collapse", ["probs", "gen_labels"],
         "mode_collapse sweep needs generated features and labels"),
        ("mode_collapse", ["real_features", "real_labels", "gen_features"],
         "mode_collapse sweep needs generated features and labels"),
    ], ids=["label-noise-no-gen-labels", "collapse-no-gen-features", "collapse-no-gen-labels"])
    def test_sweep_without_its_generated_inputs_is_config_error(
            self, dataset, tmp_path, capsys, experiment, flags, message):
        args = [arg for name in flags
                for arg in ("--" + name.replace("_", "-"), str(dataset[name]))]
        out = tmp_path / "s.csv"
        assert main(["sweep", "--experiment", experiment, *args, "--out", str(out)]) == 4
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_trailing_comma_in_grid_is_config_error(self, dataset, tmp_path, capsys):
        rc = main(["sweep", "--experiment", "label_noise", "--grid", "0,0.5,",
                   "--gen-labels", str(dataset["gen_labels"]),
                   "--probs", str(dataset["probs"]), "--out", str(tmp_path / "s.csv")])
        assert rc == 4
        assert "unparseable --grid value: '0,0.5,'" in capsys.readouterr().err

    def test_empty_label_file_without_k_is_invalid_input(self, dataset, tmp_path, capsys):
        empty = tmp_path / "empty.cfm"
        save_tensor(empty, np.zeros(0, dtype=np.int64))
        rc = main(["metrics",
                   "--real-features", str(dataset["real_features"]),
                   "--real-labels", str(empty),
                   "--gen-features", str(dataset["gen_features"]),
                   "--gen-labels", str(dataset["gen_labels"])])
        assert rc == 2
        assert "label vector is empty" in capsys.readouterr().err

    def test_unparseable_collapsed_classes_is_config_error(self, dataset, tmp_path, capsys):
        rc = main(["sweep", "--experiment", "mode_collapse", "--collapsed-classes", "x",
                   "--real-features", str(dataset["real_features"]),
                   "--real-labels", str(dataset["real_labels"]),
                   "--gen-features", str(dataset["gen_features"]),
                   "--gen-labels", str(dataset["gen_labels"]),
                   "--k", "3", "--out", str(tmp_path / "c.csv")])
        assert rc == 4
        assert "--collapsed-classes" in capsys.readouterr().err

    def test_repeated_collapsed_class_is_invalid_input(self, dataset, tmp_path, capsys):
        rc = main(["sweep", "--experiment", "mode_collapse", "--collapsed-classes", "0,0",
                   "--real-features", str(dataset["real_features"]),
                   "--real-labels", str(dataset["real_labels"]),
                   "--gen-features", str(dataset["gen_features"]),
                   "--gen-labels", str(dataset["gen_labels"]),
                   "--k", "3", "--out", str(tmp_path / "c.csv")])
        assert rc == 2
        assert "collapsed_classes must be distinct" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    def test_mode_collapse_labels_longer_than_features_is_invalid_input(
            self, dataset, tmp_path, capsys, monkeypatch):
        import condmetrics.evaluate as evaluate_mod

        def no_step_is_scored(*_args, **_kwargs):
            raise AssertionError("a collapse step was scored")

        monkeypatch.setattr(evaluate_mod, "_score_fid", no_step_is_scored)
        labels = load_tensor(dataset["gen_labels"])
        longer = tmp_path / "longer.cfm"
        save_tensor(longer, np.concatenate([labels, labels[:10]]))
        out = tmp_path / "c.csv"
        rc = main(["sweep", "--experiment", "mode_collapse", "--steps", "2",
                   "--real-features", str(dataset["real_features"]),
                   "--real-labels", str(dataset["real_labels"]),
                   "--gen-features", str(dataset["gen_features"]),
                   "--gen-labels", str(longer),
                   "--k", "3", "--out", str(out)])
        assert rc == 2
        assert "label count 160 does not match row count 150" in capsys.readouterr().err
        assert not out.exists()

    def test_not_psd_maps_to_exit_three(self, dataset, tmp_path, monkeypatch):
        from condmetrics import NotPSDError
        import condmetrics.cli as cli

        def boom(**kwargs):
            raise NotPSDError("synthetic failure")

        monkeypatch.setattr(cli, "build_report", boom)
        assert main(metrics_args(dataset, tmp_path / "x.json")) == 3


class TestCmdSweep:
    def test_zero_grid_matches_metrics(self, dataset, tmp_path):
        report_out = tmp_path / "report.json"
        sweep_out = tmp_path / "sweep.csv"
        main(metrics_args(dataset, report_out))
        rc = main([
            "sweep", "--experiment", "label_noise", "--grid", "0",
            *metrics_args(dataset, sweep_out)[1:],
        ])
        assert rc == 0
        header, row = sweep_out.read_text().strip().splitlines()
        assert header == ("param,is,bcis,wcis,fid,bcfid,wcfid,cfid_sum,"
                          "accuracy,dims_used")
        payload = json.loads(report_out.read_text())
        cells = row.split(",")
        assert cells[0] == "0"
        assert float(cells[1]) == payload["is"]
        assert float(cells[5]) == payload["bcfid"]

    def test_sweep_deterministic_across_threads(self, dataset, tmp_path):
        outputs = []
        for run in range(2):
            out = tmp_path / f"sweep{run}.csv"
            rc = main([
                "sweep", "--experiment", "label_noise", "--grid", "0,0.5,1",
                *metrics_args(dataset, out)[1:],
            ])
            assert rc == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_mode_collapse_rows(self, dataset, tmp_path):
        out = tmp_path / "collapse.csv"
        rc = main([
            "sweep", "--experiment", "mode_collapse", "--steps", "3",
            "--per-class-sample", "20", "--collapsed-classes", "0",
            "--real-features", str(dataset["real_features"]),
            "--real-labels", str(dataset["real_labels"]),
            "--gen-features", str(dataset["gen_features"]),
            "--gen-labels", str(dataset["gen_labels"]),
            "--k", "3", "--seed", "4", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4
        assert [row.split(",")[0] for row in lines[1:]] == ["0", "1", "2"]
        # no probabilities given: the IS-family cells stay empty
        assert lines[1].split(",")[1] == ""

    def test_label_noise_grid_trends(self, tmp_path):
        # one-hot-dominant predictions: between-class score decays strictly
        # with noise while the within-class score rises to compensate
        k, d, n_per = 10, 8, 500
        means = np.zeros((k, d))
        for c in range(k):
            means[c, c % d] = 5.0 if c < d else -5.0
        real = gen_mixture(MixtureSpec(means, [np.eye(d)] * k, [n_per] * k, seed=101))
        gen = gen_mixture(MixtureSpec(means, [np.eye(d)] * k, [n_per] * k, seed=202))
        probs = one_hot_dominant(gen[1], k, strength=0.95, seed=303)
        paths = {}
        for name, arr in [("real_features", real[0]), ("real_labels", real[1]),
                          ("gen_features", gen[0]), ("gen_labels", gen[1]),
                          ("probs", probs)]:
            paths[name] = tmp_path / f"{name}.cfm"
            save_tensor(paths[name], arr)
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--experiment", "label_noise", "--grid", "0,0.25,0.5,0.75,1.0",
            "--real-features", str(paths["real_features"]),
            "--real-labels", str(paths["real_labels"]),
            "--gen-features", str(paths["gen_features"]),
            "--gen-labels", str(paths["gen_labels"]),
            "--probs", str(paths["probs"]),
            "--k", str(k), "--seed", "7", "--out", str(out),
        ])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        bcis = [float(r[2]) for r in rows]
        wcis = [float(r[3]) for r in rows]
        assert all(a > b for a, b in zip(bcis, bcis[1:]))
        assert all(a < b for a, b in zip(wcis, wcis[1:]))

    def test_mode_collapse_wcfid_most_sensitive(self, tmp_path):
        # staged single-class collapse: wcfid rises monotonically and faster
        # than bcfid
        k, d = 2, 16
        means = np.zeros((k, d))
        means[1, 0] = 6.0
        offset = rng_for(77).normal(0, 1, d)
        offset *= 0.6 / np.linalg.norm(offset)
        real = gen_mixture(MixtureSpec(means, [np.eye(d)] * k, [1000] * k, seed=11))
        gen = gen_mixture(
            MixtureSpec(means + offset, [np.eye(d) * 1.1] * k, [150] * k, seed=22))
        paths = {}
        for name, arr in [("real_features", real[0]), ("real_labels", real[1]),
                          ("gen_features", gen[0]), ("gen_labels", gen[1])]:
            paths[name] = tmp_path / f"{name}.cfm"
            save_tensor(paths[name], arr)
        out = tmp_path / "collapse.csv"
        rc = main([
            "sweep", "--experiment", "mode_collapse", "--steps", "11",
            "--collapsed-classes", "1", "--per-class-sample", "100",
            "--real-features", str(paths["real_features"]),
            "--real-labels", str(paths["real_labels"]),
            "--gen-features", str(paths["gen_features"]),
            "--gen-labels", str(paths["gen_labels"]),
            "--k", "2", "--seed", "0", "--out", str(out),
        ])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert len(rows) == 11
        bcfid = [float(r[5]) for r in rows]
        wcfid = [float(r[6]) for r in rows]
        assert all(a <= b for a, b in zip(wcfid, wcfid[1:]))
        assert wcfid[10] / wcfid[0] > bcfid[10] / bcfid[0]

    def test_json_format(self, dataset, tmp_path):
        out = tmp_path / "sweep.json"
        rc = main([
            "sweep", "--experiment", "label_noise", "--grid", "0,1",
            "--format", "json", *metrics_args(dataset, out)[1:],
        ])
        assert rc == 0
        rows = json.loads(out.read_text())
        assert [r["param"] for r in rows] == [0.0, 1.0]


class TestCmdMatch:
    @pytest.mark.parametrize("given", ["probs", "gen_labels"])
    def test_missing_input_is_config_error(self, dataset, tmp_path, capsys, given):
        out = tmp_path / "match.json"
        assert main(["match", "--" + given.replace("_", "-"), str(dataset[given]),
                     "--out", str(out)]) == 4
        assert capsys.readouterr().err == "config error: match needs --probs and --gen-labels\n"
        assert not out.exists()

    def test_identity_clusters(self, tmp_path):
        k = 4
        conds = np.repeat(np.arange(k), 10)
        probs = one_hot_dominant(conds, k, strength=0.97, seed=5)
        probs_path, conds_path = tmp_path / "p.cfm", tmp_path / "c.cfm"
        save_tensor(probs_path, probs)
        save_tensor(conds_path, conds)
        out = tmp_path / "match.json"
        rc = main(["match", "--probs", str(probs_path),
                   "--gen-labels", str(conds_path), "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["mapping"] == list(range(k))
        assert len(payload["average_probabilities"]) == k

    def test_shifted_clusters(self, tmp_path):
        k = 5
        conds = np.repeat(np.arange(k), 8)
        shifted = (conds + 1) % k
        probs = one_hot_dominant(shifted, k, strength=0.97, seed=6)
        probs_path, conds_path = tmp_path / "p.cfm", tmp_path / "c.cfm"
        save_tensor(probs_path, probs)
        save_tensor(conds_path, conds)
        out = tmp_path / "match.json"
        assert main(["match", "--probs", str(probs_path),
                     "--gen-labels", str(conds_path), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["mapping"] == [(c + 1) % k for c in range(k)]

    def test_validates_probabilities_once(self, tmp_path, monkeypatch):
        import condmetrics.matching as matching_mod
        from condmetrics import average_class_probabilities, hungarian_max
        from condmetrics.report import assignment_to_json

        k = 6
        conds = rng_for(7).permutation(np.repeat(np.arange(k), 9))
        probs = one_hot_dominant((conds + 2) % k, k, strength=0.4, seed=8)
        probs_path, conds_path = tmp_path / "p.cfm", tmp_path / "c.cfm"
        save_tensor(probs_path, probs)
        save_tensor(conds_path, conds)
        # the output of the public pipeline, computed before counting starts
        averages = average_class_probabilities(load_tensor(probs_path), conds)
        best = hungarian_max(averages)
        expected = assignment_to_json(best.mapping, best.score, averages)

        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(1)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(matching_mod, "as_probability_matrix",
                            counted(matching_mod.as_probability_matrix))
        out = tmp_path / "match.json"
        assert main(["match", "--probs", str(probs_path),
                     "--gen-labels", str(conds_path), "--out", str(out)]) == 0
        assert len(calls) == 1
        assert out.read_text() == expected


class TestCmdSynth:
    def test_matched_moments_outputs(self, tmp_path):
        rc = main(["synth", "matched-moments", "--n-per-class", "30",
                   "--seed", "9", "--out-dir", str(tmp_path / "mm")])
        assert rc == 0
        feats = load_tensor(tmp_path / "mm" / "a_features.cfm")
        labels = load_labels(tmp_path / "mm" / "a_labels.cfm", k=2)
        assert feats.shape == (60, 2)
        assert np.array_equal(np.bincount(labels), [30, 30])

    def test_tightness_outputs_feed_metrics(self, tmp_path):
        synth_dir = tmp_path / "tight"
        assert main(["synth", "tightness", "--sigma-real", "1,2",
                     "--sigma-gen", "2,1", "--n-per-class", "500",
                     "--seed", "3", "--out-dir", str(synth_dir)]) == 0
        out = tmp_path / "report.json"
        rc = main([
            "metrics",
            "--real-features", str(synth_dir / "real_features.cfm"),
            "--real-labels", str(synth_dir / "real_labels.cfm"),
            "--gen-features", str(synth_dir / "gen_features.cfm"),
            "--gen-labels", str(synth_dir / "gen_labels.cfm"),
            "--k", "2", "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["bcfid"] < 0.05
        assert abs(payload["fid"] - payload["cfid_sum"]) < 0.3

    def test_mixture_from_spec(self, tmp_path):
        spec = {"means": [[0, 0], [4, 4]], "covs": [[1, 1], [2, 1]], "counts": [20, 30]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        rc = main(["synth", "mixture", "--spec", str(spec_path),
                   "--seed", "2", "--out-dir", str(tmp_path / "mix")])
        assert rc == 0
        labels = load_labels(tmp_path / "mix" / "labels.cfm", k=2)
        assert np.array_equal(np.bincount(labels), [20, 30])

    def test_rings_and_dirichlet(self, tmp_path):
        assert main(["synth", "rings", "--radii", "1,3", "--n-per-class", "40",
                     "--out-dir", str(tmp_path / "rings")]) == 0
        assert load_tensor(tmp_path / "rings" / "features.cfm").shape == (80, 2)
        assert main(["synth", "dirichlet", "--alpha", "1,1,1",
                     "--n-per-class", "25", "--out-dir", str(tmp_path / "dir")]) == 0
        probs = load_tensor(tmp_path / "dir" / "probs.cfm")
        assert probs.shape == (25, 3)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_mixture_spec_with_rank_3_means_is_invalid_input(self, tmp_path, capsys):
        spec = {"means": [[[0, 0]], [[1, 1]]], "covs": [[1, 1], [1, 1]], "counts": [5, 5]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["synth", "mixture", "--spec", str(spec_path),
                     "--out-dir", str(tmp_path / "mix")]) == 2
        assert "means must be a K x d matrix, got shape (2, 1, 2)" in capsys.readouterr().err

    def test_mixture_without_spec_is_config_error(self, tmp_path):
        assert main(["synth", "mixture", "--out-dir", str(tmp_path)]) == 4

    @pytest.mark.parametrize("text, detail", [
        ("{not json", "Expecting property name"),
        ('{"means": [[0, 0]], "covs": [[1, 1]]}', "'counts'"),
    ], ids=["not-json", "missing-key"])
    def test_unreadable_spec_is_config_error(self, tmp_path, capsys, text, detail):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(text)
        out_dir = tmp_path / "mix"
        assert main(["synth", "mixture", "--spec", str(spec_path),
                     "--out-dir", str(out_dir)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"config error: bad mixture spec {spec_path}: ") and detail in err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("spec, message", [
        ({"means": [[0, "a"], [4, 4]], "covs": [[1, 1], [2, 1]], "counts": [20, 30]},
         "means has unsupported dtype <U21"),
        ({"means": [[0, 0], [4]], "covs": [[1, 1], [2, 1]], "counts": [20, 30]},
         "means is ragged: its rows differ in length"),
        ({"means": [[0, 0], [4, 4]], "covs": [[1, float("nan")], [2, 1]], "counts": [20, 30]},
         "covariance 0 contains non-finite entries"),
    ], ids=["non-numeric", "ragged", "nan"])
    def test_malformed_mixture_spec_is_invalid_input(self, tmp_path, capsys, spec, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_dir = tmp_path / "mix"
        assert main(["synth", "mixture", "--spec", str(spec_path),
                     "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"invalid input: {message}\n"
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("generator", ["rings", "matched-moments", "tightness", "dirichlet"])
    def test_negative_seed_is_invalid_input(self, tmp_path, capsys, generator):
        out_dir = tmp_path / "dir"
        assert main(["synth", generator, "--n-per-class", "5", "--seed", "-3",
                     "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == \
            "invalid input: seed must be an integer in [0, 2^63), got -3\n"
        assert list(out_dir.iterdir()) == []

    def test_nan_dirichlet_alpha_is_invalid_input(self, tmp_path, capsys):
        out_dir = tmp_path / "dir"
        assert main(["synth", "dirichlet", "--alpha", "nan,1", "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == "invalid input: alpha contains non-finite entries\n"
        assert list(out_dir.iterdir()) == []
