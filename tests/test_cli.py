import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import condmetrics
from condmetrics import MixtureSpec, gen_mixture, load_labels, load_tensor, save_csv, save_tensor
import condmetrics.cli as cli
from condmetrics.cli import main, make_parser
from condmetrics.evaluate import _OPTION_READERS
from condmetrics.metrics import MetricReport
from condmetrics.report import JSON_KEYS, report_to_json
from condmetrics.synth import CollapseSchedule, rng_for


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


def run_module(module, argv):
    """``python -W error -m module *argv`` in a child that imports the same
    package as this test, installed or not."""
    src = str(Path(condmetrics.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error", "-m", module, *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


def metrics_args(paths, out, extra=()):
    return [
        "metrics",
        "--real-features", str(paths["real_features"]),
        "--real-labels", str(paths["real_labels"]),
        "--gen-features", str(paths["gen_features"]),
        "--gen-labels", str(paths["gen_labels"]),
        "--probs", str(paths["probs"]),
        "--seed", "11", "--out", str(out), *extra,
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

    def test_non_finite_numbers_are_written_as_null(self):
        report = MetricReport(fid=float("nan"), bcfid=float("inf"), wcfid=-np.inf,
                              per_class_fid=np.array([np.nan, np.inf, -np.inf, 1.5]))
        text = report_to_json(report)
        assert '"fid":null,"bcfid":null,"wcfid":null,' in text
        assert '"per_class_fid":[null,null,null,1.5],' in text
        payload = json.loads(text)
        assert [payload[key] for key in ("fid", "bcfid", "wcfid")] == [None] * 3

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
        out = tmp_path / "report.json"
        proc = run_module("condmetrics", metrics_args(dataset, out))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["fid"] >= 0


@pytest.mark.parametrize("command", ["metrics", "sweep", "match"])
def test_stdout_gets_the_bytes_of_the_out_file(dataset, tmp_path, capsysbinary, command):
    # --out - and no --out both write the report to stdout
    flags = metrics_args(dataset, "-")[1:-2]
    argv = {
        "metrics": ["metrics", *flags],
        "sweep": ["sweep", "--experiment", "label_noise", "--grid", "0,0.5", *flags],
        "match": ["match", "--probs", str(dataset["probs"]),
                  "--gen-labels", str(dataset["gen_labels"])],
    }[command]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    for to_stdout in (["--out", "-"], []):
        assert main([*argv, *to_stdout]) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()


class TestBlasThreads:
    """Reports are byte-identical for one numpy/BLAS build and thread count;
    across BLAS thread counts they agree to round-off."""

    @staticmethod
    def _inputs(tmp_path):
        # K=20 classes of 110 rows at d=512: the pooled sides (2200 rows) take
        # the Gram path, the classes (110 rows) their rows as the factor
        k, n, d = 20, 110, 512
        rng = rng_for(31)
        means = rng.normal(0.0, 1.0, (k, d))
        labels = np.repeat(np.arange(k), n)
        real = means[labels] + rng.normal(0.0, 1.0, (labels.size, d))
        gen = means[labels] + 0.1 + rng.normal(0.0, 1.2, (labels.size, d))
        paths = {}
        for name, arr in [("real_features", real), ("real_labels", labels),
                          ("gen_features", gen), ("gen_labels", labels),
                          ("probs", one_hot_dominant(labels, k, strength=0.3, seed=32))]:
            paths[name] = tmp_path / f"{name}.cfm"
            save_tensor(paths[name], arr)
        return paths, real.var(axis=0).sum() + gen.var(axis=0).sum()

    def test_thread_count_moves_scores_by_round_off_only(self, tmp_path):
        paths, traces = self._inputs(tmp_path)
        src = str(Path(condmetrics.__file__).resolve().parents[1])
        reports = {}
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            outputs = []
            for run in range(2):
                out = tmp_path / f"report-{threads}-{run}.json"
                argv = metrics_args(paths, out)
                proc = subprocess.run([sys.executable, "-m", "condmetrics", *argv],
                                      capture_output=True, text=True, env=env)
                assert proc.returncode == 0, proc.stderr
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1]
            reports[threads] = json.loads(outputs[0])
        one, two = reports["1"], reports["2"]
        for key in ("fid", "bcfid", "wcfid", "cfid_sum", "per_class_fid"):
            assert np.allclose(one[key], two[key], rtol=0.0, atol=1e-12 * traces), key
        for key in ("is", "bcis", "wcis", "per_class_is", "accuracy", "per_class_accuracy"):
            assert np.allclose(one[key], two[key], rtol=1e-12, atol=0.0), key


class TestExitCodes:
    def test_missing_file_is_config_error(self, tmp_path):
        rc = main(["metrics", "--probs", str(tmp_path / "absent.cfm")])
        assert rc == 4

    def test_no_inputs_is_config_error(self):
        assert main(["metrics"]) == 4

    def test_out_in_a_missing_directory_is_config_error(self, dataset, tmp_path, capsys):
        out = tmp_path / "absent" / "report.json"
        assert main(metrics_args(dataset, out)) == 4
        assert capsys.readouterr().err.startswith(f"config error: cannot write --out {out}: ")

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

    def test_trials_without_subset_size_is_config_error(self, dataset, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(metrics_args(dataset, out, ["--trials", "7"])) == 4
        assert capsys.readouterr().err == "config error: option --trials needs --subset-size\n"
        assert not out.exists()

    @pytest.mark.parametrize("extra, rc", [
        (["--subset-size", "5", "--trials", "7"], 4),
        (["--trials", "7"], 4),
        ([], 0),
        (["--trials", "1"], 0),
        (["--pairing", "hungarian"], 4),
    ])
    def test_subsampling_flags_without_features(self, dataset, tmp_path, capsys, extra, rc):
        out = tmp_path / "report.json"
        assert main(["metrics", "--probs", str(dataset["probs"]),
                     "--gen-labels", str(dataset["gen_labels"]),
                     "--out", str(out), *extra]) == rc
        if rc:
            # the first flag is refused; --trials is read only under --subset-size
            err = capsys.readouterr().err
            needs = "--subset-size" if extra[0] == "--trials" else "features on both sides"
            assert f"config error: option {extra[0]}" in err and f"needs {needs}" in err
        assert out.exists() == (rc == 0)

    def test_real_labels_without_features_is_config_error(self, dataset, tmp_path, capsys):
        # ten labels for 150 rows: nothing would have read them
        few = tmp_path / "few-labels.cfm"
        save_tensor(few, np.zeros(10, dtype=np.int64))
        out = tmp_path / "report.json"
        assert main(["metrics", "--probs", str(dataset["probs"]),
                     "--gen-labels", str(dataset["gen_labels"]), "--real-labels", str(few),
                     "--out", str(out)]) == 4
        assert ("config error: option --real-labels needs features on both sides"
                in capsys.readouterr().err)
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

    def test_empty_grid_is_config_error(self, dataset, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--experiment", "label_noise", "--grid", "",
                   "--gen-labels", str(dataset["gen_labels"]),
                   "--probs", str(dataset["probs"]), "--out", str(out)])
        assert rc == 4
        assert "unparseable --grid value: ''" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_with_mode_collapse_is_config_error(self, dataset, tmp_path, capsys):
        out = tmp_path / "c.csv"
        rc = main(["sweep", "--experiment", "mode_collapse", "--grid", "0,0.5",
                   "--gen-features", str(dataset["gen_features"]),
                   "--gen-labels", str(dataset["gen_labels"]), "--out", str(out)])
        assert rc == 4
        assert ("config error: option --grid needs --experiment label_noise"
                in capsys.readouterr().err)
        assert not out.exists()

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
                   "--out", str(tmp_path / "c.csv")])
        assert rc == 4
        assert "--collapsed-classes" in capsys.readouterr().err

    def test_repeated_collapsed_class_is_invalid_input(self, dataset, tmp_path, capsys):
        rc = main(["sweep", "--experiment", "mode_collapse", "--collapsed-classes", "0,0",
                   "--real-features", str(dataset["real_features"]),
                   "--real-labels", str(dataset["real_labels"]),
                   "--gen-features", str(dataset["gen_features"]),
                   "--gen-labels", str(dataset["gen_labels"]),
                   "--out", str(tmp_path / "c.csv")])
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
                   "--out", str(out)])
        assert rc == 2
        assert "label count 160 does not match row count 150" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--steps", "3"), ("--shrink-factor", "0.5"), ("--per-class-sample", "20"),
        ("--collapsed-classes", "1"),
    ])
    def test_collapse_flag_with_label_noise_is_config_error(
            self, dataset, tmp_path, capsys, flag, value):
        # refused before any input is read: the absent label file is never looked for
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--experiment", "label_noise", flag, value, "--grid", "0,1",
                   "--gen-labels", str(tmp_path / "absent.cfm"),
                   "--probs", str(dataset["probs"]), "--out", str(out)])
        assert rc == 4
        assert capsys.readouterr().err == \
            f"config error: option {flag} needs --experiment mode_collapse\n"
        assert not out.exists()

    def test_not_psd_maps_to_exit_three(self, dataset, tmp_path, monkeypatch):
        from condmetrics import NotPSDError

        def boom(**kwargs):
            raise NotPSDError("synthetic failure")

        monkeypatch.setattr(cli, "build_report", boom)
        assert main(metrics_args(dataset, tmp_path / "x.json")) == 3


class TestLibraryDefaults:
    """The CLI states no default of the library: an option left out is left to it."""

    INPUTS = {"real_features", "real_labels", "gen_features", "gen_labels", "probs"}
    OPTIONS = ["subset_size", "trials", "seed", "pairing"]
    SCHEDULE = ["steps", "shrink_factor", "per_class_sample", "collapsed_classes"]

    def test_parser_leaves_library_options_unset(self):
        parser = make_parser()
        metrics = parser.parse_args(["metrics"])
        sweep = parser.parse_args(["sweep", "--experiment", "mode_collapse"])
        assert [getattr(metrics, name) for name in self.OPTIONS] == [None] * 4
        assert [getattr(sweep, name) for name in self.OPTIONS + self.SCHEDULE] == [None] * 8

    def test_only_given_options_reach_the_library(self, dataset, tmp_path, monkeypatch):
        calls = {}

        def stub(name, result):
            def record(**kwargs):
                calls[name] = kwargs
                return result
            monkeypatch.setattr(cli, name, record)

        stub("build_report", MetricReport())
        stub("sweep_label_noise", [])
        stub("sweep_mode_collapse", [])
        labels = ["--gen-labels", str(dataset["gen_labels"])]
        out = ["--out", str(tmp_path / "out")]
        assert main(["metrics", *labels, "--seed", "3", *out]) == 0
        assert main(["sweep", "--experiment", "label_noise", *labels, "--pairing",
                     "identity", *out]) == 0
        assert main(["sweep", "--experiment", "mode_collapse", *labels, "--steps", "3",
                     *out]) == 0
        assert {name: set(kwargs) - self.INPUTS for name, kwargs in calls.items()} == {
            "build_report": {"seed"}, "sweep_label_noise": {"pairing"},
            "sweep_mode_collapse": {"schedule"}}
        assert calls["build_report"]["seed"] == 3
        assert calls["sweep_mode_collapse"]["schedule"] == CollapseSchedule(steps=3)


class TestUnreadOptions:
    """An option that differs from its default while none of the inputs that
    read it is given exits 4, naming its flag, before anything is written."""

    # a value other than the default for each option in the library's table
    VALUES = {"subset_size": "2", "trials": "3", "pairing": "hungarian", "real_labels": None}

    def test_every_option_has_readers_or_is_always_read(self):
        assert set(cli._OPTIONS) - set(_OPTION_READERS) == {"seed"}
        assert set(self.VALUES) == set(_OPTION_READERS)
        # the table's defaults are the library's
        params = inspect.signature(condmetrics.build_report).parameters
        assert {name: params[name].default for name in _OPTION_READERS} == {
            name: default for name, (default, _, _) in _OPTION_READERS.items()}

    @pytest.mark.parametrize("name", list(VALUES))
    def test_option_without_readers_exits_4_naming_its_flag(
            self, dataset, tmp_path, capsys, name):
        # probabilities alone: no labels and no features, so nothing reads any option
        flag = "--" + name.replace("_", "-")
        value = self.VALUES[name] or str(dataset[name])
        out = tmp_path / "report.json"
        assert main(["metrics", "--probs", str(dataset["probs"]), flag, value,
                     "--out", str(out)]) == 4
        shown = f" {value}" if name == "pairing" else ""
        needs = {"trials": "--subset-size"}.get(
            name, "features on both sides; --real-features and --gen-features are missing")
        assert capsys.readouterr().err == f"config error: option {flag}{shown} needs {needs}\n"
        assert not out.exists()


class TestClassCountIsDerived:
    """K and the class weights are read off the inputs: no flag or parameter
    sets them.  The weights are the classes' empirical frequencies."""

    COMMANDS = [["metrics"], ["sweep", "--experiment", "label_noise"]]
    PUBLIC = [name for name, obj in vars(condmetrics).items() if name in condmetrics.__all__
              and callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception))]

    @staticmethod
    def assert_usage_error(dataset, tmp_path, capsys, command, extra):
        out = tmp_path / "out"
        flags = metrics_args(dataset, out)[1:]
        with pytest.raises(SystemExit) as exit_:
            main([*command, *flags, *extra])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: condmetrics {command[0]} [-h] ")
        assert f"unrecognized arguments: {' '.join(extra)}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_k_flag_is_a_usage_error(self, dataset, tmp_path, capsys, command):
        self.assert_usage_error(dataset, tmp_path, capsys, command, ["--k", "3"])

    @pytest.mark.parametrize("command", COMMANDS)
    def test_weighting_flag_is_a_usage_error(self, dataset, tmp_path, capsys, command):
        self.assert_usage_error(dataset, tmp_path, capsys, command, ["--weighting", "empirical"])

    @pytest.mark.parametrize("name", PUBLIC)
    def test_no_public_callable_takes_a_class_count(self, name):
        params = inspect.signature(getattr(condmetrics, name)).parameters
        assert not {"k", "class_count"} & set(params)

    @pytest.mark.parametrize("name", PUBLIC)
    def test_no_public_callable_takes_a_weighting(self, name):
        assert "weighting" not in inspect.signature(getattr(condmetrics, name)).parameters


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
            "--seed", "4", "--out", str(out),
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
            "--seed", "7", "--out", str(out),
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
            "--seed", "0", "--out", str(out),
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
    def test_missing_input_is_usage_error(self, dataset, tmp_path, capsys, given):
        out = tmp_path / "match.json"
        with pytest.raises(SystemExit) as exit_:
            main(["match", "--" + given.replace("_", "-"), str(dataset[given]),
                  "--out", str(out)])
        assert exit_.value.code == 2
        missing = "--gen-labels" if given == "probs" else "--probs"
        assert f"error: the following arguments are required: {missing}\n" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_cli_module_form_writes_the_output(self, dataset, tmp_path):
        argv = ["match", "--probs", str(dataset["probs"]),
                "--gen-labels", str(dataset["gen_labels"])]
        child, here = tmp_path / "child.json", tmp_path / "here.json"
        proc = run_module("condmetrics.cli", [*argv, "--out", str(child)])
        assert proc.returncode == 0, proc.stderr
        assert main([*argv, "--out", str(here)]) == 0
        assert child.read_bytes() == here.read_bytes()

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
        import condmetrics.tensorfile as tensorfile_mod
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

        checked = []
        check = tensorfile_mod._checked_probability_rows

        def counted(p, lo, hi, start, out=None):
            checked.extend(range(start, start + len(p)))
            return check(p, lo, hi, start, out)

        monkeypatch.setattr(tensorfile_mod, "_checked_probability_rows", counted)
        out = tmp_path / "match.json"
        assert main(["match", "--probs", str(probs_path),
                     "--gen-labels", str(conds_path), "--out", str(out)]) == 0
        # one read of the file, which checks each row as it goes by
        assert sorted(checked) == list(range(conds.size))
        assert out.read_text() == expected


class TestCmdSynth:
    def test_matched_moments_outputs(self, tmp_path):
        rc = main(["synth", "matched-moments", "--n-per-class", "30",
                   "--seed", "9", "--out-dir", str(tmp_path / "mm")])
        assert rc == 0
        feats = load_tensor(tmp_path / "mm" / "a_features.cfm")
        labels = load_labels(tmp_path / "mm" / "a_labels.cfm")
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
            "--out", str(out),
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
        labels = load_labels(tmp_path / "mix" / "labels.cfm")
        assert np.array_equal(np.bincount(labels), [20, 30])

    def test_dirichlet_rows_take_alpha_columns(self, tmp_path):
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

    def test_mixture_without_spec_is_usage_error(self, tmp_path, capsys):
        out_dir = tmp_path / "mix"
        with pytest.raises(SystemExit) as exit_:
            main(["synth", "mixture", "--out-dir", str(out_dir)])
        assert exit_.value.code == 2
        assert "error: the following arguments are required: --spec\n" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_out_dir_naming_a_file_is_config_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["synth", "dirichlet", "--out-dir", str(taken)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create --out-dir {taken}: ")

    @pytest.mark.parametrize("text, detail", [
        ("{not json", "Expecting property name"),
        ('{"means": [[0, 0]], "covs": [[1, 1]]}', "'counts'"),
        ("[[0, 0], [1, 1]]", "list indices must be integers"),
    ], ids=["not-json", "missing-key", "not-an-object"])
    def test_unreadable_spec_is_config_error(self, tmp_path, capsys, text, detail):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(text)
        out_dir = tmp_path / "mix"
        assert main(["synth", "mixture", "--spec", str(spec_path),
                     "--out-dir", str(out_dir)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"config error: bad mixture spec {spec_path}: ") and detail in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("spec, message", [
        ({"means": [[0, "a"], [4, 4]], "covs": [[1, 1], [2, 1]], "counts": [20, 30]},
         "means has unsupported dtype <U21"),
        ({"means": [[0, 0], [4]], "covs": [[1, 1], [2, 1]], "counts": [20, 30]},
         "means is ragged: its rows differ in length"),
        ({"means": [[0, 0], [4, 4]], "covs": [[1, float("nan")], [2, 1]], "counts": [20, 30]},
         "covariance 0 contains non-finite entries"),
        ({"means": [[0, 0], [4, 4]], "covs": 1.0, "counts": [20, 30]},
         "covs must be a sequence of covariances, one per class, got float"),
    ], ids=["non-numeric", "ragged", "nan", "scalar-covs"])
    def test_malformed_mixture_spec_is_invalid_input(self, tmp_path, capsys, spec, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_dir = tmp_path / "mix"
        assert main(["synth", "mixture", "--spec", str(spec_path),
                     "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"invalid input: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("generator", ["matched-moments", "tightness", "dirichlet"])
    def test_negative_seed_is_invalid_input(self, tmp_path, capsys, generator):
        out_dir = tmp_path / "dir"
        assert main(["synth", generator, "--n-per-class", "5", "--seed", "-3",
                     "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == \
            "invalid input: seed must be an integer in [0, 2^63), got -3\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("generator, flags, unread", [
        ("matched-moments", ["--spec", "absent.json", "--n-per-class", "10"], "--spec"),
        ("tightness", ["--alpha", "1,2", "--spec", "absent.json"], "--alpha"),
        ("dirichlet", ["--sigma-real", "9"], "--sigma-real"),
        ("tightness", ["--spec", "absent.json"], "--spec"),
        ("mixture", ["--spec", "absent.json", "--n-per-class", "10"], "--n-per-class"),
    ])
    def test_flag_the_generator_does_not_define_is_usage_error(
            self, tmp_path, capsys, generator, flags, unread):
        out_dir = tmp_path / "dir"
        with pytest.raises(SystemExit) as exit_:
            main(["synth", generator, *flags, "--out-dir", str(out_dir)])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: condmetrics synth {generator} [-h] ")
        assert f"error: unrecognized arguments: {unread} " in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("generator, flags", [
        ("mixture", ["--spec"]),
        ("matched-moments", ["--n-per-class"]),
        ("tightness", ["--n-per-class", "--sigma-real", "--sigma-gen"]),
        ("dirichlet", ["--n-per-class", "--alpha"]),
    ])
    def test_generator_help_lists_only_its_flags(self, capsys, generator, flags):
        with pytest.raises(SystemExit) as exit_:
            main(["synth", generator, "--help"])
        assert exit_.value.code == 0
        shown = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert shown == {"--help", "--seed", "--out-dir", *flags}

    @pytest.mark.parametrize("generator, defaults", [
        ("matched-moments", ["--n-per-class", "1000"]),
        ("tightness", ["--sigma-real", "1,2", "--sigma-gen", "2,1", "--n-per-class", "1000"]),
        ("dirichlet", ["--alpha", "1,1", "--n-per-class", "1000"]),
    ])
    def test_flags_left_out_take_their_defaults(self, tmp_path, generator, defaults):
        runs = []
        for run, flags in (("plain", []), ("given", defaults)):
            out_dir = tmp_path / run
            assert main(["synth", generator, *flags, "--out-dir", str(out_dir)]) == 0
            runs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
        assert runs[0] == runs[1]

    def test_nan_dirichlet_alpha_is_invalid_input(self, tmp_path, capsys):
        out_dir = tmp_path / "dir"
        assert main(["synth", "dirichlet", "--alpha", "nan,1", "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == "invalid input: alpha contains non-finite entries\n"
        assert not out_dir.exists()


SYNTH_SPEC = {
    "means": [[0, 0, 1], [2, -1, 0], [1, 1, 1]],
    "covs": [[[2, 0.5, 0.1], [0.5, 1, 0.2], [0.1, 0.2, 0.7]], [1, 2, 3],
             [[1, 0.9, 0], [0.9, 1, 0], [0, 0, 0]]],
    "counts": [30, 40, 25],
}
# (features file, labels file, rows per class, dimension) that
# `synth <generator> --n-per-class 30` writes (mixture: SYNTH_SPEC)
SYNTH_FILES = {
    "mixture": ("features", "labels", [30, 40, 25], 3),
    "matched-moments": ("a_features", "a_labels", [30, 30], 2),
    "tightness": ("real_features", "real_labels", [30, 30], 2),
}


@pytest.mark.parametrize("generator", [*SYNTH_FILES, "dirichlet"])
def test_synth_outputs_are_seeded_and_class_blocked(tmp_path, generator):
    # the same seed writes the same bytes; labels are class-blocked in the
    # expected counts, and the tightness case's constant coordinates are exact
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SYNTH_SPEC))
    flags = ["--spec", str(spec_path)] if generator == "mixture" else ["--n-per-class", "30"]
    runs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        assert main(["synth", generator, *flags, "--seed", "7", "--out-dir", str(out_dir)]) == 0
        runs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
    assert runs[0] == runs[1]
    if generator == "dirichlet":
        assert load_tensor(tmp_path / "a" / "probs.cfm").shape == (30, 2)
        return
    features, labels, counts, d = SYNTH_FILES[generator]
    y = load_labels(tmp_path / "a" / f"{labels}.cfm")
    assert np.array_equal(y, np.repeat(np.arange(len(counts)), counts))
    assert load_tensor(tmp_path / "a" / f"{features}.cfm").shape == (sum(counts), d)
    if generator == "tightness":
        for side in ("real", "gen"):
            x = load_tensor(tmp_path / "a" / f"{side}_features.cfm")
            assert np.all(x[:30, 0] == 1.0) and np.all(x[30:, 1] == 1.0)
