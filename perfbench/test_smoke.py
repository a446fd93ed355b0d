"""Tests of the benchmark itself, on tiny shapes; they finish in seconds.

    python3 -m pytest perfbench

Run from the root of the checkout.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 5):
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported_and_outputs_are_correct(workload, trace):
    result = result_of(run_bench(workload, trace))
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.5
        assert result["metrics"]["trace.missing"]["value"] == 0


def test_traced_counts_repeat_exactly():
    first, second = (result_of(run_bench("discovery_sweep", 1)) for _ in range(2))
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] in ("count", "bytes")}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["matching.lsa_solves"] > 0 and counts[0]["gaussian.decomp_work"] > 0


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("wide", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_generation_is_seeded(tmp_path):
    a = workloads.generate("classes", 3, tmp_path / "a", smoke=True)
    b = workloads.generate("classes", 3, tmp_path / "b", smoke=True)
    c = workloads.generate("classes", 4, tmp_path / "c", smoke=True)
    for name in ("probs.cfm", "gen-features.cfm", "real-labels.cfm"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()
    assert a.expected == b.expected


def _sweep_csv(rows: list[dict]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows({k: format(v, ".17g") for k, v in row.items()} for row in rows)
    return out.getvalue()


@pytest.fixture
def sweep_case(tmp_path):
    return workloads.generate("discovery_sweep", 7, tmp_path, smoke=True)


def _oracle_rows(case, scale=1.0):
    scalars = {k: v for k, v in case.expected.items() if not isinstance(v, list)}
    row = {"param": 0.0, **scalars, "dims_used": 5}
    row = {k: (v * scale if k in ("fid", "bcfid", "wcfid", "cfid_sum", "bcis") else v)
           for k, v in row.items()}
    return [{**row, "param": p} for p in case.grid]


def test_oracle_accepts_an_exact_algorithm_change(sweep_case):
    text = _sweep_csv(_oracle_rows(sweep_case, scale=1.0 + 1e-13))
    assert oracle.check_report(sweep_case, text) == []


def test_oracle_rejects_a_wrong_pairing(tmp_path, sweep_case):
    load = {name: _load_cfm(tmp_path / f"{name}.cfm")
            for name in ("real-features", "real-labels", "gen-features", "gen-labels")}
    wrong = list(sweep_case.planted)
    wrong[0], wrong[1] = wrong[1], wrong[0]
    scores = oracle.feature_scores(load["real-features"], load["real-labels"],
                                   load["gen-features"], load["gen-labels"],
                                   len(wrong), wrong)
    rows = _oracle_rows(sweep_case)
    rows = [{**row, "wcfid": scores["wcfid"], "cfid_sum": row["bcfid"] + scores["wcfid"]}
            for row in rows]
    failures = oracle.check_report(sweep_case, _sweep_csv(rows))
    assert any("wcfid" in f for f in failures)


def _load_cfm(path: Path):
    data = path.read_bytes()
    rank = data[9]
    dims = np.frombuffer(data, "<u8", count=rank, offset=12)
    dtype = "<f8" if data[8] == 1 else "<i8"
    return np.frombuffer(data, dtype, offset=12 + 8 * rank).reshape(dims)


def test_missing_bindings_are_listed_not_fatal(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.setattr(tracer, "BINDINGS", {("matching", "no_such_function"): ("matching.assign", ())})
    assert tracer.install(tracer.Tracer()) == ["matching.no_such_function"]
