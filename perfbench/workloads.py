"""Seeded synthetic inputs for the benchmark workloads.

Each workload is generated from ``(seed, workload name)`` only, written as
CFM1 tensor files into a fresh directory, and described by a ``Case``: the
CLI arguments to run, the planted class permutation and the oracle values the
report must reproduce.  The encoder and every oracle value here use plain
numpy; nothing is imported from condmetrics, so the program under test never
produces its own inputs or its own expected answers.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

# name -> (feature dim d, class count K, rows per class per side, with probs)
SHAPES = {
    "wide": dict(d=1024, k=10, n=50, probs=False),
    "classes": dict(d=32, k=1000, n=50, probs=True),
    "discovery_sweep": dict(d=64, k=128, n=50, probs=True),
}

# Tiny shapes with the same structure, for the benchmark's own tests.
SMOKE_SHAPES = {
    "wide": dict(d=48, k=3, n=8, probs=False),
    "classes": dict(d=4, k=40, n=6, probs=True),
    "discovery_sweep": dict(d=5, k=9, n=6, probs=True),
}

SWEEP_GRID = "0,0.2,0.4,0.6,0.8,1"
PROB_ROWS_PER_CHUNK = 5000


@dataclass
class Case:
    """Generated inputs of one workload and what the CLI must report on them."""

    workload: str
    argv_tail: list[str]          # CLI arguments except --out
    out_name: str                 # report file name (extension sets the format)
    expected: dict                # oracle values by report key
    planted: list[int] | None = None
    grid: list[float] | None = None   # sweep parameters, in row order
    bytes_in: int = 0
    shape: dict = field(default_factory=dict)


def write_cfm(path: Path, array: np.ndarray) -> int:
    """Write a float64 or int64 rank-1/2 array in the CFM1 layout; returns bytes."""
    a = np.ascontiguousarray(array)
    code = {"f": 1, "i": 2}[a.dtype.kind]
    a = a.astype("<f8" if code == 1 else "<i8", copy=False)
    with open(path, "wb") as fh:
        _write_cfm_header(fh, code, a.shape)
        fh.write(a.tobytes())
        _flush(fh)
    return path.stat().st_size


def _flush(fh) -> None:
    """Wait until the file is on disk, so no write-back runs during timing."""
    fh.flush()
    os.fsync(fh.fileno())


def _write_cfm_header(fh, code: int, shape) -> None:
    fh.write(struct.pack("<4sIBBxx", b"CFM1", 1, code, len(shape)))
    fh.write(struct.pack(f"<{len(shape)}Q", *shape))


def _rng(seed: int, workload: str, part: str) -> np.random.Generator:
    key = [zlib.crc32(workload.encode()), zlib.crc32(part.encode())]
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=key))


def _features(rng, means, labels, scale) -> np.ndarray:
    """Rows mean[label] + noise with a per-dimension scale profile."""
    d = means.shape[1]
    return means[labels] + rng.normal(size=(labels.size, d)) * scale


def _shuffled_labels(rng, k: int, n: int) -> np.ndarray:
    return rng.permutation(np.repeat(np.arange(k, dtype=np.int64), n))


def _two_sides(seed, workload, d, k, n, planted):
    """Real and generated features with generated condition j drawn from
    real class planted[j], shifted and widened so every distance is non-zero."""
    rng = _rng(seed, workload, "means")
    means = rng.normal(0.0, 2.0, (k, d))
    profile = rng.uniform(0.5, 1.5, d)
    real_y = _shuffled_labels(_rng(seed, workload, "real-labels"), k, n)
    gen_y = _shuffled_labels(_rng(seed, workload, "gen-labels"), k, n)
    real_x = _features(_rng(seed, workload, "real-x"), means, real_y, profile)
    gen_means = means[planted] + rng.normal(0.0, 0.3, (k, d))
    gen_x = _features(_rng(seed, workload, "gen-x"), gen_means, gen_y, 1.1 * profile)
    return real_x, real_y, gen_x, gen_y


def _planted_permutation(rng, k: int) -> np.ndarray:
    """A seeded permutation of [0, k) with a seed-independent alignment cost.

    The lexicographic tie-break in condmetrics' class alignment tries, for
    row r, every still-free column below the optimal one, so its work is the
    sum of the permutation's Lehmer digits.  A uniform permutation would make
    that sum, and the run time, vary by several percent from seed to seed.
    Here each digit starts mid-range and rows 2i and 2i+1 get opposite random
    offsets, which keeps the sum fixed while the permutation varies.
    """
    digits = np.array([(k - 1 - r) // 2 for r in range(k)])
    for r in range(0, k - 1, 2):
        room = min(digits[r], k - 1 - r - digits[r], digits[r + 1], k - 2 - r - digits[r + 1])
        shift = int(rng.integers(-room, room + 1))
        digits[r] += shift
        digits[r + 1] -= shift
    free = list(range(k))
    return np.array([free.pop(d) for d in digits])


def _write_probs(path: Path, seed, workload, gen_y, peak_class, boost, hit_frac):
    """Softmax rows written in chunks; the oracle reductions run on each chunk
    so the full N x K matrix is never held in memory at once."""
    k = int(peak_class.max()) + 1
    acc = oracle.ProbAccumulator(k)
    with open(path, "wb") as fh:
        _write_cfm_header(fh, 1, (gen_y.size, k))
        for start in range(0, gen_y.size, PROB_ROWS_PER_CHUNK):
            rows = gen_y[start:start + PROB_ROWS_PER_CHUNK]
            rng = _rng(seed, workload, f"probs-{start}")
            logits = rng.normal(0.0, 1.0, (rows.size, k))
            hit = rng.random(rows.size) < hit_frac
            logits[np.flatnonzero(hit), peak_class[rows[hit]]] += boost
            p = np.exp(logits - logits.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            fh.write(p.astype("<f8", copy=False).tobytes())
            acc.add(p, rows)
        _flush(fh)
    return path.stat().st_size, acc.finish()


def generate(workload: str, seed: int, out_dir: Path, smoke: bool = False) -> Case:
    """Write the inputs of ``workload`` for ``seed`` into ``out_dir``."""
    shape = (SMOKE_SHAPES if smoke else SHAPES)[workload]
    d, k, n = shape["d"], shape["k"], shape["n"]
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "discovery_sweep":
        planted = _planted_permutation(_rng(seed, workload, "planted"), k)
    else:
        planted = np.arange(k)
    real_x, real_y, gen_x, gen_y = _two_sides(seed, workload, d, k, n, planted)
    files = {
        "real-features": real_x, "real-labels": real_y,
        "gen-features": gen_x, "gen-labels": gen_y,
    }
    argv = []
    bytes_in = 0
    for flag, arr in files.items():
        path = out_dir / f"{flag}.cfm"
        bytes_in += write_cfm(path, arr)
        argv += [f"--{flag}", str(path)]

    expected = oracle.feature_scores(real_x, real_y, gen_x, gen_y, k, planted)
    if shape["probs"]:
        path = out_dir / "probs.cfm"
        boost, hit_frac = (6.0, 0.7) if workload == "classes" else (3.0, 1.0)
        size, prob_scores = _write_probs(path, seed, workload, gen_y, planted, boost, hit_frac)
        expected.update(prob_scores)
        bytes_in += size
        argv += ["--probs", str(path)]

    if workload == "discovery_sweep":
        argv = ["sweep", "--experiment", "label_noise", "--grid", SWEEP_GRID,
                "--pairing", "hungarian", *argv]
        out_name = "report.csv"
    else:
        argv = ["metrics", *argv]
        out_name = "report.json"
    grid = [float(g) for g in SWEEP_GRID.split(",")] if workload == "discovery_sweep" else None
    case = Case(workload, argv, out_name, expected, planted=planted.tolist(),
                grid=grid, bytes_in=bytes_in, shape=dict(shape))
    # beside the inputs for inspection; the CLI is never given this file
    (out_dir / "expected.json").write_text(json.dumps(dataclasses.asdict(case), indent=1))
    return case
