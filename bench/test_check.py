"""Tests of the benchmark's own output check and work counts.

    python3 -m pytest bench/test_check.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from check import Z_BOUND, cell_key, check_rows, load_reference, standard_error
from workloads import EXACT_GRID, WORKLOADS, Step

ROOT = Path(__file__).resolve().parent.parent
SEED = 11


def exact_rows() -> list[dict]:
    rows = load_reference("exact_grid.json")["rows"]
    return [dict(row, seed=SEED, wall_time_ms=5) for row in rows]


def sampler_rows(step: Step, shift_se: float = 0.0) -> list[dict]:
    """Rows a correct run could write, the first one's mean shifted by `shift_se`."""
    ref = load_reference("sampler.json")
    rows = []
    for n in step.n_list:
        for b in step.b_list:
            cell = ref["cells"][cell_key(n, b)]
            for target in step.targets:
                row = {
                    "run_id": f"{target}/{ref['motif_hash'][:6]}/n{n}/b{b!r}",
                    "motif_hash": ref["motif_hash"], "a": cell["a"],
                    "lambda_target": cell["lambda_target"], "mean": cell["mean"],
                    "var": cell["mean"], "M2": 0.1, "M3": 0.01, "tv_exact_or_empirical": 0.02,
                    "sample_size": step.samples, "seed": SEED, "error": "",
                }
                rows.append(row)
    rows[0]["mean"] += shift_se * standard_error(rows[0], ref["cells"][cell_key(
        step.n_list[0], step.b_list[0])], step.kind)
    return rows


def test_exact_reference_passes_itself():
    rows = exact_rows()
    assert check_rows(EXACT_GRID, SEED, rows) == (len(rows), 0, [])


@pytest.mark.parametrize("column", ["mean", "var", "a", "tv_exact_or_empirical", "M2"])
def test_exact_check_rejects_1e9_relative_perturbation(column):
    rows = exact_rows()
    index = next(i for i, row in enumerate(rows) if isinstance(row[column], float)
                 and abs(row[column]) > 1e-2)
    rows[index][column] *= 1 + 1e-9
    attempted, failed, problems = check_rows(EXACT_GRID, SEED, rows)
    assert (attempted, failed) == (len(rows), 1)
    assert column in problems[0]


def test_exact_check_counts_missing_and_error_rows():
    rows = exact_rows()
    rows[3]["error"] = "OverflowError: boom"
    attempted, failed, _ = check_rows(EXACT_GRID, SEED, rows[:-2])
    assert (attempted, failed) == (len(rows), 3)
    assert check_rows(EXACT_GRID, SEED, None)[:2] == (len(rows), len(rows))


@pytest.mark.parametrize("step", [*WORKLOADS["mcmc_grid"], *WORKLOADS["cftp_grid"]],
                         ids=lambda s: s.name)
def test_sampler_check_rejects_a_mean_several_standard_errors_off(step):
    rows = sampler_rows(step)
    assert check_rows(step, SEED, rows) == (len(rows), 0, [])
    assert check_rows(step, SEED, sampler_rows(step, shift_se=Z_BOUND - 1))[1] == 0
    shifted = sampler_rows(step, shift_se=Z_BOUND + 1)
    attempted, failed, problems = check_rows(step, SEED, shifted)
    assert (attempted, failed) == (len(rows), 1)
    assert "standard errors from the reference" in problems[0]


def test_sampler_check_rejects_wrong_field_and_seed():
    step = WORKLOADS["cftp_grid"][0]
    rows = sampler_rows(step)
    rows[1]["a"] *= 1 + 1e-9
    rows[2]["seed"] = SEED + 1
    assert check_rows(step, SEED, rows)[1] == 2


TINY = {
    "exact": Step(name="exact", kind="exact", d=1, motif="single_plus_d1.motif",
                  n_list=(8, 10), b_list=(0.0, 0.4), targets=EXACT_GRID.targets),
    "heat_bath": Step(name="heat_bath", kind="heat_bath", d=2, motif="single_plus_d2.motif",
                      n_list=(5,), b_list=(-0.3, 0.25), targets=("expectation", "tv"),
                      samples=200, burn_in_sweeps=10, thinning_sweeps=2),
    "cftp": Step(name="cftp", kind="cftp", d=2, motif="single_plus_d2.motif",
                 n_list=(5,), b_list=(0.25,), targets=("expectation",), samples=300),
}


def traced_counts(step: Step, seed: int, tmp_path: Path) -> dict:
    config = step.write(tmp_path / f"seed{seed}", seed)
    out = tmp_path / f"out{seed}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(ROOT / "bench" / "child.py"), "trace", str(config),
                    str(out), str(tmp_path / f"trace{seed}.json")],
                   check=True, env=env, cwd=ROOT, capture_output=True, timeout=120)
    trace = json.loads((tmp_path / f"trace{seed}.json").read_text())
    calls = {name: stats["calls"] for name, stats in trace["functions"].items()}
    return {"counts": trace["counts"], "calls": calls, "lattices": trace["lattices"],
            "cells": trace["cells"]}


@pytest.mark.parametrize("name", TINY)
def test_work_counts_repeat_exactly_across_seeds(name, tmp_path):
    first = traced_counts(TINY[name], 1, tmp_path)
    assert first == traced_counts(TINY[name], 2, tmp_path)
    counts = first["counts"]
    if name == "exact":
        # 2 n x 2 b cells: 3 builds and 9 count passes per cell
        assert counts["exact.configs"] == 6 * (2**8 + 2**10)
        assert first["calls"]["exact.build_exact"] == 12 and first["lattices"] == 2
        assert first["calls"]["counting.count_all_masks"] == 9 * first["cells"] == 36
    elif name == "heat_bath":
        # 2 cells x 64 chains x (10 + 2 * (4 - 1)) sweeps x 25 sites; 200 of 256 rows kept
        assert counts["sampler.site_updates"] == 2 * 64 * 16 * 25
        assert counts["counting.sample_sites"] == 2 * 200 * 25
    else:
        assert counts["sampler.cftp_draws"] == 300
        assert first["calls"]["sampler.cftp_batch"] == 1
