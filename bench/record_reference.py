"""Record the references that bench/check.py compares the program's rows with.

    PYTHONPATH=src python3 bench/record_reference.py

Writes bench/reference/exact_grid.json, the exact workload's rows without
`seed` and `wall_time_ms`, and bench/reference/sampler.json, which holds for
every (n, b) cell of the sampler workloads:

* `mean`, `se`: the mean motif count from an independent long run with its
  own seed, and that mean's standard error.  For b >= 0 the run draws exact
  samples by coupling from the past; for b < 0 (where that cannot run) it is a
  long heat-bath run.
* `tau`: the integrated autocorrelation time of each kernel's count series
  at the workload's burn-in and thinning (1 for independent CFTP draws),
  estimated with Sokal's automatic window from a long run of 64 chains.
* `a`, `lambda_target`: the field and Poisson target the program computes.

Re-record only when the program is meant to change these numbers.  It takes
about ten minutes on two cores.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from isingmotif import cli  # noqa: E402
from isingmotif.analysis import poisson_limit  # noqa: E402
from isingmotif.counting import EXACT_MATCH, count_samples  # noqa: E402
from isingmotif.exact import FieldSchedule  # noqa: E402
from isingmotif.lattice import TorusLattice  # noqa: E402
from isingmotif.motifs import parse_motif_text  # noqa: E402
from isingmotif.sampler import SamplerSpec, cftp_batch, sample_with_params  # noqa: E402

from check import IGNORED, REFERENCE, cell_key  # noqa: E402
from workloads import CFTP_GRID, EXACT_GRID, MOTIFS, WORKLOADS  # noqa: E402

SEED = 0x5EED_BE4C  # no workload is run with this seed
CFTP_DRAWS = 100_000
CHAINS = 64
SAMPLES_PER_CHAIN = 1000


def integrated_autocorrelation(series: np.ndarray, c: float = 5.0) -> float:
    """Sokal's windowed estimate of tau_int for (chains, length) series."""
    x = series - series.mean()
    length = x.shape[1]
    spectrum = np.fft.rfft(x, n=2 * length, axis=1)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), axis=1)[:, :length].sum(axis=0)
    acov /= x.shape[0] * (length - np.arange(length))
    rho = acov / acov[0]
    tau = 1.0
    for window in range(1, length):
        tau += 2.0 * rho[window]
        if window >= c * tau:
            break
    return float(tau)


def record_exact() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        config_path = EXACT_GRID.write(Path(tmp), seed=0)
        config = cli.parse_config(config_path.read_text(), base_dir=tmp)
        cli.run(config, jobs=1, out_dir=str(Path(tmp) / "out"))
        rows = json.loads((Path(tmp) / "out" / "results.json").read_text())["rows"]
    for row in rows:
        for col in IGNORED:
            del row[col]
    (REFERENCE / "exact_grid.json").write_text(json.dumps({"rows": rows}, indent=1) + "\n")


def record_sampler() -> None:
    mcmc = WORKLOADS["mcmc_grid"]
    motif, _ = parse_motif_text(MOTIFS[CFTP_GRID.motif])
    schedule = FieldSchedule(c=1.0, k_target=motif.k, d=CFTP_GRID.d)
    cells = {}
    for n in sorted({n for step in (*mcmc, CFTP_GRID) for n in step.n_list}):
        lattice = TorusLattice(CFTP_GRID.d, n)
        for b in sorted({b for step in (*mcmc, CFTP_GRID) for b in step.b_list}):
            params = schedule.params(n, b)
            cell = {"a": schedule.field(n), "lambda_target": poisson_limit(1.0, b, motif),
                    "tau": {"cftp": 1.0}}
            for step in mcmc:
                spec = SamplerSpec(step.kind, step.burn_in_sweeps, step.thinning_sweeps,
                                   seed=SEED + n)
                batch = sample_with_params(lattice, params, spec, CHAINS * SAMPLES_PER_CHAIN,
                                           replicas=CHAINS)
                counts = count_samples(lattice, batch.spins, motif, EXACT_MATCH)
                series = counts.reshape(CHAINS, SAMPLES_PER_CHAIN).astype(np.float64)
                cell["tau"][step.kind] = max(integrated_autocorrelation(series), 1.0)
                if b < 0 and step.kind == "heat_bath":
                    cell["mean"] = float(counts.mean())
                    cell["se"] = math.sqrt(counts.var() * cell["tau"]["heat_bath"] / counts.size)
                    cell["source"] = f"heat_bath, {counts.size} samples, seed {SEED + n}"
            if b >= 0:
                counts = count_samples(lattice, cftp_batch(lattice, params, SEED, CFTP_DRAWS),
                                       motif, EXACT_MATCH)
                cell["mean"] = float(counts.mean())
                cell["se"] = math.sqrt(counts.var() / counts.size)
                cell["source"] = f"cftp, {counts.size} draws, seed {SEED}"
            cells[cell_key(n, b)] = cell
            print(cell_key(n, b), cell, flush=True)
    payload = {"motif_hash": motif.motif_hash, "cells": cells}
    (REFERENCE / "sampler.json").write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    REFERENCE.mkdir(exist_ok=True)
    record_exact()
    record_sampler()
