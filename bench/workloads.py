"""The benchmark's pinned grids, written out as run configurations.

Each workload is a list of steps; a step is one `isingmotif run` on one
generated configuration.  The workload seed is the only input that varies
between runs: it becomes `[run] seed` in every generated configuration.
bench/README.md says why each grid was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

_CENTER = "# single positive vertex at the center of a radius-1 ball"
MOTIFS = {
    "single_plus_d1.motif": f"{_CENTER}, d=1 chain\n1 0 1 1 1\n0\n",
    "single_plus_d2.motif": f"{_CENTER}, d=2 square lattice\n2 0 1 1 1\n0 0\n",
}


@dataclass(frozen=True)
class Step:
    """One `isingmotif run` of a workload: engine, lattice and grid."""

    name: str
    kind: str
    d: int
    motif: str
    n_list: tuple[int, ...]
    b_list: tuple[float, ...]
    targets: tuple[str, ...]
    samples: int = 0
    burn_in_sweeps: int = 0
    thinning_sweeps: int = 0

    def config_text(self, seed: int) -> str:
        lines = [
            "[lattice]",
            f"d = {self.d}",
            "rho = 1",
            "p = 1",
            f"n_list = {' '.join(map(str, self.n_list))}",
            "",
            "[motifs]",
            f"files = {self.motif}",
            "",
            "[schedule]",
            "c = 1.0",
            "",
            "[model]",
            f"b_list = {' '.join(map(repr, self.b_list))}",
            "",
            "[engine]",
            f"kind = {self.kind}",
        ]
        if self.kind in ("heat_bath", "metropolis"):
            lines += [
                f"samples = {self.samples}",
                f"burn_in_sweeps = {self.burn_in_sweeps}",
                f"thinning_sweeps = {self.thinning_sweeps}",
            ]
        elif self.kind == "cftp":
            lines.append(f"samples = {self.samples}")
        lines += [
            "",
            "[analysis]",
            f"targets = {' '.join(self.targets)}",
            "",
            "[output]",
            "dir = results",
            "",
            "[run]",
            f"seed = {seed}",
            "jobs = 1",
        ]
        return "\n".join(lines) + "\n"

    def write(self, directory: Path, seed: int) -> Path:
        """Write this step's motif and configuration; return the config path."""
        directory.mkdir(parents=True, exist_ok=True)
        (directory / self.motif).write_text(MOTIFS[self.motif], encoding="utf-8")
        path = directory / f"{self.name}.ini"
        path.write_text(self.config_text(seed), encoding="utf-8")
        return path


ALL_TARGETS = ("expectation", "tv", "moments", "stein_chen", "ring_check", "threshold_sweep")
SAMPLER_TARGETS = ("expectation", "tv", "moments")

EXACT_GRID = Step(
    name="exact", kind="exact", d=1, motif="single_plus_d1.motif",
    n_list=(16, 18, 20, 22), b_list=(0.0, 0.2, 0.4), targets=ALL_TARGETS,
)

_MCMC = dict(
    d=2, motif="single_plus_d2.motif", n_list=(8, 12, 16), b_list=(-0.3, 0.0, 0.25),
    targets=SAMPLER_TARGETS, samples=10000, burn_in_sweeps=200, thinning_sweeps=2,
)

# configs/sampler_demo.ini as shipped, with the workload seed.
CFTP_GRID = Step(
    name="cftp", kind="cftp", d=2, motif="single_plus_d2.motif",
    n_list=(8, 12, 16), b_list=(0.0, 0.25), targets=SAMPLER_TARGETS, samples=20000,
)

WORKLOADS: dict[str, tuple[Step, ...]] = {
    "exact_grid": (EXACT_GRID,),
    "mcmc_grid": (
        Step(name="heat_bath", kind="heat_bath", **_MCMC),
        Step(name="metropolis", kind="metropolis", **_MCMC),
    ),
    "cftp_grid": (CFTP_GRID,),
}
