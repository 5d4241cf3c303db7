"""Output checks of the benchmark.

Exact rows must equal bench/reference/exact_grid.json, recorded at the
commit that added the benchmark, in every column but `seed` and
`wall_time_ms`: strings exactly, numbers to 1e-12 relative (with the golden
file's 1e-12 absolute floor).

Sampler rows carry a sample mean, so they are checked against
bench/reference/sampler.json: the mean count of each cell must lie within
Z_BOUND standard errors of an independent long-run reference mean.  For
b >= 0 the reference comes from coupling from the past, which is exact; for
b < 0 from a long heat-bath run.  The standard error combines the row's own
variance, inflated by the kernel's integrated autocorrelation time, with the
reference's error, so a kernel that changes the sample bits but not the
measure still passes.  bench/record_reference.py writes both files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import Step

REFERENCE = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-12
ABS_TOL = 1e-12
Z_BOUND = 5.0
IGNORED = ("seed", "wall_time_ms")


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE / name).read_text(encoding="utf-8"))


def _same(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)):
        return abs(got - want) <= max(REL_TOL * abs(want), ABS_TOL)
    return got == want


def exact_row_problems(row: dict, want: dict) -> list[str]:
    return [f"{row.get('run_id')}: {col} = {row.get(col)!r}, reference {want[col]!r}"
            for col in want if not _same(row.get(col), want[col])]


def cell_key(n: int, b: float) -> str:
    return f"n{n}/b{b!r}"


def standard_error(row: dict, cell: dict, kind: str) -> float:
    tau = cell["tau"][kind]
    return math.sqrt(row["var"] * tau / row["sample_size"] + cell["se"] ** 2)


def sampler_row_problems(row: dict, step: Step, cell: dict) -> list[str]:
    rid = row.get("run_id")
    problems = [f"{rid}: {col} = {row.get(col)!r}, reference {cell[col]!r}"
                for col in ("a", "lambda_target", "motif_hash")
                if not _same(row.get(col), cell[col])]
    if row.get("error"):
        return problems + [f"{rid}: error {row['error']!r}"]
    if row.get("sample_size") != step.samples:
        problems.append(f"{rid}: sample_size {row.get('sample_size')!r} != {step.samples}")
    mean, var = row.get("mean"), row.get("var")
    if not (isinstance(mean, float) and isinstance(var, float) and var >= 0.0):
        return problems + [f"{rid}: mean {mean!r} / var {var!r} missing or invalid"]
    se = standard_error(row, cell, step.kind)
    if abs(mean - cell["mean"]) > Z_BOUND * se:
        problems.append(f"{rid}: mean {mean!r} is {abs(mean - cell['mean']) / se:.1f} "
                        f"standard errors from the reference {cell['mean']!r}")
    tv = row.get("tv_exact_or_empirical")
    if rid.startswith("tv/") and not (isinstance(tv, float) and 0.0 <= tv <= 1.0):
        problems.append(f"{rid}: tv {tv!r} outside [0, 1]")
    if rid.startswith("moments/") and not all(
            isinstance(row.get(m), float) and row[m] >= 0.0 for m in ("M2", "M3")):
        problems.append(f"{rid}: factorial moments {row.get('M2')!r}, {row.get('M3')!r}")
    return problems


def expected_rows(step: Step) -> list[tuple[str, dict]]:
    """(run_id, reference) for every row the step must write, in file order."""
    if step.kind == "exact":
        return [(row["run_id"], row) for row in load_reference("exact_grid.json")["rows"]]
    ref = load_reference("sampler.json")
    tag = ref["motif_hash"][:6]
    out = []
    for n in step.n_list:
        for b in step.b_list:
            cell = dict(ref["cells"][cell_key(n, b)], motif_hash=ref["motif_hash"])
            out += [(f"{target}/{tag}/n{n}/b{b!r}", cell) for target in step.targets]
    return out


def check_rows(step: Step, seed: int, rows: list[dict] | None) -> tuple[int, int, list[str]]:
    """Check one step's result rows: (rows attempted, rows failed, problems)."""
    expected = expected_rows(step)
    if rows is None:
        return len(expected), len(expected), [f"{step.name}: no results written"]
    problems: list[str] = []
    failed = max(len(expected) - len(rows), 0)
    for index, row in enumerate(rows):
        if index >= len(expected) or row.get("run_id") != expected[index][0]:
            row_problems = [f"unexpected row {row.get('run_id')!r} at position {index}"]
        else:
            want = expected[index][1]
            if step.kind == "exact":
                row_problems = exact_row_problems(row, want)
            else:
                row_problems = sampler_row_problems(row, step, want)
            if row.get("seed") != seed:
                row_problems.append(f"{row.get('run_id')}: seed {row.get('seed')!r} != {seed}")
        failed += bool(row_problems)
        problems += row_problems
    if len(rows) < len(expected):
        problems.append(f"{step.name}: {len(expected) - len(rows)} rows missing")
    return max(len(rows), len(expected)), failed, problems
