"""Outside-in benchmark of the `isingmotif run` grid runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's configurations are written
under .bench_out/ with `[run] seed = N`; each `isingmotif run` executes in a
child process with the checkout's src/ on PYTHONPATH and `--jobs 1`, and its
rows are checked against bench/reference/.

--trace 0 prints the end-to-end metrics: medians over the grid repetitions
that fit in S seconds (always at least one), plus setup_s, the median of
several set-up-only children.  --trace 1 runs the grid once untraced and once
with every layer wrapped (bench/child.py) and prints the per-layer metrics.
`--workload all` runs every workload in turn, for a person at a terminal.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from check import check_rows  # noqa: E402
from child import TRACED  # noqa: E402
from workloads import WORKLOADS, Step  # noqa: E402

SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

RSS_TRACED = (
    "exact.build_exact",
    "counting.count_all_masks",
    "counting.count_samples",
    "sampler.sample_with_params",
    "sampler.cftp_batch",
)

# (count, rate, function whose self time the rate is taken over)
RATES = (
    ("exact.configs", "exact.configs_per_s", "exact.build_exact"),
    ("counting.mask_sites", "counting.mask_sites_per_s", "counting.count_all_masks"),
    ("counting.sample_sites", "counting.sample_sites_per_s", "counting.count_samples"),
    ("sampler.site_updates", "sampler.site_updates_per_s", "sampler.sample_with_params"),
    ("sampler.cftp_draws", "sampler.cftp_draws_per_s", "sampler.cftp_batch"),
)


class BenchError(Exception):
    """The benchmark cannot run here (no program, a child that hangs)."""


@dataclass
class Rep:
    """One execution of every step of a workload."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, deadline: float):
        self.root = root
        self.steps: tuple[Step, ...] = WORKLOADS[workload]
        self.seed = seed
        self.deadline = deadline
        self.work = root / ".bench_out" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.configs = [step.write(self.work / "inputs", seed) for step in self.steps]
        self.env = dict(os.environ)
        self.env.pop("ISINGMOTIF_EXACT_SITE_CAP", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))

    def child(self, argv: list[str], ready: bool = False):
        """Run one Python child to its exit, killing it at the deadline.

        Returns (seconds, exit status, rusage, first stdout line).  The time
        runs from the start to the exit, or to the first line if `ready`.
        """
        with open(self.work / "stderr.txt", "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.root, env=self.env, stderr=log, text=True,
                stdout=subprocess.PIPE if ready else subprocess.DEVNULL)
        timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        line = ""
        try:
            if ready:
                line = proc.stdout.readline()
                seconds = time.perf_counter() - start
                proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            if not ready:
                seconds = time.perf_counter() - start
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= self.deadline:
            raise BenchError(f"child {proc.args} did not finish before the deadline")
        return seconds, proc.returncode, usage, line

    def setup_s(self) -> float:
        """Median over children of process start to a validated config."""
        times = []
        for _ in range(SETUP_REPEATS):
            seconds, status, _, line = self.child(
                [str(BENCH / "child.py"), "setup", str(self.configs[0])], ready=True)
            if line.strip() != "ready" or status != 0:
                raise BenchError(f"setup child failed with status {status}")
            times.append(seconds)
        return statistics.median(times)

    def rep(self, index: int, traced: bool = False) -> tuple[Rep, list[dict]]:
        """Run every step once; time, measure and check it."""
        rep, traces = Rep(), []
        for step, config in zip(self.steps, self.configs):
            out = self.work / f"rep{index}" / step.name
            trace_json = out / "trace.json"
            if traced:
                argv = [str(BENCH / "child.py"), "trace", str(config), str(out), str(trace_json)]
            else:
                argv = ["-m", "isingmotif.cli", "run", str(config), "--jobs", "1",
                        "--out", str(out)]
            seconds, status, usage, _ = self.child(argv)
            rep.wall_s += seconds
            rep.cpu_s += usage.ru_utime + usage.ru_stime
            rep.peak_rss_mb = max(rep.peak_rss_mb, usage.ru_maxrss / 1024.0)
            rows = _read_rows(out / "results.json")
            attempted, failed, problems = check_rows(step, self.seed, rows)
            if status not in (0, 1):  # 1 means error rows, which the check counts
                problems.append(f"{step.name}: exit status {status}")
                failed = attempted
            rep.attempted += attempted
            rep.failed += failed
            rep.problems += problems
            if traced:
                if not trace_json.is_file():
                    raise BenchError(f"traced child of {step.name} wrote no trace")
                traces.append(json.loads(trace_json.read_text(encoding="utf-8")))
        return rep, traces


def _read_rows(path: Path) -> list[dict] | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))["rows"]
    except (OSError, ValueError, KeyError):
        return None


def measure(runner: Runner, seconds: int) -> tuple[dict, list[Rep]]:
    """End-to-end metrics: medians over the repetitions that fit in `seconds`."""
    setup = runner.setup_s()
    reps: list[Rep] = []
    begin = time.perf_counter()
    while True:
        reps.append(runner.rep(len(reps))[0])
        elapsed = time.perf_counter() - begin
        typical = statistics.median(r.wall_s for r in reps)
        if elapsed + typical > seconds or time.monotonic() + 1.5 * typical > runner.deadline:
            break
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in reps),
        "cpu_s": statistics.median(r.cpu_s for r in reps),
        "setup_s": setup,
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in reps),
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}, reps


def trace(runner: Runner) -> tuple[dict, list[Rep]]:
    """Per-layer metrics from one traced run, against one untraced run."""
    plain, _ = runner.rep(0)
    traced, traces = runner.rep(1, traced=True)
    functions: dict[str, dict] = {}
    counts: dict[str, int] = {}
    lattices = cells = 0
    top_level_s = 0.0
    for step_trace in traces:
        for name, stats in step_trace["functions"].items():
            into = functions.setdefault(name, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                into[key] += value
        for name, value in step_trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
        lattices += step_trace["lattices"]
        cells += step_trace["cells"]
        top_level_s += step_trace["top_level_s"]

    metrics: dict[str, tuple[float, str]] = {}
    for module_name, path in TRACED:
        name = f"{module_name}.{path}"
        stats = functions[name]
        metrics[f"{name}.calls"] = (stats["calls"], "count")
        metrics[f"{name}.self_s"] = (stats["self_s"], "s")
        if name in RSS_TRACED:
            metrics[f"{name}.rss_raise_mb"] = (stats["rss_raise_mb"], "MB")
    for count, rate, over in RATES:
        self_s = functions[over]["self_s"]
        metrics[count] = (counts[count], "count")
        metrics[rate] = (counts[count] / self_s if self_s > 0 else 0.0, "1/s")
    builds = functions["exact.build_exact"]["calls"]
    passes = functions["counting.count_all_masks"]["calls"]
    metrics["exact.builds_per_lattice"] = (builds / lattices if lattices else 0.0, "ratio")
    metrics["counting.mask_passes_per_cell"] = (passes / cells if cells else 0.0, "ratio")
    metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    metrics["trace.untraced_s"] = (traced.wall_s - top_level_s, "s")
    print(f"untraced wall_s = {plain.wall_s:.3f} s, traced wall_s = {traced.wall_s:.3f} s")
    for name, stats in sorted(functions.items(), key=lambda kv: -kv[1]["self_s"]):
        share = stats["self_s"] / traced.wall_s
        print(f"  {name:<48} {stats['calls']:>6} calls {stats['self_s']:9.3f} s self "
              f"({100 * share:5.1f}% of traced wall_s)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, [plain, traced]


def environment(root: Path, seed: int) -> dict:
    """Machine, toolchain and source identity of this result."""
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    commit = None
    if (root / ".git").exists():
        try:
            result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True)
            commit = result.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l2_cache": caches.get("L2"),
        "l3_cache": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_workload(root: Path, workload: str, seed: int, seconds: int, traced: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    runner = Runner(root, workload, seed, deadline)
    env = environment(root, seed)
    print(f"{workload} env {json.dumps(env, sort_keys=True)}")
    metrics, reps = trace(runner) if traced else measure(runner, seconds)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    for problem in (p for r in reps for p in r.problems):
        print(f"{workload} check failed: {problem}")
    print(f"{workload} reps = {len(reps)}, wall_s per rep = "
          f"{', '.join(f'{r.wall_s:.3f}' for r in reps)}")
    for name, metric in metrics.items():
        print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{workload} failed_frac = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} rows)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (runner.work / "result.json").write_text(
        json.dumps({"environment": env, **result}, indent=1) + "\n", encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "isingmotif" / "cli.py").is_file():
        print("bench: run from the root of an isingmotif checkout (no src/isingmotif here)",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(root, name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m
                        for w, r in results.items() for k, m in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
