"""Child processes of the benchmark.

    python3 bench/child.py setup CONFIG
        Import isingmotif, parse and validate CONFIG, print "ready" and exit.
        The parent times process start to "ready" as setup_s.

    python3 bench/child.py trace CONFIG OUT_DIR TRACE_JSON
        Run `isingmotif run CONFIG --jobs 1 --out OUT_DIR` with the public
        functions of each layer wrapped in spans, then write per-function
        calls, self time and high-water-mark rises, and the work counts
        derived from call arguments and return values, to TRACE_JSON.

The parent puts the checkout's src/ first on PYTHONPATH; nothing under src/
is edited.  Spans are kept in memory and written once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import resource
import sys
import time
from pathlib import Path

# (module, attribute path) of every wrapped function.  `errors` holds only
# exception types and is not timed.
TRACED = (
    ("cli", "parse_config"),
    ("cli", "run"),
    ("motifs", "load_motif"),
    ("lattice", "TorusLattice.edges"),
    ("exact", "build_exact"),
    ("counting", "count_distribution_exact"),
    ("counting", "count_all_masks"),
    ("counting", "count_samples"),
    ("sampler", "sample_with_params"),
    ("sampler", "cftp_batch"),
    ("distributions", "CountDistribution.from_samples"),
    ("distributions", "tv_distance"),
    ("analysis", "stein_chen_bound"),
    ("analysis", "ring_equivalence_check"),
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span bookkeeping: per-function calls, self time and RSS rise."""

    def __init__(self):
        self.functions: dict[str, dict] = {}
        self.counts = {
            "exact.configs": 0,
            "counting.mask_sites": 0,
            "counting.sample_sites": 0,
            "sampler.site_updates": 0,
            "sampler.cftp_draws": 0,
        }
        self.lattices: set = set()
        self.cells = 0
        self.top_level_s = 0.0
        self._child_time: list[float] = []

    def wrap(self, name: str, func, on_return=None):
        stats = self.functions.setdefault(
            name, {"calls": 0, "self_s": 0.0, "rss_raise_mb": 0.0}
        )
        signature = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            rss_before = _maxrss_mb()
            self._child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                children = self._child_time.pop()
                stats["calls"] += 1
                stats["self_s"] += span - children
                stats["rss_raise_mb"] += _maxrss_mb() - rss_before
                if self._child_time:
                    self._child_time[-1] += span
                else:
                    self.top_level_s += span
            if on_return is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_return(self, bound.arguments, result)
            return result

        return wrapper


# -- work counts, from call arguments and return values -----------------------------


def _on_parse_config(tracer, args, config):
    tracer.cells += len(config.n_list) * len(config.motifs) * len(config.b_list)


def _on_build_exact(tracer, args, measure):
    lattice = args["lattice"]
    tracer.lattices.add(lattice)
    tracer.counts["exact.configs"] += 1 << lattice.num_sites


def _on_count_all_masks(tracer, args, counts):
    tracer.counts["counting.mask_sites"] += len(counts) * args["lattice"].num_sites


def _on_count_samples(tracer, args, counts):
    tracer.counts["counting.sample_sites"] += len(counts) * args["lattice"].num_sites


def _on_sample_with_params(tracer, args, batch):
    spec = args["spec"]
    if spec.kind == "cftp":
        return
    # chains x sweeps x sites; a chain records its first sample right after
    # burn-in and one more every thinning_sweeps after that.
    chains = batch.replicas
    quota = math.ceil(args["count"] / chains)
    if spec.burn_in_sweeps > 0:
        sweeps = spec.burn_in_sweeps + spec.thinning_sweeps * (quota - 1)
    else:
        sweeps = spec.thinning_sweeps * quota
    tracer.counts["sampler.site_updates"] += chains * sweeps * args["lattice"].num_sites


def _on_cftp_batch(tracer, args, spins):
    tracer.counts["sampler.cftp_draws"] += len(spins)


ON_RETURN = {
    "cli.parse_config": _on_parse_config,
    "exact.build_exact": _on_build_exact,
    "counting.count_all_masks": _on_count_all_masks,
    "counting.count_samples": _on_count_samples,
    "sampler.sample_with_params": _on_sample_with_params,
    "sampler.cftp_batch": _on_cftp_batch,
}


def install(tracer: Tracer) -> None:
    """Wrap every TRACED function at every place the package looks it up."""
    for module_name, _ in TRACED:
        importlib.import_module(f"isingmotif.{module_name}")
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "isingmotif"]
    for module_name, path in TRACED:
        name = f"{module_name}.{path}"
        module = importlib.import_module(f"isingmotif.{module_name}")
        if "." in path:
            # Methods live on the class object, which every importer shares.
            class_name, attr = path.split(".")
            cls = getattr(module, class_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(name, raw.__func__, ON_RETURN.get(name)))
            else:
                wrapped = tracer.wrap(name, raw, ON_RETURN.get(name))
            setattr(cls, attr, wrapped)
            continue
        original = getattr(module, path)
        wrapped = tracer.wrap(name, original, ON_RETURN.get(name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)


def _setup(config: str) -> int:
    from isingmotif import cli

    path = Path(config)
    cli.parse_config(path.read_text(encoding="utf-8"), base_dir=path.parent)
    print("ready", flush=True)
    return 0


def _trace(config: str, out_dir: str, trace_json: str) -> int:
    from isingmotif import cli

    tracer = Tracer()
    install(tracer)
    status = cli.main(["run", config, "--jobs", "1", "--out", out_dir])
    payload = {
        "functions": tracer.functions,
        "counts": tracer.counts,
        "lattices": len(tracer.lattices),
        "cells": tracer.cells,
        "top_level_s": tracer.top_level_s,
    }
    Path(trace_json).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    sys.exit({"setup": _setup, "trace": _trace}[mode](*rest))
