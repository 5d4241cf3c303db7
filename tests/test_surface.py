"""The package's public surface, the names the benchmark harness reads, the
package's caches, and the README's library example."""

import ast
import importlib
import importlib.util
import inspect
import json
import re
from pathlib import Path

import isingmotif
from isingmotif import FieldSchedule, SamplerSpec, TorusLattice, sample_with_params

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = [
    "Ball", "CountDistribution", "EXACT_MATCH", "ExactMeasure", "FieldSchedule",
    "INFINITY", "LocalConfig", "ModelParams", "PoissonTarget", "RateFit",
    "RingCheckReport", "SUPERSET_MATCH", "SampleBatch", "SamplerSpec", "SandwichReport",
    "SpinConfig", "TorusLattice", "Vertex", "build_exact", "bundled_motif", "cftp_batch",
    "check_conditional_sandwich", "conditional_motif_probability", "count",
    "count_all_masks", "count_distribution_exact", "count_samples",
    "enumerate_superset_family", "hamiltonian", "indicator", "load_motif",
    "local_energy", "null_config", "parse_motif_text", "poisson_limit",
    "poisson_target", "rate_fit", "ring_equivalence_check", "sample_with_params",
    "single_positive", "stein_chen_bound", "threshold_field", "tv_distance",
]

# the call arguments the benchmark tracer binds by name to derive work counts
TRACER_BINDS = {
    "exact.build_exact": {"lattice"},
    "counting.count_all_masks": {"lattice"},
    "counting.count_samples": {"lattice"},
    "sampler.sample_with_params": {"lattice", "spec", "count"},
}


# every memo table in the package and its maxsize, each hit by a benchmark
# workload; a new cache names the workload that hits it on its decorator line.
# The exact caches keep the tables of one cell, since cells run in
# (n, motif, b) order on one thread: its lattice's enumeration only, as every
# count law streams its counts from the pattern tables. The motif hash is
# computed once per distinct canonical text: every workload's rows read it twice.
CACHES = {
    "counting._site_tables": None, "exact._energy_levels": 1,
    "lattice._ball_offsets": None, "lattice.neighbor_offsets": None,
    "motifs._short_hash": None, "sampler._colour_classes": None,
}


def test_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(isingmotif).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert names == PUBLIC_NAMES


def test_benchmark_harness_finds_what_it_traces():
    spec = importlib.util.spec_from_file_location("bench_child", ROOT / "bench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    traced = {f"{module}.{path}" for module, path in child.TRACED}
    assert set(TRACER_BINDS) <= traced
    for module_name, path in child.TRACED:
        target = importlib.import_module(f"isingmotif.{module_name}")
        for attr in path.split("."):
            target = getattr(target, attr)
        assert callable(target), f"{module_name}.{path}"
        bound = TRACER_BINDS.get(f"{module_name}.{path}", set())
        assert bound <= set(inspect.signature(target).parameters), f"{module_name}.{path}"
    # the tracer reads batch.replicas, the reference recorder batch.spins
    lattice = TorusLattice(1, 6, 1, 1)
    params = FieldSchedule(1.0, 1, 1).params(lattice.n, 0.2)
    for kind in ("heat_bath", "cftp"):
        batch = sample_with_params(lattice, params, SamplerSpec(kind=kind, seed=3), count=5)
        assert batch.spins.shape == (5, lattice.num_sites)
        assert batch.replicas == 5


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_caches_are_pinned_and_name_their_workload():
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    found = {}
    for path in sorted((ROOT / "src" / "isingmotif").glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            for deco in getattr(node, "decorator_list", []):
                name = ast.unparse(deco.func if isinstance(deco, ast.Call) else deco)
                if name.split(".")[-1] in ("lru_cache", "cache", "cached_property"):
                    found[f"{path.stem}.{node.name}"] = lines[deco.lineno - 1]
    assert set(found) == set(CACHES)
    for name, line in found.items():
        assert any(w in line.partition("#")[2] for w in workloads), name
        module, function = name.split(".")
        cached = getattr(importlib.import_module(f"isingmotif.{module}"), function)
        assert cached.cache_info().maxsize == CACHES[name], name
