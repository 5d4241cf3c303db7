"""Batch experiment driver.

Reads a sectioned key=value run configuration, sweeps the (n, motif, b) grid
with the requested engine, and writes one row per (n, motif, b, target) cell
to CSV and JSON result files.  Reruns with the same seed are byte-identical
except for the wall_time_ms column; grid cells may execute concurrently but
rows are always written in canonical sorted order.

Subcommands:
    run <config> [--jobs N] [--out DIR]   execute the grid
    validate <config>                     parse, validate and echo the config
    motif-info <motif-file>               print a motif's statistics
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import struct
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, counting
from .distributions import CountDistribution, PoissonTarget, tv_distance
from .errors import ConfigError, MotifFileError, ParseError, ValidationError
from .exact import (
    ExactMeasure,
    FieldSchedule,
    ModelParams,
    build_exact,
    threshold_field,
)
from .lattice import INFINITY, TorusLattice, normalize_norm_selector
from .motifs import LocalConfig, load_motif
from .sampler import SamplerSpec, sample_with_params

SCHEMA_VERSION = 1

ENGINE_KINDS = ("exact", "heat_bath", "metropolis", "cftp")
TARGETS = ("expectation", "tv", "moments", "stein_chen", "ring_check", "threshold_sweep")
MODES = counting.MODES

COLUMNS = (
    "run_id",
    "d",
    "n",
    "rho",
    "p",
    "motif_hash",
    "k",
    "gamma",
    "c",
    "b",
    "a",
    "mode",
    "lambda_target",
    "mean",
    "var",
    "M2",
    "M3",
    "tv_exact_or_empirical",
    "tv_error_budget",
    "stein_chen_bound",
    "sample_size",
    "seed",
    "wall_time_ms",
    "error",
)

_KNOWN_KEYS = {
    "lattice": {"d", "rho", "p", "n_list"},
    "motifs": {"files"},
    "schedule": {"c", "a"},
    "model": {"b_list"},
    "engine": {"kind", "samples", "burn_in_sweeps", "thinning_sweeps", "replicas", "site_cap"},
    "analysis": {"targets", "epsilon", "mode"},
    "output": {"dir"},
    "run": {"seed", "jobs"},
}

_REQUIRED_KEYS = {
    "lattice": {"d", "n_list"},
    "motifs": {"files"},
    "schedule": {"c"},
    "model": {"b_list"},
    "engine": {"kind"},
}


@dataclass
class RunConfig:
    """A fully validated grid description with all defaults materialized."""

    d: int
    rho: int
    p: object
    n_list: list[int]
    motif_paths: list[str]
    motifs: list[LocalConfig]
    n_hints: list[int]
    c: float
    a_override: float | None
    b_list: list[float]
    engine: str
    samples: int
    burn_in_sweeps: int
    thinning_sweeps: int
    replicas: int | None
    site_cap: int | None
    targets: list[str]
    epsilon: float
    mode: str
    out_dir: str
    seed: int
    jobs: int

    def resolved_text(self) -> str:
        """Canonical echo of the configuration, defaults included."""
        p_txt = "inf" if self.p == INFINITY else str(self.p)
        lines = [
            "[lattice]",
            f"d = {self.d}",
            f"rho = {self.rho}",
            f"p = {p_txt}",
            f"n_list = {' '.join(str(n) for n in self.n_list)}",
            "",
            "[motifs]",
            f"files = {' '.join(self.motif_paths)}",
            "",
            "[schedule]",
            f"c = {self.c!r}",
        ]
        if self.a_override is not None:
            lines.append(f"a = {self.a_override!r}")
        lines += [
            "",
            "[model]",
            f"b_list = {' '.join(repr(b) for b in self.b_list)}",
            "",
            "[engine]",
            f"kind = {self.engine}",
        ]
        if self.engine != "exact":
            lines += [
                f"samples = {self.samples}",
                f"burn_in_sweeps = {self.burn_in_sweeps}",
                f"thinning_sweeps = {self.thinning_sweeps}",
            ]
            if self.replicas is not None:
                lines.append(f"replicas = {self.replicas}")
        if self.site_cap is not None:
            lines.append(f"site_cap = {self.site_cap}")
        lines += [
            "",
            "[analysis]",
            f"targets = {' '.join(self.targets)}",
            f"epsilon = {self.epsilon!r}",
            f"mode = {self.mode}",
            "",
            "[output]",
            f"dir = {self.out_dir}",
            "",
            "[run]",
            f"seed = {self.seed}",
            f"jobs = {self.jobs}",
        ]
        return "\n".join(lines) + "\n"


def _parse_scalar(section: str, key: str, raw: str, kind, name: str):
    try:
        return kind(raw)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"[{section}] {key}: expected {name}, got {raw!r}") from exc


def parse_config(text: str, base_dir: str | Path = ".") -> RunConfig:
    """Parse and validate a run configuration.

    Raises:
        ParseError: unknown section or key, bad value syntax, unreadable
            motif file.
        ValidationError: a violated invariant (ordering, ball overlap,
            signature or hint mismatch, unknown target...).
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ParseError(f"bad configuration syntax: {exc}") from exc

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ParseError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ParseError(f"unknown key {key!r} in section [{section}]")
    for section, keys in _REQUIRED_KEYS.items():
        if section not in parser:
            raise ParseError(f"missing required section [{section}]")
        for key in keys:
            if key not in parser[section]:
                raise ParseError(f"missing required key {key!r} in section [{section}]")

    lat = parser["lattice"]
    d = _parse_scalar("lattice", "d", lat["d"], int, "an integer")
    rho = _parse_scalar("lattice", "rho", lat.get("rho", "1"), int, "an integer")
    try:
        p = normalize_norm_selector(lat.get("p", "1"))
    except ValueError as exc:
        raise ParseError(f"[lattice] p: {exc}") from exc
    n_list = [
        _parse_scalar("lattice", "n_list", tok, int, "integers")
        for tok in lat["n_list"].split()
    ]

    motif_paths = parser["motifs"]["files"].split()
    if not motif_paths:
        raise ParseError("[motifs] files: need at least one motif file")
    motifs, hints = [], []
    for path in motif_paths:
        full = Path(base_dir) / path
        try:
            cfg, hint = load_motif(full)
        except OSError as exc:
            raise ParseError(f"cannot read motif file {path!r}: {exc}") from exc
        except MotifFileError as exc:
            raise ParseError(f"bad motif file {path!r}: {exc}") from exc
        motifs.append(cfg)
        hints.append(hint)

    sched = parser["schedule"]
    c = _parse_scalar("schedule", "c", sched["c"], float, "a real")
    a_override = None
    if "a" in sched:
        a_override = _parse_scalar("schedule", "a", sched["a"], float, "a real")

    b_list = [
        _parse_scalar("model", "b_list", tok, float, "reals")
        for tok in parser["model"]["b_list"].split()
    ]

    eng = parser["engine"]
    kind = eng["kind"].strip()
    samples = _parse_scalar("engine", "samples", eng.get("samples", "10000"), int, "an integer")
    burn_in = _parse_scalar(
        "engine", "burn_in_sweeps", eng.get("burn_in_sweeps", "100"), int, "an integer"
    )
    thinning = _parse_scalar(
        "engine", "thinning_sweeps", eng.get("thinning_sweeps", "1"), int, "an integer"
    )
    replicas = None
    if "replicas" in eng:
        replicas = _parse_scalar("engine", "replicas", eng["replicas"], int, "an integer")
    site_cap = None
    if "site_cap" in eng:
        site_cap = _parse_scalar("engine", "site_cap", eng["site_cap"], int, "an integer")

    ana = parser["analysis"] if "analysis" in parser else {}
    targets = ana.get("targets", "expectation").split() if ana else ["expectation"]
    epsilon = _parse_scalar("analysis", "epsilon", ana.get("epsilon", "0.5") if ana else "0.5",
                            float, "a real")
    mode = (ana.get("mode", counting.EXACT_MATCH) if ana else counting.EXACT_MATCH).strip()

    out_dir = parser["output"]["dir"] if "output" in parser and "dir" in parser["output"] else "results"
    run_sec = parser["run"] if "run" in parser else {}
    seed = _parse_scalar("run", "seed", run_sec.get("seed", "0") if run_sec else "0",
                         int, "an integer")
    jobs = _parse_scalar("run", "jobs", run_sec.get("jobs", "1") if run_sec else "1",
                         int, "an integer")

    config = RunConfig(
        d=d, rho=rho, p=p, n_list=n_list,
        motif_paths=motif_paths, motifs=motifs, n_hints=hints,
        c=c, a_override=a_override, b_list=b_list,
        engine=kind, samples=samples, burn_in_sweeps=burn_in,
        thinning_sweeps=thinning, replicas=replicas, site_cap=site_cap,
        targets=targets, epsilon=epsilon, mode=mode,
        out_dir=out_dir, seed=seed, jobs=jobs,
    )
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    if config.d < 1 or config.rho < 1:
        raise ValidationError("d and rho must be >= 1")
    if any(n < 1 for n in config.n_list):
        raise ValidationError("n_list entries must be >= 1")
    if any(a >= z for a, z in zip(config.n_list, config.n_list[1:])):
        raise ValidationError("n_list must be strictly increasing")
    if config.engine not in ENGINE_KINDS:
        raise ValidationError(f"engine kind must be one of {ENGINE_KINDS}, got {config.engine!r}")
    for target in config.targets:
        if target not in TARGETS:
            raise ValidationError(f"unknown analysis target {target!r} (known: {TARGETS})")
    if config.mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {config.mode!r}")
    if not (config.c > 0 and math.isfinite(config.c)):
        raise ValidationError("schedule constant c must be a positive finite real")
    if config.epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    if config.samples < 1:
        raise ValidationError("samples must be >= 1")
    if config.burn_in_sweeps < 0 or config.thinning_sweeps < 0:
        raise ValidationError("burn_in_sweeps and thinning_sweeps must be >= 0")
    if config.engine in ("heat_bath", "metropolis") and config.thinning_sweeps < 1:
        raise ValidationError(
            f"thinning_sweeps must be >= 1 for {config.engine}: "
            "0 records the same state repeatedly"
        )
    if config.replicas is not None and config.replicas < 1:
        raise ValidationError("replicas must be >= 1")
    if config.jobs < 1:
        raise ValidationError("jobs must be >= 1")
    signature = (config.d, config.rho, config.p)
    for path, motif, hint in zip(config.motif_paths, config.motifs, config.n_hints):
        if motif.signature != signature:
            raise ValidationError(
                f"motif {path!r} has signature {motif.signature}, lattice is {signature}"
            )
        needed = 2 * config.rho * (motif.radius + 1)
        for n in config.n_list:
            if n <= needed:
                raise ValidationError(
                    f"motif {path!r} of radius {motif.radius} needs n > {needed} "
                    f"(ball-overlap rule), but n_list contains {n}"
                )
            if hint and n != hint:
                raise ValidationError(
                    f"motif {path!r} carries n_hint={hint} but n_list contains {n}"
                )


# -- row computation ---------------------------------------------------------------


def _float_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _derived_seed(config: RunConfig, n: int, motif: LocalConfig, b: float) -> int:
    entropy = [config.seed & ((1 << 64) - 1), n, int(motif.motif_hash, 16), _float_bits(b)]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _base_row(config: RunConfig, n: int, motif: LocalConfig, b: float) -> dict:
    p_txt = "inf" if config.p == INFINITY else config.p
    return {
        "d": config.d,
        "n": n,
        "rho": config.rho,
        "p": p_txt,
        "motif_hash": motif.motif_hash,
        "k": motif.k,
        "gamma": motif.perimeter,
        "c": config.c,
        "b": b,
        "mode": config.mode,
        "seed": config.seed,
        "error": "",
    }


def _source(config: RunConfig, lattice: TorusLattice, params: ModelParams, seed: int):
    """What count laws are read from: the exact measure, or a batch of samples."""
    if config.engine == "exact":
        return build_exact(lattice, params, site_cap=config.site_cap)
    spec = SamplerSpec(
        kind=config.engine,
        burn_in_sweeps=config.burn_in_sweeps,
        thinning_sweeps=config.thinning_sweeps,
        seed=seed,
    )
    return sample_with_params(lattice, params, spec, config.samples, replicas=config.replicas)


def _count_law(source, motif: LocalConfig, mode: str) -> CountDistribution:
    """The motif's count law under a ``_source``: exact, or empirical."""
    if isinstance(source, ExactMeasure):
        return counting.count_distribution_exact(source, motif, mode)
    counts = counting.count_samples(source.lattice, source.spins, motif, mode)
    return CountDistribution.from_samples(counts)


class _CellData:
    """Lazily computed shared state for one (n, motif, b) grid cell."""

    def __init__(self, config: RunConfig, n: int, motif: LocalConfig, b: float):
        self.config = config
        self.n = n
        self.motif = motif
        self.b = b
        self.lattice = TorusLattice(config.d, n, config.rho, config.p)
        if config.a_override is not None:
            self.field = config.a_override
        elif motif.k >= 1:
            self.field = FieldSchedule(config.c, motif.k, config.d).field(n)
        else:
            self.field = None  # k = 0 motifs have no schedule; needs explicit a
        self._source = None
        self._laws: dict[str, CountDistribution] = {}

    @property
    def params(self) -> ModelParams:
        if self.field is None:
            raise ValidationError(
                "schedule-derived field needs a motif with k >= 1 (set an explicit a)"
            )
        return ModelParams(self.field, self.b)

    def distribution(self, motif: LocalConfig, mode: str) -> CountDistribution:
        """The cell's count law of (motif, mode), computed once."""
        key = f"{motif.motif_hash}:{mode}"
        if key not in self._laws:
            if self._source is None:
                seed = _derived_seed(self.config, self.n, self.motif, self.b)
                self._source = _source(self.config, self.lattice, self.params, seed)
            self._laws[key] = _count_law(self._source, motif, mode)
        return self._laws[key]

    def lambda_target(self) -> float | None:
        if self.config.a_override is not None or self.motif.k < 1:
            return None
        return analysis.poisson_limit(self.config.c, self.b, self.motif)


def _target_rows(cell: _CellData, target: str) -> list[dict]:
    config = cell.config
    sample_size = 0 if config.engine == "exact" else config.samples
    rows = []

    def new_row(run_suffix: str = "") -> dict:
        row = _base_row(config, cell.n, cell.motif, cell.b)
        row["a"] = cell.field
        row["sample_size"] = sample_size
        motif_tag = cell.motif.motif_hash[:6]
        row["run_id"] = f"{target}{run_suffix}/{motif_tag}/n{cell.n}/b{cell.b!r}"
        row["lambda_target"] = cell.lambda_target()
        return row

    if target == "expectation":
        row = new_row()
        dist = cell.distribution(cell.motif, config.mode)
        row["mean"], row["var"] = dist.mean, dist.variance
        rows.append(row)
    elif target == "moments":
        row = new_row()
        dist = cell.distribution(cell.motif, config.mode)
        row["mean"], row["var"] = dist.mean, dist.variance
        row["M2"] = dist.factorial_moment(2)
        row["M3"] = dist.factorial_moment(3)
        rows.append(row)
    elif target == "tv":
        row = new_row()
        lam = cell.lambda_target()
        if lam is None:
            raise ValidationError("tv target requires a schedule-derived field and k >= 1")
        dist = cell.distribution(cell.motif, config.mode)
        row["mean"], row["var"] = dist.mean, dist.variance
        tv, budget = tv_distance(dist, PoissonTarget(lam), with_budget=True)
        row["tv_exact_or_empirical"] = tv
        row["tv_error_budget"] = budget
        rows.append(row)
    elif target == "stein_chen":
        if config.engine != "exact":
            raise ValidationError("stein_chen target requires the exact engine")
        row = new_row()
        row["mode"] = counting.SUPERSET_MATCH
        dist = cell.distribution(cell.motif, counting.SUPERSET_MATCH)
        row["mean"], row["var"] = dist.mean, dist.variance
        row["stein_chen_bound"] = analysis.stein_chen_bound(dist, cell.lattice.num_sites, cell.b)
        rows.append(row)
    elif target == "ring_check":
        if config.engine != "exact":
            raise ValidationError("ring_check target requires the exact engine")
        row = new_row()
        report = analysis.ring_equivalence_check(
            cell.distribution(cell.motif, config.mode),
            cell.distribution(cell.motif.ring(), config.mode),
        )
        row["mean"] = report.mean_difference
        row["tv_exact_or_empirical"] = report.tv
        row["tv_error_budget"] = 0.0
        rows.append(row)
    elif target == "threshold_sweep":
        for suffix, super_side in (("/sub", False), ("/super", True)):
            row = new_row(suffix)
            row["lambda_target"] = None
            field = threshold_field(cell.n, config.d, cell.motif.k, config.epsilon, super_side)
            row["a"] = field
            salt = 0xD1F if super_side else 0x5AB
            seed = _derived_seed(config, cell.n, cell.motif, cell.b) ^ salt
            source = _source(config, cell.lattice, ModelParams(field, cell.b), seed)
            dist = _count_law(source, cell.motif, config.mode)
            del source  # a side's measure or batch is not kept past its law
            row["mean"], row["var"] = dist.mean, dist.variance
            rows.append(row)
    else:  # pragma: no cover - guarded by validation
        raise ValidationError(f"unknown target {target!r}")
    return rows


def _run_cell(config: RunConfig, n: int, motif: LocalConfig, b: float) -> list[dict]:
    """All rows of one (n, motif, b) slab; failures become per-target error rows.

    Any exception, arithmetic ones such as OverflowError included, is caught:
    one failing target never stops the rest of the grid.
    """
    rows = []
    try:
        cell = _CellData(config, n, motif, b)
        cell_error = None
    except Exception as exc:
        cell, cell_error = None, exc
    for target in config.targets:
        start = time.perf_counter()
        if cell_error is not None:
            err_rows = [_error_row(config, n, motif, b, target, cell_error)]
        else:
            try:
                err_rows = _target_rows(cell, target)
            except Exception as exc:
                err_rows = [_error_row(config, n, motif, b, target, exc)]
        elapsed_ms = int(round(1000 * (time.perf_counter() - start)))
        for row in err_rows:
            row["wall_time_ms"] = elapsed_ms
        rows.extend(err_rows)
    return rows


def _error_row(config, n, motif, b, target, exc) -> dict:
    row = _base_row(config, n, motif, b)
    row["run_id"] = f"{target}/{motif.motif_hash[:6]}/n{n}/b{b!r}"
    row["a"] = config.a_override
    row["sample_size"] = 0 if config.engine == "exact" else config.samples
    row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _format_cell_value(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip form, numpy scalars included
    return str(value)


def run(config: RunConfig, jobs: int | None = None, out_dir: str | None = None) -> int:
    """Execute the grid and write results.csv / results.json.

    Returns 0 when every cell succeeded, 1 when any cell recorded an error.
    """
    jobs = jobs if jobs is not None else config.jobs
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    cells = [
        (ni, mi, bi)
        for ni in range(len(config.n_list))
        for mi in range(len(config.motifs))
        for bi in range(len(config.b_list))
    ]

    def work(idx):
        ni, mi, bi = idx
        return idx, _run_cell(config, config.n_list[ni], config.motifs[mi], config.b_list[bi])

    results: dict[tuple, list[dict]] = {}
    if jobs == 1:
        for idx in cells:
            results[idx] = work(idx)[1]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for idx, rows in pool.map(work, cells):
                results[idx] = rows

    all_rows = [row for idx in sorted(results) for row in results[idx]]

    csv_path = out / "results.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# isingmotif-results schema={SCHEMA_VERSION}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COLUMNS)
        for row in all_rows:
            writer.writerow([_format_cell_value(row.get(col)) for col in COLUMNS])

    json_path = out / "results.json"
    payload = {
        "schema_version": SCHEMA_VERSION,
        "resolved_config": config.resolved_text(),
        "rows": [{col: row.get(col) for col in COLUMNS} for row in all_rows],
    }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=float)
        fh.write("\n")

    errors = sum(1 for row in all_rows if row.get("error"))
    print(f"wrote {len(all_rows)} rows to {csv_path} ({errors} error rows)")
    return 1 if errors else 0


# -- entry points -------------------------------------------------------------------


def _cmd_run(args) -> int:
    path = Path(args.config)
    try:
        config = parse_config(path.read_text(encoding="utf-8"), base_dir=path.parent)
    except ConfigError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return run(config, jobs=args.jobs, out_dir=args.out)


def _cmd_validate(args) -> int:
    path = Path(args.config)
    try:
        config = parse_config(path.read_text(encoding="utf-8"), base_dir=path.parent)
    except ConfigError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(config.resolved_text(), end="")
    return 0


def _cmd_motif_info(args) -> int:
    try:
        motif, hint = load_motif(args.motif_file)
    except (OSError, MotifFileError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    d, rho, p = motif.signature
    p_txt = "inf" if p == INFINITY else p
    print(f"d = {d}")
    print(f"rho = {rho}")
    print(f"p = {p_txt}")
    print(f"r = {motif.radius}")
    print(f"n_hint = {hint}")
    print(f"k = {motif.k}")
    print(f"gamma = {motif.perimeter}")
    print(f"clean = {str(motif.clean).lower()}")
    print(f"hash = {motif.motif_hash}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="isingmotif", description="Motif-count experiments on the Ising torus."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a run configuration")
    run_p.add_argument("config")
    run_p.add_argument("--jobs", type=int, default=None, help="concurrent grid cells")
    run_p.add_argument("--out", default=None, help="output directory override")
    run_p.set_defaults(func=_cmd_run)

    val_p = sub.add_parser("validate", help="check a run configuration")
    val_p.add_argument("config")
    val_p.set_defaults(func=_cmd_validate)

    info_p = sub.add_parser("motif-info", help="print motif statistics")
    info_p.add_argument("motif_file")
    info_p.set_defaults(func=_cmd_motif_info)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
