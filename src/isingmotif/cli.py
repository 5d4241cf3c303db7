"""Batch experiment driver.

Reads a sectioned key=value run configuration, sweeps the (n, motif, b) grid
with the requested engine, and writes one row per (n, motif, b, target) cell
to CSV and JSON result files.  Reruns with the same seed are byte-identical
except for the wall_time_ms column.  Cells run one at a time on the
calling thread, and rows are written in canonical sorted order.

Subcommands:
    run <config> [--jobs 1] [--out DIR]   execute the grid
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
from dataclasses import make_dataclass
from itertools import product
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import analysis, counting
from .distributions import CountDistribution, PoissonTarget, tv_distance
from .errors import ConfigError, MotifFileError, ParseError, ValidationError
from .exact import (
    DEFAULT_SITE_CAP,
    FieldSchedule,
    ModelParams,
    build_exact,
    threshold_field,
)
from .lattice import TorusLattice, norm_label, normalize_norm_selector
from .motifs import LocalConfig, load_motif
from .sampler import SamplerSpec, sample_with_params

SCHEMA_VERSION = 1

ENGINE_KINDS = ("exact", "heat_bath", "metropolis", "cftp")
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


class _Type(NamedTuple):
    """How one key's value is read, echoed and bounded."""

    expected: str  # what a malformed value is reported as expected to be
    parse: Callable[[str], object]
    show: Callable[[object], str] = str
    many: bool = False  # a whitespace-separated list of at least one value
    strict: bool = False  # the value must exceed the lower bound, not just reach it


def _finite_real(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


_INT = _Type("an integer", int)
_INTS = _Type("integers", int, many=True)
_REAL = _Type("a finite real", _finite_real, repr, strict=True)
_REALS = _Type("finite reals", _finite_real, repr, many=True, strict=True)
_TEXT = _Type("text", str)
_WORDS = _Type("words", str, many=True)
_NORM = _Type("an integer >= 1 or 'inf'", normalize_norm_selector, lambda p: str(norm_label(p)))


class _Key(NamedTuple):
    """One configuration key: where it lives, what it holds, when it is echoed."""

    section: str
    key: str
    field: str  # the RunConfig attribute
    type: _Type
    default: str | None = None  # raw text; None leaves an optional key unset
    required: bool = False
    engines: tuple[str, ...] = ENGINE_KINDS  # the engines it is echoed for
    lower: float | None = None
    upper: int | None = None


_SAMPLERS = ("heat_bath", "metropolis", "cftp")
_CHAINS = ("heat_bath", "metropolis")

#: Every run-configuration key, in canonical order.
_KEYS = (
    _Key("lattice", "d", "d", _INT, required=True, lower=1),
    _Key("lattice", "rho", "rho", _INT, "1", lower=1),
    _Key("lattice", "p", "p", _NORM, "1"),
    _Key("lattice", "n_list", "n_list", _INTS, required=True, lower=1),
    _Key("motifs", "files", "motif_paths", _WORDS, required=True),
    _Key("schedule", "c", "c", _REAL, required=True, lower=0),
    _Key("schedule", "a", "a_override", _REAL),
    _Key("model", "b_list", "b_list", _REALS, required=True),
    _Key("engine", "kind", "engine", _TEXT, required=True),
    _Key("engine", "samples", "samples", _INT, "10000", engines=_SAMPLERS, lower=1),
    _Key("engine", "burn_in_sweeps", "burn_in_sweeps", _INT, "100", engines=_CHAINS, lower=0),
    _Key("engine", "thinning_sweeps", "thinning_sweeps", _INT, "1", engines=_CHAINS, lower=0),
    _Key("engine", "replicas", "replicas", _INT, engines=_CHAINS, lower=1),
    _Key("engine", "site_cap", "site_cap", _INT, engines=("exact",), lower=1),
    _Key("analysis", "targets", "targets", _WORDS, "expectation"),
    _Key("analysis", "epsilon", "epsilon", _REAL, "0.5", lower=0),
    _Key("analysis", "mode", "mode", _TEXT, counting.EXACT_MATCH),
    _Key("output", "dir", "out_dir", _TEXT, "results"),
    # a cell's seed reads the run seed as 64 bits
    _Key("run", "seed", "seed", _INT, "0", lower=0, upper=(1 << 64) - 1),
    _Key("run", "jobs", "jobs", _INT, "1", engines=()),  # 1 is its only value
)
_BY_NAME = {(spec.section, spec.key): spec for spec in _KEYS}


def _resolved_text(config) -> str:
    """Canonical echo: every key that is set and applies to the engine."""
    lines, section = [], None
    for spec in _KEYS:
        value = getattr(config, spec.field)
        if value is None or config.engine not in spec.engines:
            continue
        if spec.section != section:
            lines += ["", f"[{spec.section}]"]
            section = spec.section
        shown = map(spec.type.show, value) if spec.type.many else [spec.type.show(value)]
        lines.append(f"{spec.key} = {' '.join(shown)}")
    return "\n".join(lines[1:]) + "\n"


#: A validated grid: one attribute per key's field, defaults included, plus
#: the motif and n_hint read from each motif file.
RunConfig = make_dataclass(
    "RunConfig",
    [(spec.field, object) for spec in _KEYS] + [("motifs", list), ("n_hints", list)],
    namespace={"__module__": __name__, "resolved_text": _resolved_text},
)


def _bounded(spec: _Key, value):
    """``value``, unless it is below the key's lower bound or above its upper one."""
    strict, low, high = spec.type.strict, spec.lower, spec.upper
    if low is not None and (value <= low if strict else value < low):
        raise ValidationError(
            f"[{spec.section}] {spec.key}: must be {'>' if strict else '>='} {low}, "
            f"got {spec.type.show(value)}"
        )
    if high is not None and value > high:
        raise ValidationError(
            f"[{spec.section}] {spec.key}: must be <= {high}, got {spec.type.show(value)}"
        )
    return value


def _value(spec: _Key, raw: str):
    """The key's raw text read as its type and checked against its bounds."""
    tokens = raw.split() if spec.type.many else [raw] if raw else []
    if not tokens:
        raise ParseError(f"[{spec.section}] {spec.key}: need at least one value")
    values = []
    for token in tokens:
        try:
            value = spec.type.parse(token)
        except (TypeError, ValueError) as exc:
            raise ParseError(
                f"[{spec.section}] {spec.key}: expected {spec.type.expected}, got {token!r}"
            ) from exc
        values.append(_bounded(spec, value))
    return values if spec.type.many else values[0]


def parse_config(text: str, base_dir: str | Path = ".") -> RunConfig:
    """Parse and validate a run configuration.

    Raises:
        ParseError: unknown section or key, missing key, bad value, unreadable
            motif file.
        ValidationError: a value below its key's bound, a violated invariant
            (ordering, ball overlap, signature or hint mismatch, unknown target),
            or a grid that could only give error rows.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ParseError(f"bad configuration syntax: {exc}") from exc

    for section in parser.sections():
        if section not in {spec.section for spec in _KEYS}:
            raise ParseError(f"unknown section [{section}]")
        for key in parser[section]:
            if (section, key) not in _BY_NAME:
                raise ParseError(f"unknown key {key!r} in section [{section}]")

    values = {}
    for spec in _KEYS:
        raw = parser.get(spec.section, spec.key, fallback=spec.default)
        if raw is None and spec.required:
            if not parser.has_section(spec.section):
                raise ParseError(f"missing required section [{spec.section}]")
            raise ParseError(f"missing required key {spec.key!r} in section [{spec.section}]")
        values[spec.field] = None if raw is None else _value(spec, raw)
    motifs, hints = [], []
    for path in values["motif_paths"]:
        try:
            motif, hint = load_motif(Path(base_dir) / path)
        except OSError as exc:
            raise ParseError(f"cannot read motif file {path!r}: {exc}") from exc
        except MotifFileError as exc:
            raise ParseError(f"bad motif file {path!r}: {exc}") from exc
        motifs.append(motif)
        hints.append(hint)

    config = RunConfig(**values, motifs=motifs, n_hints=hints)
    _validate(config)
    return config


def _one_job(jobs) -> None:
    """Cells run one at a time: 1 is the only ``jobs`` there is."""
    if type(jobs) is not int or jobs != 1:
        raise ValidationError(f"[run] jobs: must be 1 (cells run one at a time), got {jobs!r}")


def _validate(config: RunConfig) -> None:
    """The rules that involve more than one key, and the named choices."""
    _one_job(config.jobs)
    if any(a >= z for a, z in zip(config.n_list, config.n_list[1:])):
        raise ValidationError("n_list must be strictly increasing")
    for i, b in enumerate(config.b_list):
        if b in config.b_list[:i]:
            raise ValidationError(f"[model] b_list: {b!r} equals an earlier value")
    hashes = [motif.motif_hash for motif in config.motifs]
    for i, (path, motif_hash) in enumerate(zip(config.motif_paths, hashes)):
        if motif_hash in hashes[:i]:
            first = config.motif_paths[hashes.index(motif_hash)]
            raise ValidationError(f"[motifs] files: {path!r} is the same motif as {first!r}")
    if config.engine not in ENGINE_KINDS:
        raise ValidationError(f"engine kind must be one of {ENGINE_KINDS}, got {config.engine!r}")
    for name in config.targets:
        if name not in _TARGETS:
            raise ValidationError(f"unknown analysis target {name!r} (known: {TARGETS})")
        if config.targets.count(name) > 1:
            raise ValidationError(f"[analysis] targets: {name} is named more than once")
    if config.mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {config.mode!r}")
    if config.engine in _CHAINS and config.thinning_sweeps < 1:
        raise ValidationError(
            f"thinning_sweeps must be >= 1 for {config.engine}: "
            "0 records the same state repeatedly"
        )
    cap = DEFAULT_SITE_CAP if config.site_cap is None else config.site_cap
    largest = config.n_list[-1]
    if config.engine == "exact" and largest**config.d > cap:
        raise ValidationError(
            f"[engine] site_cap: the exact engine enumerates at most {cap} sites, "
            f"but n_list contains {largest} ({largest**config.d} sites)"
        )
    signature = (config.d, config.rho, config.p)
    for path, motif, hint in zip(config.motif_paths, config.motifs, config.n_hints):
        if motif.signature != signature:
            raise ValidationError(
                f"motif {path!r} has signature {motif.signature}, lattice is {signature}"
            )
        if motif.k == 0 and config.a_override is None:
            raise ValidationError(
                f"[schedule] a: motif {path!r} has k = 0, so the schedule gives it no field"
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
    if config.engine == "cftp" and min(config.b_list) < 0:
        raise ValidationError(f"[model] b_list: cftp needs b >= 0, got {min(config.b_list)!r}")
    ks = [motif.k for motif in config.motifs]
    for name, target in _TARGETS.items():
        if name not in config.targets:
            continue
        if config.engine not in target.engines:
            raise ValidationError(
                f"[analysis] targets: {name} requires the {' or '.join(target.engines)} engine, "
                f"got {config.engine}"
            )
        if target.needs_schedule and config.a_override is not None:
            raise ValidationError(
                f"[analysis] targets: {name} needs the scheduled Poisson limit, "
                "which [schedule] a overrides"
            )
        if target.needs_k and 0 in ks:
            raise ValidationError(
                f"[analysis] targets: {name} needs k >= 1, "
                f"but motif {config.motif_paths[ks.index(0)]!r} has k = 0"
            )
        if config.mode not in target.modes:
            raise ValidationError(
                f"[analysis] mode: {name} needs {' or '.join(target.modes)}, got {config.mode}"
            )
        if target.ferromagnetic and min(config.b_list) < 0:
            raise ValidationError(
                f"[model] b_list: {name} needs b >= 0, got {min(config.b_list)!r}"
            )


# -- row computation ---------------------------------------------------------------


def _float_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


_M32 = 0xFFFFFFFF


def _derived_seed(config: RunConfig, n: int, motif: LocalConfig, b: float) -> int:
    """The cell's seed, ``np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0]``
    computed in plain integers, so a run never loads ``numpy.random``.

    The entropy is the run seed, n, the motif hash and the bits of b, each split into
    little-endian 32-bit words (0 into one zero word).  They are hashed into a pool of
    4 words, and two words drawn from the pool are joined low word first.
    """
    words = [value >> shift & _M32
             for value in (config.seed, n, int(motif.motif_hash, 16), _float_bits(b))
             for shift in range(0, max(value.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(word) for word in words[:4]]  # four values make at least four words
    for src, dst in product(range(4), repeat=2):
        if src != dst:
            pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word, dst in product(words[4:], range(4)):
        pool[dst] = mix(pool[dst], hashmix(word))
    const, state = 0x8B51F9DD, 0
    for i in range(2):
        value = pool[i] ^ const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        state |= (value ^ value >> 16) << 32 * i
    return state


def _base_row(config: RunConfig, n: int, motif: LocalConfig, b: float, run_name: str,
              **values) -> dict:
    return {
        "run_id": f"{run_name}/{motif.motif_hash[:6]}/n{n}/b{b!r}",
        "d": config.d,
        "n": n,
        "rho": config.rho,
        "p": norm_label(config.p),
        "motif_hash": motif.motif_hash,
        "k": motif.k,
        "gamma": motif.perimeter,
        "c": config.c,
        "b": b,
        "a": config.a_override,
        "mode": config.mode,
        "sample_size": 0 if config.engine == "exact" else config.samples,
        "seed": config.seed,
        "error": "",
        **values,
    }


def _laws(config: RunConfig, lattice: TorusLattice, params: ModelParams, seed: int,
          laws: list) -> list[CountDistribution]:
    """The laws ``[(motif, mode), ...]`` at ``params``, summed in one pass over
    one measure or one batch.  A batch keeps the counts of its samples, not
    the samples, and a law that does not fit the lattice raises before any
    sweep."""
    if config.engine == "exact":
        measure = build_exact(lattice, params, site_cap=config.site_cap)
        return counting.count_laws_exact(measure, laws)
    for motif, mode in laws:
        counting._site_tables(lattice, motif, mode)

    def counts(spins):
        out = np.empty((len(spins), len(laws)), dtype=np.int32)
        for column, (motif, mode) in zip(out.T, laws):
            column[:] = counting.count_samples(lattice, spins, motif, mode)
        return out

    spec = SamplerSpec(
        kind=config.engine,
        burn_in_sweeps=config.burn_in_sweeps,
        thinning_sweeps=config.thinning_sweeps,
        seed=seed,
    )
    batch = sample_with_params(lattice, params, spec, config.samples,
                               replicas=config.replicas, each=counts)
    return [CountDistribution.from_samples(column) for column in batch.spins.T]


#: The laws a target can read, each as a cell's (motif, mode).
_LAWS = {
    "count": lambda cell: (cell.motif, cell.config.mode),
    "ring": lambda cell: (cell.motif.ring(), cell.config.mode),
    "superset": lambda cell: (cell.motif, counting.SUPERSET_MATCH),
}


class _Cell:
    """One (n, motif, b) grid cell: what its targets share, and their laws."""

    def __init__(self, config: RunConfig, n: int, motif: LocalConfig, b: float):
        self.config, self.n, self.motif, self.b = config, n, motif, b
        self.lattice = TorusLattice(config.d, n, config.rho, config.p)
        if config.a_override is not None:
            self.field, self.limit = config.a_override, None
        else:
            self.field = FieldSchedule(config.c, motif.k, config.d).field(n)
            self.limit = analysis.poisson_limit(config.c, b, motif)
        self.seed = _derived_seed(config, n, motif, b)
        # the cell's pass: its laws by (motif, mode), or what it raised
        self._pass: dict[tuple, CountDistribution] | Exception | None = None

    def row(self, run_name: str, **values) -> dict:
        return _base_row(self.config, self.n, self.motif, self.b, run_name,
                         a=self.field, lambda_target=self.limit, **values)

    def law(self, name: str) -> CountDistribution:
        """The law ``_LAWS[name]``.  The first call sums every distinct law that
        the run's targets read in one pass, over one measure that it then frees
        or one batch of which it keeps only the counts.  Should that pass
        raise, its exception, kept without the frames that hold the measure,
        is raised to every reader; the pass is not run again."""
        if self._pass is None:
            read = {law for target in self.config.targets for law in _TARGETS[target].laws}
            laws = list(dict.fromkeys(_LAWS[law](self) for law in sorted(read)))
            try:
                params = ModelParams(self.field, self.b)
                self._pass = dict(zip(laws, _laws(self.config, self.lattice, params,
                                                  self.seed, laws)))
            except Exception as exc:
                self._pass = exc.with_traceback(None)
        if isinstance(self._pass, Exception):
            raise self._pass
        return self._pass[_LAWS[name](self)]


def _expectation(cell: _Cell, name: str) -> list[dict]:
    law = cell.law("count")
    return [cell.row(name, mean=law.mean, var=law.variance)]


def _moments(cell: _Cell, name: str) -> list[dict]:
    law = cell.law("count")
    return [cell.row(name, mean=law.mean, var=law.variance,
                     M2=law.factorial_moment(2), M3=law.factorial_moment(3))]


def _tv(cell: _Cell, name: str) -> list[dict]:
    law = cell.law("count")
    tv, budget = tv_distance(law, PoissonTarget(cell.limit), with_budget=True)
    return [cell.row(name, mean=law.mean, var=law.variance,
                     tv_exact_or_empirical=tv, tv_error_budget=budget)]


def _stein_chen(cell: _Cell, name: str) -> list[dict]:
    law = cell.law("superset")
    bound = analysis.stein_chen_bound(law, cell.lattice.num_sites, cell.b)
    return [cell.row(name, mode=counting.SUPERSET_MATCH, mean=law.mean, var=law.variance,
                     stein_chen_bound=bound)]


def _ring_check(cell: _Cell, name: str) -> list[dict]:
    report = analysis.ring_equivalence_check(cell.law("count"), cell.law("ring"))
    return [cell.row(name, mean=report.mean_difference, tv_exact_or_empirical=report.tv,
                     tv_error_budget=0.0)]


def _threshold_sweep(cell: _Cell, name: str) -> list[dict]:
    # the one target with measures or batches of its own, one per side
    config, rows = cell.config, []
    for suffix, super_side, salt in (("/sub", False, 0x5AB), ("/super", True, 0xD1F)):
        field = threshold_field(cell.n, config.d, cell.motif.k, config.epsilon, super_side)
        params, seed = ModelParams(field, cell.b), cell.seed ^ salt
        law, = _laws(config, cell.lattice, params, seed, [(cell.motif, config.mode)])
        rows.append(_base_row(config, cell.n, cell.motif, cell.b, name + suffix, a=field,
                              mean=law.mean, var=law.variance))
    return rows


class _Target(NamedTuple):
    """One analysis target: its rows, the cell laws it reads, and what the grid must give it."""

    rows: Callable[[_Cell, str], list[dict]]
    laws: tuple[str, ...] = ("count",)  # keys of _LAWS
    engines: tuple[str, ...] = ENGINE_KINDS
    needs_schedule: bool = False  # reads the scheduled limit, which [schedule] a overrides
    needs_k: bool = False  # moves the field through k, so every motif needs k >= 1
    modes: tuple[str, ...] = MODES
    ferromagnetic: bool = False  # defined for b >= 0 only


#: Every analysis target, in canonical order.
_TARGETS = {
    "expectation": _Target(_expectation),
    "tv": _Target(_tv, needs_schedule=True),
    "moments": _Target(_moments),
    "stein_chen": _Target(_stein_chen, ("superset",), engines=("exact",), ferromagnetic=True),
    # the ring adds only negative sites, which superset matching ignores
    "ring_check": _Target(_ring_check, ("count", "ring"), engines=("exact",),
                          modes=(counting.EXACT_MATCH,)),
    "threshold_sweep": _Target(_threshold_sweep, (), needs_k=True),
}
TARGETS = tuple(_TARGETS)


def _run_cell(config: RunConfig, n: int, motif: LocalConfig, b: float) -> list[dict]:
    """All rows of one (n, motif, b) slab; failures become per-target error rows.

    Any exception, arithmetic ones such as OverflowError included, is caught:
    one failing target never stops the rest of the grid.
    """
    rows, cell = [], None
    for name in config.targets:
        start = time.perf_counter()
        try:
            cell = cell or _Cell(config, n, motif, b)
            target_rows = _TARGETS[name].rows(cell, name)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            target_rows = [_base_row(config, n, motif, b, name, error=error)]
        elapsed_ms = int(round(1000 * (time.perf_counter() - start)))
        for row in target_rows:
            row["wall_time_ms"] = elapsed_ms
        rows.extend(target_rows)
    return rows


def _format_cell_value(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip form, numpy scalars included
    return str(value)


def run(config: RunConfig, jobs: int | None = None, out_dir: str | None = None) -> int:
    """Execute the grid and write results.csv / results.json.

    Cells run one at a time on the calling thread, in canonical (n, motif, b)
    order, so the exact caches hold the tables of one cell.  A cell's targets
    read the laws of one pass; if it raises, each of them writes its error
    row, while threshold_sweep, whose sides have passes of their own, does not.

    Returns 0 when every cell succeeded, 1 when any cell recorded an error.
    Raises ValidationError for a ``jobs`` other than 1, as ``[run] jobs``
    would, and for an empty ``out_dir``, which would name the working directory.
    """
    if jobs is not None:
        _one_job(jobs)
    if out_dir == "":
        raise ValidationError("--out: must name a directory, got ''")
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    all_rows = [row for cell in product(config.n_list, config.motifs, config.b_list)
                for row in _run_cell(config, *cell)]

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


def _load(path: str) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read configuration {path!r}: {exc}") from exc
    return parse_config(text, base_dir=Path(path).parent)


def _cmd_run(args) -> int:
    config = _load(args.config)
    try:
        return run(config, jobs=args.jobs, out_dir=args.out)
    except OSError as exc:  # the output directory or a results file cannot be written
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _cmd_validate(args) -> int:
    print(_load(args.config).resolved_text(), end="")
    return 0


def _cmd_motif_info(args) -> int:
    try:
        motif, hint = load_motif(args.motif_file)
    except (OSError, MotifFileError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    d, rho, p = motif.signature
    print(f"d = {d}")
    print(f"rho = {rho}")
    print(f"p = {norm_label(p)}")
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
    run_p.add_argument("--jobs", type=int, default=None, help="must be 1: cells run one at a time")
    run_p.add_argument("--out", default=None, help="output directory override")
    run_p.set_defaults(func=_cmd_run)

    val_p = sub.add_parser("validate", help="check a run configuration")
    val_p.add_argument("config")
    val_p.set_defaults(func=_cmd_validate)

    info_p = sub.add_parser("motif-info", help="print motif statistics")
    info_p.add_argument("motif_file")
    info_p.set_defaults(func=_cmd_motif_info)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
