import configparser
import csv
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
import weakref
from importlib.resources import files
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import isingmotif
from isingmotif import cli, counting, exact, sampler
from isingmotif.cli import _KEYS, ENGINE_KINDS, TARGETS, main, parse_config, run
from isingmotif.errors import ConfigError, LatticeTooSmall, ParseError, ValidationError
from isingmotif.exact import ModelParams, _energy_levels
from isingmotif.lattice import TorusLattice

MINIMAL = """\
[lattice]
d = 1
n_list = 6 8

[motifs]
files = single.motif

[schedule]
c = 1.0

[model]
b_list = 0.0

[engine]
kind = exact
"""

SINGLE_MOTIF = "1 0 1 1 1\n0\n"

#: The all-negative radius-1 motif: k = 0, so the schedule gives it no field.
NULL_MOTIF = "1 0 1 1 1\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "single.motif").write_text(SINGLE_MOTIF)
    (tmp_path / "null.motif").write_text(NULL_MOTIF)
    (tmp_path / "copy.motif").write_text("# single.motif under another name\n" + SINGLE_MOTIF)
    return tmp_path


def read_rows(csv_path):
    lines = Path(csv_path).read_text().splitlines()
    assert lines[0] == "# isingmotif-results schema=1"
    rows = list(csv.DictReader(lines[1:]))
    return rows


def test_parse_minimal_with_defaults(workdir):
    config = parse_config(MINIMAL, base_dir=workdir)
    assert config.rho == 1 and config.p == 1
    assert config.targets == ["expectation"]
    assert config.mode == "exact_match"
    assert config.seed == 0 and config.jobs == 1
    echoed = config.resolved_text()
    assert "rho = 1" in echoed and "targets = expectation" in echoed
    # the echo itself parses back to the same grid
    again = parse_config(echoed, base_dir=workdir)
    assert again.n_list == config.n_list
    assert again.b_list == config.b_list


def test_unknown_key_rejected(workdir):
    bad = MINIMAL.replace("kind = exact", "kind = exact\nburnin_sweeps = 10")
    with pytest.raises(ParseError, match="burnin_sweeps"):
        parse_config(bad, base_dir=workdir)


def test_unknown_section_rejected(workdir):
    with pytest.raises(ParseError, match="plotting"):
        parse_config(MINIMAL + "\n[plotting]\nstyle = fancy\n", base_dir=workdir)


def test_unknown_target_rejected(workdir):
    bad = MINIMAL + "\n[analysis]\ntargets = expectation wavelets\n"
    with pytest.raises(ValidationError, match="wavelets"):
        parse_config(bad, base_dir=workdir)


def test_ball_overlap_rule(workdir):
    bad = MINIMAL.replace("n_list = 6 8", "n_list = 4 8")
    with pytest.raises(ValidationError, match="ball-overlap"):
        parse_config(bad, base_dir=workdir)


def test_n_list_must_increase(workdir):
    bad = MINIMAL.replace("n_list = 6 8", "n_list = 8 6")
    with pytest.raises(ValidationError, match="increasing"):
        parse_config(bad, base_dir=workdir)


def test_n_hint_enforced(workdir):
    (workdir / "hinted.motif").write_text("1 8 1 1 1\n0\n")
    cfg_text = MINIMAL.replace("files = single.motif", "files = hinted.motif")
    with pytest.raises(ValidationError, match="n_hint"):
        parse_config(cfg_text, base_dir=workdir)


def test_signature_mismatch_rejected(workdir):
    (workdir / "square.motif").write_text("2 0 1 1 1\n0 0\n")
    bad = MINIMAL.replace("files = single.motif", "files = square.motif")
    with pytest.raises(ValidationError, match="signature"):
        parse_config(bad, base_dir=workdir)


def test_grid_row_count(workdir):
    text = MINIMAL.replace("n_list = 6 8", "n_list = 6 8 10").replace(
        "b_list = 0.0", "b_list = 0.0 0.3"
    )
    text += "\n[analysis]\ntargets = tv\n"
    config = parse_config(text, base_dir=workdir)
    code = run(config, out_dir=workdir / "out")
    assert code == 0
    rows = read_rows(workdir / "out" / "results.csv")
    assert len(rows) == 6  # 3 n * 2 b * 1 target
    assert all(row["error"] == "" for row in rows)


def test_rerun_byte_identical_modulo_wall_time(workdir):
    text = MINIMAL + "\n[analysis]\ntargets = expectation tv moments stein_chen\n"
    config = parse_config(text, base_dir=workdir)
    assert run(config, out_dir=workdir / "o1") == 0
    assert run(config, out_dir=workdir / "o2") == 0

    def strip_wall_time(path):
        lines = Path(path).read_text().splitlines()
        rows = list(csv.reader(lines[1:]))
        idx = rows[0].index("wall_time_ms")
        return [[c for i, c in enumerate(r) if i != idx] for r in rows]

    assert strip_wall_time(workdir / "o1" / "results.csv") == strip_wall_time(
        workdir / "o2" / "results.csv"
    )


def test_each_law_computed_once_per_cell(workdir, monkeypatch):
    # a cell sums every law its targets read in one pass over one measure: the
    # motif, its ring and its superset count (3 laws); each threshold_sweep
    # side then builds a measure and sums its one law.  Per cell that is
    # 1 + 2 = 3 builds and 3 passes, which carry 3 + 1 + 1 = 5 laws.
    calls = {"count_laws_exact": 0, "laws": 0, "build_exact": 0}
    for module, name in ((counting, "count_laws_exact"), (exact, "build_exact")):
        original = getattr(module, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            if _name == "count_laws_exact":
                calls["laws"] += len(args[1])
            return _original(*args, **kwargs)

        # every module of the package that looks the function up by name
        for module_name, holder in list(sys.modules.items()):
            if module_name.startswith("isingmotif") and vars(holder).get(name) is original:
                monkeypatch.setattr(holder, name, wrapper)
    text = MINIMAL.replace("b_list = 0.0", "b_list = 0.0 0.3")
    text += "\n[analysis]\ntargets = " + " ".join(TARGETS) + "\n"
    assert run(parse_config(text, base_dir=workdir), out_dir=workdir / "out") == 0
    cells = 2 * 2
    assert calls == {"count_laws_exact": 3 * cells, "laws": 5 * cells, "build_exact": 3 * cells}


def test_exact_caches_hold_one_cell(workdir):
    # cells run in (n, motif, b) order: a lattice's cells share one enumeration,
    # and each lattice evicts the last one's.  No count array is kept: each
    # pass streams its counts from the pattern tables of the (lattice, motif,
    # mode) laws it sums.  Per lattice, 2 cells x (3 laws of the cell's pass +
    # 1 per threshold_sweep side) = 10 table lookups, of 3 distinct laws (the
    # motif, its ring, its superset count): 3 misses and 7 hits per lattice.
    text = MINIMAL.replace("n_list = 6 8", "n_list = 6 8 10").replace(
        "b_list = 0.0", "b_list = 0.0 0.3"
    )
    text += "\n[analysis]\ntargets = " + " ".join(TARGETS) + "\n"
    config = parse_config(text, base_dir=workdir)
    _energy_levels.cache_clear()
    counting._site_tables.cache_clear()
    assert run(config, out_dir=workdir / "out") == 0
    levels, tables = _energy_levels.cache_info(), counting._site_tables.cache_info()
    assert (levels.currsize, levels.misses) == (1, 3)
    assert (tables.misses, tables.hits) == (3 * 3, 3 * 7)


def track_builds(monkeypatch) -> list[float]:
    """The field of every measure the runner builds, in order; fails if two
    measures are ever alive at once."""
    fields, built = [], []

    def tracked(lattice, params, **kwargs):
        assert not any(ref() for ref in built), "a measure outlived its laws"
        measure = exact.build_exact(lattice, params, **kwargs)
        fields.append(params.a)
        built.append(weakref.ref(measure))
        return measure

    monkeypatch.setattr(cli, "build_exact", tracked)
    return fields


@pytest.mark.parametrize("targets", [
    "threshold_sweep", "expectation ring_check threshold_sweep", "expectation threshold_sweep tv",
])
def test_one_measure_alive_at_a_time(workdir, monkeypatch, targets):
    # each threshold_sweep side enumerates the measure at its own field, and the
    # cell's measure goes before them; a later tv re-reads the cell's law
    fields = track_builds(monkeypatch)
    text = MINIMAL + f"\n[analysis]\ntargets = {targets}\n"
    assert run(parse_config(text, base_dir=workdir), out_dir=workdir / "out") == 0
    # one measure per field the rows report, in row order: none built twice or for nothing
    rows = read_rows(workdir / "out" / "results.csv")
    assert fields == list(dict.fromkeys(float(row["a"]) for row in rows))


def test_laws_after_threshold_sweep_come_from_the_cell_pass(workdir, monkeypatch):
    # the cell's first law read sums the count and superset laws together, so
    # stein_chen after threshold_sweep reads a law the cell already holds: per
    # cell, the cell's field, then the sub and super sides, each built once
    fields = track_builds(monkeypatch)
    text = MINIMAL + "\n[analysis]\ntargets = expectation threshold_sweep stein_chen\n"
    assert run(parse_config(text, base_dir=workdir), out_dir=workdir / "out") == 0
    rows = read_rows(workdir / "out" / "results.csv")
    assert fields == list(dict.fromkeys(float(row["a"]) for row in rows))
    cell_fields = [float(row["a"]) for row in rows if row["run_id"].startswith("expectation/")]
    assert len(cell_fields) == 2
    assert [fields.count(a) for a in cell_fields] == [1, 1]


def test_a_failing_cell_pass_fails_each_of_its_readers(workdir, monkeypatch):
    # the superset law raises, so the cell's one pass raises: every target that
    # reads the cell's laws writes that error, and the pass is not run again;
    # the threshold_sweep sides sum the motif's law in passes of their own
    original = counting._count_blocks

    def failing(lattice, motif, mode):
        if mode == counting.SUPERSET_MATCH:
            raise FloatingPointError("superset law")
        return original(lattice, motif, mode)

    monkeypatch.setattr(counting, "_count_blocks", failing)
    passes, count_laws = [], counting.count_laws_exact

    def recorded(measure, laws):
        passes.append(len(laws))
        return count_laws(measure, laws)

    monkeypatch.setattr(counting, "count_laws_exact", recorded)
    fields = track_builds(monkeypatch)
    text = MINIMAL + "\n[analysis]\ntargets = expectation stein_chen ring_check threshold_sweep\n"
    assert run(parse_config(text, base_dir=workdir), out_dir=workdir / "out") == 1
    rows = read_rows(workdir / "out" / "results.csv")
    errors = {(row["run_id"].rsplit("/", 3)[0], row["error"]) for row in rows}
    fails = "FloatingPointError: superset law"
    assert len(rows) == 2 * 5 and errors == {
        ("expectation", fails), ("stein_chen", fails), ("ring_check", fails),
        ("threshold_sweep/sub", ""), ("threshold_sweep/super", ""),
    }
    # per cell: its field once, then each side's; one pass of the cell's 3 laws
    # and one of each side's law
    assert len(fields) == len(set(fields)) == 2 * 3
    assert passes == [3, 1, 1] * 2


@pytest.mark.slow
def test_d2_n5_exact_cell_stays_far_below_the_level_index(workdir):
    # 25 sites: a level index takes 2**25 uint16 = 64 MiB and a count array
    # of the cell's laws 32 MiB each.  Both are streamed in blocks, so the
    # whole cell, its enumeration included, must stay within 6 MiB; measured
    # 4.1 MiB, mostly the level tables and each pass's count tables (with the
    # 64 MiB index kept it was 66.2 MiB)
    d2 = files("isingmotif") / "data" / "single_plus_d2.motif"
    (workdir / "single_plus_d2.motif").write_text(d2.read_text(encoding="utf-8"))
    text = MINIMAL.replace("d = 1", "d = 2").replace("n_list = 6 8", "n_list = 5")
    text = text.replace("single.motif", "single_plus_d2.motif").replace("b_list = 0.0", "b_list = 0.2")
    text += "site_cap = 25\n\n[analysis]\ntargets = " + " ".join(TARGETS) + "\n"
    config = parse_config(text, base_dir=workdir)
    _energy_levels.cache_clear()
    tracemalloc.start()
    try:
        assert run(config, out_dir=workdir / "out") == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _energy_levels.cache_clear()
    rows = read_rows(workdir / "out" / "results.csv")
    assert len(rows) == 7 and not any(row["error"] for row in rows)
    assert peak < 6 * 2**20


def test_stein_chen_underflowed_mean_run(workdir):
    text = MINIMAL.replace("n_list = 6 8", "n_list = 8").replace("c = 1.0", "c = 1.0\na = -400")
    text += "\n[analysis]\ntargets = expectation stein_chen\n"
    cfg_path = workdir / "run.ini"
    cfg_path.write_text(text)
    assert main(["run", str(cfg_path), "--out", str(workdir / "out")]) == 0
    rows = read_rows(workdir / "out" / "results.csv")
    assert [row["error"] for row in rows] == ["", ""]
    assert float(rows[1]["stein_chen_bound"]) == 0.0


def test_too_large_for_exact_rejected(workdir):
    # such a grid could only write TooLargeForExact rows
    text = MINIMAL.replace("n_list = 6 8", "n_list = 6 30")
    with pytest.raises(ValidationError, match=re.escape("[engine] site_cap")):
        parse_config(text, base_dir=workdir)
    raised = parse_config(text.replace("kind = exact", "kind = exact\nsite_cap = 30"),
                          base_dir=workdir)
    assert raised.site_cap == 30
    # the samplers have no site cap
    parse_config(text.replace("kind = exact", "kind = heat_bath"), base_dir=workdir)


def test_cell_isolation_failing_motif(workdir):
    # at c = 1e40 the Poisson limit c^10 of a k = 10 motif overflows: its rows
    # must be error rows while single_plus (limit 1e40) still runs
    (workdir / "line10.motif").write_text("1 0 1 1 6\n" + "".join(f"{x}\n" for x in range(-5, 5)))
    text = MINIMAL.replace("n_list = 6 8", "n_list = 16").replace("c = 1.0", "c = 1e40")
    text = text.replace("files = single.motif", "files = single.motif line10.motif")
    text = text.replace("b_list = 0.0", "b_list = 0.0 0.1")
    config = parse_config(text, base_dir=workdir)
    code = run(config, out_dir=workdir / "out")
    rows = read_rows(workdir / "out" / "results.csv")
    errors = [r for r in rows if r["error"]]
    fine = [r for r in rows if not r["error"]]
    assert code == 1
    assert len(errors) == 2 and len(fine) == 2
    assert {r["k"] for r in errors} == {"10"}
    assert all(r["error"].startswith("NonFiniteLimit") for r in errors)
    assert {r["k"] for r in fine} == {"1"}


@pytest.mark.parametrize("kind", ["heat_bath", "metropolis"])
def test_zero_thinning_rejected_for_mcmc(workdir, kind):
    bad = MINIMAL.replace("kind = exact", f"kind = {kind}\nthinning_sweeps = 0")
    with pytest.raises(ValidationError, match="thinning_sweeps"):
        parse_config(bad, base_dir=workdir)
    # coupling from the past ignores thinning
    parse_config(MINIMAL.replace("kind = exact", "kind = cftp\nthinning_sweeps = 0"),
                 base_dir=workdir)


def test_cell_isolation_arithmetic_error(workdir):
    # exp(-2 b gamma) overflows for b = -20 and gamma = 58: that cell's rows
    # become error rows and the b = 0 cell still runs
    text = """\
[lattice]
d = 2
p = inf
n_list = 9

[motifs]
files = blob_k10.motif

[schedule]
c = 1.0

[model]
b_list = 0.0 -20

[engine]
kind = heat_bath
samples = 20
burn_in_sweeps = 2

[analysis]
targets = expectation tv moments
"""
    blob = files("isingmotif") / "data" / "blob_k10.motif"
    (workdir / "blob_k10.motif").write_text(blob.read_text(encoding="utf-8"))
    cfg_path = workdir / "run.ini"
    cfg_path.write_text(text)
    assert main(["run", str(cfg_path), "--out", str(workdir / "out")]) == 1
    rows = read_rows(workdir / "out" / "results.csv")
    healthy = [r for r in rows if float(r["b"]) == 0.0]
    broken = [r for r in rows if float(r["b"]) == -20.0]
    assert len(healthy) == len(broken) == 3
    assert all(r["error"] == "" for r in healthy)
    assert all(r["error"].startswith("NonFiniteLimit") for r in broken)


def sampler_config(workdir, kind, samples, targets="expectation"):
    text = MINIMAL.replace("kind = exact", f"kind = {kind}\nsamples = {samples}")
    if kind != "cftp":
        text += "replicas = 64\nburn_in_sweeps = 7\nthinning_sweeps = 3\n"
    return parse_config(text + f"\n[analysis]\ntargets = {targets}\n", base_dir=workdir)


@pytest.mark.parametrize("kind", ["heat_bath", "metropolis", "cftp"])
def test_streamed_counts_equal_stored_counts(workdir, monkeypatch, kind):
    # the runner counts each block of samples as it is drawn; its counts, row
    # for row, are those of the stored batch.  Blocks of 5 samples split every
    # record of 64 replicas, and 200 samples leave the last record partial.
    # CFTP in chunks of 4 draws, a stream block of 4 draws' words at one time,
    # spans the pilot, rounds at several horizons and many chunks
    monkeypatch.setattr(sampler, "_SAMPLE_BLOCK_BYTES", 5 * 8)
    monkeypatch.setattr(sampler, "_STREAM_BLOCK_BYTES", 8 * 8 * 4)
    records, cftp_records = [], sampler._cftp_records

    def kept_rows(*args):
        for rows, up in cftp_records(*args):
            records.append(rows.copy())
            yield rows, up

    monkeypatch.setattr(sampler, "_cftp_records", kept_rows)
    calls, draw = [], cli.sample_with_params

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return draw(*args, **kwargs)

    monkeypatch.setattr(cli, "sample_with_params", recorded)
    config, lattice = sampler_config(workdir, kind, 200), TorusLattice(1, 8, 1, 1)
    laws = [(config.motifs[0], mode) for mode in counting.MODES]
    found = cli._laws(config, lattice, ModelParams(-0.5, 0.4), 9, laws)
    runner_records = list(records)
    (args, kwargs), = calls
    counts = draw(*args, **kwargs).spins
    assert counts.shape == (200, 2) and counts.dtype == np.int32
    del kwargs["each"]
    spins = draw(*args, **kwargs).spins
    for column, (motif, mode), law in zip(counts.T, laws, found):
        stored = counting.count_samples(lattice, spins, motif, mode)
        assert np.array_equal(column, stored)
        assert law.support == tuple(np.unique(stored)) and law.sample_size == 200
    if kind == "cftp":
        # the pilot's 4 draws coalesce first; later rounds return draws of
        # earlier chunks after those of later ones
        rows = np.concatenate(runner_records)
        assert len(runner_records) > 50 and sorted(rows) == list(range(200))
        assert (np.diff(rows) < 0).any()


@pytest.mark.parametrize("kind", ["heat_bath", "metropolis", "cftp"])
def test_sampler_law_source_keeps_counts_not_samples(workdir, kind):
    # d=2, n=8: a stored sample is 64 bytes, its count 4.  From 10^4 to 10^5
    # samples one pass's peak grows by the 4 bytes of each count and at
    # most a quarter more, where stored samples would add 16 times that
    d2 = files("isingmotif") / "data" / "single_plus_d2.motif"
    (workdir / "single_plus_d2.motif").write_text(d2.read_text(encoding="utf-8"))
    lattice = TorusLattice(2, 8, 1, 1)

    def peak(samples):
        text = MINIMAL.replace("d = 1", "d = 2").replace("n_list = 6 8", "n_list = 8")
        text = text.replace("single.motif", "single_plus_d2.motif")
        text = text.replace("kind = exact", f"kind = {kind}\nsamples = {samples}")
        config = parse_config(text, base_dir=workdir)
        tracemalloc.start()
        try:
            law, = cli._laws(config, lattice, ModelParams(-2.0, 0.25), 3,
                             [(config.motifs[0], config.mode)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert law.sample_size == samples
        return peak

    peak(1000)  # the lattice's tables are cached outside the measured calls
    grown = peak(100_000) - peak(10_000)
    assert grown <= 1.25 * 4 * 90_000


@pytest.mark.parametrize("kind", ["heat_bath", "cftp"])
def test_a_law_that_does_not_fit_draws_nothing(workdir, monkeypatch, kind):
    # validation rejects n = 2 for a radius-1 motif, so the cell is run by
    # hand: each target writes the fit error, and no sample is drawn
    drawn = []
    monkeypatch.setattr(cli, "sample_with_params", lambda *args, **kwargs: drawn.append(args))
    config = sampler_config(workdir, kind, 50, targets="expectation tv moments")
    motif = config.motifs[0]
    with pytest.raises(LatticeTooSmall) as error:
        motif.check_fits(TorusLattice(1, 2, 1, 1))
    rows = cli._run_cell(config, 2, motif, 0.0)
    for row, name in zip(rows, config.targets, strict=True):
        del row["wall_time_ms"]
        assert row == cli._base_row(config, 2, motif, 0.0, name,
                                    error=f"LatticeTooSmall: {error.value}")
    assert drawn == []


def test_sampler_engine_rows(workdir):
    text = MINIMAL.replace("kind = exact", "kind = heat_bath\nsamples = 2000\nburn_in_sweeps = 50")
    text += "\n[analysis]\ntargets = expectation tv\n"
    config = parse_config(text, base_dir=workdir)
    code = run(config, out_dir=workdir / "out")
    assert code == 0
    rows = read_rows(workdir / "out" / "results.csv")
    assert all(row["sample_size"] == "2000" for row in rows)
    tv_rows = [r for r in rows if r["run_id"].startswith("tv/")]
    assert all(float(r["tv_error_budget"]) > 0 for r in tv_rows)


def test_antiferromagnetic_tv_budget_is_the_plug_in_term(workdir):
    # at b = -3 the target is Poisson(2.6e10) and the count lives on 0..64:
    # the Poisson mass beyond the support is one term, so the distance is 1
    # and the budget is the plug-in bound plus the fixed allowance
    text = MINIMAL.replace("d = 1\nn_list = 6 8", "d = 2\nn_list = 8")
    text = text.replace("single.motif", "single_plus_d2.motif").replace("b_list = 0.0", "b_list = -3")
    text = text.replace("kind = exact", "kind = heat_bath\nsamples = 200\nburn_in_sweeps = 10")
    text += "\n[analysis]\ntargets = tv\n"
    motif = files("isingmotif") / "data" / "single_plus_d2.motif"
    (workdir / "single_plus_d2.motif").write_text(motif.read_text(encoding="utf-8"))
    assert run(parse_config(text, base_dir=workdir), out_dir=workdir / "out") == 0
    (row,) = read_rows(workdir / "out" / "results.csv")
    assert float(row["lambda_target"]) > 1e10
    assert float(row["tv_exact_or_empirical"]) == 1.0
    assert float(row["tv_error_budget"]) < 1.0


@pytest.mark.parametrize("kind", ["heat_bath", "metropolis", "cftp"])
@pytest.mark.parametrize("target", ["stein_chen", "ring_check"])
def test_stein_chen_requires_exact_engine(workdir, kind, target):
    text = MINIMAL.replace("kind = exact", f"kind = {kind}\nsamples = 100")
    text += f"\n[analysis]\ntargets = expectation {target}\n"
    with pytest.raises(ValidationError, match=f"{target} requires the exact engine"):
        parse_config(text, base_dir=workdir)


def test_threshold_sweep_rows(workdir):
    text = MINIMAL + "\n[analysis]\ntargets = threshold_sweep\nepsilon = 0.5\n"
    config = parse_config(text, base_dir=workdir)
    code = run(config, out_dir=workdir / "out")
    assert code == 0
    rows = read_rows(workdir / "out" / "results.csv")
    assert len(rows) == 4  # 2 n * (sub + super)
    subs = [r for r in rows if "/sub/" in r["run_id"]]
    sups = [r for r in rows if "/super/" in r["run_id"]]
    assert len(subs) == 2 and len(sups) == 2
    for sub, sup in zip(subs, sups):
        assert float(sub["a"]) < float(sup["a"])


def test_json_mirror(workdir):
    config = parse_config(MINIMAL, base_dir=workdir)
    run(config, out_dir=workdir / "out")
    payload = json.loads((workdir / "out" / "results.json").read_text())
    assert payload["schema_version"] == 1
    assert "[lattice]" in payload["resolved_config"]
    assert len(payload["rows"]) == 2
    assert payload["rows"][0]["k"] == 1


def test_main_validate_and_motif_info(workdir, capsys, monkeypatch):
    cfg_path = workdir / "run.ini"
    cfg_path.write_text(MINIMAL)
    assert main(["validate", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "[lattice]" in out

    assert main(["motif-info", str(workdir / "single.motif")]) == 0
    out = capsys.readouterr().out
    assert "k = 1" in out and "gamma = 2" in out and "clean = true" in out

    bad = workdir / "bad.ini"
    bad.write_text(MINIMAL + "\n[lattice]\nbogus = 1\n")
    assert main(["validate", str(bad)]) == 2

    # only run reports an OSError as exit status 2; validate's own output failing
    # (stdout piped into a closed reader) is not a configuration error
    def closed_pipe(config):
        raise BrokenPipeError("stdout closed")

    monkeypatch.setattr(cli.RunConfig, "resolved_text", closed_pipe)
    with pytest.raises(BrokenPipeError):
        main(["validate", str(cfg_path)])


def test_main_run_exit_codes(workdir, monkeypatch, capsys):
    cfg_path = workdir / "run.ini"
    cfg_path.write_text(MINIMAL)
    assert main(["run", str(cfg_path), "--out", str(workdir / "ok")]) == 0

    # an output directory that cannot be made is one stderr line and exit status 2
    taken = workdir / "taken"
    taken.write_text("")
    capsys.readouterr()
    assert main(["run", str(cfg_path), "--out", str(taken)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("FileExistsError: ") and str(taken) in captured.err

    # a target that fails at run time writes error rows and exit status 1
    def broken(cell, name):
        raise ArithmeticError("no rows")

    monkeypatch.setitem(cli._TARGETS, "expectation", cli._TARGETS["expectation"]._replace(
        rows=broken))
    assert main(["run", str(cfg_path), "--out", str(workdir / "bad")]) == 1
    rows = read_rows(workdir / "bad" / "results.csv")
    assert len(rows) == 2
    assert all(row["error"] == "ArithmeticError: no rows" for row in rows)


@pytest.mark.parametrize("command", ["run", "validate"])
def test_unreadable_config_is_a_parse_error(workdir, capsys, command):
    (workdir / "latin1.ini").write_bytes(MINIMAL.replace("d = 1", "d = 1 # \xe9").encode("latin-1"))
    for name, cause in (("missing.ini", "No such file"), ("latin1.ini", "can't decode")):
        path = str(workdir / name)
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"ParseError: cannot read configuration {path!r}: ")
        assert cause in captured.err and captured.err.count("\n") == 1


def test_motif_info_rejects_negative_n_hint(workdir, capsys):
    (workdir / "single.motif").write_text("1 -3 1 1 1\n0\n")
    assert main(["motif-info", str(workdir / "single.motif")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("MotifFileError: bad header ")
    assert "n_hint must be an integer >= 0" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "validate", "motif-info"])
def test_motif_file_that_is_not_utf8_is_one_line_and_exit_2(workdir, capsys, command):
    (workdir / "single.motif").write_bytes(b"\xff\xfe" + SINGLE_MOTIF.encode())
    (workdir / "run.ini").write_text(MINIMAL)
    target = "single.motif" if command == "motif-info" else "run.ini"
    assert main([command, str(workdir / target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    first = "MotifFileError: " if command == "motif-info" else "ParseError: bad motif file "
    assert captured.err.startswith(first)
    assert "not UTF-8" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["run", "validate", "motif-info"])
def test_motif_header_past_the_offset_cap_is_one_line_and_exit_2(workdir, capsys, command):
    # d = 13, rho = 1, p = inf has 3^13 candidate neighbor offsets, past the
    # 2^20 cap: refused before they are enumerated, which took seconds
    (workdir / "single.motif").write_text("13 0 1 inf 1\n")
    (workdir / "run.ini").write_text(MINIMAL)
    target = "single.motif" if command == "motif-info" else "run.ini"
    assert main([command, str(workdir / target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    first = "MotifFileError: " if command == "motif-info" else "ParseError: bad motif file "
    assert captured.err.startswith(first)
    assert "^13 candidates, cap is 1048576" in captured.err and captured.err.count("\n") == 1


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("golden, kind, targets", [
    ("golden_results.csv", "exact", "expectation tv stein_chen"),
    ("golden_all_targets.csv", "exact",
     "expectation tv moments stein_chen ring_check threshold_sweep"),
    # every sampler keeps its bits fixed, so its rows are pinned too
    ("golden_cftp.csv", "cftp", "expectation tv moments threshold_sweep"),
    ("golden_heat_bath.csv", "heat_bath", "expectation tv moments threshold_sweep"),
    ("golden_metropolis.csv", "metropolis", "expectation tv moments threshold_sweep"),
])
def test_golden_file_pinned_run(workdir, golden, kind, targets):
    # schema and values of a tiny pinned run; float cells compared with a
    # 1e-12 relative tolerance so the file survives libm differences
    text = MINIMAL.replace("b_list = 0.0", "b_list = 0.0 0.25")
    text = text.replace("kind = exact", f"kind = {kind}")
    text += f"\n[analysis]\ntargets = {targets}\n[run]\nseed = 12345\n"
    config = parse_config(text, base_dir=workdir)
    assert run(config, out_dir=workdir / "out") == 0

    got_lines = (workdir / "out" / "results.csv").read_text().splitlines()
    want_lines = (DATA / golden).read_text().splitlines()
    assert got_lines[0] == want_lines[0] == "# isingmotif-results schema=1"
    assert got_lines[1] == want_lines[1]  # column header
    assert len(got_lines) == len(want_lines)

    header = got_lines[1].split(",")
    wt = header.index("wall_time_ms")
    for got, want in zip(got_lines[2:], want_lines[2:]):
        gcells, wcells = got.split(","), want.split(",")
        assert len(gcells) == len(wcells) == len(header)
        for i, (g, w) in enumerate(zip(gcells, wcells)):
            if i == wt:
                continue
            if g == w:
                continue
            assert float(g) == pytest.approx(float(w), rel=1e-12), (header[i], g, w)


@pytest.mark.parametrize("old, new, where", [
    ("n_list = 6 8", "n_list =", "[lattice] n_list"),
    ("b_list = 0.0", "b_list =", "[model] b_list"),
    ("kind = exact", "kind = exact\n[analysis]\ntargets =", "[analysis] targets"),
    ("b_list = 0.0", "b_list = nan inf", "[model] b_list"),
    ("c = 1.0", "c = 1.0\na = nan", "[schedule] a"),
    ("kind = exact", "kind = exact\n[analysis]\nepsilon = nan", "[analysis] epsilon"),
    ("kind = exact", "kind = exact\n[analysis]\nepsilon = inf", "[analysis] epsilon"),
    ("kind = exact", "kind = exact\nsite_cap = 0", "[engine] site_cap"),
    ("kind = exact", "kind = exact\nsite_cap = 7", "[engine] site_cap"),
    ("c = 1.0", "c = 1.0\na = -0.5\n[analysis]\ntargets = tv", "[analysis] targets"),
    ("files = single.motif", "files = single.motif null.motif", "[schedule] a"),
    ("files = single.motif\n\n[schedule]\nc = 1.0",
     "files = null.motif\n\n[schedule]\nc = 1.0\na = -0.5\n[analysis]\ntargets = threshold_sweep",
     "[analysis] targets"),
    ("b_list = 0.0\n\n[engine]\nkind = exact", "b_list = -0.3 0.25\n\n[engine]\nkind = cftp",
     "[model] b_list"),
    # the ring adds only negative sites, so under superset matching both counts agree
    ("kind = exact", "kind = exact\n[analysis]\ntargets = ring_check\nmode = superset_match",
     "[analysis] mode"),
    # the Stein-Chen bound is for ferromagnets: b < 0 cells were FerromagneticOnly rows
    ("b_list = 0.0\n\n[engine]\nkind = exact",
     "b_list = -0.1\n\n[engine]\nkind = exact\n[analysis]\ntargets = stein_chen",
     "[model] b_list"),
    # a repeated b or motif wrote the cell's rows twice, under the same run_id
    ("b_list = 0.0", "b_list = 0.0 0.3 0.0", "[model] b_list"),
    ("b_list = 0.0", "b_list = 0.0 -0.0", "[model] b_list"),
    ("files = single.motif", "files = single.motif single.motif", "[motifs] files"),
    ("files = single.motif", "files = single.motif copy.motif", "[motifs] files"),
])
def test_configs_that_produce_nothing_rejected(workdir, old, new, where):
    # each of these used to validate, then ran no cell or only error rows
    with pytest.raises(ConfigError, match=re.escape(where)):
        parse_config(MINIMAL.replace(old, new), base_dir=workdir)


def test_target_named_twice_rejected(workdir):
    # a repeated target wrote its rows twice, under the same run_id
    for targets in ("tv tv", "expectation tv moments expectation"):
        text = MINIMAL + f"\n[analysis]\ntargets = {targets}\n"
        with pytest.raises(ValidationError, match=re.escape("[analysis] targets")):
            parse_config(text, base_dir=workdir)


@pytest.mark.parametrize("old, new, error, fragment", [
    ("[model]\nb_list = 0.0\n", "", ParseError, "[model]"),
    ("d = 1\n", "", ParseError, "missing required key 'd' in section [lattice]"),
    ("files = single.motif", "files = absent.motif", ParseError, "absent.motif"),
    ("kind = exact", "kind = gibbs", ValidationError, "gibbs"),
    ("kind = exact", "kind = exact\n[analysis]\nmode = fuzzy_match", ValidationError, "fuzzy_match"),
    # an empty dir wrote the results into the working directory
    ("kind = exact", "kind = exact\n[output]\ndir =", ParseError, "[output] dir"),
])
def test_bad_section_file_or_choice_rejected(workdir, old, new, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        parse_config(MINIMAL.replace(old, new), base_dir=workdir)


@pytest.mark.parametrize("jobs", [0, -1, 1.5, 1.0, 2])
def test_jobs_other_than_one_rejected(workdir, capsys, jobs):
    # cells run one at a time, and 1 is the only jobs there is
    config = parse_config(MINIMAL, base_dir=workdir)
    with pytest.raises(ValidationError, match=re.escape("[run] jobs")):
        run(config, jobs=jobs, out_dir=workdir / "out")
    cfg_path = workdir / "run.ini"
    cfg_path.write_text(MINIMAL + f"\n[run]\njobs = {jobs}\n")
    assert main(["validate", str(cfg_path)]) == 2
    from_file = capsys.readouterr().err
    assert "[run] jobs" in from_file
    cfg_path.write_text(MINIMAL)
    argv = ["run", str(cfg_path), "--jobs", str(jobs), "--out", str(workdir / "out")]
    if isinstance(jobs, int):
        assert main(argv) == 2
        assert capsys.readouterr().err == from_file
    else:  # argparse reads --jobs as an integer itself
        with pytest.raises(SystemExit, match="2"):
            main(argv)
    assert not (workdir / "out").exists()


def test_empty_out_rejected(workdir, capsys, monkeypatch):
    # an empty --out named the working directory, where the results were written
    cfg_path = workdir / "run.ini"
    cfg_path.write_text(MINIMAL)
    cwd = workdir / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["run", str(cfg_path), "--out", ""]) == 2
    assert capsys.readouterr().err == "ValidationError: --out: must name a directory, got ''\n"
    assert list(cwd.iterdir()) == []


def test_missing_key_report_does_not_depend_on_hash_seed(workdir):
    cfg_path = workdir / "run.ini"
    cfg_path.write_text(MINIMAL.replace("d = 1\n", "").replace("n_list = 6 8\n", ""))
    src = str(Path(isingmotif.__file__).parents[1])
    script = "import sys; from isingmotif.cli import main; sys.exit(main(sys.argv[1:]))"
    reports = set()
    for seed in range(1, 7):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, "validate", str(cfg_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        reports.add(proc.stderr)
    assert reports == {"ParseError: missing required key 'd' in section [lattice]\n"}


NO_SCIPY_SCRIPT = """\
import sys
import isingmotif
import isingmotif.cli
for name in ("exact.ini", "cftp.ini"):
    assert isingmotif.cli.main(["run", name, "--out", name + ".out"]) == 0
leaked = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
sys.exit(f"scipy modules loaded: {leaked}" if leaked else 0)
"""


# numpy 1.x imports numpy.random, and with it hashlib, on ``import numpy``; there
# nothing is newly loaded and the check passes trivially
FOOTPRINT_SCRIPT = """\
import sys
import numpy
before = set(sys.modules)
import isingmotif.cli
for name in ("exact.ini", "cftp.ini"):
    assert isingmotif.cli.main(["run", name, "--out", name + ".out"]) == 0
loaded = sorted({"numpy.random", "secrets", "hashlib", "_hashlib"} & (set(sys.modules) - before))
sys.exit(f"loaded by the run: {loaded}" if loaded else 0)
"""


def run_exact_and_cftp_in_subprocess(workdir, script):
    (workdir / "exact.ini").write_text(
        MINIMAL + "\n[analysis]\ntargets = " + " ".join(TARGETS) + "\n"
    )
    (workdir / "cftp.ini").write_text(
        MINIMAL.replace("kind = exact", "kind = cftp\nsamples = 50")
        + "\n[analysis]\ntargets = expectation tv moments\n"
    )
    src = str(Path(isingmotif.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert read_rows(workdir / "exact.ini.out" / "results.csv")
    assert read_rows(workdir / "cftp.ini.out" / "results.csv")


def test_runtime_loads_no_scipy(workdir):
    # numpy is the only runtime dependency: scipy is for the tests alone
    run_exact_and_cftp_in_subprocess(workdir, NO_SCIPY_SCRIPT)


def test_run_loads_neither_numpy_random_nor_openssl(workdir):
    # cell seeds and motif hashes are computed in plain integers, so a run
    # loads neither numpy.random (and secrets) nor hashlib (and OpenSSL)
    run_exact_and_cftp_in_subprocess(workdir, FOOTPRINT_SCRIPT)


def test_derived_seed_matches_numpy_seed_sequence():
    # zero words (seed 0, hash 0, b = 0.0 and the low word of -0.0), seeds near
    # 2^64, and entropies of 4 to 7 words, so the pool takes extra words too
    rng = random.Random(11)
    specials = [0, 1, (1 << 32) - 1, 1 << 32, 1 << 63, (1 << 64) - 2, (1 << 64) - 1]
    for i in range(10_000):
        seed = specials[i % len(specials)] if i % 2 else rng.getrandbits(rng.choice([8, 32, 64]))
        n = rng.choice([1, 2, 64, rng.getrandbits(31) + 1])
        motif_hash = rng.choice(["000000000000", "00000000ffff", f"{rng.getrandbits(48):012x}"])
        b = rng.choice([0.0, -0.0, 0.25, -0.3, rng.uniform(-2.0, 2.0)])
        entropy = [seed, n, int(motif_hash, 16), cli._float_bits(b)]
        want = np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0]
        motif = SimpleNamespace(motif_hash=motif_hash)
        got = cli._derived_seed(SimpleNamespace(seed=seed), n, motif, b)
        assert got == int(want), entropy
    assert cli._float_bits(-0.0) == 1 << 63 and cli._float_bits(0.0) == 0


@pytest.mark.parametrize("seed", [-1, 1 << 64, -(1 << 64) - 1])
def test_seed_outside_64_bits_rejected(workdir, seed):
    # a cell's seed reads the run seed as 64 bits: -1 wrote the rows of 2^64 - 1,
    # while each row recorded its own seed
    with pytest.raises(ValidationError, match=re.escape("[run] seed")):
        parse_config(MINIMAL + f"\n[run]\nseed = {seed}\n", base_dir=workdir)
    for ok in (0, (1 << 64) - 1):
        assert parse_config(MINIMAL + f"\n[run]\nseed = {ok}\n", base_dir=workdir).seed == ok


CONFIGS = Path(__file__).parents[1] / "configs"


def every_key_config(kind):
    """MINIMAL with every optional key of the table set."""
    sampler = "samples = 50\nburn_in_sweeps = 5\nthinning_sweeps = 2\nreplicas = 3\nsite_cap = 20"
    return MINIMAL.replace("c = 1.0", "c = 1.0\na = -0.5").replace(
        "kind = exact", f"kind = {kind}\n{sampler}"
    ) + (
        "\n[analysis]\ntargets = expectation moments\nepsilon = 0.25\nmode = superset_match\n"
        "\n[output]\ndir = out\n\n[run]\nseed = 9\njobs = 1\n"
    )


@pytest.mark.parametrize(
    "name", [p.name for p in sorted(CONFIGS.glob("*.ini"))] + list(ENGINE_KINDS)
)
def test_echo_is_a_fixed_point(workdir, name):
    if name.endswith(".ini"):
        text, base, every_key = (CONFIGS / name).read_text(), CONFIGS, False
    else:
        text, base, every_key = every_key_config(name), workdir, True
    config = parse_config(text, base_dir=base)
    echo = config.resolved_text()
    assert parse_config(echo, base_dir=base).resolved_text() == echo
    echoed = configparser.ConfigParser(interpolation=None)
    echoed.read_string(echo)
    shown = {(section, key) for section in echoed.sections() for key in echoed[section]}
    assert shown == {
        (spec.section, spec.key)
        for spec in _KEYS
        if config.engine in spec.engines
        and (every_key or getattr(config, spec.field) is not None)
    }
    if name == "sampler_demo.ini":
        # CFTP reads no sweep or replica count and no site cap, and jobs is always 1
        unread = {("engine", "burn_in_sweeps"), ("engine", "thinning_sweeps"),
                  ("engine", "replicas"), ("engine", "site_cap"), ("run", "jobs")}
        assert not shown & unread


def test_readme_config_block_names_every_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    named, section = set(), None
    for line in block.splitlines():
        if match := re.match(r"\[(\w+)\]", line):
            section = match[1]
        elif match := re.match(r"(?:# )?(\w+) = ", line):
            named.add((section, match[1]))
    assert named == {(spec.section, spec.key) for spec in _KEYS}


def test_readme_names_every_target():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    [line] = [line for line in block.splitlines() if line.startswith("targets = ")]
    listed = line.removeprefix("targets = ").replace("# also:", "").split()
    assert sorted(listed) == sorted(TARGETS)
    conventions = readme.split("Per-target conventions:", 1)[1].split("\n\n", 1)[0]
    assert {name for name in TARGETS if f"`{name}`" in conventions} == set(TARGETS)
