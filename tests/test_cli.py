import csv
import json
from importlib.resources import files
from pathlib import Path

import pytest

from isingmotif.cli import main, parse_config, run
from isingmotif.errors import ParseError, ValidationError

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


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "single.motif").write_text(SINGLE_MOTIF)
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


def test_jobs_do_not_change_output(workdir):
    text = MINIMAL.replace("n_list = 6 8", "n_list = 6 8 10") + "\n[analysis]\ntargets = tv moments\n"
    config = parse_config(text, base_dir=workdir)
    run(config, jobs=1, out_dir=workdir / "j1")
    run(config, jobs=4, out_dir=workdir / "j4")

    def stripped(path):
        rows = read_rows(path)
        for row in rows:
            row.pop("wall_time_ms")
        return rows

    assert stripped(workdir / "j1" / "results.csv") == stripped(workdir / "j4" / "results.csv")


def test_too_large_for_exact_is_error_row(workdir):
    text = MINIMAL.replace("n_list = 6 8", "n_list = 30")
    config = parse_config(text, base_dir=workdir)
    code = run(config, out_dir=workdir / "out")
    assert code == 1
    rows = read_rows(workdir / "out" / "results.csv")
    assert len(rows) == 1
    assert rows[0]["error"].startswith("TooLargeForExact")


def test_cell_isolation_failing_motif(workdir):
    # the all-negative motif has no schedule-derived field: its cells must
    # error while the other motif's cells still run
    (workdir / "null.motif").write_text("1 0 1 1 1\n")
    text = MINIMAL.replace("files = single.motif", "files = single.motif null.motif")
    config = parse_config(text, base_dir=workdir)
    code = run(config, out_dir=workdir / "out")
    rows = read_rows(workdir / "out" / "results.csv")
    errors = [r for r in rows if r["error"]]
    fine = [r for r in rows if not r["error"]]
    assert code == 1
    assert len(errors) == 2 and len(fine) == 2
    assert {r["k"] for r in errors} == {"0"}
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
    assert all(r["error"].startswith("OverflowError") for r in broken)


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


def test_stein_chen_requires_exact_engine(workdir):
    text = MINIMAL.replace("kind = exact", "kind = heat_bath\nsamples = 100")
    text += "\n[analysis]\ntargets = stein_chen\n"
    config = parse_config(text, base_dir=workdir)
    code = run(config, out_dir=workdir / "out")
    assert code == 1
    rows = read_rows(workdir / "out" / "results.csv")
    assert all("exact engine" in row["error"] for row in rows)


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


def test_main_validate_and_motif_info(workdir, capsys):
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


def test_main_run_exit_codes(workdir):
    cfg_path = workdir / "run.ini"
    cfg_path.write_text(MINIMAL)
    assert main(["run", str(cfg_path), "--out", str(workdir / "ok")]) == 0
    cfg_path.write_text(MINIMAL.replace("n_list = 6 8", "n_list = 30"))
    assert main(["run", str(cfg_path), "--out", str(workdir / "bad")]) == 1


GOLDEN = Path(__file__).parent / "data" / "golden_results.csv"


def test_golden_file_pinned_run(workdir):
    # schema and values of a tiny pinned run; float cells compared with a
    # 1e-12 relative tolerance so the file survives libm differences
    text = MINIMAL.replace("b_list = 0.0", "b_list = 0.0 0.25")
    text += "\n[analysis]\ntargets = expectation tv stein_chen\n[run]\nseed = 12345\n"
    config = parse_config(text, base_dir=workdir)
    assert run(config, out_dir=workdir / "out") == 0

    got_lines = (workdir / "out" / "results.csv").read_text().splitlines()
    want_lines = GOLDEN.read_text().splitlines()
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
