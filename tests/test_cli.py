"""End-to-end runs of the command line interface in temp directories."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import projpair as pp
from projpair import cli


def run(argv):
    return cli.main(argv)


def write_config(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0


def test_help_flag_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["check", "--help"])
    assert exc.value.code == 0
    assert "--tol" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["check", "--bogus"],
    ["check", "--tol", "-1e-9"],
    ["separability", "--n1", "x"],
    [],
    ["project", "--seed", "-1"],
], ids=["check-unknown-option", "check-tol-negative-exponent", "separability-n1-not-int", "no-subcommand",
        "project-negative-seed"])
def test_usage_error_exits_5(tmp_path, monkeypatch, capsys, argv):
    # exit 2 stays reserved for check's "no kernels exist"
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: projpair") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_check_default_attenuated_pair_has_no_kernels(tmp_path, capsys):
    # the shipped default is the exponential fan-fan pair: nothing to check
    code = run(["check", "--out", str(tmp_path / "o")])
    assert code == 2
    out = capsys.readouterr().out
    assert "no kernels exist" in out
    assert (tmp_path / "o" / "report.txt").read_text() == out


def test_check_weighted_par_fan_has_no_kernels(tmp_path, capsys):
    # the fan weight exp(mu t) puts mu * (r1 - s0) / cos(theta - r2) into the
    # log factor ratio, which does not separate; consistent phantom data were
    # reported INCONSISTENT (exit 1) against the unweighted kernels
    cfg = write_config(
        tmp_path,
        "[geometry]\nkind = par-fan\ntheta1_deg = 0\nvertex2 = -80 0\n"
        "[target]\nkind = phantom\n"
        "[detectors]\nbins1 = 512\nbins2 = 512\n",
    )
    code = run(["check", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    out = capsys.readouterr().out
    assert out.startswith("check: no kernels exist for this pair (exponential par-fan, mu != 0)")
    assert (tmp_path / "o" / "report.txt").read_text() == out


def test_check_reference_target_is_inconsistent(tmp_path, capsys):
    cfg = write_config(tmp_path, "[geometry]\nmu = 0\n")
    code = run(["check", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    out = capsys.readouterr().out
    assert "verdict = INCONSISTENT" in out
    assert "side1 = 0\n" in out
    ref = pp.reference_target(*pp.reference_grids(100))
    side2 = pp.pprc_sides(ref, pp.known_kernels(pp.reference_pair(0.0)))[1]
    assert f"side2 = {format(side2, '.17g')}\n" in out


def test_check_projected_phantom_is_consistent(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "[geometry]\nmu = 0\n"
        "[target]\nkind = phantom\n"
        "[detectors]\nbins1 = 512\nbins2 = 512\n",
    )
    code = run(["check", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict = consistent" in out
    assert "admissible = True" in out


def test_check_config_used_and_resolved_written(tmp_path):
    raw = "[geometry]\nmu = 0\n"
    cfg = write_config(tmp_path, raw)
    run(["check", "--config", cfg, "--out", str(tmp_path / "o")])
    assert (tmp_path / "o" / "config_used.ini").read_text() == raw
    resolved = (tmp_path / "o" / "config_resolved.ini").read_text()
    assert "[solver]" in resolved and "mu = 0" in resolved


def test_project_continuous(tmp_path):
    cfg = write_config(
        tmp_path,
        "[phantom]\nkind = list\nbumps = 5 -10 6 1 ; -20 12 4 0.5\n"
        "[detectors]\nbins1 = 40\nbins2 = 48\n",
    )
    code = run(["project", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 0
    d1 = pp.read_projection_csv(tmp_path / "o" / "view1.csv")
    d2 = pp.read_projection_csv(tmp_path / "o" / "view2.csv")
    assert d1.grid.n_bins == 40 and d2.grid.n_bins == 48
    assert d1.values.max() > 0 and d2.values.max() > 0
    body = (tmp_path / "o" / "phantom_used.txt").read_text()
    assert body.splitlines()[1].split() == ["5", "-10", "6", "1"]


def test_project_discrete_writes_image(tmp_path):
    cfg = write_config(
        tmp_path,
        "[project]\nmode = discrete\n"
        "[image]\nnx = 32\nny = 32\n"
        "[detectors]\nbins1 = 24\nbins2 = 24\n"
        "[phantom]\nkind = list\nbumps = 0 10 8 1\n",
    )
    code = run(["project", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 0
    grid, f = pp.read_image(tmp_path / "o" / "phantom.img")
    assert grid.nx == 32 and f.size == 32 * 32
    d1 = pp.read_projection_csv(tmp_path / "o" / "view1.csv")
    assert d1.grid.n_bins == 24


@pytest.mark.parametrize("mu", ["-0.154", "0"])
def test_project_discrete_reruns_byte_identical(tmp_path, mu):
    cfg = write_config(
        tmp_path,
        f"[geometry]\nmu = {mu}\n[project]\nmode = discrete\n"
        "[image]\nnx = 160\nny = 160\n[detectors]\nbins1 = 80\nbins2 = 80\n",
    )
    for out in ("a", "b"):
        assert run(["project", "--config", cfg, "--out", str(tmp_path / out), "--seed", "5"]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert "phantom.img" in names and "view2.csv" in names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_project_mode_flag_overrides_config(tmp_path, capsys):
    cfg = write_config(tmp_path, "[project]\nmode = discrete\n[image]\nnx = 24\nny = 24\n[detectors]\nbins1 = 16\nbins2 = 16\n")
    code = run(["project", "--config", cfg, "--mode", "continuous",
                "--out", str(tmp_path / "o")])
    assert code == 0
    assert "mode=continuous" in capsys.readouterr().out
    assert not (tmp_path / "o" / "phantom.img").exists()


def test_separability_verdicts(tmp_path, capsys):
    code = run(["separability", "--n1", "24", "--n2", "24",
                "--out", str(tmp_path / "a")])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict = non-separable" in out
    assert "0.3181511" in out  # double difference at the embedded probe
    cfg = write_config(tmp_path, "[geometry]\nmu = 0\n")
    code = run(["separability", "--config", cfg, "--n1", "24", "--n2", "24",
                "--out", str(tmp_path / "b")])
    assert code == 0
    assert "verdict = separable" in capsys.readouterr().out


def test_separability_rejects_parallel(tmp_path):
    cfg = write_config(tmp_path, "[geometry]\nkind = par-par\n")
    code = run(["separability", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 5


def test_solve_artifacts_and_reruns_byte_identical(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "[image]\nnx = 24\nny = 24\n"
        "[detectors]\nbins1 = 16\nbins2 = 16\n"
        "[solver]\nmax_iter = 25\ntol = 1e-3\n",
    )
    names = ("iterate.img", "iterate.pgm", "residuals.csv", "summary.txt",
             "profile_view1.csv", "profile_view2.csv", "config_resolved.ini")
    code = run(["solve", "--config", cfg, "--out", str(tmp_path / "a")])
    assert code == 0
    out = capsys.readouterr().out
    assert "predicted residual floor = none" in out
    code = run(["solve", "--config", cfg, "--out", str(tmp_path / "b")])
    assert code == 0
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        assert a == (tmp_path / "b" / name).read_bytes()
        assert len(a) > 0
    hist = (tmp_path / "a" / "residuals.csv").read_text().splitlines()
    assert hist[0] == "iteration,relative_residual"
    assert hist[1] == "0,1"
    rel = np.array([float(line.split(",")[1]) for line in hist[1:]])
    assert np.all(np.diff(rel) <= 1e-14)


def test_solve_artifacts_independent_of_blas_threads(tmp_path):
    """The default solve, in processes whose BLAS runs 1 and 2 threads,
    writes the same bytes: a threaded BLAS dot product splits a long sum by
    its thread count, so no reduction of the solve may go through one."""
    src = str(Path(pp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONPATH=path)
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "projpair.cli", "solve", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert "iterate.img" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_solve_profile_of_a_ray_that_misses_the_image(tmp_path):
    # view 1's central ray points straight up, away from the image square
    cfg = write_config(
        tmp_path,
        "[image]\nnx = 24\nny = 24\n[solver]\nmax_iter = 5\n"
        "[detectors]\nbins1 = 16\nbins2 = 16\nrange1_deg = 80 100\n",
    )
    assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "profile_view1.csv").read_text() == "t,x,y,value\n"
    assert len((tmp_path / "o" / "profile_view2.csv").read_text().splitlines()) > 1


def test_solve_reports_floor_for_mu_zero(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "[geometry]\nmu = 0\n[image]\nnx = 24\nny = 24\n"
        "[detectors]\nbins1 = 16\nbins2 = 16\n[solver]\nmax_iter = 10\n",
    )
    code = run(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 0
    out = capsys.readouterr().out
    assert "(relative)" in out
    floor = float(out.split("predicted residual floor = ")[1].split()[0])
    assert floor > 1e-3


def test_solve_rejects_parallel_geometry(tmp_path, capsys):
    cfg = write_config(tmp_path, "[geometry]\nkind = par-par\n")
    code = run(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 5
    assert "error:" in capsys.readouterr().err


def test_missing_and_malformed_config(tmp_path, capsys):
    assert run(["check", "--config", str(tmp_path / "nope.ini"),
                "--out", str(tmp_path / "o")]) == 5
    bad = write_config(tmp_path, "[geometry\nmu = 0\n", name="bad.ini")
    assert run(["check", "--config", bad, "--out", str(tmp_path / "o")]) == 5
    err = capsys.readouterr().err
    assert err.count("error:") == 2


def assert_configuration_error(tmp_path, capsys, command, text, options=()):
    # every configuration error is found before the output directory exists
    cfg = write_config(tmp_path, text, name="bad.ini")
    assert run([command, "--config", cfg, "--out", str(tmp_path / "o"), *options]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, text", [
    ("solve", "[geometry]\nmu = abc\n"),
    ("solve", "[geometry]\nvertex1 = 0 x\n"),
    ("solve", "[image]\nnx = ten\n"),
    ("solve", "[detectors]\nbins1 = 1.5\n"),
    ("solve", "[image]\nextent = inf\n"),
    ("solve", "[geometry]\nvertex1 = 0 inf\n"),
    ("check", "[geometry]\nmu = nan\n"),
    ("check", "[geometry]\nmu = 5%\n"),
    ("solve", "[image]\nnx = %(ny)s\n"),
    ("solve", "[output]\npgm_window = abc\n"),
    ("project", "[phantom]\nkind = list\nbumps = 1 2 3\n"),
    ("project", "[phantom]\ncount = abc\n"),
    ("solve", "[phantom]\ncount = abc\n"),
    ("solve", "[domain]\nkind = reference\nvertices = 1 2 x\n"),
], ids=["mu", "vertex1", "nx", "bins1", "extent-inf", "vertex1-inf", "check-mu-nan",
        "check-mu-percent", "solve-nx-interpolation", "pgm-window", "project-bump-row",
        "project-phantom-count", "solve-unused-phantom-count", "solve-unused-vertices"])
def test_malformed_number_is_a_configuration_error(tmp_path, capsys, command, text):
    assert_configuration_error(tmp_path, capsys, command, text)


SMALL_SOLVE = "[image]\nnx = 24\nny = 24\n[solver]\nmax_iter = 5\n"


@pytest.mark.parametrize("command, text, options", [
    ("separability", "[separability]\nn1 = -5\n", ()),
    ("separability", "[separability]\nn2 = 1\n", ()),
    ("separability", "", ("--n1", "0")),
    ("check", "[geometry]\nmu = 0\n[check]\ntol = -1\n", ()),
    ("check", "[geometry]\nmu = 0\n", ("--tol=-1e-9",)),
    ("solve", SMALL_SOLVE + "tol = -1\n", ()),
    ("solve", SMALL_SOLVE, ("--tol", "-1")),
    ("solve", "[output]\npgm_window = -3\n", ()),
    ("solve", "[solver]\nmax_iter = -1\n", ()),
    ("solve", "", ("--max-iter", "-1")),
    ("solve", "[image]\nnx = 0\n", ()),
], ids=["separability-n1", "separability-n2", "separability-option-n1-zero",
        "check-tol", "check-option-tol", "solve-tol", "solve-option-tol", "solve-pgm-window",
        "solve-max-iter", "solve-option-max-iter", "solve-nx-zero"])
def test_out_of_range_value_is_a_configuration_error(tmp_path, capsys, command, text, options):
    assert_configuration_error(tmp_path, capsys, command, text, options)


def test_zero_tolerance_is_accepted(tmp_path):
    cfg = write_config(tmp_path, SMALL_SOLVE + "tol = 0\n")
    assert run(["solve", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    cfg = write_config(tmp_path, "[geometry]\nmu = 0\n[check]\ntol = 0\n", name="check.ini")
    assert run(["check", "--config", cfg, "--out", str(tmp_path / "c")]) == 1


@pytest.mark.parametrize("command, text", [
    ("project", "[phantom]\nkind = file\nfile = {missing}\n"),
    ("check", "[geometry]\nmu = 0\n[target]\nkind = files\nfile1 = {missing}\nfile2 = {missing}\n"),
    ("check", "[geometry]\nmu = 0\n[target]\nkind = files\nfile1 = {bad_csv}\nfile2 = {bad_csv}\n"),
    ("check", "[geometry]\nmu = 0\n[target]\nkind = files\nfile1 = {nan_csv}\nfile2 = {nan_csv}\n"),
], ids=["phantom-file", "target-files", "csv-header", "nan-value"])
def test_unreadable_input_file_is_a_configuration_error(tmp_path, capsys, command, text):
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("# view,n_bins,lo,hi\n# 1,x,0,1\nr,value\n0.5,1\n", encoding="ascii")
    # a NaN datum gets no consistency verdict (exit 1) but a configuration error
    nan_csv = tmp_path / "nan.csv"
    nan_csv.write_text("# view,n_bins,lo,hi\n# 1,4,0,1\nr,value\n"
                       "0.125,1\n0.375,nan\n0.625,1\n0.875,1\n", encoding="ascii")
    text = text.format(missing=tmp_path / "missing.txt", bad_csv=bad_csv, nan_csv=nan_csv)
    assert_configuration_error(tmp_path, capsys, command, text)


def test_percent_in_a_config_value_is_literal(tmp_path):
    # no interpolation: a path with "%" in it is read as written
    bumps = tmp_path / "bumps 100%.txt"
    bumps.write_text("5 -10 6 1\n", encoding="ascii")
    cfg = write_config(tmp_path, f"[phantom]\nkind = file\nfile = {bumps}\n")
    assert run(["project", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    body = (tmp_path / "o" / "phantom_used.txt").read_text()
    assert body.splitlines()[1].split() == ["5", "-10", "6", "1"]
    assert f"file = {bumps}" in (tmp_path / "o" / "config_resolved.ini").read_text()


@pytest.mark.parametrize("command, text", [
    ("solve", "[solver]\nmaxiter = 3\n"),
    ("check", "[geometry]\nmu = 0\n[solvr]\nmax_iter = 3\n"),
    ("solve", "[DEFAULT]\nnx = 8\n"),
    ("project", "[project]\nmode = bogus\n"),
    ("check", "[geometry]\nmu = 0\n[target]\nkind = bogus\n"),
    ("solve", "[target]\nkind = bogus\n"),
    ("project", "[phantom]\nkind = bogus\n"),
    ("check", "[geometry]\nmu = 0\n[target]\nkind = phantom\n[phantom]\nkind = bogus\n"),
    ("check", "[geometry]\nkind = bogus\n"),
    ("separability", "[domain]\nkind = bogus\n"),
], ids=["unknown-key", "unknown-section", "default-section-key", "project-mode", "check-target-kind",
        "solve-target-kind", "project-phantom-kind", "check-phantom-kind", "geometry-kind", "domain-kind"])
def test_unknown_config_name_or_choice_writes_nothing(tmp_path, capsys, command, text):
    # checked once when the config loads
    assert_configuration_error(tmp_path, capsys, command, text)


def test_check_rejects_inadmissible_pair(tmp_path, capsys):
    # vertex 1 inside the domain: the range condition does not apply
    text = "[geometry]\nmu = 0\nvertex1 = 0 20\n[target]\nkind = phantom\n"
    assert_configuration_error(tmp_path, capsys, "check", text)
    # at mu != 0 it gets no "no kernels exist" verdict (exit 2) either
    assert_configuration_error(tmp_path, capsys, "check", "[geometry]\nvertex1 = 0 20\n")


def test_separability_rejects_inadmissible_pair(tmp_path, capsys):
    # vertex 1 inside the domain: check and solve refuse this pair, and so does separability
    assert_configuration_error(tmp_path, capsys, "separability", "[geometry]\nvertex1 = 0 20\n",
                               ("--n1", "8", "--n2", "8"))
