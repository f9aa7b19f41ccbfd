"""End-to-end runs of the command line interface in temp directories."""

import math
import os
import subprocess
import sys
import threading
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


@pytest.mark.parametrize("domain", [
    "kind = disc\n",
    "kind = rectangle\nhalf_width = 20\nhalf_height = 15\ncenter = 3 -2\n",
], ids=["disc", "rectangle"])
def test_check_par_fan_over_a_disc_or_rectangle_is_consistent(tmp_path, capsys, domain):
    cfg = write_config(
        tmp_path,
        "[geometry]\nkind = par-fan\nvertex2 = -90 10\nmu = 0\n"
        f"[domain]\n{domain}"
        "[detectors]\nbins1 = 512\nbins2 = 512\n[target]\nkind = phantom\n",
    )
    assert run(["check", "--config", cfg, "--seed", "3", "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "admissible = True" in out and "verdict = consistent" in out


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


@pytest.mark.parametrize("config, bump", [
    ("[geometry]\nkind = fan-fan\nmu = 0\n", pp.Bump((0.0, 80.0), 3.0, 1.0)),
    ("", pp.Bump((1e300, 0.0), 1e153, 1.0)),
], ids=["vertex-in-bump", "far-bump"])
def test_project_continuous_edge_bumps_under_warnings_as_errors(tmp_path, config, bump):
    # view 1's vertex lies inside the first bump, so t_min cuts its chords;
    # the second bump is too far away for |centre - vertex|**2 to be finite
    x, y = bump.center
    cfg = write_config(tmp_path, f"{config}[phantom]\nkind = list\nbumps = {x!r} {y!r} {bump.radius!r} 1\n")
    src = str(Path(pp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "o"
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "projpair.cli", "project", "--mode", "continuous",
                           "--config", cfg, "--out", str(out)], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    pair = pp.reference_pair(0.0) if config else pp.reference_pair()
    views = [pp.read_projection_csv(out / f"view{k}.csv") for k in (1, 2)]
    for geom, data in zip((pair.first, pair.second), views):
        want = pp.project_values(geom, pp.Phantom((bump,)), data.grid.centers)
        assert data.values.tobytes() == want.tobytes()
    if config:
        assert views[0].values.max() > 0
    else:
        assert not np.any(views[0].values) and not np.any(views[1].values)


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


OUTSIDE_PHANTOM = "[phantom]\nkind = list\nbumps = 200 200 3 1\n"  # far outside the domain
OVERLAP_PHANTOM = "[phantom]\nkind = list\nbumps = 20 5 12 1; 10 0 8 -0.7\n"
STRADDLE_PHANTOM = "[phantom]\nkind = list\nbumps = 26.875 15.5 5 1\n"  # across a slanted edge
LARGE_PHANTOM = "[phantom]\nkind = list\nbumps = 0 0 60 0.3\n"  # its support holds the grid
# the last bump's offsets from every pixel overflow when squared
FAR_PHANTOM = "[phantom]\nkind = list\nbumps = 20 5 12 1; 10 0 8 -0.7; 1e300 0 1e153 1\n"


def _discrete_views_over_the_domain(tmp_path, text, seed):
    """The CSV bytes of both views of ``project --mode discrete``, with the
    operator built over every pixel of the domain mask."""
    cfg, _, _ = cli._load_config(write_config(tmp_path, text, name="oracle.ini"))
    pair = cli._build_pair(cfg)
    dets = cli._build_detectors(cfg, pair)
    sec = cfg["image"]
    image = pp.ImageGrid.from_domain(sec["nx"], sec["ny"], pair.domain, sec["extent"])
    f = pp.rasterize(cli._build_phantom(cfg, pair, seed), image)
    views = np.split(pp.PairOperator(pair, image, *dets).forward(f), [dets[0].n_bins])
    out = []
    for view, (det, g) in enumerate(zip(dets, views), start=1):
        path = tmp_path / f"oracle{view}.csv"
        pp.write_projection_csv(path, pp.ProjectionData(grid=det, values=g))
        out.append(path.read_bytes())
    return out


@pytest.mark.parametrize("nx, mu, seed, phantom", [
    (200, "-0.154", 1, ""), (200, "-0.154", 2, ""), (200, "0", 3, ""), (200, "0", 4, ""),
    (400, "-0.154", 5, ""), (400, "0", 6, ""),
    (200, "-0.154", 7, OUTSIDE_PHANTOM), (200, "0", 7, OUTSIDE_PHANTOM),
    (200, "-0.154", 8, OVERLAP_PHANTOM), (200, "0", 8, OVERLAP_PHANTOM),
    (200, "-0.154", 9, STRADDLE_PHANTOM), (200, "0", 9, STRADDLE_PHANTOM),
    (200, "-0.154", 10, LARGE_PHANTOM), (200, "0", 10, LARGE_PHANTOM),
    (200, "-0.154", 11, FAR_PHANTOM), (200, "0", 11, FAR_PHANTOM),
], ids=["200-weighted-1", "200-weighted-2", "200-mu0-3", "200-mu0-4", "400-weighted-5", "400-mu0-6",
        "outside-weighted", "outside-mu0", "overlap-weighted", "overlap-mu0", "straddle-weighted",
        "straddle-mu0", "large-weighted", "large-mu0", "far-weighted", "far-mu0"])
def test_project_discrete_views_equal_the_whole_domain_build(tmp_path, nx, mu, seed, phantom):
    """The operator is built over the phantom's pixels only, and the views
    are bitwise those of the operator over the whole domain mask."""
    text = f"[geometry]\nmu = {mu}\n[image]\nnx = {nx}\nny = {nx}\n{phantom}"
    cfg = write_config(tmp_path, text)
    out = tmp_path / "o"
    assert run(["project", "--mode", "discrete", "--config", cfg, "--out", str(out), "--seed", str(seed)]) == 0
    want = _discrete_views_over_the_domain(tmp_path, text, seed)
    assert [(out / "view1.csv").read_bytes(), (out / "view2.csv").read_bytes()] == want
    # a phantom outside the domain projects to +0.0 in every bin
    zero = all(row.endswith(b",0") for view in want for row in view.splitlines()[3:])
    assert zero == (phantom == OUTSIDE_PHANTOM)


def test_project_discrete_builds_the_operator_over_the_phantoms_pixels(tmp_path, monkeypatch):
    # both calls go through cli's names, which the bench's tracer wraps
    built, rasterized = [], []

    def operator(pair, image, *dets):
        built.append(image)
        return pp.PairOperator(pair, image, *dets)

    def rasterize(func, grid):
        rasterized.append(grid)
        return pp.rasterize(func, grid)

    monkeypatch.setattr(cli, "PairOperator", operator)
    monkeypatch.setattr(cli, "rasterize", rasterize)
    cfg = write_config(tmp_path, "[image]\nnx = 300\nny = 300\n")
    assert run(["project", "--mode", "discrete", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    _, f = pp.read_image(tmp_path / "o" / "phantom.img")
    (image,), (cover,) = built, rasterized
    assert np.count_nonzero(image.mask) == np.count_nonzero(f) > 0
    assert np.array_equal(image.mask, f != 0)
    # a random three-bump phantom covers a small part of the domain
    domain = pp.ImageGrid.from_domain(300, 300, pp.reference_domain())
    assert np.count_nonzero(f) < 0.5 * np.count_nonzero(domain.mask)
    # and is rasterized only on domain pixels in its bumps' boxes
    assert not np.any(cover.mask & ~domain.mask)
    assert np.all(cover.mask[f != 0])
    assert np.count_nonzero(cover.mask) < np.count_nonzero(domain.mask)


@pytest.mark.parametrize("phantom", ["", OUTSIDE_PHANTOM, "[phantom]\nkind = list\nbumps = 0 0 30 1\n"],
                         ids=["random", "outside", "large"])
@pytest.mark.parametrize("text, message", [
    ("[geometry]\nkind = par-fan\n", "the discrete pair operator supports fan-fan pairs"),
    ("[geometry]\nkind = par-par\n", "the discrete pair operator supports fan-fan pairs"),
    ("[geometry]\nvertex1 = 0 20\n", "pair geometry is not admissible; failing margins: "),
    ("[image]\nnx = 32\nny = 48\n", "pixel-driven operator requires square pixels"),
    ("[image]\nnx = 1\nny = 1\n", "the image mask keeps no pixel inside the domain"),
    ("[geometry]\nkind = par-fan\n[image]\nnx = 1\nny = 1\n", "the discrete pair operator supports fan-fan pairs"),
    ("[geometry]\nmu = 0\n[image]\nnx = 1\nny = 1\n[detectors]\nbins1 = 2\n",
     "the image mask keeps no pixel inside the domain"),
], ids=["par-fan", "par-par", "inadmissible", "non-square", "empty-domain-mask",
        "par-fan-empty-mask", "empty-mask-two-bins"])
def test_project_discrete_refusals_whatever_the_phantom_covers(tmp_path, capsys, text, message, phantom):
    cfg = write_config(tmp_path, text + phantom)
    assert run(["project", "--mode", "discrete", "--config", cfg, "--out", str(tmp_path / "o")]) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("phantom", ["", OUTSIDE_PHANTOM, "[phantom]\nkind = list\nbumps = 0 0 30 1\n"],
                         ids=["random", "outside", "large"])
def test_project_discrete_mu0_two_bins_checks_consistent(tmp_path, capsys, phantom):
    # the mu = 0 operator takes any bin count, and its views satisfy the
    # range condition with two bins on view 2 too
    cfg = write_config(tmp_path, "[geometry]\nmu = 0\n[detectors]\nbins2 = 2\n" + phantom, name="p.ini")
    assert run(["project", "--mode", "discrete", "--config", cfg, "--out", str(tmp_path / "p")]) == 0
    assert pp.read_projection_csv(tmp_path / "p" / "view2.csv").values.size == 2
    files = f"file1 = {tmp_path / 'p' / 'view1.csv'}\nfile2 = {tmp_path / 'p' / 'view2.csv'}\n"
    cfg = write_config(tmp_path, "[geometry]\nmu = 0\n[target]\nkind = files\n" + files, name="c.ini")
    capsys.readouterr()
    assert run(["check", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    assert "verdict = consistent" in capsys.readouterr().out


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


def test_separability_report_independent_of_blas_threads(tmp_path):
    """``expo_surface`` forms the 642 x 641 surface with a matrix product,
    the one BLAS-shaped call of ``projpair separability``; 1 and 2 BLAS
    threads must write the same report."""
    src = str(Path(pp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONPATH=path)
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "projpair.cli", "separability", "--n1", "640", "--n2", "640",
                        "--out", str(out)], env=env, check=True, capture_output=True, timeout=300)
        reports.append((out / "separability.txt").read_bytes())
    assert b"grid = 642 x 641" in reports[0]
    assert reports[0] == reports[1]


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


def test_solve_profile_of_a_ray_along_the_image_square_outside_it(tmp_path):
    # view 2's central ray points straight up from x = -80, outside the
    # slab |x| <= 35 it runs along
    cfg = write_config(
        tmp_path,
        "[image]\nnx = 24\nny = 24\n[solver]\nmax_iter = 5\n"
        "[detectors]\nbins1 = 16\nbins2 = 16\nrange2_deg = 80 100\n",
    )
    assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "profile_view2.csv").read_text() == "t,x,y,value\n"


def _central_profile_loop(op, f, view):
    """The central-ray profile one sample at a time, with t clipped to the
    image square one axis at a time."""
    geom = (op.pair.first, op.pair.second)[view - 1]
    v, d = geom.ray(op.dets[view - 1].center)
    half = 0.5 * op.image.extent
    lines = ["t,x,y,value"]
    t_lo, t_hi = 0.0, np.inf
    for axis in (0, 1):
        if abs(d[axis]) > 1e-15:
            t0 = (-half - v[axis]) / d[axis]
            t1 = (half - v[axis]) / d[axis]
            t_lo = max(t_lo, min(t0, t1))
            t_hi = min(t_hi, max(t0, t1))
        elif not -half < v[axis] < half:
            return lines[0] + "\n"
    if t_lo >= t_hi:
        return lines[0] + "\n"
    dx, dy = op.image.pixel_size
    img = f.reshape(op.image.ny, op.image.nx)
    for k in range(512):
        t = t_lo + (t_hi - t_lo) * (k + 0.5) / 512
        x, y = v + t * d
        ix = int(np.floor((x + half) / dx))
        iy = int(np.floor((y + half) / dy))
        if 0 <= ix < op.image.nx and 0 <= iy < op.image.ny:
            lines.append(",".join(format(q, ".17g") for q in (t, x, y, float(img[iy, ix]))))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("mu", [-0.154, 0.0])
@pytest.mark.parametrize("vertices", [((0.0, 80.0), (-80.0, 0.0)), ((25.0, 75.0), (-80.0, -20.0))],
                         ids=["reference", "oblique"])
def test_central_profile_equals_per_sample_loop(mu, vertices):
    # oblique central rays cross the lines x, y = +-extent/2 outside the
    # image square as well as on it
    pair = pp.geometry.fan_pair(*vertices, mu, pp.reference_domain())
    dets = [pp.DetectorGrid(view, 50, *pp.view_range(geom, pair.domain))
            for view, geom in ((1, pair.first), (2, pair.second))]
    op = pp.PairOperator(pair, pp.ImageGrid.from_domain(137, 137, pair.domain), *dets)
    f = np.random.default_rng(38).normal(size=op.image.n_pixels)
    rows = []
    for view in (1, 2):
        text = cli._central_profile(op, f, view)
        assert text == _central_profile_loop(op, f, view)
        rows.append(text.count("\n") - 1)
    assert rows == [512, 512]


def test_central_profile_of_an_oblique_pair_stays_in_the_square():
    """An oblique central ray gets all 512 samples, each inside the image
    square, not only those before it leaves the square through a side."""
    pair = pp.geometry.fan_pair((25.0, 75.0), (-80.0, -20.0), -0.154, pp.reference_domain())
    dets = [pp.DetectorGrid(view, 50, *pp.view_range(geom, pair.domain))
            for view, geom in ((1, pair.first), (2, pair.second))]
    op = pp.PairOperator(pair, pp.ImageGrid.from_domain(137, 137, pair.domain), *dets)
    half = 0.5 * op.image.extent
    for view in (1, 2):
        text = cli._central_profile(op, np.ones(op.image.n_pixels), view)
        rows = np.array([[float(q) for q in line.split(",")] for line in text.splitlines()[1:]])
        assert rows.shape == (512, 4)
        assert np.all(np.abs(rows[:, 1:3]) <= half)


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


@pytest.mark.parametrize("kind", ["par-fan", "par-par"])
def test_solve_relays_the_operators_pair_kind_refusal(tmp_path, capsys, kind):
    # the message project --mode discrete prints, before any file is written
    cfg = write_config(tmp_path, f"[geometry]\nkind = {kind}\n")
    assert run(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 5
    assert capsys.readouterr().err == "error: the discrete pair operator supports fan-fan pairs\n"
    assert not (tmp_path / "o").exists()


# view 2's range of these par-fan pairs when the branch cut was the circular
# mean of 256 boundary angles and the range came from 4 096 boundary samples
SAMPLED_PARFAN_RANGES = {
    (-80.0, 0.0): (-0.39479111969976177, 0.39479111969976177),
    (-60.0, 30.0): (-1.0968905599362295, 0.07795248458573756),
    (10.0, -90.0): (1.1444288588624851, 2.134071185206249),
}


@pytest.mark.parametrize("vertex, theta1, tol", [
    ((-80.0, 0.0), 0.0, 1e-15),
    ((-60.0, 30.0), 0.0, 1e-4),
    # s0 = 10 lies in (-35, 35) at theta1 = 0; the samples fell 2.6e-4 short
    ((10.0, -90.0), 90.0, 3e-4),
], ids=["default", "upper-left", "below"])
def test_parfan_cut_points_from_the_vertex_away_from_the_domain(tmp_path, vertex, theta1, tol):
    text = f"[geometry]\nkind = par-fan\ntheta1_deg = {theta1}\nvertex2 = {vertex[0]} {vertex[1]}\n"
    cfg, _, _ = cli._load_config(write_config(tmp_path, text))
    pair = cli._build_pair(cfg)
    assert pp.check_pair_admissible(pair).passed
    ref = pair.domain.reference_point()
    assert pair.second.theta0 == math.atan2(ref[1] - vertex[1], ref[0] - vertex[0]) - math.pi
    det = cli._build_detectors(cfg, pair)[1]
    r, _ = pair.second.inverse(pair.domain.vertices)
    assert (det.lo, det.hi) == (r.min(), r.max())
    # on the branch the samples were on, and holding their range up to the
    # rounding of the cut (the default pair's ends moved by 4.4e-16)
    lo, hi = SAMPLED_PARFAN_RANGES[vertex]
    assert -1e-15 < lo - det.lo < tol and -1e-15 < det.hi - hi < tol


def test_missing_and_malformed_config(tmp_path, capsys):
    assert run(["check", "--config", str(tmp_path / "nope.ini"),
                "--out", str(tmp_path / "o")]) == 5
    bad = write_config(tmp_path, "[geometry\nmu = 0\n", name="bad.ini")
    assert run(["check", "--config", bad, "--out", str(tmp_path / "o")]) == 5
    err = capsys.readouterr().err
    assert err.count("error:") == 2


def test_config_file_that_is_not_utf8_is_a_configuration_error(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(b"[geometry]\nmu = \xff\n")
    assert run(["check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config file") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("out", ["F", "F/o"], ids=["out-is-a-file", "out-below-a-file"])
def test_out_that_cannot_be_created_is_a_runtime_error(tmp_path, capsys, out):
    (tmp_path / "F").write_text("kept\n", encoding="utf-8")
    cfg = write_config(tmp_path, "[geometry]\nmu = 0\n")
    assert run(["check", "--config", cfg, "--out", str(tmp_path / out)]) == 5
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error:") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["F", "cfg.ini"]
    assert (tmp_path / "F").read_text(encoding="utf-8") == "kept\n"


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
    ("check", "[geometry]\nvertex2 = -80 0 5\n"),
    ("check", "[domain]\nkind = polygon\nvertices = 0 0, 10 0, 10\n"),
], ids=["mu", "vertex1", "nx", "bins1", "extent-inf", "vertex1-inf", "check-mu-nan",
        "check-mu-percent", "solve-nx-interpolation", "pgm-window", "project-bump-row",
        "project-phantom-count", "solve-unused-phantom-count", "solve-unused-vertices",
        "vertex2-three-numbers", "vertices-odd-count"])
def test_malformed_number_is_a_configuration_error(tmp_path, capsys, command, text):
    assert_configuration_error(tmp_path, capsys, command, text)


SMALL_SOLVE = "[image]\nnx = 24\nny = 24\n[solver]\nmax_iter = 5\n"
# three collinear vertices: a segment, not a domain; the second set is
# collinear only up to the rounding of its decimals
ZERO_AREA_POLYGON = "[domain]\nkind = polygon\nvertices = -10 -10, 0 0, 10 10\n"
ROUNDED_ZERO_AREA_POLYGON = "[domain]\nkind = polygon\nvertices = 1.1 0.6, 12.1 17.1, 25.3 36.9\n"


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
    ("separability", ZERO_AREA_POLYGON, ()),
    ("check", ZERO_AREA_POLYGON, ()),
    ("separability", ROUNDED_ZERO_AREA_POLYGON, ()),
    ("check", ROUNDED_ZERO_AREA_POLYGON, ()),
    ("project", "[detectors]\nrange1_deg = 250 250\n", ()),
    ("project", "[detectors]\nrange1_deg = 250 610\n", ()),
    ("project", "[detectors]\nrange2_deg = -110 250\n", ()),
    ("check", "[geometry]\nmu = 0\n[detectors]\nbins1 = 1\nbins2 = 1\n", ()),
    ("check", "[geometry]\nmu = 0\n[detectors]\nbins2 = 1\n", ()),
    ("project", "[phantom]\nkind = list\nbumps = 0 0 1e155 1\n", ()),
    ("check", "[geometry]\nmu = 0\n[target]\nkind = phantom\n[phantom]\nkind = list\nbumps = 0 0 1e-200 1\n", ()),
    ("check", "[geometry]\nvertex1 = -80 0\nvertex2 = -80 0\n", ()),
    ("solve", "[geometry]\nvertex1 = -80 0\nvertex2 = -80 0\n", ()),
    ("separability", "[geometry]\nvertex1 = -80 0\nvertex2 = -80 0\n", ("--n1", "8", "--n2", "8")),
    ("project", "[phantom]\nkind = list\n", ()),
], ids=["separability-n1", "separability-n2", "separability-option-n1-zero",
        "check-tol", "check-option-tol", "solve-tol", "solve-option-tol", "solve-pgm-window",
        "solve-max-iter", "solve-option-max-iter", "solve-nx-zero",
        "separability-zero-area-polygon", "check-zero-area-polygon",
        "separability-rounded-zero-area-polygon", "check-rounded-zero-area-polygon",
        "project-zero-width-fan-range", "project-whole-turn-fan-range",
        "project-whole-turn-fan-range-below", "check-one-bin-views", "check-one-bin-view2",
        "project-bump-radius-square-overflows", "check-bump-radius-square-underflows",
        "check-coinciding-vertices", "solve-coinciding-vertices",
        "separability-coinciding-vertices", "project-empty-bump-list"])
def test_out_of_range_value_is_a_configuration_error(tmp_path, capsys, command, text, options):
    assert_configuration_error(tmp_path, capsys, command, text, options)


def test_fan_range_across_the_branch_cut_wraps(tmp_path):
    # the reference views' cut is at 135 degrees: 130 lifts to 490, above 140
    cfg = write_config(tmp_path, "[detectors]\nrange1_deg = 130 140\n")
    assert run(["project", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    header = (tmp_path / "o" / "view1.csv").read_text().splitlines()[1]
    _, _, lo, hi = (float(v) for v in header.lstrip("# ").split(","))
    assert lo == pytest.approx(math.radians(490.0)) and hi == pytest.approx(math.radians(500.0))


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
    ("project", "[phantom]\nkind = file\n"),
    ("check", "[geometry]\nmu = 0\n[target]\nkind = files\nfile1 = {bad_csv}\n"),
], ids=["phantom-file", "target-files", "csv-header", "nan-value", "phantom-file-no-path", "target-files-no-file2"])
def test_unreadable_input_file_is_a_configuration_error(tmp_path, capsys, command, text):
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("# view,n_bins,lo,hi\n# 1,x,0,1\nr,value\n0.5,1\n", encoding="ascii")
    # a NaN datum gets no consistency verdict (exit 1) but a configuration error
    nan_csv = tmp_path / "nan.csv"
    nan_csv.write_text("# view,n_bins,lo,hi\n# 1,4,0,1\nr,value\n"
                       "0.125,1\n0.375,nan\n0.625,1\n0.875,1\n", encoding="ascii")
    text = text.format(missing=tmp_path / "missing.txt", bad_csv=bad_csv, nan_csv=nan_csv)
    assert_configuration_error(tmp_path, capsys, command, text)


@pytest.mark.parametrize("detectors", [
    "bins1 = 40\nbins2 = 48\n",
    "range1_deg = 250 290\n",
], ids=["other-bin-counts", "other-range"])
def test_solve_refuses_target_files_on_other_detectors(tmp_path, capsys, detectors):
    # the files' own grids, written by project, against the default 2 x 100 bins
    cfg = write_config(tmp_path, "[detectors]\n" + detectors, name="project.ini")
    assert run(["project", "--config", cfg, "--out", str(tmp_path / "p")]) == 0
    capsys.readouterr()
    files = f"[target]\nkind = files\nfile1 = {tmp_path / 'p' / 'view1.csv'}\nfile2 = {tmp_path / 'p' / 'view2.csv'}\n"
    assert_configuration_error(tmp_path, capsys, "solve", files)
    # files written on the configured grid read back to the same floats
    cfg = write_config(tmp_path, "[detectors]\n" + detectors + files + SMALL_SOLVE, name="match.ini")
    assert run(["solve", "--config", cfg, "--out", str(tmp_path / "s")]) == 0


def test_target_files_must_hold_view_1_then_view_2(tmp_path, capsys):
    # par-fan, mu = 0, 512 bins: swapped, check gave INCONSISTENT (exit 1)
    # where the files in order are consistent
    cfg = write_config(tmp_path, "[geometry]\nkind = par-fan\nmu = 0\n[detectors]\nbins1 = 512\nbins2 = 512\n",
                       name="project.ini")
    assert run(["project", "--config", cfg, "--seed", "3", "--out", str(tmp_path / "p")]) == 0
    view1, view2 = tmp_path / "p" / "view1.csv", tmp_path / "p" / "view2.csv"
    geometry = "[geometry]\nkind = par-fan\nmu = 0\n[target]\nkind = files\n"
    for file1, file2 in ((view2, view1), (view1, view1), (view2, view2)):
        assert_configuration_error(tmp_path, capsys, "check", geometry + f"file1 = {file1}\nfile2 = {file2}\n")
    cfg = write_config(tmp_path, geometry + f"file1 = {view1}\nfile2 = {view2}\n", name="ordered.ini")
    assert run(["check", "--config", cfg, "--out", str(tmp_path / "ordered")]) == 0
    assert "verdict = consistent" in capsys.readouterr().out
    # solve reads the target through the same files branch
    assert run(["project", "--out", str(tmp_path / "f")]) == 0
    capsys.readouterr()
    swapped = f"[target]\nkind = files\nfile1 = {tmp_path / 'f' / 'view2.csv'}\nfile2 = {tmp_path / 'f' / 'view1.csv'}\n"
    assert_configuration_error(tmp_path, capsys, "solve", swapped + SMALL_SOLVE)


def test_check_accepts_the_discrete_projection_of_the_mu0_operator(tmp_path, capsys):
    # the bump touches view 1's wedge edge, so its last two bins hold 0.419
    # and 0.033: the trapezoid sides dropped half of each and called the
    # operator's own data INCONSISTENT (relative 5.3e-3, exit 1)
    cfg = write_config(tmp_path, "[geometry]\nmu = 0\n[phantom]\nkind = list\nbumps = 27 10 2 1\n", name="p.ini")
    assert run(["project", "--mode", "discrete", "--config", cfg, "--out", str(tmp_path / "p")]) == 0
    assert pp.read_projection_csv(tmp_path / "p" / "view1.csv").values[-1] > 0.03
    files = f"file1 = {tmp_path / 'p' / 'view1.csv'}\nfile2 = {tmp_path / 'p' / 'view2.csv'}\n"
    cfg = write_config(tmp_path, "[geometry]\nmu = 0\n[target]\nkind = files\n" + files, name="c.ini")
    capsys.readouterr()
    assert run(["check", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    assert "verdict = consistent" in capsys.readouterr().out


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


@pytest.mark.parametrize("command", [("solve",), ("project", "--mode", "continuous"), ("project", "--mode", "discrete")],
                         ids=["solve", "project-continuous", "project-discrete"])
@pytest.mark.parametrize("geometry", ["vertex2 = 35 -35\n", "kind = par-fan\ntheta1_deg = 90\nvertex2 = 35 -35\n"],
                         ids=["fan-fan", "par-fan"])
def test_fan_vertex_on_a_domain_vertex_is_refused_as_check_refuses_it(tmp_path, capsys, command, geometry):
    # the fan has no ray angle at the domain vertex (35, -35), so its view
    # range has none: every command names the pair's failing margins
    cfg = write_config(tmp_path, f"[geometry]\n{geometry}")
    assert run(["check", "--config", cfg, "--out", str(tmp_path / "c")]) == 5
    message = capsys.readouterr().err
    assert message.startswith("error: pair geometry is not admissible; failing margins:")
    assert message.count("\n") == 1
    assert run([*command, "--config", cfg, "--out", str(tmp_path / "o")]) == 5
    assert capsys.readouterr().err == message
    assert not (tmp_path / "o").exists() and not (tmp_path / "c").exists()


# the check geometries at 2 x 4096 bins, and the weighted reference pair
PAIR_GEOMETRIES = {
    "par-par": "kind = par-par\ntheta1_deg = 0\ntheta2_deg = 90\n",
    "par-fan": "kind = par-fan\ntheta1_deg = 0\nvertex2 = -80 0\nmu = 0\n",
    "fan-fan": "kind = fan-fan\nvertex1 = 0 80\nvertex2 = -80 0\nmu = 0\n",
    "weighted": "kind = fan-fan\n",
}


def _pair_inputs(tmp_path, geometry, seed=7):
    cfg, _, _ = cli._load_config(write_config(
        tmp_path, f"[geometry]\n{geometry}[detectors]\nbins1 = 4096\nbins2 = 4096\n"))
    pair = cli._build_pair(cfg)
    return pair, cli._build_phantom(cfg, pair, seed), cli._build_detectors(cfg, pair)


@pytest.mark.parametrize("name", PAIR_GEOMETRIES)
def test_project_pair_equals_two_calls_in_turn(tmp_path, name):
    pair, ph, dets = _pair_inputs(tmp_path, PAIR_GEOMETRIES[name])
    threads = threading.active_count()
    got = cli._project_pair(pair, ph, dets)
    assert threading.active_count() == threads
    want = (pp.project_view(pair.first, ph, dets[0]), pp.project_view(pair.second, ph, dets[1]))
    for g, w in zip(got, want):
        assert g.grid is w.grid
        assert g.values.tobytes() == w.values.tobytes()
    assert got[0].values.max() > 0 and got[1].values.max() > 0


def _failing_views(failing):
    """A project_view that raises for the views in ``failing``; view 1 waits
    until view 2 has finished, so view 2's error is the earlier one."""
    view2_done = threading.Event()

    def project_view(geom, ph, det):
        try:
            if det.view == 1:
                assert view2_done.wait(10.0)
            if det.view in failing:
                raise pp.ConfigurationError(f"view {det.view} failed")
            return pp.ProjectionData(grid=det, values=np.zeros(det.n_bins))
        finally:
            if det.view == 2:
                view2_done.set()

    return project_view


@pytest.mark.parametrize("failing, message", [((1, 2), "view 1 failed"), ((2,), "view 2 failed"),
                                              ((1,), "view 1 failed")])
def test_project_pair_raises_the_first_views_error(tmp_path, monkeypatch, failing, message):
    pair, ph, dets = _pair_inputs(tmp_path, PAIR_GEOMETRIES["fan-fan"])
    monkeypatch.setattr(cli, "project_view", _failing_views(failing))
    threads = threading.active_count()
    with pytest.raises(pp.ConfigurationError, match=message):
        cli._project_pair(pair, ph, dets)
    assert threading.active_count() == threads
    monkeypatch.setattr(cli, "project_view", _failing_views(()))
    d1, d2 = cli._project_pair(pair, ph, dets)
    assert (d1.grid, d2.grid) == dets
    assert threading.active_count() == threads
