"""Command-line interface: ingestion, subcommands, determinism, round-trips."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tropalg import MAX_PLUS, TropicalMatrix, read_polynomial, write_tropmat
from tropalg.cli import ingest_csv, main
from tropalg.clodum import TropicalError

INF = float("inf")


@pytest.fixture()
def line_csv(tmp_path):
    path = tmp_path / "line.csv"
    x = np.linspace(-1, 12, 40)
    f = np.maximum(x - 2, 3)
    rows = "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, f))
    path.write_text("x,y\n" + rows + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# ingestion


def test_ingest_basic(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,t\n1,2,3\n4,5,6\n7,8,9\n1,1,1\n2,2,2\n", encoding="utf-8")
    ds = ingest_csv(p)
    assert ds.features.shape == (5, 2)
    assert ds.target.tolist() == [3, 6, 9, 1, 2]
    assert ds.columns == ["a", "b", "t"]


def test_ingest_inf_literal(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x,y\n-inf,0\n1,2\n", encoding="utf-8")
    ds = ingest_csv(p)
    assert ds.features[0, 0] == -INF


def test_ingest_ragged_row_names_line(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x,y\n1,2\n3\n", encoding="utf-8")
    with pytest.raises(TropicalError, match=":3"):
        ingest_csv(p)


def test_ingest_non_numeric_and_nan(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x,y\n1,apple\n", encoding="utf-8")
    with pytest.raises(TropicalError, match="non-numeric"):
        ingest_csv(p)
    p.write_text("x,y\n1,nan\n", encoding="utf-8")
    with pytest.raises(TropicalError, match="NaN"):
        ingest_csv(p)


def test_ingest_empty_file(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("", encoding="utf-8")
    with pytest.raises(TropicalError, match="no data"):
        ingest_csv(p)


def test_ingest_target_selection(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x,y,z\n1,2,3\n", encoding="utf-8")
    ds = ingest_csv(p, target="y")
    assert ds.target.tolist() == [2.0]
    assert ds.features.tolist() == [[1.0, 3.0]]
    with pytest.raises(TropicalError, match="no column"):
        ingest_csv(p, target="w")


def test_ingest_no_header(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2\n3,4\n", encoding="utf-8")
    ds = ingest_csv(p, has_header=False)
    assert ds.columns == ["col1", "col2"]
    assert ds.num_samples == 2


# ---------------------------------------------------------------------------
# fit command


def test_fit_line_command(line_csv, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["fit", str(line_csv), "--method", "mmae", "--slopes", "line",
               "--out", str(out)])
    assert rc == 0
    report = capsys.readouterr().out
    assert "linf_error: 0.0" in report
    assert "term[0]: 1.0 | -2.0" in report
    assert (out.parent / "run.report.txt").exists()
    assert (out.parent / "run.model.txt").exists()
    assert (out.parent / "run.grid.txt").exists()
    assert (out.parent / "run.residuals.txt").exists()


def test_fit_mmae_maxmin_is_usage_error(line_csv, capsys):
    rc = main(["fit", str(line_csv), "--method", "mmae", "--clodum", "max-min",
               "--slopes", "line"])
    assert rc == 2
    assert "max-plus" in capsys.readouterr().err


def test_fit_auto_slopes(line_csv, tmp_path, capsys):
    out = tmp_path / "auto"
    rc = main(["fit", str(line_csv), "--slopes", "auto:2", "--method", "mmae",
               "--out", str(out)])
    assert rc == 0
    assert "slope_source: jenks" in capsys.readouterr().out


def test_fit_slope_file(line_csv, tmp_path, capsys):
    slopes = tmp_path / "slopes.txt"
    slopes.write_text("1\n0\n", encoding="utf-8")
    rc = main(["fit", str(line_csv), "--slopes", str(slopes), "--method", "gle",
               "--out", str(tmp_path / "sf")])
    assert rc == 0
    assert "slope_source: given" in capsys.readouterr().out


def test_fit_reports_are_deterministic(line_csv, tmp_path, capsys):
    argv = ["fit", str(line_csv), "--slopes", "auto:3", "--seed", "7",
            "--out", str(tmp_path / "rep")]
    assert main(argv) == 0
    first = (tmp_path / "rep.report.txt").read_bytes()
    assert main(argv) == 0
    second = (tmp_path / "rep.report.txt").read_bytes()
    assert first == second


def test_fit_model_round_trip_bit_exact(line_csv, tmp_path, capsys):
    out = tmp_path / "rt"
    assert main(["fit", str(line_csv), "--slopes", "auto:2", "--method", "mmae",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    model = read_polynomial(str(out) + ".model.txt")
    # residuals file carries the original predictions; re-evaluating the
    # re-ingested model must reproduce them bit-exactly
    rows = (tmp_path / "rt.residuals.txt").read_text().strip().splitlines()
    xs = np.array([[float(r.split()[0])] for r in rows])
    preds = np.array([float(r.split()[2]) for r in rows])
    again = model.evaluate(xs)
    assert np.array_equal(preds, again)


def test_fit_sweep(line_csv, capsys):
    rc = main(["fit", str(line_csv), "--sweep-k", "1:3"])
    assert rc == 0
    out = capsys.readouterr().out
    for k in (1, 2, 3):
        assert f"sweep[{k}]:" in out


def test_fit_grid_override(line_csv, tmp_path):
    out = tmp_path / "g"
    assert main(["fit", str(line_csv), "--slopes", "line", "--grid", "11",
                 "--out", str(out)]) == 0
    grid_rows = (tmp_path / "g.grid.txt").read_text().strip().splitlines()
    assert len(grid_rows) == 11


def _one_line_usage_error(rc, capsys):
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("tropalg: error:")
    assert err.count("\n") == 1
    return err


def test_fit_non_numeric_slope_file_is_usage_error(line_csv, tmp_path, capsys):
    slopes = tmp_path / "slopes.txt"
    slopes.write_text("1\nsteep\n", encoding="utf-8")
    rc = main(["fit", str(line_csv), "--slopes", str(slopes), "--out", str(tmp_path / "sf")])
    _one_line_usage_error(rc, capsys)


def test_fit_ragged_slope_file_is_usage_error(tmp_path, capsys):
    data = tmp_path / "plane.csv"
    data.write_text("x,y,z\n0,0,1\n1,0,2\n0,1,3\n1,1,4\n", encoding="utf-8")
    slopes = tmp_path / "slopes.txt"
    slopes.write_text("1 0\n1\n", encoding="utf-8")
    rc = main(["fit", str(data), "--slopes", str(slopes), "--out", str(tmp_path / "sf")])
    _one_line_usage_error(rc, capsys)


def test_fit_negative_grid_rejected_before_output(line_csv, tmp_path, capsys):
    out = tmp_path / "g"
    rc = main(["fit", str(line_csv), "--slopes", "line", "--grid", "-1", "--out", str(out)])
    _one_line_usage_error(rc, capsys)
    assert list(tmp_path.glob("g.*")) == []


def test_fit_non_numeric_theta_is_usage_error(line_csv, tmp_path, capsys):
    rc = main(["fit", str(line_csv), "--clodum", "max-softmin:θ=abc", "--out", str(tmp_path / "t")])
    _one_line_usage_error(rc, capsys)


def test_fit_overflowing_derivative_is_usage_error(tmp_path, capsys):
    data = tmp_path / "ov.csv"
    data.write_text("x,y\n0,0\n1e-300,1e10\n1,1\n2,3\n3,6\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["fit", str(data), "--slopes", "auto:2", "--out", str(tmp_path / "ov")])
    assert "samples 0 and 1" in _one_line_usage_error(rc, capsys)


# ---------------------------------------------------------------------------
# solve command


def _write_system(tmp_path):
    A = TropicalMatrix([[0, -INF], [-INF, 0], [1, 1]], MAX_PLUS)
    b = TropicalMatrix(np.zeros((3, 1)), MAX_PLUS)
    write_tropmat(tmp_path / "A.txt", A)
    write_tropmat(tmp_path / "b.txt", b)


def test_solve_identity_system(tmp_path, capsys):
    E = TropicalMatrix.identity(2, MAX_PLUS)
    write_tropmat(tmp_path / "E.txt", E)
    write_tropmat(tmp_path / "b.txt", TropicalMatrix([[1.0], [2.0]], MAX_PLUS))
    rc = main(["solve", str(tmp_path / "E.txt"), str(tmp_path / "b.txt")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "x_hat: 1.0 2.0" in out
    assert "exact: true" in out


def test_solve_mmae_example(tmp_path, capsys):
    _write_system(tmp_path)
    rc = main(["solve", str(tmp_path / "A.txt"), str(tmp_path / "b.txt"), "--method", "mmae"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mu: 0.5" in out
    assert "x_tilde: -0.5 -0.5" in out


def test_solve_report_deterministic(tmp_path, capsys):
    _write_system(tmp_path)
    argv = ["solve", str(tmp_path / "A.txt"), str(tmp_path / "b.txt"), "--method", "mmae",
            "--out", str(tmp_path / "report.txt")]
    assert main(argv) == 0
    first = (tmp_path / "report.txt").read_bytes()
    assert main(argv) == 0
    assert first == (tmp_path / "report.txt").read_bytes()
    capsys.readouterr()


def test_solve_dimension_mismatch_exit_2(tmp_path, capsys):
    _write_system(tmp_path)
    write_tropmat(tmp_path / "b2.txt", TropicalMatrix(np.zeros((2, 1)), MAX_PLUS))
    rc = main(["solve", str(tmp_path / "A.txt"), str(tmp_path / "b2.txt")])
    assert rc == 2


def test_solve_non_numeric_theta_header_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "M.txt"
    bad.write_text("tropmat 1 1 max-softmin:theta=zz\n0\n", encoding="utf-8")
    rc = main(["solve", str(bad), str(bad)])
    _one_line_usage_error(rc, capsys)


def test_solve_mmae_refused_off_maxplus(tmp_path, capsys):
    write_tropmat(tmp_path / "M.txt", TropicalMatrix([[0.5]], __import__("tropalg").MAX_MIN))
    write_tropmat(tmp_path / "c.txt", TropicalMatrix([[0.5]], __import__("tropalg").MAX_MIN))
    rc = main(["solve", str(tmp_path / "M.txt"), str(tmp_path / "c.txt"), "--method", "mmae"])
    assert rc == 2
    assert "max-plus" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval and polytope commands


def test_eval_at_point(tmp_path, capsys):
    poly = tmp_path / "p.txt"
    poly.write_text("troppoly max max-plus\n1.0 | -2.0\n0.0 | 3.0\n", encoding="utf-8")
    rc = main(["eval", str(poly), "--at", "10"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "10.0 8.0"


def test_eval_non_numeric_point_is_usage_error(tmp_path, capsys):
    poly = tmp_path / "p.txt"
    poly.write_text("troppoly max max-plus\n1.0 0.0 | -2.0\n", encoding="utf-8")
    rc = main(["eval", str(poly), "--at", "1,x"])
    _one_line_usage_error(rc, capsys)


def test_eval_over_dataset(tmp_path, capsys, line_csv):
    poly = tmp_path / "p.txt"
    poly.write_text("troppoly max max-plus\n1.0 | -2.0\n0.0 | 3.0\n", encoding="utf-8")
    rc = main(["eval", str(poly), "--data", str(line_csv)])
    assert rc == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 40


def test_polytope_command_reference(tmp_path, capsys):
    p1 = tmp_path / "p1.txt"
    p1.write_text("troppoly max max-plus\n1 1 | 0\n3 1 | 0\n1 2 | 0\n", encoding="utf-8")
    p2 = tmp_path / "p2.txt"
    p2.write_text("troppoly max max-plus\n0 0 | 0\n-1 0 | 0\n0 1 | 0\n-1 1 | 0\n", encoding="utf-8")
    rc = main(["polytope", str(p1), str(p2)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "newton[0].vertices: 3" in out
    assert "newton[1].vertices: 4" in out
    assert "join.vertices:" in out
    assert "minkowski_sum.vertices:" in out


def test_polytope_high_dimension_notice(tmp_path, capsys):
    p = tmp_path / "p3.txt"
    p.write_text("troppoly max max-plus\n1 0 0 | 0\n0 1 0 | 0\n", encoding="utf-8")
    rc = main(["polytope", str(p)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "notice" in out
    assert "generator[1]" in out


def test_polytope_command_matches_library_on_random_files(tmp_path, capsys):
    rng = np.random.default_rng(61)
    from tropalg import (
        TropicalPolynomial,
        newton_polytope,
        polytope_join,
        polytope_minkowski_sum,
        write_polynomial,
    )

    for trial in range(5):
        polys = []
        for name in ("a.txt", "b.txt"):
            k = int(rng.integers(2, 6))
            poly = TropicalPolynomial(rng.integers(-4, 5, (k, 2)).astype(float),
                                      rng.integers(-3, 4, k).astype(float))
            write_polynomial(tmp_path / name, poly)
            polys.append(poly)
        assert main(["polytope", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]) == 0
        out = capsys.readouterr().out

        def printed(label):
            rows = [ln.split(": ")[1] for ln in out.splitlines()
                    if ln.startswith(f"{label}.vertex[")]
            return np.array([[float(t) for t in r.split()] for r in rows])

        n1, n2 = newton_polytope(polys[0]), newton_polytope(polys[1])
        np.testing.assert_array_equal(printed("join"), polytope_join(n1, n2).hull_vertices)
        np.testing.assert_array_equal(
            printed("minkowski_sum"), polytope_minkowski_sum(n1, n2).hull_vertices
        )


def test_single_term_polytope(tmp_path, capsys):
    p = tmp_path / "p1.txt"
    p.write_text("troppoly max max-plus\n2 5 | 1\n", encoding="utf-8")
    rc = main(["polytope", str(p)])
    assert rc == 0
    assert "newton[0].vertices: 1" in capsys.readouterr().out


def test_missing_file_nonzero_exit(capsys):
    rc = main(["solve", "/nonexistent/A.txt", "/nonexistent/b.txt"])
    assert rc != 0


# ---------------------------------------------------------------------------
# end-to-end experiment flows


def test_fit_convex_benchmark_end_to_end(tmp_path, capsys):
    # 100 clean samples of max(-6x-6, x/2, x^5/5 + x/2), six auto slopes
    x = np.linspace(-2, 2, 100)
    f = np.maximum.reduce([-6 * x - 6, x / 2, x**5 / 5 + x / 2])
    data = tmp_path / "bench.csv"
    data.write_text(
        "x,f\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, f)) + "\n",
        encoding="utf-8",
    )
    rc = main(["fit", str(data), "--method", "mmae", "--slopes", "auto:6",
               "--out", str(tmp_path / "bench")])
    assert rc == 0
    out = capsys.readouterr().out
    linf = float([ln for ln in out.splitlines() if ln.startswith("linf_error:")][0].split()[1])
    assert linf == pytest.approx(0.0966, abs=0.025)


def test_fit_half_circle_with_slope_file(tmp_path, capsys):
    x = np.array([-5.5, -2.0, 1.5, 4.0, 6.5])
    y = 10.0 - np.sqrt(49.0 - x**2)
    data = tmp_path / "halfcircle.csv"
    data.write_text(
        "x,y\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)) + "\n",
        encoding="utf-8",
    )
    slopes = tmp_path / "slopes.txt"
    slopes.write_text("".join(f"{k}\n" for k in range(-3, 4)), encoding="utf-8")
    rc = main(["fit", str(data), "--slopes", str(slopes), "--method", "gle",
               "--out", str(tmp_path / "hc")])
    assert rc == 0
    out = capsys.readouterr().out
    linf = float([ln for ln in out.splitlines() if ln.startswith("linf_error:")][0].split()[1])
    assert linf == pytest.approx(0.12, abs=0.02)


def test_cli_import_leaves_scipy_unloaded():
    # scipy.optimize (polytope comparison in dimension >= 3) and scipy.spatial
    # (n-D slope estimation) load on first use, not at start-up
    import tropalg

    src = str(Path(tropalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, tropalg.cli; "
            "print([m for m in ('scipy.optimize', 'scipy.spatial') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"
