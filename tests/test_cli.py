"""End-to-end tests of the command-line front end."""

import argparse
import csv
import json
import math

import numpy as np
import pytest

from horocorr.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGallery:
    def test_list_prints_six_names(self, capsys):
        code, out, _ = run(capsys, "gallery", "list")
        names = out.strip().splitlines()
        assert code == 0
        assert len(names) == 6
        assert "geodesic-sphere" in names and "alpha-curve" in names

    def test_show_reports_payload_type(self, capsys):
        code, out, _ = run(capsys, "gallery", "show", "alpha-curve")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["payload"] == "CurveImmersion"
        assert report["results"]["resolution"] == 4096
        assert report["config"]["command"] == "gallery"

    def test_show_without_name_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["gallery", "show"])
        assert err.value.code == 2


class TestUsageErrors:
    def test_unknown_example(self):
        with pytest.raises(SystemExit) as err:
            main(["immerse", "klein-bottle"])
        assert err.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    @pytest.mark.parametrize("flag,value", [("--eps", "1.0"), ("--samples", "0")])
    def test_boundary_meaningless_parameter(self, capsys, flag, value):
        code, out, err = run(capsys, "boundary", "incomplete-band", flag, value)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


    @pytest.mark.parametrize("argv", [
        ("gauss-degree", "alpha", "--seed", "3"),
        ("verify", "--t", "1"),
        ("weingarten-check", "--samples", "5"),
        ("embed-check", "alpha", "--rho0", "0.3"),
    ])
    def test_dropped_option(self, argv):
        # options a command's code never reads are not registered on it
        with pytest.raises(SystemExit) as err:
            main(list(argv))
        assert err.value.code == 2

    def test_each_command_takes_only_its_options(self):
        expected = {
            "gallery": {"samples", "rho0", "out"},
            "schouten": {"samples", "seed", "rho0", "out"},
            "immerse": {"samples", "t", "rho0", "out", "format"},
            "flow": {"samples", "t", "h", "seed", "rho0", "out"},
            "embed-check": {"samples", "t", "eps", "out"},
            "gauss-degree": {"samples"},
            "boundary": {"samples", "t", "eps", "rho0", "out"},
            "weingarten-check": {"seed"},
            "verify": {"only", "out"},
        }
        commands = next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction))
        taken = {name: {a.dest for a in sub._actions
                        if a.option_strings and a.dest != "help"}
                 for name, sub in commands.choices.items()}
        assert taken == expected
        # 30 of the 72 values the eight shared options gave nine commands
        assert sum(len(opts - {"only"}) for opts in taken.values()) == 30


class TestWinding:
    def test_alpha_prints_three(self, capsys):
        code, out, _ = run(capsys, "gauss-degree", "alpha", "--samples", "4096")
        assert code == 0
        assert out.strip() == "3"

    def test_metric_example_rejected(self, capsys):
        code, _, err = run(capsys, "gauss-degree", "incomplete-band")
        assert code == 1
        assert "curve" in err


class TestImmerseExport:
    def test_sphere_obj_vertex_radius(self, tmp_path, capsys):
        path = tmp_path / "s.obj"
        code, _, _ = run(capsys, "immerse", "geodesic-sphere",
                         "--rho0", "0.346574", "--t", "0", "--out", str(path))
        assert code == 0
        verts, faces = [], []
        for line in path.read_text().splitlines():
            kind, *rest = line.split()
            if kind == "v":
                verts.append([float(x) for x in rest])
            elif kind == "f":
                faces.append([int(i) for i in rest])
        radii = np.linalg.norm(np.array(verts), axis=1)
        expected = math.tanh(0.5 * 0.346574)
        assert np.all(np.abs(radii - expected) < 1e-5)
        # faces are 1-indexed triangles over declared vertices
        idx = np.array(faces)
        assert idx.shape[1] == 3
        assert idx.min() >= 1 and idx.max() <= len(verts)

    def test_curve_export_writes_polyline(self, tmp_path, capsys):
        path = tmp_path / "a.obj"
        code, _, _ = run(capsys, "immerse", "alpha-curve",
                         "--samples", "128", "--out", str(path))
        assert code == 0
        text = path.read_text()
        assert text.count("\nl ") + text.startswith("l ") >= 1
        assert sum(1 for l in text.splitlines() if l.startswith("v ")) == 128

    def test_json_summary_keeps_vertices_in_ball(self, capsys):
        code, out, _ = run(capsys, "immerse", "cylinder-delaunay",
                           "--samples", "16")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["ball_radius_max"] < 1.0
        assert report["invariant_checks"][0]["pass"] is True


class TestReports:
    def test_schouten_cylinder_bounds(self, capsys):
        code, out, _ = run(capsys, "schouten", "cylinder-delaunay",
                           "--samples", "60")
        assert code == 0
        report = json.loads(out)
        half = 0.5 * math.exp(-2.0)
        assert report["results"]["lambda_max"] == pytest.approx(half, abs=1e-9)
        assert report["results"]["lambda_min"] == pytest.approx(-half, abs=1e-9)
        assert report["invariant_checks"][0]["pass"] is True

    def test_flow_csv_schema_and_consistency(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "flow", "incomplete-band", "--t", "1.0",
                         "--samples", "25", "--out", str(path))
        assert code == 0
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["u1", "u2", "rho", "lambda1", "lambda2",
                           "kappa_ext1", "kappa_ext2",
                           "kappa_pred1", "kappa_pred2", "max_discrepancy"]
        assert len(rows) == 26
        discrepancies = [float(r[-1]) for r in rows[1:]]
        assert max(discrepancies) < 1e-3

    @pytest.mark.parametrize("argv, skipped", [
        (("flow", "cylinder-delaunay", "--samples", "100", "--h", "0.2"), 5),
        (("flow", "incomplete-band", "--samples", "100", "--t=-0.3"), 84),
    ], ids=["stencil-leaves-band", "outside-immersion-window"])
    def test_flow_skips_samples(self, capsys, argv, skipped):
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert f"skipped {skipped} samples outside the immersion window" in err
        rows = list(csv.reader(out.splitlines()))
        assert len(rows) == 1 + 100 - skipped
        assert max(float(r[-1]) for r in rows[1:]) < 1e-3

    def test_boundary_cylinder_two_poles(self, capsys):
        code, out, _ = run(capsys, "boundary", "cylinder-delaunay")
        assert code == 0
        report = json.loads(out)
        clusters = report["results"]["clusters"]
        assert len(clusters) == 2
        z = sorted(c["direction"][2] for c in clusters)
        assert z[0] == pytest.approx(-1.0, abs=1e-2)
        assert z[1] == pytest.approx(1.0, abs=1e-2)

    def test_embed_check_curve_fails_honestly(self, capsys):
        code, _, err = run(capsys, "embed-check", "alpha",
                           "--samples", "512", "--t", "2.0")
        assert code == 1
        assert "not embedded by t_max" in err


class TestVerify:
    def test_subset_report(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--only", "gauss-degree",
                           "--only", "degenerate-collapse", "--out", str(path))
        assert code == 0
        assert out.count("PASS") == 2
        report = json.loads(path.read_text())
        assert set(report) == {"config", "results", "invariant_checks"}
        assert all(c["pass"] for c in report["invariant_checks"])
        names = [c["name"] for c in report["invariant_checks"]]
        assert names == ["gauss-degree", "degenerate-collapse"]

    def test_report_verdicts_are_json_booleans(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        code, _, _ = run(capsys, "verify", "--only", "minkowski-constraints",
                         "--out", str(path))
        assert code == 0
        report = json.loads(path.read_text())
        verdicts = ([r["passed"] for r in report["results"]]
                    + [c["pass"] for c in report["invariant_checks"]])
        assert verdicts and all(v is True for v in verdicts)

    def test_unfolding_reports_failure(self, capsys):
        # the check passes by reproducing the failure to unfold
        code, out, _ = run(capsys, "verify", "--only", "unfolding")
        assert code == 0
        assert "PASS unfolding" in out
        assert "winding stays [3]" in out
        assert "not embedded by t_max" in out

    def test_unfolding_line_counts_failed_clauses(self, capsys):
        # max_error is the number of failed verdict clauses, 0 on a pass
        code, out, _ = run(capsys, "verify", "--only", "unfolding")
        assert code == 0
        assert out.startswith("PASS unfolding: max_error=0.000e+00 tol=0.0e+00")
        assert "250 at t=5 (m=8192)" in out

    def test_weingarten_check_passes(self, capsys):
        code, out, _ = run(capsys, "weingarten-check")
        assert code == 0
        assert out.startswith("PASS")
