"""End-to-end tests of the command-line front end."""

import argparse
import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from horocorr import cli, conformal
from horocorr.analysis import GalleryEntry, circle_curve
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

    @pytest.mark.parametrize("flag,value", [("--samples", "0")])
    def test_boundary_meaningless_parameter(self, capsys, flag, value):
        code, out, err = run(capsys, "boundary", "incomplete-band", flag, value)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")


    @pytest.mark.parametrize("argv", [
        ("schouten", "incomplete-band", "--samples", "-5"),
        ("flow", "incomplete-band", "--samples", "-1"),
        ("immerse", "geodesic-sphere", "--samples", "-3"),
        ("gauss-degree", "alpha", "--samples=-5"),
    ])
    def test_negative_samples(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(list(argv))
        assert err.value.code == 2
        assert "argument --samples: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("schouten", "geodesic-sphere", "--rho0", "nan"),
        ("schouten", "geodesic-sphere", "--rho0", "inf"),
        ("flow", "geodesic-sphere", "--t", "nan"),
        ("flow", "geodesic-sphere", "--t", "inf"),
        ("immerse", "geodesic-sphere", "--t", "nan"),
        ("immerse", "alpha", "--t", "nan"),
        ("immerse", "alpha-product", "--t", "inf"),
    ])
    def test_nonfinite_parameter(self, capsys, argv):
        # pytest turns a RuntimeWarning into an error, so none is printed
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "not finite" in err
        if argv[0] == "immerse":
            assert "flow time" in err

    @pytest.mark.parametrize("argv", [
        ("gauss-degree", "alpha", "--seed", "3"),
        ("verify", "--t", "1"),
        ("boundary", "incomplete-band", "--eps", "0.999"),
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
            "boundary": {"samples", "t", "rho0", "out"},
            "verify": {"only", "out"},
        }
        commands = next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction))
        taken = {name: {a.dest for a in sub._actions
                        if a.option_strings and a.dest != "help"}
                 for name, sub in commands.choices.items()}
        assert taken == expected
        # 28 of the 64 values the eight shared options gave eight commands
        assert sum(len(opts - {"only"}) for opts in taken.values()) == 28


class TestWinding:
    def test_alpha_prints_three(self, capsys):
        code, out, _ = run(capsys, "gauss-degree", "alpha", "--samples", "4096")
        assert code == 0
        assert out.strip() == "3"

    @pytest.mark.parametrize("samples", ["0", "2", "6"])
    def test_too_few_samples(self, capsys, samples):
        code, out, err = run(capsys, "gauss-degree", "alpha", f"--samples={samples}")
        assert code == 1
        assert out == ""
        assert err == "error: the profile curve needs at least seven samples\n"

    def test_metric_example_rejected(self, capsys):
        code, _, err = run(capsys, "gauss-degree", "incomplete-band")
        assert code == 1
        assert "curve" in err


def reference_write_obj(path, verts, faces=(), polylines=()):
    # the original writer, one formatted numpy scalar at a time, kept as the
    # oracle for cli._write_obj
    with open(path, "w") as f:
        for v in verts:
            f.write(f"v {v[0]:.9f} {v[1]:.9f} {v[2]:.9f}\n")
        for face in faces:
            f.write("f " + " ".join(str(i + 1) for i in face) + "\n")
        for line in polylines:
            f.write("l " + " ".join(str(i + 1) for i in line) + "\n")


class TestImmerseExport:
    @pytest.mark.parametrize("argv", [
        ("incomplete-band", "--t", "0.4"),
        ("alpha-product", "--t", "1.7"),
        ("alpha", "--samples", "1024", "--t", "0.3"),
    ])
    def test_obj_bytes_match_reference_writer(self, tmp_path, capsys, monkeypatch,
                                              argv):
        write = cli._write_obj

        def both(path, *args):
            write(path, *args)
            reference_write_obj(tmp_path / "reference.obj", *args)

        monkeypatch.setattr(cli, "_write_obj", both)
        path = tmp_path / "out.obj"
        code, _, _ = run(capsys, "immerse", *argv, "--out", str(path))
        assert code == 0
        assert path.read_bytes() == (tmp_path / "reference.obj").read_bytes()

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

    @pytest.mark.parametrize("name", ["geodesic-sphere", "incomplete-band"])
    @pytest.mark.parametrize("samples", [0, 1, 2])
    def test_metric_mesh_needs_three_azimuths(self, capsys, name, samples):
        # 0 once fell back to 32 azimuths, 1 repeats a vertex in every face
        # and 2 covers each quad twice
        code, out, err = run(capsys, "immerse", name, "--samples", str(samples))
        assert (code, out) == (1, "")
        assert err == f"error: the mesh needs at least three azimuths, got {samples}\n"

    def test_metric_mesh_of_three_azimuths(self, capsys):
        code, out, _ = run(capsys, "immerse", "geodesic-sphere", "--samples", "3")
        assert code == 0
        results = json.loads(out)["results"]
        # 5 latitude rows of 3 azimuths: 4 bands of 3 quads, two faces each
        assert (results["vertices"], results["faces"]) == (15, 24)

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

    def test_schouten_solves_each_sample_once(self, monkeypatch, capsys):
        # the symmetry check reads the tensors of the report's own solve
        solved = []
        eigvalsh = conformal.generalized_eigvalsh

        def counted(A, B):
            solved.append(len(A))
            return eigvalsh(A, B)

        monkeypatch.setattr(conformal, "generalized_eigvalsh", counted)
        code, out, _ = run(capsys, "schouten", "incomplete-band", "--samples", "80")
        assert code == 0
        assert solved == [80]
        assert json.loads(out)["results"]["n_samples"] == 80

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

    def test_embed_check_embedded_curve(self, capsys, monkeypatch):
        # no gallery curve embeds under the flow, so swap in a round circle
        circle = GalleryEntry("circle", {}, circle_curve(0.7, 64))
        monkeypatch.setattr(cli, "_gallery_entry", lambda args: circle)
        code, out, _ = run(capsys, "embed-check", "alpha")
        assert code == 0
        report = json.loads(out)
        assert report["results"] == {"t_embedded": 0.0, "crossings_before": None,
                                     "crossings_now": 0}
        assert report["invariant_checks"] == []

    def test_schouten_without_samples(self, capsys):
        code, out, err = run(capsys, "schouten", "incomplete-band", "--samples", "0")
        assert code == 1
        assert out == ""
        assert err == "error: no usable samples for the realizability report\n"

    @pytest.mark.parametrize("h", ["0", "-1e-4", "nan", "inf"])
    def test_flow_step_must_be_positive_and_finite(self, capsys, h):
        code, out, err = run(capsys, "flow", "incomplete-band", f"--h={h}")
        assert code == 1
        assert out == ""
        assert err == "error: finite-difference step must be positive\n"

    def test_embed_check_nonfinite_eps(self, capsys):
        code, out, err = run(capsys, "embed-check", "alpha", "--eps", "nan")
        assert code == 1
        assert out == ""
        assert err.startswith("error: need finite positive t_max and tolerance")


REPORTS = [
    ("gallery", "show", "alpha"),
    ("immerse", "geodesic-sphere", "--samples", "6", "--format", "json"),
    ("schouten", "cylinder-delaunay", "--samples", "10"),
    ("embed-check", "alpha"),
    ("boundary", "incomplete-band", "--samples", "8"),
    ("verify", "--only", "gauss-degree", "--only", "degenerate-collapse"),
]


@pytest.mark.parametrize("argv", REPORTS, ids=[argv[0] for argv in REPORTS])
def test_report_shape(argv, capsys, tmp_path, monkeypatch):
    # every JSON report lists config, results and invariant_checks, in order
    if argv[0] == "embed-check":   # no gallery curve embeds, and only then is there JSON
        circle = GalleryEntry("circle", {}, circle_curve(0.7, 64))
        monkeypatch.setattr(cli, "_gallery_entry", lambda args: circle)
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0
    report = json.loads(path.read_text())
    assert list(report) == ["config", "results", "invariant_checks"]
    assert report["config"]["out"] == str(path)
    for check in report["invariant_checks"]:
        assert list(check) == ["name", "max_error", "tolerance", "pass"]
        assert check["pass"] is True


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


class TestParserReuse:
    CALLS = [
        ("flow", "incomplete-band", "--samples", "6", "--t", "2"),
        ("flow", "incomplete-band", "--samples", "6"),
        ("boundary", "incomplete-band", "--samples", "8"),
        ("immerse", "geodesic-sphere", "--samples", "6", "--format", "json",
         "--t", "0.5"),
        ("immerse", "klein-bottle"),
        ("immerse", "geodesic-sphere", "--samples", "6", "--format", "json"),
        ("schouten", "cylinder-delaunay", "--samples", "10", "--seed", "3"),
        ("boundary", "geodesic-sphere", "--samples", "8", "--t", "2"),
        ("verify", "--only", "gauss-degree", "--only", "degenerate-collapse"),
        ("verify", "--only", "gauss-degree"),
    ]

    def outputs(self, capsys, tmp_path):
        results = []
        for k, argv in enumerate(self.CALLS):
            argv = list(argv)
            if argv[0] == "verify":   # the runtimes vary: keep only the config
                argv += ["--out", str(tmp_path / f"v{k}.json")]
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            out, err = capsys.readouterr()
            if argv[0] == "verify":
                out = json.loads((tmp_path / f"v{k}.json").read_text())["config"]
            results.append((code, out, err))
        return results

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_calls_match_fresh_parser(self, capsys, tmp_path, monkeypatch):
        # options and defaults of one call do not leak into the next
        reused = self.outputs(capsys, tmp_path)
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        fresh = self.outputs(capsys, tmp_path)
        assert reused == fresh
        assert json.loads(reused[3][1])["config"]["t"] == 0.5
        assert json.loads(reused[5][1])["config"]["t"] == 0.0
        assert reused[4][0] == ("exit", 2)
        assert reused[9][1]["only"] == ["gauss-degree"]


def test_import_leaves_scipy_out():
    code = ("import sys, horocorr.cli, horocorr.verify; "
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
