"""End-to-end tests of the command-line front end."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horocorr import cli, conformal
from horocorr.analysis import GALLERY_NAMES, GalleryEntry, circle_curve, make_example
from horocorr.cli import build_parser, main
from horocorr.minkowski import MAX_SAMPLES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def registered_options():
    """The names of each subcommand's options, help excluded."""
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    return {name: {a.dest for a in sub._actions if a.option_strings and a.dest != "help"}
            for name, sub in commands.choices.items()}


class TestGallery:
    def test_list_prints_six_names(self, capsys):
        code, out, _ = run(capsys, "gallery", "list")
        names = out.strip().splitlines()
        assert code == 0
        assert len(names) == 6
        assert "geodesic-sphere" in names and "alpha-curve" in names

    def test_list_writes_the_names_to_out(self, tmp_path, capsys):
        path = tmp_path / "names.txt"
        code, out, err = run(capsys, "gallery", "list", "--out", str(path))
        assert (code, out, err) == (0, "", "")
        assert path.read_text() == "".join(f"{name}\n" for name in GALLERY_NAMES)

    @pytest.mark.parametrize("name, results", [
        ("alpha-curve", {"name": "alpha-curve", "params": {"m": 4096},
                         "payload": "CurveImmersion", "resolution": 4096,
                         "period": 12.566370614359172}),
        ("alpha-product", {"name": "alpha-product",
                           "params": {"m_u": 96, "m_v": 9, "length": 1.0},
                           "payload": "MeshImmersion", "vertices": 864, "faces": 1536}),
    ])
    def test_show_reports_payload_type(self, capsys, name, results):
        code, out, _ = run(capsys, "gallery", "show", name)
        assert code == 0
        report = json.loads(out)
        assert list(report["results"].items()) == list(results.items())
        assert report["config"]["command"] == "gallery"

    @pytest.mark.parametrize("name, params", [
        ("geodesic-sphere", {"rho0": 0.5 * math.log(2.0)}),
        ("round-degenerate", {}),
        ("incomplete-band", {}),
        ("cylinder-delaunay", {"t": 1.0}),
        ("alpha-curve", {"m": 4096}),
        ("alpha", {"m": 4096}),
        ("alpha-product", {"m_u": 96, "m_v": 9, "length": 1.0}),
    ])
    def test_show_reports_resolved_params(self, capsys, name, params):
        code, out, _ = run(capsys, "gallery", "show", name)
        assert code == 0
        shown = json.loads(out)["results"]["params"]
        assert list(shown.items()) == list(params.items())
        assert list(map(type, shown.values())) == list(map(type, params.values()))

    def test_show_without_name_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["gallery", "show"])
        assert err.value.code == 2

    @pytest.mark.parametrize("extra", [["alpha"], ["--rho0", "3"], ["--samples", "5"],
                                       ["--samples", "0"], ["alpha", "--samples", "64"]])
    def test_list_refuses_what_it_ignores(self, capsys, extra):
        # list builds no example; these exited 0 with the options dropped
        with pytest.raises(SystemExit) as err:
            main(["gallery", "list", *extra])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: gallery list takes no example name, --rho0 or --samples\n")


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
        ("gallery", "show", "alpha"), ("schouten", "geodesic-sphere"),
        ("flow", "incomplete-band"), ("boundary", "cylinder-delaunay"),
        ("boundary", "incomplete-band"), ("immerse", "geodesic-sphere"),
        ("immerse", "alpha"), ("embed-check", "alpha"), ("gauss-degree", "alpha"),
    ])
    def test_huge_samples_is_one_error_line(self, capsys, argv):
        # numpy refused this size with a traceback; the guard names the count
        code, out, err = run(capsys, *argv, "--samples", "1000000000000000000000")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "= 1000000000000000000000 is not an integer in [" in err

    @pytest.mark.parametrize("argv", [
        ("embed-check", "alpha-product", "--samples", "2048"),   # the command's default
        ("embed-check", "alpha-product", "--samples=0"),
        ("immerse", "alpha-product", "--sam", "32"),   # an abbreviation is given too
        ("gallery", "show", "alpha-product", "--samples", "5"),
    ])
    def test_samples_refused_on_the_mesh(self, capsys, argv):
        # the 96 x 9 grid took no count, and ran whatever --samples said
        assert run(capsys, *argv) == (1, "", "error: alpha-product takes no --samples\n")

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

    @pytest.mark.parametrize("argv, message", [
        (("boundary", "incomplete-band", "--t", "700"), "error: flow time = 700.0 "),
        (("immerse", "geodesic-sphere", "--t", "800"), "error: flow time = 800.0 "),
        (("schouten", "geodesic-sphere", "--rho0", "354.8"), "error: rho + t = 354.8 "),
        (("immerse", "geodesic-sphere", "--rho0", "700"),
         "error: the immersion is not finite at chart point "),
    ])
    def test_overflowing_flow_time(self, capsys, argv, message):
        # e^(rho + t) or phi^2 would overflow: one error line naming the flow
        # time, rho + t or the chart point, not 0 clusters or a point said to
        # be off the hyperboloid
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("immerse", "alpha", "--t", "800"),
        ("immerse", "alpha-product", "--t", "1e308"),
        ("embed-check", "alpha", "--t", "1e308"),
        ("immerse", "alpha", "--t", "400", "--format", "csv"),
        ("embed-check", "alpha", "--samples", "1024", "--t", "400"),
    ])
    def test_overflowing_normal_flow_time(self, capsys, argv):
        # cosh(t)^2 overflows on a curve or mesh payload: one error line
        # naming the flow time, not a traceback or a point said to be off
        # the hyperboloid
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: flow time") and err.count("\n") == 1

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

    @pytest.mark.parametrize("command", sorted(
        name for name, opts in registered_options().items() if "rho0" in opts))
    def test_rho0_only_on_the_sphere(self, capsys, command):
        # --rho0 was read on geodesic-sphere alone and echoed as if applied
        head = [command, "show"] if command == "gallery" else [command]
        for name, shown in [("round-degenerate", "round-degenerate"),
                            ("incomplete-band", "incomplete-band"),
                            ("cylinder-delaunay", "cylinder-delaunay"),
                            ("alpha", "alpha-curve"), ("alpha-product", "alpha-product")]:
            code, out, err = run(capsys, *head, name, "--rho0", "3")
            assert (code, out) == (1, ""), name
            assert err == f"error: unexpected parameters for {shown}: ['rho0']\n"
        code, _, _ = run(capsys, *head, "geodesic-sphere", "--rho0", "0.3", "--samples", "8")
        assert code == 0

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
        taken = registered_options()
        assert taken == expected
        # 28 of the 64 values the eight shared options gave eight commands
        assert sum(len(opts - {"only"}) for opts in taken.values()) == 28


FUZZ_FLOATS = ("0", "1e-09", "-1e-09", "0.5", "1", "3.2", "20", "-20", "355", "356",
               "700", "1e308", "inf", "-inf", "nan")
FUZZ_VALUES = {"samples": ("0", "1", "3", "7", "16", "64", "-1", "1000000000000000000000"),
               "seed": ("0", "7", "-1"),
               "format": cli._OPTIONS["format"]["choices"]}


@st.composite
def cli_argv(draw):
    """An argv for any subcommand but verify, drawn from the option table:
    an example, then a subset of the command's options with values from
    small pools, every float value from FUZZ_FLOATS; reports go to the null
    device."""
    options = registered_options()
    command = draw(st.sampled_from(sorted(set(options) - {"verify"})))
    argv = [command] + (["show"] if command == "gallery" else [])
    argv.append(draw(st.sampled_from(cli.EXAMPLE_CHOICES)))
    for name in draw(st.lists(st.sampled_from(sorted(options[command])), unique=True)):
        if name == "out":
            value = os.devnull
        elif cli._OPTIONS[name].get("type") is float:
            value = draw(st.sampled_from(FUZZ_FLOATS))
        else:
            value = draw(st.sampled_from(FUZZ_VALUES[name]))
        argv.append(f"--{name}={value}")
    return argv


class TestGeneratedArgv:
    @settings(max_examples=300, deadline=None)
    @given(cli_argv())
    @example(["schouten", "geodesic-sphere", "--rho0=300"])
    @example(["schouten", "geodesic-sphere", "--rho0=-300"])
    @example(["schouten", "geodesic-sphere", "--rho0=354.8"])
    @example(["schouten", "geodesic-sphere", "--rho0=700"])
    @example(["schouten", "geodesic-sphere", "--rho0=1e308"])
    @example(["flow", "geodesic-sphere", "--rho0=-200"])
    @example(["flow", "geodesic-sphere", "--t=356"])
    @example(["flow", "incomplete-band", "--h=1e308"])
    @example(["immerse", "geodesic-sphere", "--rho0=700"])
    @example(["immerse", "round-degenerate", "--t=356"])
    @example(["immerse", "alpha", "--t=355", "--format=csv"])
    @example(["boundary", "cylinder-delaunay", "--t=356"])
    @example(["boundary", "incomplete-band", "--t=355"])
    @example(["schouten", "incomplete-band", "--seed=-1"])
    @example(["immerse", "alpha", "--t=40", "--format=json"])
    @example(["immerse", "geodesic-sphere", "--t=40", "--samples=4"])
    @example(["immerse", "incomplete-band", "--t=40", "--samples=4"])
    @example(["embed-check", "alpha", "--t=40", "--samples=256"])
    @example(["embed-check", "alpha-product", "--t=40"])
    def test_every_argv_ends_cleanly(self, argv):
        # exit 0; exit 1 with one error line; or argparse's exit 2, and no
        # warning or other exception on the way
        out, err = io.StringIO(), io.StringIO()
        with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), argv
        if code == 1:
            assert err.getvalue().startswith("error: "), argv
            assert err.getvalue().count("\n") == 1, argv
        elif code == 0:
            assert "error" not in err.getvalue(), argv


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
        assert err == f"error: m = {samples} is not an integer in [7, {MAX_SAMPLES}]\n"

    def test_metric_example_rejected(self, capsys):
        code, _, err = run(capsys, "gauss-degree", "incomplete-band")
        assert code == 1
        assert "curve" in err


def wrong_kinds():
    """(command, example, kind) for every command that needs a kind of
    example and every example whose payload is not of that kind."""
    payloads = {name: make_example("alpha-curve" if name == "alpha" else name).payload
                for name in cli.EXAMPLE_CHOICES}
    return [(command, name, row.kind) for command, row in cli._COMMANDS.items()
            if row.kind for name, payload in payloads.items()
            if not cli._KINDS[row.kind](payload)]


class TestExampleKinds:
    def test_every_kind_refuses_some_example(self):
        refused = {command for command, _, _ in wrong_kinds()}
        assert refused == {"schouten", "flow", "boundary", "embed-check", "gauss-degree"}

    @pytest.mark.parametrize("command, name, kind", wrong_kinds())
    def test_wrong_kind_is_one_error_line(self, capsys, command, name, kind):
        code, out, err = run(capsys, command, name)
        assert (code, out) == (1, "")
        assert err == f"error: {command} needs a {kind} example\n"


def reference_write_obj(path, verts, faces=(), polylines=()):
    # the original writer, one formatted numpy scalar at a time, kept as the
    # oracle for cli._obj
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
        obj = cli._obj

        def both(*args):
            reference_write_obj(tmp_path / "reference.obj", *args)
            return obj(*args)

        monkeypatch.setattr(cli, "_obj", both)
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
        assert err == f"error: azimuths = {samples} is not an integer in [3, {MAX_SAMPLES}]\n"

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


GOLDEN_DIR = Path(__file__).parent / "data"
IMMERSE_TIMES = {"geodesic-sphere": ("0", "3.2"), "round-degenerate": ("0", "3.2"),
                 "incomplete-band": ("0", "3.2"), "cylinder-delaunay": ("0", "3.2"),
                 "alpha": ("0", "1.7"), "alpha-product": ("0", "1.7")}
METRIC_NAMES = ("geodesic-sphere", "round-degenerate", "incomplete-band", "cylinder-delaunay")


def immerse_golden_argv():
    """The immerse runs that tests/data/immerse_outputs.txt pins, in its
    order: each example at each of its times as json and csv, to standard
    output and to a file, and as obj to a file; then each at t = 40, where
    a vertex rounds onto the unit sphere."""
    for name, times in IMMERSE_TIMES.items():
        for t in times:
            head = ["immerse", name, "--t", t, "--format"]
            for fmt in ("json", "csv"):
                yield head + [fmt]
                yield head + [fmt, "--out", f"out.{fmt}"]
            yield head + ["obj", "--out", "out.obj"]
    for name in IMMERSE_TIMES:
        yield ["immerse", name, "--t", "40"]


def cli_golden_argv():
    """The runs that tests/data/cli_outputs.txt pins, in its order: gallery
    list and show, with their usage errors and refusals; schouten, flow and
    boundary on each metric example, embed-check and gauss-degree on the
    curve and the mesh, each to standard output and to --out, at t = 40
    and t = 400 and with --samples 0; immerse at t = 400 and with --samples
    0; then every wrong-kind refusal.  verify and the other immerse runs
    have golden files of their own."""
    yield ["gallery", "list"]
    yield ["gallery", "list", "--out", "out.txt"]
    yield ["gallery", "list", "--rho0", "3", "--samples", "5"]
    yield ["gallery", "list", "alpha"]
    yield ["gallery", "show"]
    for name in cli.EXAMPLE_CHOICES:
        yield ["gallery", "show", name]
    for options in (["--out", "out.json"], ["--samples", "64"], ["--samples", "0"]):
        yield ["gallery", "show", "alpha"] + options
    yield ["gallery", "show", "geodesic-sphere", "--rho0", "0.3"]
    yield ["gallery", "show", "incomplete-band", "--rho0", "0.3"]
    runs = {
        "schouten": ([], ["--seed", "3", "--samples", "50"], ["--samples", "0"],
                     ["--out", "out.json"]),
        "flow": ([], ["--t", "2.5", "--h", "1e-3"], ["--t", "0"], ["--t", "40"],
                 ["--t", "400"], ["--samples", "0"], ["--out", "out.csv"]),
        "boundary": ([], ["--t", "15", "--samples", "16"], ["--t", "40"], ["--t", "400"],
                     ["--samples", "0"], ["--out", "out.json"]),
    }
    for command, option_sets in runs.items():
        for name in METRIC_NAMES:
            for options in option_sets:
                yield [command, name] + options
        yield [command, "geodesic-sphere", "--rho0", "0.3", "--samples", "8"]
    for name in ("alpha", "alpha-curve", "alpha-product"):
        yield ["embed-check", name]
    for name in ("alpha", "alpha-product"):
        for options in (["--samples", "512"], ["--samples", "8"], ["--samples", "0"],
                        ["--eps", "1e-3", "--t", "2"], ["--t", "40"], ["--t", "400"],
                        ["--out", "out.json"]):
            yield ["embed-check", name] + options
    for name in ("alpha", "alpha-curve"):
        yield ["gauss-degree", name]
    for samples in ("8192", "8", "0"):
        yield ["gauss-degree", "alpha", "--samples", samples]
    for name in cli.EXAMPLE_CHOICES:
        yield ["immerse", name, "--t", "400"]
    for name in ("geodesic-sphere", "alpha"):
        yield ["immerse", name, "--samples", "0"]
    for command, name, _ in wrong_kinds():
        yield [command, name]


def golden_lines(argvs):
    """One tab-separated line per argv, run in the current directory: the
    argv, the exit code, SHA-256 of standard output and of the --out file
    ("-" when none is written), and standard error with its trailing
    newline stripped.  A usage error keeps only its last stderr line, since
    argparse wraps the usage lines to the terminal's width."""
    def sha(data):
        return hashlib.sha256(data).hexdigest()

    lines = []
    for argv in argvs:
        path = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code, usage = main(argv), False
            except SystemExit as exc:
                code, usage = exc.code, True
        stderr = err.getvalue().rstrip("\n")
        if usage:
            stderr = stderr.rpartition("\n")[2]
        written = sha(path.read_bytes()) if path and path.exists() else "-"
        if path and path.exists():
            path.unlink()
        lines.append("\t".join([" ".join(argv), str(code), sha(out.getvalue().encode()),
                                written, stderr]))
    return lines


@pytest.mark.parametrize("argvs, golden", [
    (immerse_golden_argv, "immerse_outputs.txt"),
    (cli_golden_argv, "cli_outputs.txt"),
])
def test_outputs_match_the_golden_file(tmp_path, monkeypatch, argvs, golden):
    # a change that moves an output byte updates the file and says why
    monkeypatch.chdir(tmp_path)
    assert golden_lines(argvs()) == (GOLDEN_DIR / golden).read_text().splitlines()


class TestBallRounding:
    # at t = 40 ball points round onto the unit sphere; these argv used to
    # exit 0 with a failed vertices-inside-ball check, or count crossings
    # among the rounded points
    @pytest.mark.parametrize("argv", [
        ("immerse", "alpha", "--t", "40", "--format", "json"),
        ("immerse", "alpha", "--t", "40", "--format", "csv"),
        ("immerse", "geodesic-sphere", "--t", "40", "--samples", "4"),
        ("immerse", "incomplete-band", "--t", "40", "--samples", "4"),
        ("embed-check", "alpha", "--t", "40", "--samples", "256"),
        ("embed-check", "alpha-product", "--t", "40"),
    ])
    def test_refused_with_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: vertex ") and err.count("\n") == 1
        assert err.endswith(" rounds onto the unit sphere at flow time t = 40.0\n")

    @pytest.mark.parametrize("fmt", ["obj", "csv"])
    def test_no_file_written(self, tmp_path, capsys, fmt):
        path = tmp_path / f"far.{fmt}"
        code, _, _ = run(capsys, "immerse", "alpha", "--t", "40", "--format", fmt,
                         "--out", str(path))
        assert code == 1
        assert not path.exists()


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

    @pytest.mark.parametrize("argv, skipped", [
        (("flow", "geodesic-sphere", "--rho0", "-200"), 100),
        (("flow", "incomplete-band", "--samples", "0"), 0),
    ], ids=["every-sample-outside-window", "no-samples"])
    def test_flow_without_rows_fails(self, capsys, argv, skipped):
        # a header-only sweep is no sweep: exit 1 and one line with the count
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: no usable samples for the flow sweep: skipped {skipped}\n"

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

    @pytest.mark.parametrize("samples", ["7", "8"])
    def test_embed_check_coarse_profile_is_not_certified(self, capsys, samples):
        # the coarse polygon crosses itself between segments two apart
        code, out, err = run(capsys, "embed-check", "alpha", "--samples", samples)
        assert (code, out) == (1, "")
        assert err == "error: not embedded by t_max = 5.0 (7 crossings remain)\n"

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

    @pytest.mark.parametrize("h", ["0", "-1e-4", "nan", "inf", "1e308"])
    def test_flow_step_must_be_positive_and_finite(self, capsys, h):
        code, out, err = run(capsys, "flow", "incomplete-band", f"--h={h}")
        assert code == 1
        assert out == ""
        assert err == "error: finite-difference step must be positive with 2h finite\n"

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
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [("gallery", "list"), ("gallery", "show", "alpha-product")])
def test_closed_pipe_exits_quietly(argv, unbuffered):
    # standard output is a pipe whose reader has gone, as in `gallery list | head -1`
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    read, write = os.pipe()
    os.close(read)
    try:
        out = subprocess.run([sys.executable, "-m", "horocorr.cli", *argv], stdout=write,
                             stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert (out.returncode, out.stderr) == (1, "")
