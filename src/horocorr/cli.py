"""Command-line front end: gallery runs, curvature reports, flow sweeps,
embeddedness checks, and mesh/report export.

Each command is one row of _COMMANDS: handler, help, the kind of example it
needs (schouten, flow and boundary a metric) and its options with their
defaults.  main builds the named example once and refuses the wrong kind
with one line, "error: <command> needs a <kind> example".

Exit codes: 0 on success, 1 on a numerical or verification failure (with a
diagnostic on standard error), 2 on a usage error.  Every JSON report embeds
the resolved configuration so a run can be reproduced from its own output.
"""

import argparse
import collections
import contextlib
import csv
import functools
import io
import json
import math
import os
import sys

import numpy as np

from .analysis import (
    GALLERY_NAMES,
    PROFILE_PERIOD,
    Immersion,
    boundary_at_infinity,
    first_embedded_time,
    gauss_winding,
    grid_faces,
    make_example,
    self_intersections,
)
from .conformal import ConformalMetric, eigenvalue_realizability, rescale, schouten
from .correspondence import extrinsic_curvatures, immerse, lambda_kappa
from .errors import GeometryError, SamplingError
from .sphere import DEFAULT_FD_STEP, axis_values
from .verify import CRITERIA, run_all

EXAMPLE_CHOICES = GALLERY_NAMES + ("alpha",)


def _write(out, text):
    """Write text to the file out, or to standard output when out is None."""
    with open(out, "w", newline="") if out else contextlib.nullcontext(sys.stdout) as f:
        f.write(text)


def _report(args, results, *checks):
    """Write a command's JSON report, to --out or standard output: the
    resolved configuration, the results, and one entry per invariant check
    given as a (name, max_error, tolerance, passed) tuple."""
    _write(args.out, json.dumps({
        "config": dict(sorted(vars(args).items())),
        "results": results,
        "invariant_checks": [
            {"name": name, "max_error": max_error, "tolerance": tolerance, "pass": passed}
            for name, max_error, tolerance, passed in checks],
    }, indent=2, default=float) + "\n")


def _csv(header, rows):
    text = io.StringIO()
    csv.writer(text).writerows([header] + rows)
    return text.getvalue()


def _gallery_entry(args):
    name = "alpha-curve" if args.name == "alpha" else args.name   # short alias
    params = {}
    # make_example refuses rho0 off the sphere; only the curve reads --samples
    if getattr(args, "rho0", None) is not None:
        params["rho0"] = args.rho0
    if name == "alpha-curve" and getattr(args, "samples", None) is not None:
        params["m"] = args.samples
    return make_example(name, **params)


def _band_range(metric, fraction):
    """Arc range (lo, hi) covering the given fraction of the band chart's
    domain on either side of the equator, kept 1e-9 off the poles."""
    edge = min(np.nextafter(metric.chart.edge, 0.0), math.pi / 2 - 1e-9)
    return -fraction * edge, fraction * edge


def _metric_mesh(metric, n_az, t):
    """Immersion at flow time t of a two-dimensional metric example, triangulated
    on max(5, n_az // 2) latitude rows of n_az azimuths, three at least."""
    if n_az < 3:
        raise SamplingError(f"the mesh needs at least three azimuths, got {n_az}")
    n_lat = max(5, n_az // 2)
    azimuths = np.linspace(0.0, 2.0 * math.pi, n_az, endpoint=False)
    if metric.chart.kind == "band":
        rows = np.linspace(*_band_range(metric, 0.98), n_lat)
        grid = np.stack(np.meshgrid(rows, azimuths, indexing="ij"), axis=-1)
    else:
        colat = np.linspace(0.35, math.pi - 0.35, n_lat)
        radii = np.tan(0.5 * colat)
        circle = np.stack([np.cos(azimuths), np.sin(azimuths)], axis=-1)
        grid = radii[:, None, None] * circle
    p = immerse(metric, grid.reshape(-1, 2), t)
    index = np.arange(n_lat * n_az).reshape(n_lat, n_az)
    return Immersion(p.phi, p.eta, grid_faces(np.hstack([index, index[:, :1]])), t)


def _metric_samples(metric, n, rng):
    if metric.chart.kind != "band":
        return rng.uniform(-2.5, 2.5, size=(n, 2))
    s = rng.uniform(*_band_range(metric, 0.9), n)
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    return np.column_stack([s, theta])


def _obj(verts, faces, polylines):
    # one format string per block, filled from Python scalars; faces are triangles
    verts = np.asarray(verts)
    faces = np.asarray(faces, dtype=int).reshape(-1, 3) + 1
    text = ("v %.9f %.9f %.9f\n" * len(verts)) % tuple(verts.ravel().tolist())
    text += ("f %d %d %d\n" * len(faces)) % tuple(faces.ravel().tolist())
    for line in polylines:
        text += "l " + " ".join(str(i + 1) for i in line) + "\n"
    return text


def _is_curve(payload):
    return isinstance(payload, Immersion) and payload.cells.shape[-1] == 2


def cmd_gallery(args, entry):
    if args.action == "list":
        _write(args.out, "\n".join(GALLERY_NAMES) + "\n")
        return 0
    payload = entry.payload
    info = {"name": entry.name, "params": entry.params}
    if _is_curve(payload):   # the gallery's one curve is the profile curve
        info.update(payload="CurveImmersion", resolution=len(payload.phi),
                    period=PROFILE_PERIOD)
    elif isinstance(payload, Immersion):
        info.update(payload="MeshImmersion", vertices=len(payload.phi),
                    faces=len(payload.cells))
    else:
        info.update(payload=type(payload).__name__, chart=payload.chart.kind,
                    offset=payload.t)
    _report(args, info)
    return 0


def cmd_immerse(args, entry):
    payload = entry.payload
    # mesh files are the point of --out here, so default to obj for them
    fmt = args.format or ("obj" if args.out else "json")
    if isinstance(payload, ConformalMetric):
        mesh = _metric_mesh(payload, args.samples, args.t)
    else:
        mesh = payload.flowed(args.t) if args.t else payload
    verts, faces, polylines = mesh.ball_points(), mesh.cells, []
    if _is_curve(mesh):   # plane curve into the z = 0 slice
        verts = np.column_stack([verts, np.zeros(len(verts))])
        faces, polylines = [], [tuple(range(len(verts))) + (0,)]

    if fmt == "obj":
        if not args.out:
            raise GeometryError("obj export needs --out PATH")
        _write(args.out, _obj(verts, faces, polylines))
        print(f"wrote {args.out}: {len(verts)} vertices, {len(faces)} faces")
    elif fmt == "csv":
        _write(args.out, _csv(["x", "y", "z"], verts.tolist()))
    else:
        radii = np.linalg.norm(verts, axis=1)
        _report(args, {"vertices": len(verts), "faces": len(faces),
                       "ball_radius_min": float(radii.min()),
                       "ball_radius_max": float(radii.max())},
                ("vertices-inside-ball", float(radii.max()), 1.0,
                 bool(radii.max() < 1.0)))
    return 0


def cmd_schouten(args, entry):
    metric = entry.payload
    rng = np.random.default_rng(args.seed)
    pts = _metric_samples(metric, args.samples, rng)
    sch = schouten(metric, pts)
    report = eigenvalue_realizability(sch.eigenvalues)
    tensor = sch.tensor[:50]
    asym = float(np.max(np.abs(tensor - np.swapaxes(tensor, -1, -2))))
    _report(args, {
        "lambda_min": report.lambda_min,
        "lambda_max": report.lambda_max,
        "realizable": report.realizable,
        "suggested_t0": report.suggested_t0,
        "n_samples": report.n_samples,
        "flags": list(report.flags),
    }, ("schouten-symmetry", asym, 1e-10, asym <= 1e-10))
    return 0


def cmd_flow(args, entry):
    metric = entry.payload
    rng = np.random.default_rng(args.seed)
    pts = _metric_samples(metric, args.samples, rng)
    scaled = rescale(metric, args.t)
    n = metric.chart.n
    header = ([f"u{i+1}" for i in range(n)] + ["rho"]
              + [f"lambda{i+1}" for i in range(n)]
              + [f"kappa_ext{i+1}" for i in range(n)]
              + [f"kappa_pred{i+1}" for i in range(n)]
              + ["max_discrepancy"])
    # a sample is skipped when the +-h stencil of the extrinsic route leaves
    # the domain or the flowed spectrum reaches the lambda = 1/2 pole
    stencil = axis_values(metric.chart.contains, pts, args.h)
    pts = pts[np.all(stencil, axis=(0, 2))]
    lam = schouten(scaled, pts).eigenvalues
    window = lam[:, -1] < 0.5
    pts, lam = pts[window], lam[window]
    skipped = args.samples - len(pts)
    if not len(pts):
        raise SamplingError(f"no usable samples for the flow sweep: skipped {skipped}")
    pred = np.sort(lambda_kappa(lam), axis=-1)
    ext = np.sort(extrinsic_curvatures(metric, pts, t=args.t, h=args.h), axis=-1)
    rows = np.column_stack([pts, metric.rho.value(pts), lam, ext, pred,
                            np.max(np.abs(ext - pred), axis=-1)]).tolist()
    _write(args.out, _csv(header, rows))
    if skipped:
        print(f"skipped {skipped} samples outside the immersion window",
              file=sys.stderr)
    return 0


def cmd_embed_check(args, entry):
    payload = entry.payload
    report = first_embedded_time(payload, t_max=args.t, tol=args.eps)
    _report(args, {"t_embedded": report.t_embedded,
                   "crossings_before": report.crossings_before,
                   "crossings_now": len(self_intersections(payload))})
    return 0


def cmd_gauss_degree(args, entry):
    print(gauss_winding(entry.payload))
    return 0


def cmd_boundary(args, entry):
    clusters = boundary_at_infinity(entry.payload, t=args.t, n_directions=args.samples)
    defects = [abs(float(np.linalg.norm(c.direction)) - 1.0) for c in clusters]
    _report(args,
            {"clusters": [{"direction": list(map(float, c.direction)), "count": c.count}
                          for c in clusters]},
            ("directions-unit-length", max(defects, default=0.0), 1e-9,
             all(d <= 1e-9 for d in defects)))
    return 0


def cmd_verify(args, entry):
    results = run_all(only=set(args.only) if args.only else None)
    for result in results:
        print(result.line())
    if args.out:
        _report(args, [vars(r) for r in results],
                *[(r.name, r.max_error, r.tolerance, r.passed) for r in results])
    return 0 if all(r.passed for r in results) else 1


def non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


# every option a command may register, by name
_OPTIONS = {
    "samples": {"type": non_negative_int},
    "t": {"type": float},
    "h": {"type": float},
    "eps": {"type": float},
    "out": {},
    "format": {"choices": ("json", "csv", "obj")},
    "seed": {"type": non_negative_int},
    "rho0": {"type": float},
    "only": {"action": "append", "choices": [key for key, _ in CRITERIA]},
}

# whether a payload is of each example kind a command may need
_KINDS = {"metric": lambda payload: isinstance(payload, ConformalMetric),
          "curve or mesh": lambda payload: isinstance(payload, Immersion),
          "curve": _is_curve}

# handler(args, entry) -> exit code; kind is a key of _KINDS, or None for a
# command that takes any example or none; options maps each name to its default
Command = collections.namedtuple("Command", "handler help kind options")

_COMMANDS = {
    "gallery": Command(cmd_gallery, "list or inspect the examples", None,
                       {"samples": None, "rho0": None, "out": None}),
    "schouten": Command(cmd_schouten, "eigenvalue sweep of an example metric", "metric",
                        {"samples": 200, "seed": 7, "rho0": None, "out": None}),
    "immerse": Command(cmd_immerse, "export an immersed example", None,
                       {"samples": 32, "t": 0.0, "rho0": None, "out": None,
                        "format": None}),
    "flow": Command(cmd_flow, "curvature sweep at a flow time (csv)", "metric",
                    {"samples": 100, "t": 1.0, "h": DEFAULT_FD_STEP, "seed": 7,
                     "rho0": None, "out": None}),
    "embed-check": Command(cmd_embed_check, "self-intersections under the flow",
                           "curve or mesh",
                           {"samples": 2048, "t": 5.0, "eps": 1e-2, "out": None}),
    "gauss-degree": Command(cmd_gauss_degree, "winding count of a curve example",
                            "curve", {"samples": 4096}),
    "boundary": Command(cmd_boundary, "escape directions of a metric example", "metric",
                        {"samples": 64, "t": 1.0, "rho0": None, "out": None}),
    "verify": Command(cmd_verify, "run the acceptance battery", None,
                      {"only": None, "out": None}),
}


@functools.cache     # one parser per process: parse_args leaves it unchanged
def build_parser():
    parser = argparse.ArgumentParser(
        prog="horocorr",
        description="hypersurface immersions from conformal metrics: "
                    "reports, sweeps, and mesh export")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, row in _COMMANDS.items():
        p = commands.add_parser(command, help=row.help)
        if command == "gallery":
            p.add_argument("action", choices=("list", "show"))
            p.add_argument("name", nargs="?", choices=EXAMPLE_CHOICES)
        elif command != "verify":
            p.add_argument("name", choices=EXAMPLE_CHOICES)
        for name, default in row.options.items():
            p.add_argument(f"--{name}", default=default, **_OPTIONS[name])
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gallery" and args.action == "show" and args.name is None:
        parser.error("gallery show needs an example name")
    if args.command == "gallery" and args.action == "list" and (
            args.name, args.rho0, args.samples) != (None, None, None):
        parser.error("gallery list takes no example name, --rho0 or --samples")
    row = _COMMANDS[args.command]
    try:
        entry = None   # gallery list and verify build no example
        if getattr(args, "name", None):
            entry = _gallery_entry(args)
            if row.kind and not _KINDS[row.kind](entry.payload):
                raise GeometryError(f"{args.command} needs a {row.kind} example")
        code = row.handler(args, entry)
        sys.stdout.flush()   # so that a closed pipe shows here, not at exit
        return code
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader went away: send what is left to devnull and exit 1,
        # the recipe of the signal module's documentation
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
