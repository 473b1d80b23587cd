"""The benchmark's workloads: user-level calls into horocorr and the checks
on their outputs.

Every op goes through a program entry point, a ``horocorr.verify.check_*``
function or ``horocorr.cli.main(argv)``, or, on ``calculus``, one public
dictionary call on a whole seeded array.  The per-point loops therefore stay
inside the measured program: batching them shows up in ``pass_s`` without
an edit here.  Each op returns an ``Outcome``; an op whose output check
fails, or that raises, counts as failed.
"""

import contextlib
import csv
import io
import json
import math
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

COUNT_TOL = 0.5    # an exact count is right when off by less than one half

# Checks that also have to beat a wall-clock limit inside their verdict.
VERIFY_LIMITS_S = {
    "gauss-degree": 5.0,
    "curvature-cross-oracle": 60.0,
    "unfolding": 120.0,
}

WORKLOADS = ("pointwise", "boundary", "crossings", "calculus")

VERIFY_CHECKS = (
    "gauss-degree", "curvature-cross-oracle", "minkowski-constraints",
    "pullback-identity", "ricatti-consistency", "boundary-expansion",
    "band-reproductions", "unfolding", "weingarten-calculus",
    "degenerate-collapse", "boundary-at-infinity",
)
CLI_COMMANDS = ("flow", "schouten", "immerse", "boundary", "embed-check",
                "gauss-degree")

METRIC_EXAMPLES = ("geodesic-sphere", "incomplete-band", "cylinder-delaunay")
FLOW_SAMPLES = 100
SCHOUTEN_SAMPLES = 200
BOUNDARY_DIRECTIONS = 16


@dataclass
class Outcome:
    """Verdict of one op.  ``errors`` holds (error, tolerance) pairs, from
    which the run's accuracy in digits is taken."""

    ok: bool
    errors: list = field(default_factory=list)
    why: str = ""
    max_error: Optional[float] = None
    runtime: Optional[float] = None


@dataclass(frozen=True)
class Op:
    name: str     # unique within a workload
    layer: str    # per-layer key: verify.<check> or cli.<command>, else ""
    run: Callable[[], Outcome]


def derive_seed(seed, label):
    """Seed of one seeded call, derived from the workload seed."""
    state = np.random.SeedSequence([seed, zlib.crc32(label.encode())])
    return int(state.generate_state(1)[0])


def accuracy_digits(error, tolerance):
    """log10(tolerance / error), capped at 16 when the error is 0."""
    if error == 0.0:
        return 16.0
    if not math.isfinite(error) or tolerance <= 0.0:
        return -16.0
    return min(16.0, math.log10(tolerance / error))


# -- verify --------------------------------------------------------------------

def _verify_op(name, extra=None, **kwargs):
    from horocorr import verify

    fn = dict(verify.CRITERIA)[name]

    def run():
        result = fn(**kwargs)
        outcome = Outcome(bool(result.passed), [], result.details,
                          float(result.max_error), float(result.runtime))
        if result.tolerance > 0.0:
            outcome.errors.append((float(result.max_error),
                                   float(result.tolerance)))
        if extra is not None:
            extra(result, outcome)
        return outcome

    return Op(f"verify.{name}", f"verify.{name}", run)


def _count_error(outcome, found, expected, label):
    """Record a count comparison; a missing count is an error."""
    if found is None:
        outcome.ok = False
        outcome.errors.append((math.inf, COUNT_TOL))
        outcome.why += f" | {label}: not found"
        return
    error = abs(found - expected)
    outcome.errors.append((float(error), COUNT_TOL))
    if error:
        outcome.ok = False
        outcome.why += f" | {label}: {found}, expected {expected}"


def _find_int(pattern, text):
    match = re.search(pattern, text)
    return int(match.group(1)) if match else None


def _gauss_degree_counts(result, outcome):
    outcome.errors.append((float(result.max_error), COUNT_TOL))


def _unfolding_diagnosis(result, outcome):
    # fails by design: correct means the winding-3 diagnosis is reproduced
    outcome.ok = result.runtime < VERIFY_LIMITS_S["unfolding"]
    text = result.details
    _count_error(outcome, _find_int(r"crossings (\d+) at t=0", text), 8,
                 "crossings at t=0, m=8192")
    _count_error(outcome, _find_int(r"(\d+) at t=5 \(m=8192\)", text), 250,
                 "crossings at t=5, m=8192")
    _count_error(outcome, _find_int(r"\((\d+) crossings remain\)", text), 106,
                 "crossings remaining at m=1024")
    _count_error(outcome, _find_int(r"winding stays \[(\d+)\]", text), 3,
                 "winding")


def _boundary_clusters(result, outcome):
    text = result.details
    for label, pattern, expected in (
            ("band clusters", r"band: (\d+) clusters", 128),
            ("cylinder clusters", r"cylinder: (\d+) clusters", 2),
            ("compact clusters", r"compact example: (\d+) clusters", 0)):
        _count_error(outcome, _find_int(pattern, text), expected, label)


# -- cli -----------------------------------------------------------------------

def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    from horocorr import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_op(name, argv, check, output=None):
    """Op calling the CLI; ``output``, the file the call writes, is removed
    first so that a stale file from an earlier pass cannot pass the check."""
    command = argv[0]

    def run():
        if output is not None:
            output.unlink(missing_ok=True)
        code, out, err = run_cli(argv)
        return check(code, out, err)

    return Op(name, f"cli.{command}", run)


def _fail(why):
    return Outcome(False, [], why)


def _check_flow(code, out, err):
    if code != 0:
        return _fail(f"exit {code}: {err.strip()}")
    rows = list(csv.reader(io.StringIO(out)))[1:]
    skipped = _find_int(r"skipped (\d+) samples", err) or 0
    if not rows or len(rows) + skipped != FLOW_SAMPLES:
        return _fail(f"{len(rows)} rows + {skipped} skipped != {FLOW_SAMPLES}")
    worst = max(float(row[-1]) for row in rows)
    return Outcome(worst <= 1e-3, [(worst, 1e-3)],
                   f"{len(rows)} rows, {skipped} skipped, "
                   f"max_discrepancy {worst:.1e}")


def _check_report(code, out, err):
    """JSON report whose invariant checks all pass."""
    if code != 0:
        return None, _fail(f"exit {code}: {err.strip()}")
    report = json.loads(out)
    checks = report["invariant_checks"]
    outcome = Outcome(all(c["pass"] for c in checks),
                      [(float(c["max_error"]), float(c["tolerance"]))
                       for c in checks if c["tolerance"] > 0])
    return report["results"], outcome


def _check_schouten(code, out, err):
    results, outcome = _check_report(code, out, err)
    if results is not None:
        _count_error(outcome, results["n_samples"], SCHOUTEN_SAMPLES,
                     "usable samples")
        lo, hi = results["lambda_min"], results["lambda_max"]
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            outcome.ok = False
            outcome.why += f" | eigenvalue range [{lo}, {hi}]"
    return outcome


def _check_boundary(expected):
    def check(code, out, err):
        results, outcome = _check_report(code, out, err)
        if results is not None:
            _count_error(outcome, len(results["clusters"]), expected,
                         "clusters")
        return outcome

    return check


def _check_obj(path, n_verts, n_faces):
    """Mesh export: vertex and face counts, indices in range, every vertex
    strictly inside the Poincare ball."""

    def check(code, out, err):
        if code != 0:
            return _fail(f"exit {code}: {err.strip()}")
        verts, cells = [], []
        with open(path) as f:
            for line in f:
                kind, *rest = line.split()
                if kind == "v":
                    verts.append([float(x) for x in rest])
                elif kind in ("f", "l"):
                    cells.append([int(x) for x in rest])
        outcome = Outcome(True, [], out.strip())
        _count_error(outcome, len(verts), n_verts, "vertices")
        _count_error(outcome, len(cells), n_faces, "faces")
        radius = float(np.max(np.linalg.norm(verts, axis=1))) if verts else 1.0
        index_ok = all(1 <= i <= len(verts) for cell in cells for i in cell)
        if radius >= 1.0 or not index_ok:
            outcome.ok = False
            outcome.why += f" | max radius {radius}, indices ok {index_ok}"
        return outcome

    return check


def _check_not_embedded(remaining):
    def check(code, out, err):
        outcome = Outcome(code == 1, [], err.strip())
        _count_error(outcome, _find_int(r"\((\d+) crossings remain\)", err),
                     remaining, "crossings remaining")
        return outcome

    return check


def _check_winding(code, out, err):
    if code != 0:
        return _fail(f"exit {code}: {err.strip()}")
    outcome = Outcome(True, [], out.strip())
    value = out.strip()
    _count_error(outcome, int(value) if value.lstrip("-").isdigit() else None,
                 3, "winding")
    return outcome


# -- calculus ------------------------------------------------------------------

ROUND_TRIP_TOL = 1e-12


def _round_trip_op(name, values, forward, backward):
    def run():
        back = backward(forward(values))
        error = float(np.max(np.abs(back - values)))
        return Outcome(error <= ROUND_TRIP_TOL, [(error, ROUND_TRIP_TOL)],
                       f"round trip {error:.1e} on {len(values)} points")

    return Op(name, "", run)


def _calculus_ops(seed):
    # looked up at call time, so that installed spans see these calls
    from horocorr import correspondence, weingarten

    rng = np.random.default_rng(derive_seed(seed, "calculus-arrays"))
    m, n = 50_000, 3
    lam = rng.uniform(-3.0, 0.45, size=(m, n))          # Schouten side, < 1/2
    kappa_can = rng.uniform(-10.0, 0.9, size=(m, n))    # canonical, < 1
    kappa_opp = rng.uniform(-0.9, 10.0, size=(m, n))    # opposite, > -1
    cone_k = rng.uniform(-0.9, 10.0, size=(m, n))       # cone K, > -1
    cone_c = rng.uniform(-3.0, 0.45, size=(m, n))       # cone C, < 1/2
    flow_kappa = rng.uniform(-5.0, 0.9, size=(m, n))
    flow_t = float(rng.uniform(0.2, 1.0))

    def lk(orientation, direction):
        return lambda v: correspondence.lambda_kappa(v, orientation, direction)

    def tm(direction):
        return lambda v: weingarten.t_map(v, direction)

    l2k, k2l = "lambda_to_kappa", "kappa_to_lambda"
    return [
        _round_trip_op("lambda_kappa.canonical.lambda", lam,
                       lk("canonical", l2k), lk("canonical", k2l)),
        _round_trip_op("lambda_kappa.canonical.kappa", kappa_can,
                       lk("canonical", k2l), lk("canonical", l2k)),
        _round_trip_op("lambda_kappa.opposite.lambda", lam,
                       lk("opposite", l2k), lk("opposite", k2l)),
        _round_trip_op("lambda_kappa.opposite.kappa", kappa_opp,
                       lk("opposite", k2l), lk("opposite", l2k)),
        _round_trip_op("t_map.k", cone_k, tm("k_to_c"), tm("c_to_k")),
        _round_trip_op("t_map.c", cone_c, tm("c_to_k"), tm("k_to_c")),
        _round_trip_op("ricatti.flow_back", flow_kappa,
                       lambda k: correspondence.ricatti(k, flow_t),
                       lambda k: correspondence.ricatti(k, -flow_t)),
    ]


# -- workloads -------------------------------------------------------------------

def build(workload, seed, out_dir):
    """Ops of one workload pass; inputs depend only on ``seed``."""
    out_dir = Path(out_dir)
    rng = np.random.default_rng(derive_seed(seed, workload))
    if workload == "pointwise":
        ops = [_verify_op(name, seed=derive_seed(seed, name))
               for name in ("curvature-cross-oracle", "minkowski-constraints",
                            "pullback-identity", "ricatti-consistency",
                            "boundary-expansion", "band-reproductions",
                            "degenerate-collapse")]
        for example in METRIC_EXAMPLES:
            cli_seed = str(derive_seed(seed, f"cli-{example}"))
            ops.append(_cli_op(
                f"cli.flow.{example}",
                ["flow", example, "--seed", cli_seed,
                 "--samples", str(FLOW_SAMPLES)], _check_flow))
            ops.append(_cli_op(
                f"cli.schouten.{example}",
                ["schouten", example, "--seed", cli_seed,
                 "--samples", str(SCHOUTEN_SAMPLES)], _check_schouten))
        for example in ("geodesic-sphere", "incomplete-band"):
            path = out_dir / f"{example}.obj"
            ops.append(_cli_op(
                f"cli.immerse.{example}",
                ["immerse", example, "--samples", "32", "--out", str(path)],
                _check_obj(path, 512, 960), output=path))
        return ops
    if workload == "boundary":
        ops = [_verify_op("boundary-at-infinity", extra=_boundary_clusters)]
        t = f"{rng.uniform(0.8, 1.3):.6f}"
        for example, clusters in zip(
                METRIC_EXAMPLES, (0, 2 * BOUNDARY_DIRECTIONS, 2)):
            ops.append(_cli_op(
                f"cli.boundary.{example}",
                ["boundary", example, "--t", t,
                 "--samples", str(BOUNDARY_DIRECTIONS)],
                _check_boundary(clusters)))
        return ops
    if workload == "crossings":
        path = out_dir / "alpha-product.obj"
        t = f"{rng.uniform(1.5, 2.5):.6f}"
        return [
            _verify_op("gauss-degree", extra=_gauss_degree_counts),
            _verify_op("unfolding", extra=_unfolding_diagnosis),
            _cli_op("cli.embed-check.alpha-product",
                    ["embed-check", "alpha-product"], _check_not_embedded(1396)),
            _cli_op("cli.embed-check.alpha",
                    ["embed-check", "alpha", "--samples", "1024"],
                    _check_not_embedded(106)),
            _cli_op("cli.gauss-degree.alpha",
                    ["gauss-degree", "alpha", "--samples", "8192"],
                    _check_winding),
            _cli_op("cli.immerse.alpha-product",
                    ["immerse", "alpha-product", "--t", t, "--out", str(path)],
                    _check_obj(path, 864, 1536), output=path),
        ]
    if workload == "calculus":
        return ([_verify_op("weingarten-calculus",
                            seed=derive_seed(seed, "weingarten-calculus"))]
                + _calculus_ops(seed))
    raise ValueError(f"unknown workload {workload!r}; "
                     f"choose one of {', '.join(WORKLOADS)}")
