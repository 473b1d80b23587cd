"""Numbered acceptance checks over the whole package.

Each check exercises one contract end to end (immersion formulas, curvature
cross-oracles, flow laws, boundary behavior, eigenvalue calculus) and returns
its verdict, the worst observed error, the tolerance it was held to, and a
human-readable detail line.  @criterion registers it in CRITERIA, in battery
order, under its name and an optional wall-clock limit; the registered
callable times the whole check, fails it when the runtime reaches the limit,
and returns a CheckResult.  run_all() executes the full battery in order;
the suite is deterministic (fixed seeds).

One check, unfolding, judges a negative result: the winding count of the
gallery profile curve obstructs embedding at every flow time, so the check
passes when the measured crossing counts, the winding and the refused
bisection reproduce that obstruction, and fails if the curve ever clears.
"""

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .analysis import (
    boundary_at_infinity,
    circle_curve,
    first_embedded_time,
    gauss_winding,
    make_example,
    profile_curve,
    self_intersections,
)
from .conformal import (
    ConformalMetric,
    generalized_eigvalsh,
    path_length,
    realizability_report,
    rescale,
    schouten,
)
from .correspondence import (
    extrinsic_curvatures,
    fg_metric,
    flow_metric_factor,
    immerse,
    lambda_kappa,
    ricatti,
)
from .errors import ImmersionError, RootBracketError
from .minkowski import _last_axis_sum, mink_inner
from .sphere import StereographicChart, central_gradient, central_jet, constant_field
from .weingarten import (
    HYPERSURFACE_SIDE,
    METRIC_SIDE,
    conjugate,
    elementary_symmetric,
    flow_conjugate,
    hessian_transform,
    hr_inequality,
    t_map,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_error: float
    tolerance: float
    details: str
    runtime: float

    def line(self):
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{verdict} {self.name}: max_error={self.max_error:.3e} "
                f"tol={self.tolerance:.1e} [{1e3 * self.runtime:.1f} ms] {self.details}")


CRITERIA = ()   # (name, check) pairs in battery order, filled at import


def criterion(name, limit=math.inf):
    """Register a check, which returns (passed, max_error, tolerance, details),
    under name; the registered callable takes the check's keywords, times the
    whole check and fails it when the runtime in seconds reaches limit."""

    def register(check):
        global CRITERIA

        @functools.wraps(check)
        def timed(**kwargs):
            start = time.perf_counter()
            passed, max_error, tolerance, details = check(**kwargs)
            runtime = time.perf_counter() - start
            return CheckResult(name, bool(passed and runtime < limit), max_error,
                               tolerance, details, runtime)

        CRITERIA += ((name, timed),)
        return timed

    return register


def _sample_plans(rng, n_each):
    """The three gallery metrics used by the immersion checks.

    Each entry carries a base flow time: the incomplete band needs t = 1
    before its largest Schouten eigenvalue clears the immersion bound.
    """
    sphere = make_example("geodesic-sphere").payload
    sphere_pts = rng.uniform(-2.0, 2.0, size=(n_each, 2))

    band = make_example("incomplete-band").payload
    band_pts = np.column_stack([
        rng.uniform(0.0, 0.8, size=n_each),
        rng.uniform(0.0, 2.0 * math.pi, size=n_each)])

    cyl = make_example("cylinder-delaunay", t=1.0).payload
    cyl_pts = np.column_stack([
        rng.uniform(-1.2, 1.2, size=n_each),
        rng.uniform(0.0, 2.0 * math.pi, size=n_each)])

    return [
        ("geodesic-sphere", sphere, sphere_pts, 0.0),
        ("incomplete-band", band, band_pts, 1.0),
        ("cylinder-delaunay", cyl, cyl_pts, 0.0),
    ]


@criterion("gauss-degree", limit=5.0)
def _gauss_degree():
    """Direction-map winding of the profile curve: exactly 3, grid-stable."""
    w_coarse = gauss_winding(profile_curve(4096))
    w_fine = gauss_winding(profile_curve(8192))
    return (w_coarse == 3 and w_fine == 3,
            float(abs(w_coarse - 3) + abs(w_fine - 3)), 0.0,
            f"winding {w_coarse} at 4096 samples, {w_fine} at 8192")


@criterion("curvature-cross-oracle", limit=60.0)
def _curvature_cross_oracle(seed=20):
    """Extrinsic principal curvatures vs the Schouten-eigenvalue route."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    notes = []
    for name, metric, pts, t0 in _sample_plans(rng, 500):
        kappas = extrinsic_curvatures(metric, pts, t=t0, h=1e-4)
        lam = schouten(rescale(metric, t0), pts).eigenvalues
        pred = np.sort(lambda_kappa(lam), axis=-1)
        leg = float(np.max(np.abs(np.sort(kappas, axis=-1) - pred)))
        if name == "geodesic-sphere":
            # independent oracle: constant support gives kappa = -3
            leg = max(leg, float(np.max(np.abs(kappas + 3.0))))
        notes.append(f"{name} {leg:.1e}")
        worst = max(worst, leg)
    return worst <= 1e-3, worst, 1e-3, "; ".join(notes)


@criterion("minkowski-constraints")
def _minkowski_constraints(seed=21):
    """Quadric membership of phi, eta and the null map at immersed samples."""
    rng = np.random.default_rng(seed)

    def frame_errors(metric, pts, t0):
        p = immerse(metric, pts, t0)
        return float(np.max(np.abs([
            mink_inner(p.phi, p.phi) + 1.0,
            mink_inner(p.eta, p.eta) - 1.0,
            mink_inner(p.phi, p.eta),
            mink_inner(p.psi, p.psi)])))

    plans = _sample_plans(rng, 200)
    analytic = max(frame_errors(m, p, t0) for _, m, p, t0 in plans)
    band = plans[1][1]
    fd_metric = ConformalMetric(band.chart, band.rho.without_jets(), band.t)
    fd = frame_errors(fd_metric, plans[1][2], 1.0)
    return (analytic <= 1e-8 and fd <= 1e-5, max(analytic, fd), 1e-5,
            f"analytic jets {analytic:.1e} (tol 1e-8); fd jets {fd:.1e} (tol 1e-5)")


@criterion("pullback-identity")
def _pullback_identity(seed=22):
    """Induced metric of the null map equals the rescaled round metric."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _, metric, pts, t0 in _sample_plans(rng, 200):
        dpsi = central_gradient(lambda v: immerse(metric, v, t0).psi, pts, 1e-4)
        induced = mink_inner(dpsi[:, :, None, :], dpsi[:, None, :, :])
        target = rescale(metric, t0).ghat(pts)[:, None, :] * np.eye(2)
        rel = (np.max(np.abs(induced - target), axis=(1, 2))
               / np.max(np.abs(target), axis=(1, 2)))
        worst = max(worst, float(np.max(rel)))
    return worst <= 1e-5, worst, 1e-5, "relative error over 600 samples"


@criterion("ricatti-consistency")
def _ricatti_consistency(seed=23):
    """Flowed extrinsic curvatures vs the fraction-linear evolution law,
    plus the horosphere-convergence envelope on a fixed grid."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    times = np.array([0.0, 0.5, 1.0, 2.0])
    for _, metric, pts, t0 in _sample_plans(rng, 60):
        # one curvature call per metric: the points tiled over t0 + times
        tiled = np.tile(pts, (len(times), 1, 1))
        flowed = np.sort(extrinsic_curvatures(metric, tiled, t=t0 + times[:, None]), axis=-1)
        pred = np.sort(ricatti(flowed[0], times[1:, None, None]), axis=-1)
        worst = max(worst, float(np.max(np.abs(flowed[1:] - pred))))

    # envelope |kappa_t + 1| <= 2(1+|kappa|)e^{-2t}/(1 - max(kappa_top, 0)), t by kappa
    kappas = np.linspace(-10.0, 0.9, 56)
    ts = np.linspace(0.0, 10.0, 41)[:, None]
    bound = 2.0 * (1.0 + np.abs(kappas)) * np.exp(-2.0 * ts) / (1.0 - kappas.max())
    violation = float(np.max(np.abs(ricatti(kappas, ts) + 1.0) - bound))
    details = (f"flow-law error {worst:.1e}; envelope margin "
               f"{-violation:.1e} (never violated)" if violation <= 0 else
               f"flow-law error {worst:.1e}; envelope violated by {violation:.1e}")
    return worst <= 1e-3 and violation <= 1e-12, worst, 1e-3, details


@criterion("boundary-expansion")
def _boundary_expansion(seed=24):
    """Closed-form boundary expansion for the round metric, and its
    equivalence with the normal-flow metric factor under r = 2e^{-t}: one
    fg_metric call over every r per point set, ghat read off schouten's report."""
    rng = np.random.default_rng(seed)
    round_metric = ConformalMetric(StereographicChart(), constant_field(0.0))
    pts = rng.uniform(-3.0, 3.0, size=(20, 2))
    ghat = round_metric.chart.metric(pts)[:, None, :] * np.eye(2)
    r = np.linspace(0.0, 1.9, 20)[:, None]
    target = (1.0 - r[..., None, None]**2 / 4.0) ** 2 * ghat
    err = np.max(np.abs(fg_metric(round_metric, pts, r) - target), axis=(-2, -1))
    worst_round = float(np.max(err / np.max(np.abs(target), axis=(-2, -1))))

    # on any metric: eigenvalues of g_r relative to ghat at r = 2e^{-t}
    # equal (1 - 2 lam)^2 e^{-2t} (cosh t - kappa sinh t)^2
    sphere = make_example("geodesic-sphere").payload
    pts = rng.uniform(-2.0, 2.0, size=(50, 2))
    rep = schouten(sphere, pts)
    ghat, lam = rep.ghat[:, None, :] * np.eye(2), rep.eigenvalues
    kap = lambda_kappa(lam)
    ts = np.array([0.3, 0.7, 1.2, 2.0])[:, None]
    actual = generalized_eigvalsh(fg_metric(sphere, pts, 2.0 * np.exp(-ts)), ghat)
    pred = np.sort((1.0 - 2.0 * lam) ** 2 * np.exp(-2.0 * ts[..., None])
                   * flow_metric_factor(kap, ts[..., None]), axis=-1)
    worst_flow = float(np.max(np.abs(actual - pred)))
    return (worst_round <= 1e-10 and worst_flow <= 1e-6,
            max(worst_round, worst_flow), 1e-6,
            f"round closed form {worst_round:.1e}; flow-factor match {worst_flow:.1e}")


@criterion("band-reproductions")
def _band_reproductions(seed=25):
    """Quantitative facts about the incomplete-band metric."""
    rng = np.random.default_rng(seed)
    band = make_example("incomplete-band").payload

    length = path_length(band, lambda tau: np.stack([tau, np.full_like(tau, 0.3)], -1))
    err_len = abs(length - math.pi / 2.0)

    u_half = np.array([0.5, 1.1])
    err_jets = max(abs(band.rho.gradient(u_half)[0] - 2.0 / 3.0),
                   abs(band.rho.hessian(u_half)[0, 0] - 20.0 / 9.0))
    _, fd_s, fd_ss = central_jet(
        lambda ds: band.rho.value(u_half + ds * [1.0, 0.0]), [0.0], 1e-4)
    err_fd = max(abs(fd_s[0] - 2.0 / 3.0), abs(fd_ss[0, 0] - 20.0 / 9.0))

    # all arcs are drawn before all angles; the draw order fixes the samples
    s = rng.uniform(0.0, 0.95, size=100)
    u = np.column_stack([s, rng.uniform(0.0, 2.0 * math.pi, size=100)])
    correction = schouten(band, u).tensor[:, 0, 0] - 0.5 * band.chart.metric(u)[:, 0]
    expected = -(1.0 + 0.5 * s * s) / (1.0 - s * s) ** 2
    worst_radial = float(np.max(np.abs(correction - expected)))

    probe_s = np.concatenate([np.linspace(-0.9, 0.9, 19),
                              [1 - 1e-7, -(1 - 1e-7), 1 - 1e-8]])
    probes = np.column_stack([probe_s, np.full_like(probe_s, 0.4)])
    report = realizability_report(band, probes)
    flagged = any("not bounded below" in f for f in report.flags)

    passed = (err_len <= 1e-4 and err_jets <= 1e-6 and err_fd <= 1e-4
              and worst_radial <= 1e-5 and flagged)
    details = (f"meridian {length:.6f}; jets {err_jets:.1e}/{err_fd:.1e} "
               f"(analytic/fd); radial entry {worst_radial:.1e}; "
               f"flags={list(report.flags)}")
    return passed, max(err_len, err_jets, err_fd, worst_radial), 1e-4, details


@criterion("unfolding", limit=120.0)
def _unfolding():
    """Whether flowing the profile curve outward reproduces its obstruction.

    The curve's direction map winds three times around the circle and the
    winding number is invariant under the normal flow, while any embedded
    closed curve winds exactly once.  The crossings therefore never clear.
    The check passes when the measurements say so: one winding other than 1
    along the flow, crossings at t = 0, at t = 5 and at every grid time, and
    a bisection that refuses a certificate.  A winding-1 circle runs the
    same code as a control and must wind once and be embedded at t = 0.
    The reported max_error is the number of these clauses that fail; the
    registry applies the time limit.
    """
    curve = profile_curve(8192)
    c0 = len(self_intersections(curve))
    c_top = len(self_intersections(curve.flowed(5.0)))

    coarse = profile_curve(1024)
    certificate = None
    message = ""
    try:
        certificate = first_embedded_time(coarse, t_max=5.0)
    except RootBracketError as exc:
        message = str(exc)

    grid_counts = [len(self_intersections(coarse.flowed(t)))
                   for t in np.linspace(0.0, 5.0, 20)]
    flow_times = (0.0, 2.5, 5.0)
    windings = sorted({gauss_winding(coarse.flowed(t)) for t in flow_times})

    circle = circle_curve(0.7, 256)
    control_windings = sorted({gauss_winding(circle.flowed(t))
                               for t in flow_times})
    control = first_embedded_time(circle, t_max=5.0)
    control_ok = control_windings == [1] and control.t_embedded == 0.0

    obstructed = len(windings) == 1 and windings[0] != 1
    clauses = (obstructed, c0 >= 1, c_top >= 1, min(grid_counts) >= 1,
               certificate is None, control_ok)
    failed = sum(not clause for clause in clauses)
    details = (f"crossings {c0} at t=0, {c_top} at t=5 (m=8192); "
               f"count trend {grid_counts[0]}->{grid_counts[-1]} at m=1024 "
               f"(fewest {min(grid_counts)} on {len(grid_counts)} times); "
               f"winding stays {windings} under the flow, embedded closed "
               f"curves wind 1, so clearance is impossible; "
               f"bisection said: {message or 'found ' + repr(certificate)}; "
               f"control circle winds {control_windings}, embedded at "
               f"t={control.t_embedded}")
    return failed == 0, float(failed), 0.0, details


_BLOCK_ROWS = 8192   # rows per streamed draw; a 4-column block is 256 KiB


def _uniform_blocks(rng, low, high, shape):
    """rng.uniform(low, high, size=shape) as consecutive blocks of at most
    _BLOCK_ROWS rows.  uniform fills row-major one double at a time, so the
    blocks concatenate to the one-shot array bit for bit and leave rng in
    the same state."""
    rows, cols = shape
    for start in range(0, rows, _BLOCK_ROWS):
        yield rng.uniform(low, high, size=(min(_BLOCK_ROWS, rows - start), cols))


def _order_gap(rng):
    """Largest lhs - rhs of hr_inequality over 1e5 draws in (-1, 10)^4."""
    worst = -math.inf
    for a in _uniform_blocks(rng, -1.0 + 1e-6, 10.0, (100_000, 4)):
        lhs, rhs = hr_inequality(a)
        worst = max(worst, float(np.max(lhs - rhs)))
    return worst


def _trace_margin(rng):
    """Least trace of T^{-1}(lam) minus 4 over the first 1e5 of 3e5 draws
    lam in [-0.5, 0.49)^4 with trace >= 0, and how many rows were kept.
    Blocks past the quota are still drawn, so rng ends where the one-shot
    draw leaves it."""
    low, kept = math.inf, 0
    for lam in _uniform_blocks(rng, -0.5, 0.49, (300_000, 4)):
        lam = lam[np.flatnonzero(_last_axis_sum(lam) >= 0.0)[:100_000 - kept]]
        if len(lam):
            low = min(low, float(np.min(_last_axis_sum(t_map(lam, "c_to_k")))))
            kept += len(lam)
    return low - 4.0, kept


@criterion("weingarten-calculus")
def _weingarten_calculus(seed=26):
    """Eigenvalue-cone calculus: order inequality, cone identity, the
    nonnegative-trace implication, Hessian transform, flow semigroup, and
    the finite-difference arbitration of the flow-derivative factor."""
    rng = np.random.default_rng(seed)
    notes = []

    worst_hr = _order_gap(rng)
    notes.append(f"order inequality margin {-worst_hr:.2e} on 1e5 draws")

    x = rng.uniform(-0.999, 4.0, size=(1000, 3))
    d = rng.uniform(1e-6, 3.0, size=(1000, 3))
    forward = t_map(x + d) - t_map(x)
    cone_ok = bool(np.all(forward > 0.0) and np.all(t_map(x + d) < 0.5))
    room = 0.5 - t_map(x)
    y = t_map(x) + rng.uniform(0.1, 0.9, size=x.shape) * room
    back_ok = bool(np.all(t_map(y, "c_to_k") - x > 0.0))
    notes.append(f"cone identity {'holds' if cone_ok and back_ok else 'fails'}")

    trace_margin, kept = _trace_margin(rng)
    notes.append(f"trace implication margin {trace_margin:.2e} "
                 f"on {kept} draws")

    F = elementary_symmetric(3, 2, METRIC_SIDE)
    W = conjugate(F)
    kappa0 = np.array([0.4, -0.6, 0.15])
    M = hessian_transform(F, kappa0)
    fd = central_jet(W.eval, kappa0, 1e-4)[2]
    err_hess = float(np.max(np.abs(M - fd)))
    notes.append(f"hessian transform vs fd {err_hess:.1e}")

    base = elementary_symmetric(3, 1, HYPERSURFACE_SIDE)
    rows = rng.uniform(-3.0, 0.9, size=(200, 3))
    twice = flow_conjugate(flow_conjugate(base, 0.35), 0.6).eval(rows)
    once = flow_conjugate(base, 0.35 + 0.6).eval(rows)
    err_semi = float(np.max(np.abs(twice - once)))
    notes.append(f"semigroup {err_semi:.1e}")

    # arbitration: fd derivative decides between the two printed factors
    t = 0.7
    th = math.tanh(t)
    x0 = np.array([0.3, -0.4, 2.0])
    Wt = flow_conjugate(base, t)
    grad = Wt.gradient(x0)
    fd_grad = central_gradient(Wt.eval, x0, 1e-6)
    shifted = (x0 - th) / (1.0 - x0 * th)
    rival = base.gradient(shifted) * (1.0 - th**2) * (1.0 + x0 * th) ** -2
    err_grad = float(np.max(np.abs(grad - fd_grad)))
    rival_gap = float(np.max(np.abs(rival - fd_grad)))
    positive = bool(np.all(grad > 0.0) and np.all(fd_grad > 0.0))
    notes.append(f"flow gradient vs fd {err_grad:.1e}, "
                 f"rival factor off by {rival_gap:.1e}")

    passed = (worst_hr <= 1e-9 and cone_ok and back_ok
              and trace_margin >= -1e-9 and err_hess <= 1e-5
              and err_semi <= 1e-9 and err_grad <= 1e-6
              and rival_gap > 1e-4 and positive)
    return passed, max(worst_hr, err_hess, err_semi, err_grad), 1e-5, "; ".join(notes)


@criterion("degenerate-collapse")
def _degenerate_collapse(seed=27):
    """Vanishing conformal factor collapses the immersion to a point."""
    rng = np.random.default_rng(seed)
    metric = make_example("round-degenerate").payload
    target = np.array([1.0, 0.0, 0.0, 0.0])
    pts = rng.uniform(-3.0, 3.0, size=(100, 2))
    worst = float(np.max(np.abs(immerse(metric, pts).phi - target)))
    message = ""
    try:
        extrinsic_curvatures(metric, pts[0])
    except ImmersionError as exc:
        message = str(exc)
    return (worst <= 1e-12 and "not an immersion" in message, worst, 1e-12,
            f"phi offset {worst:.1e} at 100 points; curvature call said: {message!r}")


@criterion("boundary-at-infinity")
def _boundary_at_infinity():
    """Escape clusters of the noncompact gallery metrics."""
    band = boundary_at_infinity(make_example("incomplete-band"))
    z = np.clip([c.direction[2] for c in band], -1.0, 1.0)
    lat = np.array([math.asin(v) for v in z.tolist()])
    band_err = float(np.max(np.abs(np.abs(lat) - 1.0))) if len(lat) else math.inf
    band_ok = len(lat) > 0 and lat.max() > 0 > lat.min() and band_err <= 1e-2

    cyl = boundary_at_infinity(make_example("cylinder-delaunay"))
    cyl_ok = False
    cyl_err = math.inf
    if len(cyl) == 2:
        a, b = (c.direction for c in cyl)
        cyl_err = float(max(np.linalg.norm(a + b),
                            abs(abs(a[2]) - 1.0), abs(abs(b[2]) - 1.0)))
        cyl_ok = cyl_err <= 2e-2

    sphere = boundary_at_infinity(make_example("geodesic-sphere"))
    details = (f"band: {len(band)} clusters at |latitude| within {band_err:.1e} "
               f"of 1; cylinder: {len(cyl)} clusters, antipodal defect "
               f"{cyl_err:.1e}; compact example: {len(sphere)} clusters")
    return (band_ok and cyl_ok and sphere == [],
            max(band_err, cyl_err if len(cyl) else 0.0), 1e-2, details)


def run_all(only=None):
    return [check() for name, check in CRITERIA if only is None or name in only]
