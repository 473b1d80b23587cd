"""The conformal metric ghat = e^{2(rho+t)} g_{S^n} and its curvature data.

The central object is the Schouten tensor of ghat, computed from the round
metric by the conformal transformation law

    Sch = 1/2 g_S - Hess(rho) + d rho (x) d rho - 1/2 |grad rho|^2 g_S,

taken as the defining expression for every n >= 2 (for n >= 3 it agrees with
the trace-adjusted Ricci tensor).  Eigenvalues are always reported relative to
ghat, sorted ascending; they are the lambda's of the hypersurface dictionary.
Point functions broadcast over the leading axes of their chart points.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ChartDomainError, SamplingError
from .sphere import ScalarField, central_gradient, gradient_hessian
from .weingarten import T

REALIZABLE_MARGIN = 1e-3   # default strict gap eps below the 1/2 eigenvalue bound
REALIZABLE_FLOOR = 1e6     # default lower bound B on eigenvalues
LENGTH_CAP = 1e6           # partial-sum cap for divergence reporting


@dataclass(frozen=True)
class ConformalMetric:
    """Chart + log conformal factor rho + scale offset t.

    The effective log factor is rho(u) + t; rescaling by dt shifts t and
    scales every Schouten eigenvalue by e^{-2 dt}.
    """

    chart: object
    rho: ScalarField
    t: float = 0.0

    def effective(self, u):
        return self.rho.value(np.asarray(u, dtype=float)) + self.t

    def ghat(self, u):
        """The conformal metric e^{2(rho+t)} g_S in chart coordinates."""
        factor = np.exp(2.0 * self.effective(u))
        return factor[..., None, None] * self.chart.metric(u)


@dataclass(frozen=True)
class SchoutenReport:
    tensor: np.ndarray       # lower indices, in chart coordinates
    eigenvalues: np.ndarray  # relative to ghat, sorted ascending
    point: np.ndarray


def generalized_eigvalsh(A, B):
    """Eigenvalues of A v = lambda B v for symmetric A and positive definite
    B, ascending, stacked over the leading axes: Cholesky whitening B = L L^T,
    then the ordinary symmetric eigenvalues of L^{-1} A L^{-T}.

    Raises numpy.linalg.LinAlgError when some B is not positive definite.
    """
    Linv = np.linalg.inv(np.linalg.cholesky(B))
    return np.linalg.eigvalsh(Linv @ A @ np.swapaxes(Linv, -1, -2))


def schouten(metric, u):
    """Schouten tensor of the conformal metric at chart points.

    The tensor is returned with lower indices in chart coordinates; the
    eigenvalues solve Sch v = lambda ghat v and do not depend on the chart.
    """
    u = np.asarray(u, dtype=float)
    jets = gradient_hessian(metric.rho, metric.chart, u)
    g = metric.chart.metric(u)
    grad = jets.gradient
    tensor = (0.5 * g
              - jets.covariant_hessian
              + grad[..., :, None] * grad[..., None, :]
              - 0.5 * jets.grad_norm_sq[..., None, None] * g)
    eigenvalues = generalized_eigvalsh(tensor, metric.ghat(u))
    return SchoutenReport(tensor, eigenvalues, u)


def horospherical_curvature(kappa_i, kappa_j):
    """(sectional, schouten_i) of the horospherical metric from two principal
    curvatures: schouten_i = 1/2 - 1/(1-ki) = T(-ki) and sectional =
    schouten_i + schouten_j.  Horospherical convexity (kappa < 1) is required."""
    schouten_i, schouten_j = T(-np.array([kappa_i, kappa_j], dtype=float))
    return float(schouten_i + schouten_j), float(schouten_i)


def horospherical_scalar(kappas):
    """Sum of the pairwise sectional curvatures over ordered pairs i != j,
    over the last axis of kappas: each T(-kappa_i) enters 2(n - 1) times."""
    kappas = np.asarray(kappas, dtype=float)
    return 2.0 * (kappas.shape[-1] - 1) * np.sum(T(-kappas), axis=-1)


def beta(metric, u):
    """Divergence probe e^{2(rho+t)} + |grad rho|^2; blows up toward a
    boundary where the metric stays complete."""
    u = np.asarray(u, dtype=float)
    jets = gradient_hessian(metric.rho, metric.chart, u)
    return np.exp(2.0 * metric.effective(u)) + jets.grad_norm_sq


def _speed(metric, curve, velocity, tau):
    u = np.asarray(curve(tau), dtype=float)
    if not metric.rho.in_domain(metric.chart, u):
        raise ChartDomainError(f"curve leaves the domain interior at tau={tau}")
    if velocity is not None:
        v = np.asarray(velocity(tau), dtype=float)
    else:
        h = max(1e-9, 1e-6 * min(tau, 1.0 - tau))
        v = central_gradient(lambda s: np.asarray(curve(s[0]), dtype=float), [tau], h)[0]
    g = metric.chart.metric(u)
    return math.exp(metric.effective(u)) * math.sqrt(max(float(v @ g @ v), 0.0))


def path_length(metric, curve, quadrature_n=32, velocity=None, cap=LENGTH_CAP):
    """Length of a parametrized path under the conformal metric.

    curve: tau in [0,1] -> chart coordinates, staying inside the domain except
    possibly at the endpoints; velocity: optional analytic tau-derivative
    (finite differences otherwise, which need interior room).

    Integration runs over dyadic shells accumulating toward each endpoint with
    a fixed Gauss-Legendre rule per shell, so integrable endpoint
    singularities converge while divergent ones are detected: the result is
    math.inf when the partial sums pass the cap or the shell contributions
    stop decaying.
    """
    if quadrature_n < 2:
        raise SamplingError("need at least 2 quadrature nodes per shell")
    nodes, weights = leggauss(quadrature_n)

    def shell(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return half * sum(
            w * _speed(metric, curve, velocity, mid + half * x)
            for x, w in zip(nodes, weights))

    depth = 50
    total = 0.0
    for left in (False, True):
        contributions = []
        for k in range(1, depth + 1):
            lo, hi = 1.0 - 2.0 ** -k, 1.0 - 2.0 ** -(k + 1)
            if left:
                lo, hi = 1.0 - hi, 1.0 - lo
            c = shell(lo, hi)
            contributions.append(c)
            total += c
            if total > cap:
                return math.inf
        tail = [c for c in contributions[-7:] if c > 0]
        ratios = [b / a for a, b in zip(tail, tail[1:]) if a > 0]
        if ratios and np.mean(ratios) >= 0.98:
            return math.inf
    return total


def rescale(metric, dt):
    """Shift the scale offset by dt; eigenvalues scale by e^{-2 dt}."""
    return ConformalMetric(metric.chart, metric.rho, metric.t + dt)


def flow_time_for_bound(lambda_max, eps):
    """Smallest t >= 0 with lambda_max e^{-2t} <= 1/2 - eps."""
    if not 0.0 < eps < 0.5:
        raise SamplingError("margin eps must lie in (0, 1/2)")
    if lambda_max <= 0.0:
        return 0.0
    return max(0.0, 0.5 * math.log(lambda_max / (0.5 - eps)))


@dataclass(frozen=True)
class RealizabilityReport:
    lambda_min: float
    lambda_max: float
    realizable: bool
    suggested_t0: float
    n_samples: int
    flags: tuple = dc_field(default_factory=tuple)


def realizability_report(metric, samples, eps=REALIZABLE_MARGIN, B=REALIZABLE_FLOOR):
    """Aggregate Schouten eigenvalue extremes over a sample set.

    The metric is realizable (at margins eps, B) iff every eigenvalue lies in
    [-B, 1/2 - eps].  Samples are chart points, an (m, n) array or a list of
    (n,) points; points outside the domain are skipped.
    """
    pts = np.asarray(samples, dtype=float)
    pts = pts[metric.rho.in_domain(metric.chart, pts)]
    count = len(pts)
    if count == 0:
        raise SamplingError("no usable samples for the realizability report")
    ev = schouten(metric, pts).eigenvalues
    lam_min, lam_max = float(ev[:, 0].min()), float(ev[:, -1].max())
    flags = []
    if lam_min < -B:
        flags.append("Schouten not bounded below")
    if lam_max > 0.5 - eps:
        flags.append("eigenvalues reach the 1/2 bound")
    realizable = (lam_max <= 0.5 - eps) and (lam_min >= -B)
    return RealizabilityReport(
        lambda_min=lam_min,
        lambda_max=lam_max,
        realizable=realizable,
        suggested_t0=flow_time_for_bound(lam_max, eps),
        n_samples=count,
        flags=tuple(flags),
    )
