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

from .errors import ChartDomainError, SamplingError, SingularParameterError
from .sphere import ScalarField, call_stacked, central_gradient, gradient_hessian

REALIZABLE_MARGIN = 1e-3   # strict gap eps below the 1/2 eigenvalue bound
REALIZABLE_FLOOR = 1e6     # lower bound B on eigenvalues
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
    return SchoutenReport(tensor, eigenvalues)


def path_length(metric, curve, velocity=None):
    """Length of a parametrized path under the conformal metric.

    curve: tau in [0,1] -> chart coordinates, staying inside the domain except
    possibly at the endpoints; velocity: optional analytic tau-derivative
    (finite differences otherwise, which need interior room).  Both take an
    array of tau and return one (..., n) point per tau; DimensionMismatch is
    raised when they do not.  Each is called once on the whole node grid; the
    finite-difference route calls curve once more on the stacked nodes
    tau +- h, with h capped so that every tau passed to curve lies in [0, 1].

    Integration runs over 50 dyadic shells accumulating toward each endpoint,
    [1 - 2^-k, 1 - 2^-(k+1)] and its mirror image, with 32
    Gauss-Legendre nodes per shell: one (2, 50, 32) node grid, the side
    toward 1 first.  Integrable endpoint singularities converge while
    divergent ones are detected: the result is math.inf when a running
    partial sum passes LENGTH_CAP or a side's shell contributions stop
    decaying.  Raises ChartDomainError if any node lies outside the domain.
    """
    nodes, weights = leggauss(32)
    half = 2.0 ** -np.arange(3, 53)   # shell k: half-width 2^-(k+2), midpoint 1 - 3 * 2^-(k+2)
    mid = 1.0 - 3.0 * half
    tau = np.stack([mid, 1.0 - mid])[..., None] + half[:, None] * nodes
    u = call_stacked(curve, tau, tau.shape)
    inside = metric.chart.contains(u)
    if not np.all(inside):
        raise ChartDomainError(f"curve leaves the domain interior at tau={tau[~inside][0]}")
    if velocity is not None:
        v = call_stacked(velocity, tau, tau.shape)
    else:
        # capped by the distance to the nearer endpoint, so tau +- h stays in [0, 1]
        room = np.minimum(tau, 1.0 - tau)
        h = np.minimum(np.maximum(1e-9, 1e-6 * room), room)
        v = central_gradient(lambda s: curve(s[..., 0]), tau[..., None], h)[..., 0, :]
    norm_sq = np.einsum("...i,...ij,...j->...", v, metric.chart.metric(u), v)
    speed = np.exp(metric.effective(u)) * np.sqrt(np.maximum(norm_sq, 0.0))
    shells = half * (speed @ weights)
    partial = np.cumsum(shells)
    if np.any(partial > LENGTH_CAP):
        return math.inf
    for side in shells[:, -7:]:
        tail = side[side > 0]
        if len(tail) > 1 and np.mean(tail[1:] / tail[:-1]) >= 0.98:
            return math.inf
    return partial[-1]


def rescale(metric, dt):
    """Shift the scale offset by dt; eigenvalues scale by e^{-2 dt}.
    Raises SingularParameterError unless dt is finite."""
    if not math.isfinite(dt):
        raise SingularParameterError(f"rescale offset {dt} is not finite")
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


def realizability_report(metric, samples):
    """eigenvalue_realizability of the Schouten eigenvalues at a sample set:
    chart points, an (m, n) array or a list of (n,) points.  Points outside
    the chart's domain are skipped."""
    pts = np.asarray(samples, dtype=float)
    pts = pts[metric.chart.contains(pts)].reshape(-1, metric.chart.n)
    return eigenvalue_realizability(schouten(metric, pts).eigenvalues)


def eigenvalue_realizability(ev):
    """Eigenvalue extremes of Schouten eigenvalues ev, one ascending row per
    sample.  The metric is realizable iff every eigenvalue lies in
    [-B, 1/2 - eps], with B = REALIZABLE_FLOOR and eps = REALIZABLE_MARGIN.
    Raises SamplingError when there is no sample."""
    if len(ev) == 0:
        raise SamplingError("no usable samples for the realizability report")
    lam_min, lam_max = float(ev[:, 0].min()), float(ev[:, -1].max())
    flags = []
    if lam_min < -REALIZABLE_FLOOR:
        flags.append("Schouten not bounded below")
    if lam_max > 0.5 - REALIZABLE_MARGIN:
        flags.append("eigenvalues reach the 1/2 bound")
    realizable = (lam_max <= 0.5 - REALIZABLE_MARGIN) and (lam_min >= -REALIZABLE_FLOOR)
    return RealizabilityReport(
        lambda_min=lam_min,
        lambda_max=lam_max,
        realizable=realizable,
        suggested_t0=flow_time_for_bound(lam_max, REALIZABLE_MARGIN),
        n_samples=len(ev),
        flags=tuple(flags),
    )
