"""The conformal metric ghat = e^{2(rho+t)} g_{S^2} and its curvature data.

The central object is the Schouten tensor of ghat, defined from the round
metric by the conformal transformation law

    Sch = 1/2 g_S - Hess(rho) + d rho (x) d rho - 1/2 |grad rho|^2 g_S.

Eigenvalues are always reported relative to ghat, sorted ascending; they are
the lambda's of the hypersurface dictionary.
Point functions broadcast over the leading axes of their chart points.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ChartDomainError, DimensionMismatch, SamplingError, SingularParameterError
from .minkowski import _last_axis_sum
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
        """The diagonal (..., 2) of e^{2(rho+t)} g_S in chart coordinates."""
        return np.exp(2.0 * self.effective(u))[..., None] * self.chart.metric(u)


@dataclass(frozen=True)
class SchoutenReport:
    tensor: np.ndarray       # lower indices, in chart coordinates
    eigenvalues: np.ndarray  # relative to ghat, sorted ascending


def generalized_eigvalsh(A, B):
    """Eigenvalues of the 2x2 pencils A v = lambda B v (A symmetric, B
    positive definite), ascending, stacked over the leading axes: the closed
    form m -+ hypot((c00 - c11)/2, c01), m = (c00 + c11)/2, of the whitened
    C = L^{-1} A L^{-T}, B = L L^T (Golub and Van Loan, section 8.1).  Raises
    DimensionMismatch unless A and B are 2x2, and numpy.linalg.LinAlgError,
    before any arithmetic that could warn, unless every B is finite and
    positive definite."""
    if np.shape(A)[-2:] != (2, 2) or np.shape(B)[-2:] != (2, 2):
        raise DimensionMismatch(f"pencil of shapes {np.shape(A)}, {np.shape(B)} is not 2x2")
    b00, b01, b11 = B[..., 0, 0], B[..., 0, 1], B[..., 1, 1]
    det = b00 * b11 - b01 * b01 if np.all(np.isfinite(B)) else np.nan
    if not np.all((b00 > 0.0) & (det > 0.0)):   # written so that NaN fails
        raise np.linalg.LinAlgError("B is not positive definite")
    # B = L L^T: L^{-1} has rows e0 / l00 and (e1 - k e0) / l11, k = b01 / b00,
    # with l00^2 = b00 and l11^2 = det / b00
    k, a00, a01, a11 = b01 / b00, A[..., 0, 0], A[..., 0, 1], A[..., 1, 1]
    cross = a01 - k * a00
    c00, c01, c11 = a00 / b00, cross / np.sqrt(det), (a11 - k * (a01 + cross)) / (det / b00)
    m, r = 0.5 * (c00 + c11), np.hypot(0.5 * (c00 - c11), c01)
    return np.stack([m - r, m + r], axis=-1)


def schouten(metric, u):
    """Schouten tensor of the conformal metric at chart points.

    The tensor is returned with lower indices in chart coordinates; the
    eigenvalues solve Sch v = lambda ghat v and do not depend on the chart.
    """
    u = np.asarray(u, dtype=float)
    jets = gradient_hessian(metric.rho, metric.chart, u)
    g = metric.chart.metric(u)[..., None, :] * np.eye(2)   # dense, as the tensor
    grad = jets.gradient
    tensor = (0.5 * g - jets.covariant_hessian + grad[..., :, None] * grad[..., None, :]
              - 0.5 * jets.grad_norm_sq[..., None, None] * g)
    eigenvalues = generalized_eigvalsh(tensor, metric.ghat(u)[..., None, :] * np.eye(2))
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
        # capped by the distance to the nearer endpoint, so tau +- h stays in [0, 1];
        # the floor scales with tau so that nodes near 0 are not secants through it
        room = np.minimum(tau, 1.0 - tau)
        h = np.minimum(np.maximum(1e-9 * tau, 1e-6 * room), room)
        v = central_gradient(lambda s: curve(s[..., 0]), tau[..., None], h)[..., 0, :]
    norm_sq = _last_axis_sum(v * metric.chart.metric(u) * v)
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
