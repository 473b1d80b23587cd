"""Charts on the round sphere S^2 and scalar fields on spherical domains.

Two chart kinds cover every example in the package:

* StereographicChart: coordinates u in R^2 with |u_i| < 2^255, embedding
  x(u) = (2u, 1-|u|^2)/(1+|u|^2), metric (2/(1+|u|^2))^2 (du_1^2 + du_2^2).
* BandChart(edge): coordinates (s, a) with |s| < edge <= pi/2 the arc
  from the equator and a the angle along it; metric ds^2 + cos^2(s) da^2.
Both metrics are diagonal: metric(u) is the (..., 2) diagonal.

A scalar field lives on all of its chart's domain, chart.contains.  Fields
are closures over chart coordinates with optional analytic gradient/Hessian;
the Hessian callable returns raw coordinate partials d_i d_j rho, and the
covariant correction -Gamma^k_ij d_k rho is applied by gradient_hessian.

Chart points are arrays whose last axis holds the n coordinates.  Charts,
fields, stencils and jets broadcast over the leading axes, as
horocorr.minkowski does: an (m, n) array is m points, and a single (n,)
point is the batch without leading axes.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ChartDomainError, DimensionMismatch
from .minkowski import _last_axis_sum

DEFAULT_FD_STEP = 1e-4


def _require(chart, u):
    u = np.asarray(u, dtype=float)
    inside = chart.contains(u)
    if not np.all(inside):
        raise ChartDomainError(
            f"point {u[~inside][0]} outside the chart domain")
    return u


class StereographicChart:
    """Conformal chart on S^2 minus one pole and the tiny cap about it past
    the float range of the chart's metric.

    Coordinates range over the square |u_i| < 2^255 (5.8e76) of R^2: there
    |u|^2 < 2^511, so the (1 + |u|^2)^2 of the jacobian and of 1/metric stays
    below 2^1023 and finite.  Past |u| of about 1.6e77 1/metric overflows.
    """

    n = 2
    kind = "stereographic"
    limit = 2.0 ** 255

    def contains(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape[-1] != self.n:
            return np.zeros(u.shape[:-1], dtype=bool)
        return np.all(np.abs(u) < self.limit, axis=-1)   # NaN fails

    @staticmethod
    def _norm_sq(u):
        return _last_axis_sum(u * u)[..., None]

    def geometry(self, u):
        """(embed(u), jacobian(u), metric(u)) from one range check and one |u|^2."""
        u = _require(self, u)
        nsq = self._norm_sq(u)
        d = 1.0 + nsq
        x = np.concatenate([2.0 * u, 1.0 - nsq], axis=-1) / d
        f, f_sq = d[..., None], d[..., None] ** 2
        top = 2.0 * (f * np.eye(self.n) - 2.0 * u[..., :, None] * u[..., None, :]) / f_sq
        bottom = -4.0 * u[..., None, :] / f_sq
        return x, np.concatenate([top, bottom], axis=-2), (2.0 / d) ** 2 * np.ones(self.n)

    def embed(self, u):
        return self.geometry(u)[0]

    def jacobian(self, u):
        return self.geometry(u)[1]

    def metric(self, u):
        return (2.0 / (1.0 + self._norm_sq(_require(self, u)))) ** 2 * np.ones(self.n)

    def metric_inverse(self, u):
        return 1.0 / self.metric(u)

    def christoffels(self, u):
        # conformal metric e^{2f} delta with f = log 2 - log(1+|u|^2):
        # Gamma^k_ij = d_j f delta^k_i + d_i f delta^k_j - d_k f delta_ij
        u = _require(self, u)
        df = -2.0 * u / (1.0 + self._norm_sq(u))
        eye = np.eye(self.n)
        return (df[..., None, :, None] * eye[:, None, :]
                + df[..., None, None, :] * eye[:, :, None]
                - df[..., :, None, None] * eye[None, :, :])

    def _christoffel_term(self, u, grad):
        # Gamma^k_ij d_k rho = df_j rho_i + df_i rho_j - delta_ij (df . grad rho),
        # summed in the order of christoffels' einsum; u already checked
        df = -2.0 * u / (1.0 + self._norm_sq(u))
        a, b = df[..., 0] * grad[..., 0], df[..., 1] * grad[..., 1]
        cross = df[..., 1] * grad[..., 0] + df[..., 0] * grad[..., 1]
        return np.stack([np.stack([a - b, cross], -1), np.stack([cross, b - a], -1)], -2)


class BandChart:
    """Chart ds^2 + cos^2(s) da^2 on the band |s| < edge of S^2 around its
    equator, edge in (0, pi/2] (ChartDomainError otherwise; pi/2 leaves out
    only the poles).  Coordinates u = (s, a): s is the arc from the equator
    and a, any real number, the angle along it; the embedding is
    x(s, a) = (cos s cos a, cos s sin a, sin s).
    """

    n = 2
    kind = "band"

    def __init__(self, edge=np.pi / 2):
        # written as "not within range" so that NaN fails
        if not 0.0 < edge <= np.pi / 2:
            raise ChartDomainError(f"band edge {edge} is not in (0, pi/2]")
        self.edge = float(edge)

    def contains(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape[-1] != 2:
            return np.zeros(u.shape[:-1], dtype=bool)
        return np.all(np.isfinite(u), axis=-1) & (np.abs(u[..., 0]) < self.edge)

    def geometry(self, u):
        """(embed(u), jacobian(u), metric(u)) from one range check and one sin/cos."""
        u = _require(self, u)
        s, a = u[..., :1], u[..., 1:]
        sin_s, cos_s, sin_a, cos_a = np.sin(s), np.cos(s), np.sin(a), np.cos(a)
        x = np.concatenate([cos_s * cos_a, cos_s * sin_a, sin_s], axis=-1)
        ds = np.concatenate([-sin_s * cos_a, -sin_s * sin_a, cos_s], axis=-1)
        da = np.concatenate([cos_s * -sin_a, cos_s * cos_a, np.zeros_like(s)], axis=-1)
        return x, np.stack([ds, da], axis=-1), np.concatenate([np.ones_like(s), cos_s**2], -1)

    def embed(self, u):
        return self.geometry(u)[0]

    def jacobian(self, u):
        return self.geometry(u)[1]

    def metric(self, u):
        s = _require(self, u)[..., :1]
        return np.concatenate([np.ones_like(s), np.cos(s) ** 2], axis=-1)

    def metric_inverse(self, u):
        return 1.0 / self.metric(u)

    def christoffels(self, u):
        # Gamma^s_aa = tan(s) cos^2(s);  Gamma^a_sa = Gamma^a_as = -tan(s)
        u = _require(self, u)
        s = u[..., :1]
        tan_s = np.tan(s)
        gamma = np.zeros(u.shape[:-1] + (2, 2, 2))
        gamma[..., 0, 1, 1:] = tan_s * np.cos(s) ** 2
        gamma[..., 1, 0, 1:] = gamma[..., 1, 1:, 0] = -tan_s
        return gamma

    def _christoffel_term(self, u, grad):
        # Gamma^k_ij d_k rho: -tan(s) rho_a at (s, a) and (a, s), and
        # tan(s) cos^2(s) rho_s at (a, a); u already checked
        tan_s, term = np.tan(u[..., 0]), np.zeros(u.shape + (2,))
        term[..., 0, 1] = term[..., 1, 0] = -tan_s * grad[..., 1]
        term[..., 1, 1] = tan_s * np.cos(u[..., 0]) ** 2 * grad[..., 0]
        return term


@dataclass(frozen=True)
class ScalarField:
    """Scalar field on a chart's whole domain, with optional analytic jets.

    Points are arrays whose last axis holds the n chart coordinates, and
    every call broadcasts over the leading axes, as in horocorr.minkowski:
    value(u) -> (...) values; gradient(u) -> (..., n) partials; hessian(u)
    -> (..., n, n) raw coordinate partials d_i d_j (covariant correction
    applied downstream).

    Callables that a batch or a stencil reaches must broadcast in the same
    way.  Finite-difference jets evaluate value once on the whole stencil
    stacked after the points' leading axes, even at one point; a value
    without those leading axes raises DimensionMismatch.
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def without_jets(self):
        """Copy of the field that forgets analytic derivatives (forces FD)."""
        return ScalarField(self.value)


def constant_field(c):
    return ScalarField(
        value=lambda u: float(c) + np.zeros(np.shape(u)[:-1]),
        gradient=lambda u: np.zeros(np.shape(u)),
        hessian=lambda u: np.zeros(np.shape(u) + np.shape(u)[-1:]),
    )


def radial_band_field(f, fs, fss):
    """Field on a band chart depending on the arc coordinate s = u[..., 0] only.

    f, fs, fss: value and its first/second s-derivatives, each taking an
    array of s values.  The band's edge, not the field, bounds the s-range.
    """

    def value(u):
        return f(np.asarray(u, dtype=float)[..., 0])

    def gradient(u):
        u = np.asarray(u, dtype=float)
        g = np.zeros(u.shape)
        g[..., 0] = fs(u[..., 0])
        return g

    def hessian(u):
        u = np.asarray(u, dtype=float)
        H = np.zeros(u.shape + u.shape[-1:])
        H[..., 0, 0] = fss(u[..., 0])
        return H

    return ScalarField(value, gradient, hessian)


def call_stacked(f, points, lead):
    """f(points) as an array carrying the leading axes lead, one value per
    stacked point; DimensionMismatch when a one-point callable breaks that."""
    values = np.asarray(f(points))
    if values.shape[:len(lead)] != lead:
        raise DimensionMismatch(
            f"callable gave shape {values.shape}, not one value per point of {lead}")
    return values


def _stencil_points(x, h, corners):
    """The points of the central differences at x, stacked after x's leading
    axes: x + h e_i, then x - h e_i; with corners (second derivatives), x,
    those, then (x + a h e_i) + b h e_j for each axis pair i < j in blocks
    (a, b) = (+,+), (+,-), (-,+), (-,-).  h may broadcast over x's leading
    axes.  Raises ChartDomainError unless 0 < h with 2h finite."""
    if not np.all((0.0 < h) & (h <= 0.5 * np.finfo(float).max)):   # 2h stays finite
        raise ChartDomainError("finite-difference step must be positive with 2h finite")
    n = x.shape[-1]
    axial = np.multiply.outer(h, np.concatenate([np.eye(n), -np.eye(n)]))
    first = x[..., None, :] + axial
    if not corners:
        return first
    i, j = np.triu_indices(n, 1)
    mixed = (first[..., np.concatenate([i, i, i + n, i + n]), :]
             + axial[..., np.concatenate([j, j + n, j, j + n]), :])
    return np.concatenate([x[..., None, :], first, mixed], axis=-2)


def axis_values(f, x, h):
    """Values of f at x + h e_i and at x - h e_i for every axis i of the last
    axis of x, stacked along a new axis placed after x's leading axes.

    f, scalar- or array-valued, is called once on all 2n points stacked so
    (see call_stacked).  h may broadcast over x's leading axes.  Raises
    ChartDomainError unless 0 < h with 2h finite.
    """
    points = _stencil_points(np.asarray(x, dtype=float), h, corners=False)
    values = call_stacked(f, points, points.shape[:-1])
    return np.split(values, 2, axis=points.ndim - 2)


def central_gradient(f, x, h):
    """First derivatives by central differences, the derivative axis placed
    after x's leading axes; evaluates f only at x +- h e_i (h as in
    axis_values)."""
    plus, minus = axis_values(f, x, h)
    h = np.reshape(h, np.shape(h) + (1,) * (plus.ndim - np.ndim(x) + 1))
    return (plus - minus) / (2 * h)


def central_jet(f, x, h):
    """(f(x), first derivatives, second derivatives) by second-order central
    differences with one scalar step h for every point.

    The derivative axes follow x's leading axes, and the axis count comes
    from x.shape[-1].  f is called once, on x and its stencil stacked as in
    axis_values.  Mixed partials use the symmetric four-point stencil, so the
    second derivatives are symmetric in their two derivative axes.
    """
    x = np.asarray(x, dtype=float)
    n, axis = x.shape[-1], x.ndim - 1
    points = _stencil_points(x, h, corners=True)
    values = np.moveaxis(call_stacked(f, points, points.shape[:-1]), axis, 0)
    f0, plus, minus = values[0], values[1:n + 1], values[n + 1:2 * n + 1]
    pp, pm, mp, mm = np.split(values[2 * n + 1:], 4)
    grad, h_sq = (plus - minus) / (2 * h), h * h   # a float's h**2 raises on overflow
    hess = np.empty((n, n) + f0.shape)
    hess[np.diag_indices(n)] = (plus - 2 * f0 + minus) / h_sq
    i, j = np.triu_indices(n, 1)
    hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4 * h_sq)
    return f0, np.moveaxis(grad, 0, axis), np.moveaxis(hess, (0, 1), (axis, axis + 1))


def fd_jet(field, u, h, chart):
    """(value, gradient, Hessian) of a field by central differences.

    Raises ChartDomainError unless 0 < h with 2h finite, and then, before the
    field sees a point, if the stencil of any point leaves the chart's domain.
    """

    def value(points):   # the one stencil central_jet builds and evaluates
        if not np.all(chart.contains(points)):
            raise ChartDomainError("stencil escapes the chart domain; reduce h or move inward")
        return field.value(points)

    return central_jet(value, u, h)


@dataclass(frozen=True)
class GradHess:
    gradient: np.ndarray        # coordinate partials d_i rho, (..., n)
    grad_norm_sq: np.ndarray    # |grad rho|^2 with respect to the chart metric, (...)
    covariant_hessian: np.ndarray  # rho_{i,j} = d_i d_j rho - Gamma^k_ij d_k rho
    metric: np.ndarray          # diagonal chart.metric(u), evaluated once, (..., n)


def _jets(field, chart, u, g, hessian):
    """The gradient, the gradient raised by the metric, its squared norm and
    the raw Hessian (analytic route: only when hessian is true) at float chart
    points u, which g = chart.metric(u) has checked."""
    if field.gradient is not None and field.hessian is not None:
        grad = np.asarray(field.gradient(u), dtype=float)
        raw_hess = np.asarray(field.hessian(u), dtype=float) if hessian else None
    else:
        _, grad, raw_hess = fd_jet(field, u, DEFAULT_FD_STEP, chart)
    raised = grad * (1.0 / g)    # 1.0 / g has the bits of chart.metric_inverse(u)
    return grad, raised, _last_axis_sum(raised * grad), raw_hess


def gradient_norm(field, chart, u, g):
    """The gradient raised by the metric, g^ij d_j rho, and gradient_hessian's
    grad_norm_sq, bit for bit, without the Hessian, at float chart points u
    whose metric diagonal g the caller evaluated (which checked the range)."""
    return _jets(field, chart, u, g, False)[1:3]


def gradient_hessian(field, chart, u):
    """First and covariant second derivatives of a field at chart points
    (broadcasting over the leading axes of u), handing on the one chart.metric(u).

    Uses analytic jets when the field carries them, otherwise central
    differences of step DEFAULT_FD_STEP (requiring stencil room inside the
    domain).  Raises ChartDomainError if any point is outside the domain.
    """
    u = np.asarray(u, dtype=float)
    g = chart.metric(u)
    grad, _, norm_sq, raw_hess = _jets(field, chart, u, g, True)
    return GradHess(grad, norm_sq, raw_hess - chart._christoffel_term(u, grad), g)
