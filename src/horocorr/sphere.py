"""Charts on the round sphere S^2 and scalar fields on spherical domains.

Two chart kinds cover every example in the package:

* StereographicChart: coordinates u in R^2, embedding
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
            f"point {u[~inside][0]} outside {chart.kind} chart range")
    return u


class StereographicChart:
    """Conformal chart on S^2 minus one pole; coordinates range over all of R^2."""

    n = 2
    kind = "stereographic"

    def contains(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape[-1] != self.n:
            return np.zeros(u.shape[:-1], dtype=bool)
        return np.all(np.isfinite(u), axis=-1)

    @staticmethod
    def _norm_sq(u):
        return _last_axis_sum(u * u)[..., None]

    def embed(self, u):
        u = np.asarray(u, dtype=float)
        nsq = self._norm_sq(u)
        return np.concatenate([2.0 * u, 1.0 - nsq], axis=-1) / (1.0 + nsq)

    def jacobian(self, u):
        u = np.asarray(u, dtype=float)
        f = 1.0 + self._norm_sq(u)[..., None]
        top = 2.0 * (f * np.eye(self.n) - 2.0 * u[..., :, None] * u[..., None, :]) / f**2
        bottom = -4.0 * u[..., None, :] / f**2
        return np.concatenate([top, bottom], axis=-2)

    def metric(self, u):
        u = np.asarray(u, dtype=float)
        return (2.0 / (1.0 + self._norm_sq(u))) ** 2 * np.ones(self.n)

    def metric_inverse(self, u):
        return 1.0 / self.metric(u)

    def christoffels(self, u):
        # conformal metric e^{2f} delta with f = log 2 - log(1+|u|^2):
        # Gamma^k_ij = d_j f delta^k_i + d_i f delta^k_j - d_k f delta_ij
        u = np.asarray(u, dtype=float)
        df = -2.0 * u / (1.0 + self._norm_sq(u))
        eye = np.eye(self.n)
        return (df[..., None, :, None] * eye[:, None, :]
                + df[..., None, None, :] * eye[:, :, None]
                - df[..., :, None, None] * eye[None, :, :])


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

    def embed(self, u):
        u = _require(self, u)
        s, a = u[..., :1], u[..., 1:]
        return np.concatenate(
            [np.cos(s) * np.cos(a), np.cos(s) * np.sin(a), np.sin(s)], axis=-1)

    def jacobian(self, u):
        u = _require(self, u)
        s, a = u[..., :1], u[..., 1:]
        sin_s, cos_s, sin_a, cos_a = np.sin(s), np.cos(s), np.sin(a), np.cos(a)
        ds = np.concatenate([-sin_s * cos_a, -sin_s * sin_a, cos_s], axis=-1)
        da = np.concatenate([cos_s * -sin_a, cos_s * cos_a, np.zeros_like(s)], axis=-1)
        return np.stack([ds, da], axis=-1)

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


def radial_band_field(f, fs=None, fss=None):
    """Field on a band chart depending on the arc coordinate s = u[..., 0] only.

    f, fs, fss: value and its first/second s-derivatives, each taking an
    array of s values.  The band's edge, not the field, bounds the s-range.
    """

    def value(u):
        return f(np.asarray(u, dtype=float)[..., 0])

    gradient = None
    if fs is not None:
        def gradient(u):
            u = np.asarray(u, dtype=float)
            g = np.zeros(u.shape)
            g[..., 0] = fs(u[..., 0])
            return g

    hessian = None
    if fss is not None:
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


def _check_step(h):
    if not np.all((0.0 < h) & (h < np.inf)):
        raise ChartDomainError("finite-difference step must be positive")


def _stencil_points(x, h):
    """The points central_jet evaluates, stacked after x's leading axes: x,
    x + h e_i, x - h e_i, then the corners (x + a h e_i) + b h e_j of each
    axis pair i < j in blocks (a, b) = (+,+), (+,-), (-,+), (-,-).  Raises
    ChartDomainError unless 0 < h < inf."""
    _check_step(h)
    n = x.shape[-1]
    axial = h * np.concatenate([np.eye(n), -np.eye(n)])
    first = x[..., None, :] + axial
    i, j = np.triu_indices(n, 1)
    corners = (first[..., np.concatenate([i, i, i + n, i + n]), :]
               + axial[np.concatenate([j, j + n, j, j + n])])
    return np.concatenate([x[..., None, :], first, corners], axis=-2)


def axis_values(f, x, h):
    """Values of f at x + h e_i and at x - h e_i for every axis i of the last
    axis of x, stacked along a new axis placed after x's leading axes.

    f, scalar- or array-valued, is called once on all 2n points stacked so
    (see call_stacked).  h may broadcast over x's leading axes.  Raises
    ChartDomainError unless 0 < h < inf.
    """
    _check_step(h)
    x = np.asarray(x, dtype=float)
    eye = np.eye(x.shape[-1])
    points = x[..., None, :] + np.multiply.outer(h, np.concatenate([eye, -eye]))
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
    points = _stencil_points(x, h)
    values = np.moveaxis(call_stacked(f, points, points.shape[:-1]), axis, 0)
    f0, plus, minus = values[0], values[1:n + 1], values[n + 1:2 * n + 1]
    pp, pm, mp, mm = np.split(values[2 * n + 1:], 4)
    grad = (plus - minus) / (2 * h)
    hess = np.empty((n, n) + f0.shape)
    hess[np.diag_indices(n)] = (plus - 2 * f0 + minus) / h**2
    i, j = np.triu_indices(n, 1)
    hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4 * h**2)
    return f0, np.moveaxis(grad, 0, axis), np.moveaxis(hess, (0, 1), (axis, axis + 1))


def fd_jet(field, u, h, chart):
    """(value, gradient, Hessian) of a field by central differences.

    Raises ChartDomainError unless 0 < h < inf, or if the stencil of any
    point leaves the chart's domain.
    """
    u = np.asarray(u, dtype=float)
    if not np.all(chart.contains(_stencil_points(u, h))):
        raise ChartDomainError("stencil escapes the chart domain; reduce h or move inward")
    return central_jet(field.value, u, h)


@dataclass(frozen=True)
class GradHess:
    gradient: np.ndarray        # coordinate partials d_i rho, (..., n)
    grad_norm_sq: np.ndarray    # |grad rho|^2 with respect to the chart metric, (...)
    covariant_hessian: np.ndarray  # rho_{i,j} = d_i d_j rho - Gamma^k_ij d_k rho


def _jets(field, chart, u, hessian):
    """u as a float array, the gradient, its squared norm, the inverse metric
    (diagonal) and the raw Hessian, which the analytic route evaluates only
    when hessian is true."""
    u = np.asarray(u, dtype=float)
    inside = chart.contains(u)
    if not np.all(inside):
        raise ChartDomainError(f"point {u[~inside][0]} outside the chart domain")
    if field.gradient is not None and field.hessian is not None:
        grad = np.asarray(field.gradient(u), dtype=float)
        raw_hess = np.asarray(field.hessian(u), dtype=float) if hessian else None
    else:
        _, grad, raw_hess = fd_jet(field, u, DEFAULT_FD_STEP, chart)
    ginv = chart.metric_inverse(u)
    return u, grad, _last_axis_sum(grad * ginv * grad), ginv, raw_hess


def gradient_norm(field, chart, u):
    """gradient_hessian's gradient and grad_norm_sq, bit for bit, without the
    Hessian, and the inverse metric (diagonal) that raises the gradient."""
    return _jets(field, chart, u, False)[1:4]


def gradient_hessian(field, chart, u):
    """First and covariant second derivatives of a field at chart points
    (broadcasting over the leading axes of u).

    Uses analytic jets when the field carries them, otherwise central
    differences of step DEFAULT_FD_STEP (requiring stencil room inside the
    domain).  Raises ChartDomainError if any point is outside the domain.
    """
    u, grad, norm_sq, _, raw_hess = _jets(field, chart, u, True)
    cov = raw_hess - np.einsum("...kij,...k->...ij", chart.christoffels(u), grad)
    return GradHess(grad, norm_sq, cov)
