"""Charts on the round sphere S^n and scalar fields on spherical domains.

Two chart kinds cover every example in the package:

* StereographicChart: coordinates u in R^n, embedding
  x(u) = (2u, 1-|u|^2)/(1+|u|^2), metric (2/(1+|u|^2))^2 * identity.
* BandChart: coordinates (s, a_1, ..., a_{n-1}) with s in (-pi/2, pi/2) an
  arc parameter and hyperspherical angles a on the S^{n-1} factor; metric
  ds^2 + cos^2(s) g_{S^{n-1}}.

Scalar fields are closures over chart coordinates with optional analytic
gradient/Hessian; the Hessian callable returns raw coordinate partials
d_i d_j rho, and the covariant correction -Gamma^k_ij d_k rho is applied
uniformly by gradient_hessian.

Chart points are arrays whose last axis holds the n coordinates.  Charts,
fields, stencils and jets broadcast over the leading axes, as
horocorr.minkowski does: an (m, n) array is m points, and a single (n,)
point is the batch without leading axes.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ChartDomainError

DEFAULT_FD_STEP = 1e-4


def _diag(d):
    """Diagonal matrices with the entries of d's last axis."""
    return d[..., :, None] * np.eye(d.shape[-1])


def _running_products(x):
    """1, x_1, x_1 x_2, ..., x_1 ... x_m along the last axis."""
    ones = np.ones(x.shape[:-1] + (1,))
    return np.concatenate([ones, np.cumprod(x, axis=-1)], axis=-1)


def _require(chart, u):
    u = np.asarray(u, dtype=float)
    inside = chart.contains(u)
    if not np.all(inside):
        raise ChartDomainError(
            f"point {u[~inside][0]} outside {chart.kind} chart range")
    return u


class StereographicChart:
    """Conformal chart on S^n minus one pole; coordinates range over all of R^n."""

    def __init__(self, n):
        if n < 1:
            raise ChartDomainError("sphere dimension must be >= 1")
        self.n = n

    kind = "stereographic"

    def contains(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape[-1] != self.n:
            return np.zeros(u.shape[:-1], dtype=bool)
        return np.all(np.isfinite(u), axis=-1)

    @staticmethod
    def _norm_sq(u):
        return (u * u).sum(axis=-1)[..., None]

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

    def _metric_diag(self, u):
        u = np.asarray(u, dtype=float)
        conf = 2.0 / (1.0 + self._norm_sq(u))
        return conf**2 * np.ones(self.n)

    def metric(self, u):
        return _diag(self._metric_diag(u))

    def metric_inverse(self, u):
        return _diag(1.0 / self._metric_diag(u))

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
    """Warped chart ds^2 + cos^2(s) g_{S^{n-1}} around an equator of S^n.

    Coordinates: u[0] = s in (-pi/2, pi/2); u[1:] are hyperspherical angles
    on the S^{n-1} factor (for n = 2 a single angle, arbitrary real; for
    n >= 3 the middle angles must stay in (0, pi)).  n = 1 means just the
    s coordinate on a half great circle.
    """

    def __init__(self, n):
        if n < 1:
            raise ChartDomainError("sphere dimension must be >= 1")
        self.n = n

    kind = "band"

    def contains(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape[-1] != self.n:
            return np.zeros(u.shape[:-1], dtype=bool)
        # middle hyperspherical angles degenerate at 0 and pi
        middle = u[..., 1:-1]
        return (np.all(np.isfinite(u), axis=-1)
                & (np.abs(u[..., 0]) < np.pi / 2)
                & np.all((middle > 0.0) & (middle < np.pi), axis=-1))

    # -- S^{n-1} factor in hyperspherical angles -------------------------------

    def _factor_embed(self, a):
        # y_1 = cos a1, y_2 = sin a1 cos a2, ..., y_m+1 = sin a1 ... sin a_m
        ones = np.ones(a.shape[:-1] + (1,))
        return _running_products(np.sin(a)) * np.concatenate([np.cos(a), ones], axis=-1)

    def _factor_metric_diag(self, a):
        return _running_products(np.sin(a) ** 2)[..., :-1]

    def _factor_christoffels(self, a):
        m = self.n - 1
        h = self._factor_metric_diag(a)
        gamma = np.zeros(a.shape[:-1] + (m, m, m))
        for i in range(m):
            for k in range(i):
                cot = 1.0 / np.tan(a[..., k])
                gamma[..., k, i, i] = -(h[..., i] / h[..., k]) * cot
                gamma[..., i, i, k] = cot
                gamma[..., i, k, i] = cot
        return gamma

    def _factor_jacobian(self, a):
        # d y_i / d a_j: entry i vanishes for i < j, picks up -sin at i = j,
        # and swaps its sin(a_j) factor for cos(a_j) when i > j
        m = self.n - 1
        sin, cos = np.sin(a), np.cos(a)
        dy = np.zeros(a.shape[:-1] + (m + 1, m))
        for j in range(m):
            dy[..., j, j] = -np.prod(sin[..., :j], axis=-1) * sin[..., j]
            for i in range(j + 1, m + 1):
                prod = cos[..., j]
                for l in range(i):
                    if l != j:
                        prod = prod * sin[..., l]
                if i < m:
                    prod = prod * cos[..., i]
                dy[..., i, j] = prod
        return dy

    # -- full chart ------------------------------------------------------------

    def embed(self, u):
        u = _require(self, u)
        s = u[..., :1]
        return np.concatenate(
            [np.cos(s) * self._factor_embed(u[..., 1:]), np.sin(s)], axis=-1)

    def jacobian(self, u):
        u = _require(self, u)
        s = u[..., :1]
        a = u[..., 1:]
        ds = np.concatenate([-np.sin(s) * self._factor_embed(a), np.cos(s)], axis=-1)
        dy = np.cos(s)[..., None] * self._factor_jacobian(a)
        da = np.concatenate([dy, np.zeros(a.shape[:-1] + (1, self.n - 1))], axis=-2)
        return np.concatenate([ds[..., :, None], da], axis=-1)

    def _metric_diag(self, u):
        u = _require(self, u)
        ones = np.ones(u.shape[:-1] + (1,))
        angular = np.cos(u[..., :1]) ** 2 * self._factor_metric_diag(u[..., 1:])
        return np.concatenate([ones, angular], axis=-1)

    def metric(self, u):
        return _diag(self._metric_diag(u))

    def metric_inverse(self, u):
        return _diag(1.0 / self._metric_diag(u))

    def christoffels(self, u):
        u = _require(self, u)
        n = self.n
        gamma = np.zeros(u.shape[:-1] + (n, n, n))
        tan_s = np.tan(u[..., 0])[..., None]
        # Gamma^s_ab = tan(s) g_ab;  Gamma^a_sb = -tan(s) delta^a_b
        gamma[..., 0, 1:, 1:] = tan_s[..., None] * _diag(self._metric_diag(u)[..., 1:])
        a = np.arange(1, n)
        gamma[..., a, 0, a] = -tan_s
        gamma[..., a, a, 0] = -tan_s
        gamma[..., 1:, 1:, 1:] = self._factor_christoffels(u[..., 1:])
        return gamma


@dataclass(frozen=True)
class ScalarField:
    """Scalar field on (part of) a chart, with optional analytic jets.

    Points are arrays whose last axis holds the n chart coordinates, and
    every call broadcasts over the leading axes, as in horocorr.minkowski:
    value(u) -> (...) values; gradient(u) -> (..., n) partials; hessian(u)
    -> (..., n, n) raw coordinate partials d_i d_j (covariant correction
    applied downstream); domain(u) -> (...) mask restricting the field
    inside the chart, None meaning the whole chart range.  h is the
    finite-difference step used when jets are absent.

    Callables that feed a batched call must broadcast in the same way.  The
    stencil-room check of finite-difference jets is one such call: it hands
    domain every offset point of the stencil at once.  A callable written
    for one (n,) point still serves single-point calls.
    """

    value: Callable[[np.ndarray], np.ndarray]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    domain: Optional[Callable[[np.ndarray], np.ndarray]] = None
    h: float = DEFAULT_FD_STEP

    def in_domain(self, chart, u):
        """Mask over the leading axes of u: inside the chart and the domain."""
        u = np.asarray(u, dtype=float)
        inside = chart.contains(u)
        # domain never sees a batch without a point inside the chart
        if self.domain is None or not np.any(inside):
            return inside
        return inside & np.asarray(self.domain(u), dtype=bool)

    def without_jets(self):
        """Copy of the field that forgets analytic derivatives (forces FD)."""
        return ScalarField(self.value, None, None, self.domain, self.h)


def constant_field(c, h=DEFAULT_FD_STEP):
    return ScalarField(
        value=lambda u: float(c) + np.zeros(np.shape(u)[:-1]),
        gradient=lambda u: np.zeros(np.shape(u)),
        hessian=lambda u: np.zeros(np.shape(u) + np.shape(u)[-1:]),
        h=h,
    )


def radial_band_field(f, fs=None, fss=None, domain_s=None, h=DEFAULT_FD_STEP):
    """Field on a band chart depending on the arc coordinate s = u[..., 0] only.

    f, fs, fss: value and its first/second s-derivatives; domain_s(s) -> mask
    optionally restricts the s-range.  Each takes an array of s values.
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

    domain = None
    if domain_s is not None:
        def domain(u):
            return domain_s(np.asarray(u, dtype=float)[..., 0])

    return ScalarField(value, gradient, hessian, domain, h)


def field_from_ambient(chart, F, h=DEFAULT_FD_STEP, domain=None):
    """Chart-independent field: evaluates an ambient function F(x), x on S^n."""
    return ScalarField(lambda u: F(chart.embed(u)), domain=domain, h=h)


def _stencil_ok(field, chart, u, h):
    """Mask over the leading axes of u: every point central_jet evaluates
    (+-h along each axis, the four diagonal +-h corners of each axis pair)
    lies in the field's domain."""
    steps = h * np.eye(u.shape[-1])
    i, j = np.triu_indices(u.shape[-1], 1)
    offsets = np.concatenate(
        [steps, -steps]
        + [a * steps[i] + b * steps[j] for a in (-1, 1) for b in (-1, 1)])
    return np.all(field.in_domain(chart, u[..., None, :] + offsets), axis=-1)


def axis_values(f, x, h):
    """Values of f at x + h e_i and at x - h e_i for every axis i of the last
    axis of x, stacked along a new axis placed after x's leading axes.

    f may be scalar- or array-valued; on a batch x of shape (..., n) it must
    return values with the same leading axes.
    """
    x = np.asarray(x, dtype=float)
    steps = h * np.eye(x.shape[-1])
    axis = x.ndim - 1
    return (np.stack([f(x + e) for e in steps], axis),
            np.stack([f(x - e) for e in steps], axis))


def central_gradient(f, x, h):
    """First derivatives by central differences, the derivative axis placed
    after x's leading axes; evaluates f only at x +- h e_i."""
    plus, minus = axis_values(f, x, h)
    return (plus - minus) / (2 * h)


def central_jet(f, x, h):
    """(f(x), first derivatives, second derivatives) by second-order central
    differences.

    The derivative axes follow x's leading axes, and the axis count comes
    from x.shape[-1].  Mixed partials use the symmetric four-point stencil,
    so the second derivatives are symmetric in their two derivative axes by
    construction.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    axis = x.ndim - 1
    f0 = f(x)
    plus, minus = axis_values(f, x, h)
    grad = (plus - minus) / (2 * h)
    plus, minus = np.moveaxis(plus, axis, 0), np.moveaxis(minus, axis, 0)
    steps = h * np.eye(n)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = (plus[i] - 2 * f0 + minus[i]) / h**2
        for j in range(i + 1, n):
            ei, ej = steps[i], steps[j]
            rows[i][j] = rows[j][i] = (
                f(x + ei + ej) - f(x + ei - ej)
                - f(x - ei + ej) + f(x - ei - ej)) / (4 * h**2)
    hess = np.stack([np.stack(row, axis) for row in rows], axis)
    return f0, grad, hess


def fd_jet(field, u, h, chart=None):
    """(value, gradient, Hessian) of a field by central differences.

    Raises ChartDomainError if h <= 0 or the stencil of any point leaves the
    field's domain (when a chart is supplied to check against).
    """
    if h <= 0:
        raise ChartDomainError("finite-difference step must be positive")
    u = np.asarray(u, dtype=float)
    if chart is not None and not np.all(_stencil_ok(field, chart, u, h)):
        raise ChartDomainError("stencil escapes the field domain; reduce h or move inward")
    return central_jet(field.value, u, h)


@dataclass(frozen=True)
class GradHess:
    gradient: np.ndarray        # coordinate partials d_i rho, (..., n)
    grad_norm_sq: np.ndarray    # |grad rho|^2 with respect to the chart metric, (...)
    covariant_hessian: np.ndarray  # rho_{i,j} = d_i d_j rho - Gamma^k_ij d_k rho


def gradient_hessian(field, chart, u):
    """First and covariant second derivatives of a field at chart points
    (broadcasting over the leading axes of u).

    Uses analytic jets when the field carries them, otherwise central
    differences with the field's step h (requiring stencil room inside the
    domain).  Raises ChartDomainError if any point is outside the domain.
    """
    u = np.asarray(u, dtype=float)
    inside = field.in_domain(chart, u)
    if not np.all(inside):
        raise ChartDomainError(f"point {u[~inside][0]} outside the field domain")
    if field.gradient is not None and field.hessian is not None:
        grad = np.asarray(field.gradient(u), dtype=float)
        raw_hess = np.asarray(field.hessian(u), dtype=float)
    else:
        _, grad, raw_hess = fd_jet(field, u, field.h, chart=chart)
    cov = raw_hess - np.einsum("...kij,...k->...ij", chart.christoffels(u), grad)
    norm_sq = np.einsum("...i,...ij,...j->...", grad, chart.metric_inverse(u), grad)
    return GradHess(grad, norm_sq, cov)
