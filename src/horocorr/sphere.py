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
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ChartDomainError

DEFAULT_FD_STEP = 1e-4


class StereographicChart:
    """Conformal chart on S^n minus one pole; coordinates range over all of R^n."""

    def __init__(self, n):
        if n < 1:
            raise ChartDomainError("sphere dimension must be >= 1")
        self.n = n

    kind = "stereographic"

    def contains(self, u):
        u = np.asarray(u, dtype=float)
        return u.shape[-1] == self.n and bool(np.all(np.isfinite(u)))

    def embed(self, u):
        u = np.asarray(u, dtype=float)
        nsq = u @ u
        x = np.empty(self.n + 1)
        x[:-1] = 2.0 * u / (1.0 + nsq)
        x[-1] = (1.0 - nsq) / (1.0 + nsq)
        return x

    def jacobian(self, u):
        u = np.asarray(u, dtype=float)
        nsq = u @ u
        f = 1.0 + nsq
        J = np.empty((self.n + 1, self.n))
        J[:-1, :] = 2.0 * (f * np.eye(self.n) - 2.0 * np.outer(u, u)) / f**2
        J[-1, :] = -4.0 * u / f**2
        return J

    def metric(self, u):
        u = np.asarray(u, dtype=float)
        conf = 2.0 / (1.0 + u @ u)
        return conf**2 * np.eye(self.n)

    def metric_inverse(self, u):
        u = np.asarray(u, dtype=float)
        conf = 2.0 / (1.0 + u @ u)
        return np.eye(self.n) / conf**2

    def christoffels(self, u):
        # conformal metric e^{2f} delta with f = log 2 - log(1+|u|^2):
        # Gamma^k_ij = d_j f delta^k_i + d_i f delta^k_j - d_k f delta_ij
        u = np.asarray(u, dtype=float)
        df = -2.0 * u / (1.0 + u @ u)
        n = self.n
        eye = np.eye(n)
        gamma = (df[None, :, None] * eye[:, None, :]
                 + df[None, None, :] * eye[:, :, None]
                 - df[:, None, None] * eye[None, :, :])
        return gamma


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
        if u.shape[-1] != self.n or not np.all(np.isfinite(u)):
            return False
        if abs(u[0]) >= np.pi / 2:
            return False
        # middle hyperspherical angles degenerate at 0 and pi
        for a in u[1:-1] if self.n >= 3 else []:
            if not 0.0 < a < np.pi:
                return False
        return True

    def _require(self, u):
        u = np.asarray(u, dtype=float)
        if not self.contains(u):
            raise ChartDomainError(f"point {u} outside band chart range")
        return u

    # -- S^{n-1} factor in hyperspherical angles -------------------------------

    def _factor_embed(self, a):
        # y_1 = cos a1, y_2 = sin a1 cos a2, ..., y_m+1 = sin a1 ... sin a_m
        m = self.n - 1
        y = np.empty(m + 1)
        run = 1.0
        for i in range(m):
            y[i] = run * np.cos(a[i])
            run *= np.sin(a[i])
        y[m] = run
        return y

    def _factor_metric_diag(self, a):
        m = self.n - 1
        h = np.empty(m)
        run = 1.0
        for i in range(m):
            h[i] = run
            run *= np.sin(a[i]) ** 2
        return h

    def _factor_christoffels(self, a):
        m = self.n - 1
        h = self._factor_metric_diag(a)
        gamma = np.zeros((m, m, m))
        for i in range(m):
            for k in range(i):
                cot = 1.0 / np.tan(a[k])
                gamma[k, i, i] = -(h[i] / h[k]) * cot
                gamma[i, i, k] = cot
                gamma[i, k, i] = cot
        return gamma

    # -- full chart ------------------------------------------------------------

    def embed(self, u):
        u = self._require(u)
        s = u[0]
        x = np.empty(self.n + 1)
        if self.n == 1:
            x[0] = np.cos(s)
            x[1] = np.sin(s)
            return x
        y = self._factor_embed(u[1:])
        x[:-1] = np.cos(s) * y
        x[-1] = np.sin(s)
        return x

    def jacobian(self, u):
        u = self._require(u)
        s = u[0]
        J = np.empty((self.n + 1, self.n))
        if self.n == 1:
            J[0, 0] = -np.sin(s)
            J[1, 0] = np.cos(s)
            return J
        a = u[1:]
        y = self._factor_embed(a)
        J[:-1, 0] = -np.sin(s) * y
        J[-1, 0] = np.cos(s)
        for j in range(self.n - 1):
            J[:-1, j + 1] = np.cos(s) * self._factor_embed_partial(a, j)
            J[-1, j + 1] = 0.0
        return J

    def _factor_embed_partial(self, a, j):
        # d/d a_j of the hyperspherical embedding: entry i vanishes for i < j,
        # picks up -sin at i = j, and swaps its sin(a_j) factor for cos(a_j)
        # when i > j
        m = self.n - 1
        dy = np.zeros(m + 1)
        dy[j] = -np.prod(np.sin(a[:j])) * np.sin(a[j])
        for i in range(j + 1, m + 1):
            prod = np.cos(a[j])
            for l in range(i):
                if l != j:
                    prod *= np.sin(a[l])
            if i < m:
                prod *= np.cos(a[i])
            dy[i] = prod
        return dy

    def metric(self, u):
        u = self._require(u)
        g = np.zeros((self.n, self.n))
        g[0, 0] = 1.0
        if self.n > 1:
            h = self._factor_metric_diag(u[1:])
            np.fill_diagonal(g[1:, 1:], np.cos(u[0]) ** 2 * h)
        return g

    def metric_inverse(self, u):
        g = self.metric(u)
        inv = np.zeros_like(g)
        np.fill_diagonal(inv, 1.0 / np.diag(g))
        return inv

    def christoffels(self, u):
        u = self._require(u)
        n = self.n
        gamma = np.zeros((n, n, n))
        if n == 1:
            return gamma
        s = u[0]
        tan_s = np.tan(s)
        g_ang = self.metric(u)[1:, 1:]
        # Gamma^s_ab = tan(s) g_ab;  Gamma^a_sb = -tan(s) delta^a_b
        gamma[0, 1:, 1:] = tan_s * g_ang
        for a in range(1, n):
            gamma[a, 0, a] = -tan_s
            gamma[a, a, 0] = -tan_s
        gamma[1:, 1:, 1:] = self._factor_christoffels(u[1:])
        return gamma


@dataclass(frozen=True)
class ScalarField:
    """Scalar field on (part of) a chart, with optional analytic jets.

    value(u) -> float; gradient(u) -> (n,) partials; hessian(u) -> (n, n) raw
    coordinate partials d_i d_j (covariant correction applied downstream).
    domain(u) -> bool restricts the field inside the chart; None means the
    whole chart range.  h is the finite-difference step used when jets are
    absent.
    """

    value: Callable[[np.ndarray], float]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    domain: Optional[Callable[[np.ndarray], bool]] = None
    h: float = DEFAULT_FD_STEP

    def in_domain(self, chart, u):
        u = np.asarray(u, dtype=float)
        if not chart.contains(u):
            return False
        return True if self.domain is None else bool(self.domain(u))

    def without_jets(self):
        """Copy of the field that forgets analytic derivatives (forces FD)."""
        return ScalarField(self.value, None, None, self.domain, self.h)


@dataclass(frozen=True)
class DomainSample:
    """One chart point of a sampling plan."""

    point: np.ndarray
    inside: bool
    boundary_distance: Optional[float] = None


def constant_field(c, h=DEFAULT_FD_STEP):
    n_arr = np.asarray
    return ScalarField(
        value=lambda u: float(c),
        gradient=lambda u: np.zeros(n_arr(u).shape[-1]),
        hessian=lambda u: np.zeros((n_arr(u).shape[-1],) * 2),
        h=h,
    )


def radial_band_field(f, fs=None, fss=None, domain_s=None, h=DEFAULT_FD_STEP):
    """Field on a band chart depending on the arc coordinate s = u[0] only.

    f, fs, fss: value and its first/second s-derivatives; domain_s(s) -> bool
    optionally restricts the s-range.
    """

    def value(u):
        return float(f(u[0]))

    gradient = None
    if fs is not None:
        def gradient(u):
            g = np.zeros(len(u))
            g[0] = fs(u[0])
            return g

    hessian = None
    if fss is not None:
        def hessian(u):
            H = np.zeros((len(u), len(u)))
            H[0, 0] = fss(u[0])
            return H

    domain = None
    if domain_s is not None:
        def domain(u):
            return bool(domain_s(u[0]))

    return ScalarField(value, gradient, hessian, domain, h)


def field_from_ambient(chart, F, h=DEFAULT_FD_STEP, domain=None):
    """Chart-independent field: evaluates an ambient function F(x), x on S^n."""
    return ScalarField(lambda u: float(F(chart.embed(u))), domain=domain, h=h)


def _stencil_ok(field, chart, u, h):
    n = len(u)
    for i in range(n):
        for step in (-2 * h, -h, h, 2 * h):
            v = u.copy()
            v[i] += step
            if not field.in_domain(chart, v):
                return False
    for i in range(n):
        for j in range(i + 1, n):
            for si in (-h, h):
                for sj in (-h, h):
                    v = u.copy()
                    v[i] += si
                    v[j] += sj
                    if not field.in_domain(chart, v):
                        return False
    return True


def axis_values(f, x, h):
    """Values of f at x + h e_i and at x - h e_i for every axis i, stacked
    along a new leading axis; f may be scalar- or array-valued."""
    x = np.asarray(x, dtype=float)
    steps = h * np.eye(len(x))
    return (np.array([f(x + e) for e in steps]),
            np.array([f(x - e) for e in steps]))


def central_gradient(f, x, h):
    """First derivatives by central differences, one row per axis; evaluates
    f only at x +- h e_i."""
    plus, minus = axis_values(f, x, h)
    return (plus - minus) / (2 * h)


def central_jet(f, x, h):
    """(f(x), first derivatives, second derivatives) by second-order central
    differences.

    Mixed partials use the symmetric four-point stencil, so the second
    derivatives are symmetric in their two leading axes by construction.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    f0 = f(x)
    plus, minus = axis_values(f, x, h)
    grad = (plus - minus) / (2 * h)
    hess = np.empty((n, n) + np.shape(f0))
    steps = h * np.eye(n)
    for i in range(n):
        hess[i, i] = (plus[i] - 2 * f0 + minus[i]) / h**2
        for j in range(i + 1, n):
            ei, ej = steps[i], steps[j]
            hess[i, j] = hess[j, i] = (
                f(x + ei + ej) - f(x + ei - ej)
                - f(x - ei + ej) + f(x - ei - ej)) / (4 * h**2)
    return f0, grad, hess


def fd_jet(field, u, h, chart=None):
    """(value, gradient, Hessian) of a field by central differences.

    Raises ChartDomainError if h <= 0 or the stencil leaves the field's
    domain (when a chart is supplied to check against).
    """
    if h <= 0:
        raise ChartDomainError("finite-difference step must be positive")
    u = np.asarray(u, dtype=float)
    if chart is not None and not _stencil_ok(field, chart, u, h):
        raise ChartDomainError("stencil escapes the field domain; reduce h or move inward")
    return central_jet(field.value, u, h)


@dataclass(frozen=True)
class GradHess:
    gradient: np.ndarray        # coordinate partials d_i rho
    grad_norm_sq: float         # |grad rho|^2 with respect to the chart metric
    covariant_hessian: np.ndarray  # rho_{i,j} = d_i d_j rho - Gamma^k_ij d_k rho


def gradient_hessian(field, chart, u):
    """First and covariant second derivatives of a field at a chart point.

    Uses analytic jets when the field carries them, otherwise central
    differences with the field's step h (requiring stencil room inside the
    domain).
    """
    u = np.asarray(u, dtype=float)
    if not field.in_domain(chart, u):
        raise ChartDomainError(f"point {u} outside the field domain")
    if field.gradient is not None and field.hessian is not None:
        grad = np.asarray(field.gradient(u), dtype=float)
        raw_hess = np.asarray(field.hessian(u), dtype=float)
    else:
        _, grad, raw_hess = fd_jet(field, u, field.h, chart=chart)
    cov = raw_hess - np.einsum("kij,k->ij", chart.christoffels(u), grad)
    norm_sq = float(grad @ chart.metric_inverse(u) @ grad)
    return GradHess(grad, norm_sq, cov)
