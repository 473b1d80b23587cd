"""Elliptic calculus of symmetric curvature functions.

A curvature equation can be written on either side of the metric/hypersurface
dictionary: as f(lambda_1, ..., lambda_n) = const on Schouten eigenvalues, or
as W(kappa_1, ..., kappa_n) = const on principal curvatures in the opposite
orientation.  The two sides are conjugate under the componentwise Moebius map

    T(x) = 1/2 - 1/(1 + x),     T^{-1}(y) = (1 + 2y)/(1 - 2y),

which carries the cone K = {x_i > -1} onto C = {y_i < 1/2} and preserves
ellipticity (positivity of all partial derivatives).  The normal flow acts on
the hypersurface side by another componentwise Moebius shift by tanh(t).
Both are instances of Mobius, whose one input check guards every such map.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import SingularParameterError
from .minkowski import _last_axis_sum, flow_time

METRIC_SIDE = "metric"            # f acting on Schouten eigenvalues, cone in C
HYPERSURFACE_SIDE = "hypersurface"  # W acting on principal curvatures, cone in K


@dataclass(frozen=True)
class Mobius:
    """Componentwise fractional-linear map x -> (a x + b)/(c x + d), with
    coefficient matrix ((a, b), (c, d)) of floats or of arrays broadcasting with x.

    A one-sided map is defined on the open half-line c x + d > 0, so the sign
    of the matrix picks the side; a two-sided map excludes only its pole.
    Either way non-finite input is rejected, in the one check every
    evaluation goes through; arrays within +-1e300 skip its masks after one
    range test.
    """

    matrix: np.ndarray
    two_sided: bool = False

    def _terms(self, x):
        """x as a float array, its domain mask, and u, s, c u + d s with
        x = u/s at its finite entries (0 stands in for the rest): u = x and
        s = 1, the literal terms bit for bit, except where the map has a
        pole and |x| > 1e300; there u = sign(x), s = 1/|x|, so no term
        overflows and c u + d s keeps the sign of c x + d.  One range test
        sends an array with no such entry and no NaN or inf past the masks."""
        x = np.asarray(x, dtype=float)
        (_, _), (c, d) = self.matrix
        direct = x.size and -1e300 <= x.min() and x.max() <= 1e300
        u, s = (x, 1.0) if direct else (np.where(np.isfinite(x), x, 0.0), 1.0)
        if not direct and np.any(c != 0.0) and u.size and np.max(np.abs(u)) > 1e300:
            huge = np.abs(u) > 1e300
            u, s = np.where(huge, np.sign(u), u), 1.0 / np.where(huge, np.abs(u), 1.0)
        denom = c * u + d * s
        inside = np.abs(denom) >= 1e-14 * s if self.two_sided else denom > 0.0
        return x, (inside if direct else np.isfinite(x) & inside), u, s, denom

    def _check(self, x):
        """u, s and c u + d s of _terms(x); raises SingularParameterError
        unless every entry of x is in the domain."""
        x, inside, u, s, denom = self._terms(x)
        if not np.all(inside):
            first = np.broadcast_to(x, inside.shape)[~inside][0]
            raise SingularParameterError(f"input {first:.6g} outside "
                                         f"the domain of {self.matrix.tolist()}")
        return u, s, denom

    def __call__(self, x):
        u, s, denom = self._check(x)
        (a, b), _ = self.matrix
        return (a * u + b * s) / denom

    def derivative(self, x):
        """Componentwise derivative (ad - bc)/(c x + d)^2."""
        _, s, denom = self._check(x)
        (a, b), (c, d) = self.matrix
        wide = np.abs(denom) > 1e154   # denom**2 would overflow: divide twice
        once = np.where(wide, denom, 1.0)
        return (a * d - b * c) * s**2 / np.where(wide, 1.0, denom)**2 / once / once


T = Mobius(np.array([[1.0, -1.0], [2.0, 2.0]]))   # 1/2 - 1/(1 + x), K onto C
T_INV = Mobius(np.array([[2.0, 1.0], [-2.0, 1.0]]))  # (1 + 2y)/(1 - 2y), C onto K


def flow_shift(t):
    """Normal flow by time t on curvatures: x -> (x - tanh t)/(1 - x tanh t).

    Two-sided (only the focal pole 1 - x tanh t = 0 is excluded); shifts
    compose by adding their times.  t passes flow_time and may be an array,
    which broadcasts against x."""
    th = np.tanh(flow_time(t))
    one = np.ones_like(th)
    return Mobius(np.array([[one, -th], [-th, one]]), two_sided=True)


def t_map(x, direction="k_to_c"):
    """Componentwise Moebius map between the two eigenvalue cones.

    k_to_c: x -> 1/2 - 1/(1+x) for x in K; c_to_k: y -> (1+2y)/(1-2y) for
    y in C.  Both are strictly increasing in every component.
    """
    if direction == "k_to_c":
        return T(x)
    if direction == "c_to_k":
        return T_INV(x)
    raise SingularParameterError(f"unknown direction {direction!r}")


@dataclass(frozen=True)
class CurvatureFunction:
    """Symmetric function of n eigenvalues, its analytic gradient and optional Hessian.

    Every callable broadcasts over the leading axes of an (..., n) array of
    eigenvalue points: eval -> (...) values, gradient -> (..., n), hessian
    -> (..., n, n).  Callables that a batch or a stencil reaches must return
    one value per point, even for one (n,) point, since a stencil stacks it.
    """

    side: str
    eval: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None


def _sigma(x, k):
    """sigma_k over the last axis of x: the coefficients of prod(t + x_i),
    built by e_j <- e_j + x_i e_{j-1} for i = 1, ..., n."""
    x = np.asarray(x, dtype=float)
    e = np.zeros(x.shape[:-1] + (k + 1,))
    e[..., 0] = 1.0
    for i in range(x.shape[-1]):
        e[..., 1:] = e[..., 1:] + x[..., i, None] * e[..., :-1]
    return e[..., k]


def elementary_symmetric(n, k, side=METRIC_SIDE):
    """Elementary symmetric polynomial sigma_k of n eigenvalues.

    d sigma_k / dx_i is sigma_{k-1} of x with x_i set to zero, and the mixed
    partial in x_i, x_j (i != j) is sigma_{k-2} with both set to zero."""
    if not 1 <= k <= n:
        raise SingularParameterError("need 1 <= k <= n")
    eye = np.eye(n, dtype=bool)
    pair = eye[:, None, :] | eye[None, :, :]    # slot l is i or j

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return _sigma(np.where(eye, 0.0, x[..., None, :]), k - 1)

    def hessian(x):
        x = np.asarray(x, dtype=float)
        if k < 2:
            return np.zeros(x.shape + (n,))
        H = _sigma(np.where(pair, 0.0, x[..., None, None, :]), k - 2)
        return np.where(eye, 0.0, H)

    return CurvatureFunction(
        side=side, eval=lambda x: _sigma(x, k), gradient=gradient, hessian=hessian)


def _pull_back(F, mobius, side):
    """F o mobius for a componentwise Moebius map, with the gradient by the
    chain rule."""

    def value(x):
        return F.eval(mobius(x))

    def gradient(x):
        outer = np.asarray(F.gradient(mobius(x)), dtype=float)
        return outer * mobius.derivative(x)

    return CurvatureFunction(side=side, eval=value, gradient=gradient)


def conjugate(F):
    """Transport a curvature function to the other side of the dictionary:
    metric-side f becomes W = f o T, hypersurface-side W becomes f = W o T^{-1}.
    Analytic gradients are transported along."""
    if F.side == METRIC_SIDE:
        mobius, new_side = T, HYPERSURFACE_SIDE
    elif F.side == HYPERSURFACE_SIDE:
        mobius, new_side = T_INV, METRIC_SIDE
    else:
        raise SingularParameterError(f"unknown side {F.side!r}")
    return _pull_back(F, mobius, new_side)


def flow_conjugate(W, t):
    """Hypersurface-side function after normal flow time t:
    W^t(x) = W((x - tanh t)/(1 - x tanh t)) componentwise."""
    if W.side != HYPERSURFACE_SIDE:
        raise SingularParameterError("flow conjugation acts on hypersurface-side functions")
    return _pull_back(W, flow_shift(t), HYPERSURFACE_SIDE)


def hessian_transform(f, kappa):
    """Hessian of the conjugate W = f o T expressed through f's jets:

        d2W/dk_i dk_j = f_ij / ((1+k_i)^2 (1+k_j)^2) - 2 delta_ij f_i / (1+k_i)^3

    evaluated at lambda = T(kappa), broadcasting over the leading axes of
    kappa.  f must be metric-side and carry an analytic Hessian."""
    if f.side != METRIC_SIDE:
        raise SingularParameterError("hessian transform starts from a metric-side function")
    if f.hessian is None:
        raise SingularParameterError("hessian transform needs analytic jets of f")
    kappa = np.asarray(kappa, dtype=float)
    lam = T(kappa)
    grad = np.asarray(f.gradient(lam), dtype=float)
    hess = np.asarray(f.hessian(lam), dtype=float)
    one = 1.0 + kappa
    out = hess / (one[..., :, None]**2 * one[..., None, :]**2)
    i = np.arange(kappa.shape[-1])
    out[..., i, i] -= 2.0 * grad / one**3
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def hr_inequality(a):
    """Order inequality sum (a_i - 1)/(a_i + 1) <= 2 sum a_i - n for a_i > -1.

    Returns (lhs, rhs) over the leading axes of a.  Equality at a = 0."""
    a = np.asarray(a, dtype=float)
    lhs = _last_axis_sum(2.0 * T(a))     # 2 T(a) = (a - 1)/(a + 1)
    rhs = 2.0 * _last_axis_sum(a) - a.shape[-1]
    return lhs, rhs
