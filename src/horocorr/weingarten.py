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

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

from .errors import RootBracketError, SingularParameterError
from .sphere import axis_values, central_gradient, central_jet

METRIC_SIDE = "metric"            # f acting on Schouten eigenvalues, cone in C
HYPERSURFACE_SIDE = "hypersurface"  # W acting on principal curvatures, cone in K

CONE_C = "C"        # all x_i < 1/2
CONE_K = "K"        # all x_i > -1
CONE_GAMMA_N = "Gamma_n"  # all x_i > 0
_CONE_ENTRIES = {CONE_C: lambda x: x < 0.5, CONE_K: lambda x: x > -1.0,
                 CONE_GAMMA_N: lambda x: x > 0.0}


@dataclass(frozen=True)
class Mobius:
    """Componentwise fractional-linear map x -> (a x + b)/(c x + d) with
    coefficient matrix ((a, b), (c, d)).

    A one-sided map is defined on the open half-line c x + d > 0, so the sign
    of the matrix picks the side; a two-sided map excludes only its pole.
    Either way non-finite input is rejected, in the one check every
    evaluation goes through.  Composition is the matrix product, and the
    inverse is the adjugate, signed so that it is defined on the image.
    """

    matrix: np.ndarray
    two_sided: bool = False

    def contains(self, x):
        """Mask over the entries of x: finite and inside the domain."""
        x = np.asarray(x, dtype=float)
        finite = np.isfinite(x)
        (_, _), (c, d) = self.matrix
        denom = c * np.where(finite, x, 0.0) + d
        return finite & (np.abs(denom) >= 1e-14 if self.two_sided else denom > 0.0)

    def _check(self, x):
        """x as a float array and its denominator c x + d; raises
        SingularParameterError unless every entry is in the domain."""
        x = np.asarray(x, dtype=float)
        inside = self.contains(x)
        if not np.all(inside):
            raise SingularParameterError(f"input {x[~inside][0]:.6g} outside "
                                         f"the domain of {self.matrix.tolist()}")
        (_, _), (c, d) = self.matrix
        return x, c * x + d

    def __call__(self, x):
        x, denom = self._check(x)
        (a, b), _ = self.matrix
        return (a * x + b) / denom

    def derivative(self, x):
        """Componentwise derivative (ad - bc)/(c x + d)^2."""
        _, denom = self._check(x)
        (a, b), (c, d) = self.matrix
        return (a * d - b * c) / denom**2

    def inverse(self):
        (a, b), (c, d) = self.matrix
        adjugate = np.array([[d, -b], [-c, a]])
        return Mobius(np.sign(a * d - b * c) * adjugate, self.two_sided)

    def __matmul__(self, other):
        """Composition self o other."""
        return Mobius(self.matrix @ other.matrix,
                      self.two_sided and other.two_sided)


T = Mobius(np.array([[1.0, -1.0], [2.0, 2.0]]))   # 1/2 - 1/(1 + x), K onto C
T_INV = T.inverse()                                # (1 + 2y)/(1 - 2y), C onto K


def flow_shift(t):
    """Normal flow by time t on curvatures: x -> (x - tanh t)/(1 - x tanh t).

    Two-sided (only the focal pole 1 - x tanh t = 0 is excluded); shifts
    compose by adding their times."""
    if not math.isfinite(t):
        raise SingularParameterError(f"flow time {t} is not finite")
    th = math.tanh(t)
    return Mobius(np.array([[1.0, -th], [-th, 1.0]]), two_sided=True)


def in_cone(x, tag):
    """Mask over the leading axes of x: every entry of the last axis obeys
    the inequality of the cone."""
    if tag not in _CONE_ENTRIES:
        raise SingularParameterError(f"unknown cone tag {tag!r}")
    return np.all(_CONE_ENTRIES[tag](np.asarray(x, dtype=float)), axis=-1)


@dataclass(frozen=True)
class ConePoint:
    coordinates: np.ndarray
    tag: str

    def __post_init__(self):
        if not np.all(in_cone(self.coordinates, self.tag)):
            raise SingularParameterError(
                f"point {self.coordinates} violates the {self.tag} inequalities")


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
    """Symmetric function of n eigenvalues with optional analytic jets.

    Every callable broadcasts over the leading axes of an (..., n) array of
    eigenvalue points: eval -> (...) values, gradient -> (..., n), hessian
    -> (..., n, n), cone -> (...) mask of the admissible open set (sampled,
    not certified).  Callables that a batch reaches must return one value
    per point; one written for a single (n,) point still serves those.
    """

    side: str
    n: int
    eval: Callable[[np.ndarray], np.ndarray]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    cone: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""

    def __call__(self, x):
        """One value per point of x; SingularParameterError if eval breaks that."""
        x = np.asarray(x, dtype=float)
        values = np.asarray(self.eval(x), dtype=float)
        if values.shape != x.shape[:-1]:
            raise SingularParameterError(
                f"eval gave shape {values.shape}, not one value per point of {x.shape[:-1]}")
        return values[()]


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

    base_tag = CONE_C if side == METRIC_SIDE else CONE_K
    return CurvatureFunction(
        side=side,
        n=n,
        eval=lambda x: _sigma(x, k),
        gradient=gradient,
        hessian=hessian,
        cone=lambda x: in_cone(x, base_tag) & (_sigma(x, k) > 0.0),
        name=f"sigma_{k}",
    )


def mean_function(n, side=METRIC_SIDE):
    """sigma_1 / n, with sigma_1's cone."""
    sigma = elementary_symmetric(n, 1, side)
    return replace(sigma, eval=lambda x: sigma.eval(x) / n,
                   gradient=lambda x: sigma.gradient(x) / n,
                   hessian=lambda x: sigma.hessian(x) / n, name="mean")


def power_mean(n, p, side=METRIC_SIDE):
    """((sum x_i^p)/n)^(1/p); admissible only on the positive cone."""
    if p == 0:
        raise SingularParameterError("p = 0 excluded; use the geometric mean directly")

    def value(x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            raise SingularParameterError("power mean needs positive entries")
        return np.mean(x**p, axis=-1) ** (1.0 / p)

    def gradient(x):
        x = np.asarray(x, dtype=float)
        m = np.mean(x**p, axis=-1)[..., None]
        return (m ** (1.0 / p - 1.0)) * (x ** (p - 1.0)) / n

    base_tag = CONE_C if side == METRIC_SIDE else CONE_K
    return CurvatureFunction(
        side=side,
        n=n,
        eval=value,
        gradient=gradient,
        cone=lambda x: in_cone(x, CONE_GAMMA_N) & in_cone(x, base_tag),
        name=f"power_mean_{p}",
    )


def _pull_back(F, mobius, side, name):
    """F o mobius for a componentwise Moebius map, with the gradient by the
    chain rule and the cone predicate pulled back (False off its domain)."""

    def value(x):
        return F.eval(mobius(x))

    gradient = None
    if F.gradient is not None:
        def gradient(x):
            outer = np.asarray(F.gradient(mobius(x)), dtype=float)
            return outer * mobius.derivative(x)

    cone = None
    if F.cone is not None:
        def cone(x):
            x = np.asarray(x, dtype=float)
            inside = np.all(mobius.contains(x), axis=-1)
            out = np.zeros(inside.shape, dtype=bool)
            # F.cone never sees a batch without a point inside the domain
            if np.any(inside):
                out[inside] = F.cone(mobius(x[inside]))
            return out[()]

    return CurvatureFunction(
        side=side, n=F.n, eval=value, gradient=gradient, cone=cone, name=name)


def conjugate(F):
    """Transport a curvature function to the other side of the dictionary:
    metric-side f becomes W = f o T, hypersurface-side W becomes f = W o T^{-1}.
    Cone predicates and analytic gradients are transported along."""
    if F.side == METRIC_SIDE:
        mobius, new_side = T, HYPERSURFACE_SIDE
    elif F.side == HYPERSURFACE_SIDE:
        mobius, new_side = T_INV, METRIC_SIDE
    else:
        raise SingularParameterError(f"unknown side {F.side!r}")
    return _pull_back(F, mobius, new_side, f"conj[{F.name}]" if F.name else "")


def flow_conjugate(W, t):
    """Hypersurface-side function after normal flow time t:
    W^t(x) = W((x - tanh t)/(1 - x tanh t)) componentwise."""
    if W.side != HYPERSURFACE_SIDE:
        raise SingularParameterError("flow conjugation acts on hypersurface-side functions")
    return _pull_back(W, flow_shift(t), HYPERSURFACE_SIDE,
                      f"{W.name}^t" if W.name else "")


@dataclass(frozen=True)
class EllipticityRecord:
    point: np.ndarray
    partials: np.ndarray
    elliptic: bool   # all partials strictly positive
    smooth: bool     # one-sided differences agree (no kink detected)


def ellipticity_check(F, points, h=1e-5):
    """Finite-difference ellipticity report, one record per point of the
    (..., n) array points, from one batched evaluation of F per stencil slot.

    A point is elliptic when every partial derivative is strictly positive.
    One-sided differences are compared to flag kinks (non-smooth evaluation),
    in which case elliptic is forced False.
    """
    x = np.asarray(points, dtype=float)
    f0 = F(x)[..., None]
    fp, fm = axis_values(F, x, h)
    finite = np.all(np.isfinite(f0) & np.isfinite(fp) & np.isfinite(fm), axis=-1)
    if not np.all(finite):
        raise SingularParameterError(f"non-finite evaluation at or near {x[~finite][0]}")
    forward = (fp - f0) / h
    backward = (f0 - fm) / h
    partials = 0.5 * (forward + backward)
    smooth = ~np.any(np.abs(forward - backward)
                     > 100.0 * h * (1.0 + np.abs(f0) + np.abs(partials)), axis=-1)
    elliptic = smooth & np.all(partials > 0.0, axis=-1)
    n = x.shape[-1]
    return list(map(EllipticityRecord, x.reshape(-1, n), partials.reshape(-1, n),
                    elliptic.ravel().tolist(), smooth.ravel().tolist()))


def hessian_transform(f, kappa, h=1e-4):
    """Hessian of the conjugate W = f o T expressed through f's jets:

        d2W/dk_i dk_j = f_ij / ((1+k_i)^2 (1+k_j)^2) - 2 delta_ij f_i / (1+k_i)^3

    evaluated at lambda = T(kappa), broadcasting over the leading axes of
    kappa.  f must be metric-side."""
    if f.side != METRIC_SIDE:
        raise SingularParameterError("hessian transform starts from a metric-side function")
    kappa = np.asarray(kappa, dtype=float)
    lam = T(kappa)
    grad = (central_gradient(f.eval, lam, h) if f.gradient is None
            else np.asarray(f.gradient(lam), dtype=float))
    hess = (central_jet(f.eval, lam, h)[2] if f.hessian is None
            else np.asarray(f.hessian(lam), dtype=float))
    one = 1.0 + kappa
    out = hess / (one[..., :, None]**2 * one[..., None, :]**2)
    i = np.arange(kappa.shape[-1])
    out[..., i, i] -= 2.0 * grad / one**3
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def hr_inequality(a):
    """Order inequality sum (a_i - 1)/(a_i + 1) <= 2 sum a_i - n for a_i > -1.

    Returns (lhs, rhs, holds) over the leading axes of a.  Equality at a = 0."""
    a = np.asarray(a, dtype=float)
    lhs = np.sum(2.0 * T(a), axis=-1)     # 2 T(a) = (a - 1)/(a + 1)
    rhs = 2.0 * np.sum(a, axis=-1) - a.shape[-1]
    return lhs, rhs, lhs <= rhs + 1e-12


def admissible_constant(F, C, bracket, h=1e-6):
    """Diagonal root F(x, ..., x) = C inside a bracket.

    Validates a sign change over the bracket, that the root has a strictly
    positive diagonal derivative, and (when F carries a cone predicate) that
    the diagonal point is admissible."""
    a, b = bracket

    def diag(x):
        return F.eval(np.full(F.n, float(x))) - C

    fa, fb = diag(a), diag(b)
    if not (np.isfinite(fa) and np.isfinite(fb)):
        raise RootBracketError("bracket endpoints do not evaluate finitely")
    if fa * fb > 0:
        raise RootBracketError("bracket does not straddle a sign change")
    root = float(brentq(diag, a, b, xtol=1e-13))
    slope = central_gradient(lambda r: diag(r[0]), [root], h)[0]
    if slope <= 0:
        raise RootBracketError("diagonal derivative nonpositive at the root")
    if F.cone is not None and not F.cone(np.full(F.n, root)):
        raise RootBracketError("diagonal root falls outside the admissible cone")
    return root
