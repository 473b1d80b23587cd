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
from dataclasses import dataclass
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

    def _check(self, x):
        """x as a float array and its denominator c x + d; raises
        SingularParameterError on non-finite input, the pole, and (one-sided)
        the excluded half-line."""
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise SingularParameterError("non-finite input to a Moebius map")
        (_, _), (c, d) = self.matrix
        denom = c * x + d
        if self.two_sided:
            if np.any(np.abs(denom) < 1e-14):
                raise SingularParameterError(f"input at the pole x = {-d / c:.6g}")
        elif np.any(denom <= 0.0):
            side = ">" if c > 0 else "<"
            raise SingularParameterError(
                f"input outside the domain x {side} {-d / c:.6g}")
        return x, denom

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
    x = np.asarray(x, dtype=float)
    if tag == CONE_C:
        return bool(np.all(x < 0.5))
    if tag == CONE_K:
        return bool(np.all(x > -1.0))
    if tag == CONE_GAMMA_N:
        return bool(np.all(x > 0.0))
    raise SingularParameterError(f"unknown cone tag {tag!r}")


@dataclass(frozen=True)
class ConePoint:
    coordinates: np.ndarray
    tag: str

    def __post_init__(self):
        if not in_cone(self.coordinates, self.tag):
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

    cone(x) -> bool marks the admissible open set (sampled, not certified);
    gradient and hessian, when given, are analytic derivatives.
    """

    side: str
    n: int
    eval: Callable[[np.ndarray], float]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    cone: Optional[Callable[[np.ndarray], bool]] = None
    name: str = ""

    def __call__(self, x):
        return float(self.eval(np.asarray(x, dtype=float)))


def _sigma_value(x, k):
    # coefficients of prod(t + x_i) are the elementary symmetric polynomials
    return float(np.poly(-np.asarray(x, dtype=float))[k])


def elementary_symmetric(n, k, side=METRIC_SIDE):
    """Elementary symmetric polynomial sigma_k of n eigenvalues."""
    if not 1 <= k <= n:
        raise SingularParameterError("need 1 <= k <= n")

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return np.array([
            _sigma_value(np.delete(x, i), k - 1) if k > 1 else 1.0
            for i in range(n)])

    def hessian(x):
        x = np.asarray(x, dtype=float)
        H = np.zeros((n, n))
        if k >= 2:
            for i in range(n):
                for j in range(i + 1, n):
                    rest = np.delete(x, [i, j])
                    H[i, j] = H[j, i] = (
                        _sigma_value(rest, k - 2) if k > 2 else 1.0)
        return H

    base_tag = CONE_C if side == METRIC_SIDE else CONE_K
    return CurvatureFunction(
        side=side,
        n=n,
        eval=lambda x: _sigma_value(x, k),
        gradient=gradient,
        hessian=hessian,
        cone=lambda x: in_cone(x, base_tag) and _sigma_value(x, k) > 0.0,
        name=f"sigma_{k}",
    )


def mean_function(n, side=METRIC_SIDE):
    sigma = elementary_symmetric(n, 1, side)
    return CurvatureFunction(
        side=side,
        n=n,
        eval=lambda x: sigma(x) / n,
        gradient=lambda x: np.full(n, 1.0 / n),
        hessian=lambda x: np.zeros((n, n)),
        cone=sigma.cone,
        name="mean",
    )


def power_mean(n, p, side=METRIC_SIDE):
    """((sum x_i^p)/n)^(1/p); admissible only on the positive cone."""
    if p == 0:
        raise SingularParameterError("p = 0 excluded; use the geometric mean directly")

    def value(x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            raise SingularParameterError("power mean needs positive entries")
        return float((np.mean(x**p)) ** (1.0 / p))

    def gradient(x):
        x = np.asarray(x, dtype=float)
        m = np.mean(x**p)
        return (m ** (1.0 / p - 1.0)) * (x ** (p - 1.0)) / n

    base_tag = CONE_C if side == METRIC_SIDE else CONE_K
    return CurvatureFunction(
        side=side,
        n=n,
        eval=value,
        gradient=gradient,
        cone=lambda x: in_cone(x, CONE_GAMMA_N) and in_cone(x, base_tag),
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
            try:
                y = mobius(x)
            except SingularParameterError:
                return False
            return bool(F.cone(y))

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
    """Finite-difference ellipticity report at each point.

    A point is elliptic when every partial derivative is strictly positive.
    One-sided differences are compared to flag kinks (non-smooth evaluation),
    in which case elliptic is forced False.
    """
    records = []
    for point in points:
        x = np.asarray(point, dtype=float)
        f0 = F.eval(x)
        if not np.isfinite(f0):
            raise SingularParameterError(f"non-finite evaluation at {x}")
        fp, fm = axis_values(F.eval, x, h)
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise SingularParameterError(f"non-finite evaluation near {x}")
        forward = (fp - f0) / h
        backward = (f0 - fm) / h
        partials = 0.5 * (forward + backward)
        smooth = not np.any(np.abs(forward - backward)
                            > 100.0 * h * (1.0 + abs(f0) + np.abs(partials)))
        records.append(EllipticityRecord(
            point=x,
            partials=partials,
            elliptic=bool(smooth and np.all(partials > 0.0)),
            smooth=smooth,
        ))
    return records


def hessian_transform(f, kappa, h=1e-4):
    """Hessian of the conjugate W = f o T expressed through f's jets:

        d2W/dk_i dk_j = f_ij / ((1+k_i)^2 (1+k_j)^2) - 2 delta_ij f_i / (1+k_i)^3

    evaluated at lambda = T(kappa).  f must be metric-side."""
    if f.side != METRIC_SIDE:
        raise SingularParameterError("hessian transform starts from a metric-side function")
    kappa = np.asarray(kappa, dtype=float)
    lam = T(kappa)
    if f.gradient is not None:
        grad = np.asarray(f.gradient(lam), dtype=float)
    else:
        grad = central_gradient(f.eval, lam, h)
    if f.hessian is not None:
        hess = np.asarray(f.hessian(lam), dtype=float)
    else:
        hess = central_jet(f.eval, lam, h)[2]
    one = 1.0 + kappa
    out = hess / np.outer(one**2, one**2)
    out[np.diag_indices_from(out)] -= 2.0 * grad / one**3
    return 0.5 * (out + out.T)


def hr_inequality(a):
    """Order inequality sum (a_i - 1)/(a_i + 1) <= 2 sum a_i - n for a_i > -1.

    a is one point (n,) or a batch (m, n) of rows.  Returns (lhs, rhs, holds):
    floats and a bool for one point, arrays over the rows of a batch.
    Equality at a = 0."""
    a = np.asarray(a, dtype=float)
    lhs = np.sum(2.0 * T(a), axis=-1)     # 2 T(a) = (a - 1)/(a + 1)
    rhs = 2.0 * np.sum(a, axis=-1) - a.shape[-1]
    holds = lhs <= rhs + 1e-12
    if a.ndim == 1:
        return float(lhs), float(rhs), bool(holds)
    return lhs, rhs, holds


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
