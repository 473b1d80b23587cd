"""The dictionary between conformal metrics and hypersurfaces of hyperbolic
space.

Given a conformal metric e^{2(rho+t)} g_{S^n} on a spherical domain, the
representation formula produces an immersion phi into the hyperboloid together
with its unit normal eta and light-cone map psi = phi + eta:

    phi = (e^w/2)(1 + e^{-2w}(1 + |grad rho|^2))(1, x) + e^{-w}(0, -x + grad rho),
    psi = e^w (1, x),        w = rho(u) + t,

with x the sphere point of the chart coordinate u and grad rho its tangent
gradient pushed into R^{n+1}.  The hyperbolic Gauss map of the result is x
itself, and the principal curvatures kappa_i relate to the Schouten
eigenvalues lambda_i of the metric by lambda = 1/2 - 1/(1 - kappa).

The normal flow phi_t = phi cosh t + eta sinh t acts on this picture as a pure
scale change of the metric; principal curvatures evolve by the fraction
(kappa - tanh t)/(1 - kappa tanh t) and the induced metric by the factor
(cosh t - kappa sinh t)^2.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .conformal import generalized_eigvalsh, schouten
from .errors import (
    ChartDomainError,
    HyperquadricError,
    ImmersionError,
    SingularParameterError,
)
from .minkowski import mink_inner, on_null_cone
from .sphere import DEFAULT_FD_STEP, central_gradient, gradient_norm
from .weingarten import T, T_INV, flow_shift

CANONICAL = "canonical"   # orientation with kappa < 1 on convex hypersurfaces
OPPOSITE = "opposite"     # flipped normal: kappa_opp = -kappa_can


@dataclass(frozen=True)
class HypersurfacePoint:
    """Parameter points of an immersed hypersurface, stacked along the leading
    axes of the chart points: position phi on the hyperboloid, unit normal
    eta, light-cone map psi = phi + eta, and (when computed) tangent frame and
    fundamental forms."""

    phi: np.ndarray
    eta: np.ndarray
    psi: np.ndarray
    tangents: Optional[np.ndarray] = None       # rows: d phi / d u^i
    first_form: Optional[np.ndarray] = None
    second_form: Optional[np.ndarray] = None


@dataclass(frozen=True)
class SupportData:
    rho_tilde: np.ndarray     # log of the light-cone height psi_0, (...)
    gauss_point: np.ndarray   # unit vectors of S^n, (..., n + 1)


def immerse(metric, u, t=0.0):
    """Evaluate the representation formula at chart points (broadcasting over
    the leading axes of u); the flow time t may be an array over them.

    A pure evaluation: degenerate inputs give the degenerate output (rho = 0
    collapses to the base point).  Whether the scale t is immersed is the
    "eigenvalues reach the 1/2 bound" flag of
    realizability_report(rescale(metric, t), u).  Raises
    SingularParameterError unless t is finite, and ChartDomainError, naming
    the first such point, where rho + t or |grad rho|^2 is not finite."""
    if not np.all(np.isfinite(t)):
        raise SingularParameterError(f"flow time {t} is not finite")
    u = np.asarray(u, dtype=float)
    chart = metric.chart
    x = chart.embed(u)
    grad, grad_norm_sq, ginv = gradient_norm(metric.rho, chart, u)
    w = np.asarray(metric.effective(u) + t)
    bad = ~(np.isfinite(w) & np.isfinite(grad_norm_sq))
    if np.any(bad):
        point = np.broadcast_to(u, bad.shape + u.shape[-1:])[bad][0]
        raise ChartDomainError(
            f"rho or its gradient is not finite at chart point {point}")
    grad_ambient = (chart.jacobian(u) @ (ginv * grad)[..., None])[..., 0]
    ew, emw = np.exp(w), np.exp(-w)
    one_x = np.concatenate([np.ones(x.shape[:-1] + (1,)), x], axis=-1)
    radial = np.concatenate([np.zeros(x.shape[:-1] + (1,)), grad_ambient - x], axis=-1)
    height = 0.5 * ew * (1.0 + emw**2 * (1.0 + grad_norm_sq))
    phi = height[..., None] * one_x + emw[..., None] * radial
    psi = ew[..., None] * one_x
    return HypersurfacePoint(phi=phi, eta=psi - phi, psi=psi)


def extrinsic_curvatures(metric, u, t=0.0, h=DEFAULT_FD_STEP, return_point=False):
    """Principal curvatures at chart points, canonical orientation: an
    ascending (..., n) array, or (kappas, point) with return_point=True,
    point the HypersurfacePoint of u carrying the tangents and both forms.

    t may be an array over the leading axes of u, as in immerse.  Tangents
    come from central differences of the immersion, one immerse call on the
    stacked stencil; the first fundamental form is I_ij = <d_i phi, d_j phi>,
    the second form II_ij = -<d_i eta, d_j phi> symmetrized, and the kappa's
    solve det(II - kappa I) = 0 (generalized_eigvalsh).  Raises
    ImmersionError('not an immersion') when I is not positive definite at
    some point, and ChartDomainError unless the step h has 0 < h < inf.
    """
    u = np.asarray(u, dtype=float)
    base = immerse(metric, u, t) if return_point else None

    def frame(v):   # t expanded onto the stencil axis
        p = immerse(metric, v, np.asarray(t, dtype=float)[..., None])
        return np.stack([p.phi, p.eta], axis=-2)

    tangents = central_gradient(frame, u, h)
    dphi, deta = tangents[..., 0, :], tangents[..., 1, :]
    I = mink_inner(dphi[..., :, None, :], dphi[..., None, :, :])
    II_raw = -mink_inner(deta[..., :, None, :], dphi[..., None, :, :])
    II_T = np.swapaxes(II_raw, -1, -2)
    asym = np.abs(II_raw - II_T).max(axis=(-2, -1))
    scale = np.maximum(1.0, np.abs(II_raw).max(axis=(-2, -1)))
    if np.any(asym > 1e-4 * scale):
        raise ImmersionError(
            f"second fundamental form asymmetric beyond tolerance ({asym.max():.2e})")
    II = 0.5 * (II_raw + II_T)
    try:
        kappas = generalized_eigvalsh(II, I)
    except np.linalg.LinAlgError:
        raise ImmersionError("not an immersion") from None
    if return_point:
        point = HypersurfacePoint(
            phi=base.phi, eta=base.eta, psi=base.psi,
            tangents=dphi, first_form=I, second_form=II)
        return kappas, point
    return kappas


def lambda_kappa(value, orientation=CANONICAL, direction="lambda_to_kappa"):
    """Convert between Schouten eigenvalues and principal curvatures.

    opposite:   lambda = T(kappa) = 1/2 - 1/(1 + kappa)  <->  kappa = T^{-1}(lambda)
    canonical:  lambda = T(-kappa) = 1/2 - 1/(1 - kappa)  <->  kappa = -T^{-1}(lambda)

    with T the cone map of horocorr.weingarten, so lambda < 1/2 and kappa < 1
    (canonical) or kappa > -1 (opposite).  For a fixed lambda the two
    orientations give opposite kappa's.  Accepts scalars (giving numpy
    scalars) or arrays.
    """
    if orientation == OPPOSITE:
        sign = 1.0
    elif orientation == CANONICAL:
        sign = -1.0
    else:
        raise SingularParameterError(f"unknown orientation {orientation!r}")
    if direction == "lambda_to_kappa":
        return sign * T_INV(value)
    if direction == "kappa_to_lambda":
        return T(sign * np.asarray(value, dtype=float))
    raise SingularParameterError(f"unknown direction {direction!r}")


def ricatti(kappa, t):
    """Principal curvature after normal flow time t:
    (kappa - tanh t)/(1 - kappa tanh t)."""
    return flow_shift(t)(kappa)


def flow_metric_factor(kappa, t):
    """Scale factor (cosh t - kappa sinh t)^2 of the induced metric under the
    normal flow."""
    kappa = np.asarray(kappa, dtype=float)
    return (math.cosh(t) - kappa * math.sinh(t)) ** 2


def fg_metric(metric, u, r):
    """Boundary expansion ghat - r^2 Sch + (r^4/4) Q, a (..., 2, 2) tensor in
    chart coordinates, with Q_ij = ghat^{kl} Sch_ik Sch_jl (ghat diagonal)."""
    if r < 0:
        raise SingularParameterError("expansion parameter r must be >= 0")
    u = np.asarray(u, dtype=float)
    rep = schouten(metric, u)
    ghat = metric.ghat(u)
    Q = (rep.tensor / ghat[..., None, :]) @ rep.tensor
    return ghat[..., None, :] * np.eye(2) - r**2 * rep.tensor + 0.25 * r**4 * Q


def support_and_gauss(psi):
    """Support value and Gauss point from the light-cone map psi = e^rho (1, G),
    over the leading axes of psi; psi must be null within relative 1e-8."""
    psi = np.asarray(psi, dtype=float)
    p0 = psi[..., 0]
    if np.any(p0 <= 0.0):
        raise HyperquadricError("light-cone map must have positive height")
    if not np.all(on_null_cone(psi)):
        raise HyperquadricError("light-cone map is not null within tolerance")
    return SupportData(np.log(p0), psi[..., 1:] / p0[..., None])
