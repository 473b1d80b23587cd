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

from dataclasses import dataclass

import numpy as np

from .conformal import generalized_eigvalsh, schouten
from .errors import (
    ChartDomainError,
    HyperquadricError,
    ImmersionError,
    SingularParameterError,
)
from .minkowski import flow_time, mink_inner, off_quadric
from .sphere import DEFAULT_FD_STEP, _jets, central_gradient
from .weingarten import T, T_INV, flow_shift

CANONICAL = "canonical"   # orientation with kappa < 1 on convex hypersurfaces
OPPOSITE = "opposite"     # flipped normal: kappa_opp = -kappa_can


@dataclass(frozen=True)
class HypersurfacePoint:
    """Parameter points of an immersed hypersurface, stacked along the leading
    axes of the chart points: position phi on the hyperboloid, unit normal
    eta and light-cone map psi = phi + eta."""

    phi: np.ndarray
    eta: np.ndarray
    psi: np.ndarray


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
    realizability_report(rescale(metric, t), u).  t passes flow_time.  Raises
    ChartDomainError at a point outside the chart and, naming the first such
    point, where phi * phi or psi is not finite: rho + t or |grad rho|^2 is,
    or exp(+-(rho + t)) or phi^2 overflows."""
    flow_time(t)
    u = np.asarray(u, dtype=float)
    chart = metric.chart
    x, J, g = chart.geometry(u)   # refuses u before the field is evaluated
    _, v, grad_norm_sq, _ = _jets(metric.rho, chart, u, g, False)
    w = np.asarray(metric.effective(u) + t)
    with np.errstate(over="ignore", invalid="ignore"):   # J @ v below, as two columns
        grad_ambient = J[..., 0] * v[..., 0, None] + J[..., 1] * v[..., 1, None]
        ew, emw = np.exp(w), np.exp(-w)
        one_x = np.concatenate([np.ones(x.shape[:-1] + (1,)), x], axis=-1)
        radial = np.concatenate([np.zeros(x.shape[:-1] + (1,)), grad_ambient - x], axis=-1)
        height = 0.5 * ew * (1.0 + emw**2 * (1.0 + grad_norm_sq))
        phi = height[..., None] * one_x + emw[..., None] * radial
        psi = ew[..., None] * one_x
        phi_sq = phi * phi
    if not (np.isfinite(phi_sq).all() and np.isfinite(psi).all()):
        bad = ~(np.isfinite(phi_sq).all(axis=-1) & np.isfinite(psi).all(axis=-1))
        point = np.broadcast_to(u, bad.shape + u.shape[-1:])[bad][0]
        raise ChartDomainError(
            f"the immersion is not finite at chart point {point}: rho + t or "
            "|grad rho|^2 is not finite, or exp(+-(rho + t)) or phi^2 overflows")
    return HypersurfacePoint(phi=phi, eta=psi - phi, psi=psi)


def fd_forms(metric, u, t=0.0, h=DEFAULT_FD_STEP):
    """(tangents d_i phi, I, II) at chart points from one immerse call on the
    stacked central-difference stencil, t as in immerse: I_ij = <d_i phi, d_j phi>
    and II_ij = -<d_i eta, d_j phi> symmetrized.  Raises ChartDomainError, before
    that call, unless 0 < h, 2h < inf and h > 1e6 ulp(u) inside the chart, and
    ImmersionError when II is asymmetric beyond 1e-4 of its scale."""
    u = np.asarray(u, dtype=float)

    def frame(v):   # the stencil once h passed its check; t expanded onto its axis
        # inside the chart (immerse refuses the rest), one ulp of u past 1e-6 h
        # (|u| near 1e6 at h = 1e-4) rounds digits off u +- h
        lost = metric.chart.contains(u) & (np.spacing(np.abs(u).max(axis=-1))
                                           > 1e-6 * np.asarray(h))
        if np.any(lost):
            point = np.broadcast_to(u, lost.shape + u.shape[-1:])[lost][0]
            raise ChartDomainError(f"step h = {h} is lost in rounding at chart point {point}")
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
    return dphi, I, 0.5 * (II_raw + II_T)


def extrinsic_curvatures(metric, u, t=0.0, h=DEFAULT_FD_STEP):
    """Principal curvatures at chart points, canonical orientation, ascending
    along a (..., n) axis: det(II - kappa I) = 0 for fd_forms(metric, u, t, h).
    Raises ImmersionError('not an immersion') where I is not positive definite."""
    _, I, II = fd_forms(metric, u, t, h)
    try:
        return generalized_eigvalsh(II, I)
    except np.linalg.LinAlgError:
        raise ImmersionError("not an immersion") from None


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
    (kappa - tanh t)/(1 - kappa tanh t), t broadcasting against kappa."""
    return flow_shift(t)(kappa)


def flow_metric_factor(kappa, t):
    """Scale factor (cosh t - kappa sinh t)^2 of the induced metric under the
    normal flow, t passing flow_time and broadcasting against kappa."""
    t = flow_time(t)
    return (np.cosh(t) - np.asarray(kappa, dtype=float) * np.sinh(t)) ** 2


def fg_metric(metric, u, r):
    """Boundary expansion ghat - r^2 Sch + (r^4/4) Q, a (..., 2, 2) tensor in
    chart coordinates, with Q_ij = ghat^{kl} Sch_ik Sch_jl (ghat diagonal):
    Sch and ghat (SchoutenReport.ghat) come from one schouten call and Q is
    formed once.  r may be an array over the leading axes, as t in immerse;
    only the r terms broadcast, their powers taken on an array for scalar r
    too, so each slice of a batched call has the scalar call's bits.  Raises
    SingularParameterError unless every r is >= 0 with r^4 finite."""
    r = np.asarray(r, dtype=float)[..., None, None]
    with np.errstate(over="ignore"):
        r4 = r**4
    if not np.all((r >= 0.0) & (r4 < np.inf)):   # written so that NaN fails
        raise SingularParameterError("expansion parameter r must be >= 0 with r^4 finite")
    rep = schouten(metric, u)
    Q = (rep.tensor / rep.ghat[..., None, :]) @ rep.tensor
    return rep.ghat[..., None, :] * np.eye(2) - r**2 * rep.tensor + 0.25 * r4 * Q


def support_and_gauss(psi):
    """Support value and Gauss point from the light-cone map psi = e^rho (1, G),
    over the leading axes of psi; raises where psi is not future null, that is
    where off_quadric(psi, psi, 0) or psi0 <= 0."""
    psi = np.asarray(psi, dtype=float)
    if np.any(off_quadric(psi, psi, 0.0) | (psi[..., 0] <= 0.0)):
        raise HyperquadricError("light-cone map is not a future null vector within tolerance")
    p0 = psi[..., 0]
    return SupportData(np.log(p0), psi[..., 1:] / p0[..., None])
