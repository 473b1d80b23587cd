"""Minkowski linear algebra and hyperbolic model conversions.

Conventions
-----------
A point of R^{1,n+1} is a numpy array whose LAST axis has length n+2; index 0
is the timelike coordinate.  The inner product is

    <u, v> = -u[0]*v[0] + u[1]*v[1] + ... + u[n+1]*v[n+1].

The hyperboloid model H^{n+1} is {<v,v> = -1, v[0] > 0}, the de Sitter space
S1^{n+1} is {<v,v> = 1}, and the forward null cone N+ is {<v,v> = 0, v[0] > 0}.
Every such test, and <u,v> = 0, is one rule: off_quadric, relative QUADRIC_RTOL
on the scale max(1, u0^2), with the sheet test v[0] > 0 beside it.  flow_time
guards every flow time, sample_count every count of sampled points.  A ball point
is a numpy array of length n+1 with Euclidean norm < 1 (norm 1: ideal points).

All operations broadcast over leading axes, so an (m, n+2) array is treated as
m vectors at once.  Sums over a short last axis (a vector's coordinates, a
point's eigenvalues) go through _last_axis_sum: numpy's bits by column adds.
"""

import math

import numpy as np

from .errors import DimensionMismatch, HyperquadricError, SamplingError, SingularParameterError

QUADRIC_RTOL = 1e-9   # relative tolerance of every quadric test, see off_quadric
FLOW_LIMIT = 0.5 * np.log(np.finfo(float).max / 4.0)   # largest |w| with 4 e^{2w} finite
MAX_SAMPLES = 2 ** 16   # most points one builder makes, see sample_count


def _check_dims(u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[-1] != v.shape[-1]:
        raise DimensionMismatch(
            f"ambient dimensions differ: {u.shape[-1]} vs {v.shape[-1]}")
    if u.shape[-1] < 2:
        raise DimensionMismatch("need at least a 1+1 dimensional ambient space")
    return u, v


def _last_axis_sum(x):
    """np.sum(x, axis=-1) bit for bit: numpy adds fewer than 8 entries left
    to right from +0.0, as the column adds here do, at memory speed."""
    if x.ndim == 0 or not 0 < x.shape[-1] < 8:
        return np.sum(x, axis=-1)
    out = x[..., 0] + 0.0     # a fresh array, with -0.0 turned to +0.0
    for k in range(1, x.shape[-1]):
        out += x[..., k]
    return out[()]


def mink_inner(u, v):
    """Minkowski inner product -u0*v0 + sum(ui*vi), broadcasting over leading axes."""
    u, v = _check_dims(u, v)
    prod = u * v
    return _last_axis_sum(prod[..., 1:]) - prod[..., 0]


def off_quadric(u, v, target):
    """True where <u,v> misses target by more than QUADRIC_RTOL * max(1, u0^2),
    broadcasting over leading axes; NaN, and u0^2 overflowing, count as off."""
    u, v = _check_dims(u, v)
    with np.errstate(over="ignore", invalid="ignore"):
        tol = QUADRIC_RTOL * np.maximum(1.0, u[..., 0] ** 2)
        return ~((np.abs(mink_inner(u, v) - target) <= tol) & (tol < np.inf))


def to_poincare_ball(v):
    """Map a hyperboloid point to the open unit ball: (v1,...,vn+1)/(1+v0).

    Raises HyperquadricError where off_quadric(v, v, -1) or v0 <= 0.
    Broadcasts over leading axes.
    """
    v = np.asarray(v, dtype=float)
    if np.any(off_quadric(v, v, -1.0) | (v[..., 0] <= 0.0)):
        raise HyperquadricError("input is not on the hyperboloid within tolerance")
    return v[..., 1:] / (1.0 + v[..., 0])[..., None]


def from_poincare_ball(p):
    """Inverse of to_poincare_ball: x0 = (1+|p|^2)/(1-|p|^2), xi = 2 pi/(1-|p|^2).

    Raises HyperquadricError for |p| >= 1 (ideal point or beyond).
    """
    p = np.asarray(p, dtype=float)
    nsq = _last_axis_sum(p * p)
    if np.any(nsq >= 1.0):
        raise HyperquadricError("ideal point: |p| >= 1 has no hyperboloid preimage")
    denom = 1.0 - nsq
    out = np.empty(p.shape[:-1] + (p.shape[-1] + 1,))
    out[..., 0] = (1.0 + nsq) / denom
    out[..., 1:] = 2.0 * p / denom[..., None]
    return out


def flow_time(t, name="flow time"):
    """t, a float or an array, unchanged: the one guard of flow times and of rho + t.
    Raises SingularParameterError naming the first entry that is NaN or past FLOW_LIMIT."""
    bad = ~(np.abs(t) <= FLOW_LIMIT)   # written so that NaN fails
    if np.any(bad):
        raise SingularParameterError(f"{name} = {np.asarray(t)[bad][0]} is not finite "
                                     f"or outside [-{FLOW_LIMIT:.3f}, {FLOW_LIMIT:.3f}]")
    return t


def sample_count(n, name, minimum=1):
    """n unchanged: the one guard of sample counts, run before anything sized by n.
    Raises SamplingError naming n unless it is an integer in [minimum, MAX_SAMPLES]."""
    if not (isinstance(n, (int, np.integer)) and minimum <= n <= MAX_SAMPLES):
        raise SamplingError(f"{name} = {n!r} is not an integer in [{minimum}, {MAX_SAMPLES}]")
    return n


def normal_flow(phi, eta, t):
    """Frame (phi cosh t + eta sinh t, phi sinh t + eta cosh t) after normal
    flow time t, a float, for phi on the hyperboloid and eta on de Sitter
    space with <phi,eta> = 0; the frame is not checked here.  t passes
    flow_time and takes math's cosh and sinh, whose bits numpy's do not
    always match."""
    flow_time(t)
    phi, eta = _check_dims(phi, eta)
    ch, sh = math.cosh(t), math.sinh(t)
    return phi * ch + eta * sh, phi * sh + eta * ch
