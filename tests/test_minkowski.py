import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horocorr.correspondence import support_and_gauss
from horocorr.errors import DimensionMismatch, HyperquadricError, SingularParameterError
from horocorr.minkowski import (
    FLOW_LIMIT,
    QUADRIC_RTOL,
    _last_axis_sum,
    from_poincare_ball,
    mink_inner,
    normal_flow,
    off_quadric,
    to_poincare_ball,
)
from horocorr.weingarten import hr_inequality
from conftest import random_hyperboloid_point, random_unit_normal


class TestMinkInner:
    def test_base_point(self):
        assert mink_inner([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]) == -1.0

    def test_spacelike_unit(self):
        assert mink_inner([0.0, 1.0, 0.0], [0.0, 1.0, 0.0]) == 1.0

    def test_cosh_sinh_identity(self):
        v = np.array([math.cosh(2 / 3), 0.0, math.sinh(2 / 3)])
        assert mink_inner(v, v) == pytest.approx(-1.0, abs=1e-14)

    def test_bilinear_symmetric(self, rng):
        u, v = rng.normal(size=(2, 5))
        a, b = rng.normal(size=2)
        assert mink_inner(u, v) == pytest.approx(mink_inner(v, u))
        w = rng.normal(size=5)
        assert mink_inner(a * u + b * w, v) == pytest.approx(
            a * mink_inner(u, v) + b * mink_inner(w, v))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mink_inner([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_broadcasting(self, rng):
        u = rng.normal(size=(7, 4))
        v = rng.normal(size=4)
        out = mink_inner(u, v)
        assert out.shape == (7,)
        assert out[3] == pytest.approx(mink_inner(u[3], v))


def assert_same_bits(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestLastAxisSum:
    LEADS = [(), (600,), (30, 20)]   # shapes (n,), (m, n) and (a, b, n)

    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("lead", LEADS)
    def test_matches_numpy_sum(self, rng, n, lead):
        # mixed magnitudes and signs, so the order of the adds shows
        shape = lead + (n,)
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        for view in (x, x[..., ::-1], np.asfortranarray(x)):
            assert_same_bits(_last_axis_sum(view), np.sum(view, axis=-1))

    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1e300]),
                    min_size=1, max_size=9),
           st.sampled_from(LEADS[:2]))
    @settings(max_examples=60, deadline=None)
    def test_signed_zeros(self, row, lead):
        # numpy's sum starts from +0.0, so a row of -0.0 sums to +0.0
        x = np.broadcast_to(np.array(row), lead + (len(row),))
        assert_same_bits(_last_axis_sum(x), np.sum(x, axis=-1))

    def test_empty_axes(self):
        for shape in [(0,), (3, 0), (0, 3)]:
            x = np.zeros(shape)
            assert_same_bits(_last_axis_sum(x), np.sum(x, axis=-1))

    def test_one_point_gives_numpy_scalars(self):
        u = np.array([1.5, 0.25, -2.0])
        assert type(mink_inner(u, u)) is np.float64
        lhs, rhs = hr_inequality(np.array([0.1, 2.0, -0.5]))
        assert type(lhs) is np.float64 and type(rhs) is np.float64


class TestMembership:
    def test_quadric_flags(self):
        assert not off_quadric([1.0, 0.0, 0.0], [1.0, 0.0, 0.0], -1.0)
        assert not off_quadric([0.0, 1.0, 0.0], [0.0, 1.0, 0.0], 1.0)
        assert not off_quadric([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 0.0)
        assert not off_quadric([1.0, 1.0, 0.0], [1.0, 1.0, 0.0], 0.0)
        assert off_quadric([2.0, 0.0, 0.0], [2.0, 0.0, 0.0], -1.0)
        # the lower sheets pass the quadric; the callers' sheet test refuses them
        assert not off_quadric([-1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], -1.0)
        with pytest.raises(HyperquadricError, match="not on the hyperboloid"):
            to_poincare_ball([-1.0, 0.0, 0.0])
        assert not off_quadric([-1.0, -1.0, 0.0], [-1.0, -1.0, 0.0], 0.0)
        with pytest.raises(HyperquadricError, match="not a future null vector"):
            support_and_gauss([-1.0, -1.0, 0.0])

    def test_scale_is_the_first_argument(self):
        # <u, v> = 1e-6: within 1e-9 on u's scale 1e4, off on v's scale 1
        u, v = [100.0, 0.0, 0.0], [-1e-8, 0.0, 0.0]
        assert not off_quadric(u, v, 0.0)
        assert off_quadric(v, u, 0.0)

    def test_timelike_coordinate_at_least_one(self, rng):
        # any unit timelike future vector has v0 >= 1
        for _ in range(200):
            v = random_hyperboloid_point(rng, n_ambient=4)
            assert v[0] >= 1.0


@st.composite
def flowed_frames(draw):
    """(phi, eta, t): one to four frames from conftest's random point and
    normal in R^{1,n+1}, n = 1..3, flowed together by normal_flow to |t| <= 30."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_ambient, rows = draw(st.integers(3, 5)), draw(st.integers(1, 4))
    t = draw(st.floats(-30.0, 30.0))
    phi = np.array([random_hyperboloid_point(rng, n_ambient) for _ in range(rows)])
    eta = np.array([random_unit_normal(rng, p) for p in phi])
    return *normal_flow(phi, eta, t), t


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOffQuadric:
    """The one quadric rule on the frames the normal flow makes."""

    @given(flowed_frames())
    @settings(max_examples=200, deadline=None)
    def test_flowed_frames_pass(self, frame):
        phi, eta, t = frame
        assert not np.any(off_quadric(phi, phi, -1.0)) and np.all(phi[:, 0] > 0)
        assert not np.any(off_quadric(eta, eta, 1.0))
        assert not np.any(off_quadric(phi, eta, 0.0))
        if t >= 0:   # backward, phi + eta = e^t (phi_0 + eta_0) cancels to rounding
            psi = phi + eta
            assert not np.any(off_quadric(psi, psi, 0.0)) and np.all(psi[:, 0] > 0)

    @given(flowed_frames(), st.booleans(), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_relative_nudge_is_off(self, frame, in_eta, row):
        # scaling the largest entry v_k by 1 + 1e-6 moves <v,v> by about
        # 2e-6 v_k^2, with v_k^2 >= max(v0^2, 1/5): 400 times the tolerance
        phi, eta, _ = frame
        v, target = (eta, 1.0) if in_eta else (phi, -1.0)
        row %= len(v)
        v[row, np.argmax(np.abs(v[row]))] *= 1.0 + 1e-6
        assert np.array_equal(off_quadric(v, v, target), np.arange(len(v)) == row)

    @given(flowed_frames(), st.booleans(), st.integers(0, 3), st.integers(0, 4),
           st.sampled_from([math.nan, math.inf, -math.inf]))
    @settings(max_examples=200, deadline=None)
    def test_nonfinite_row_is_off(self, frame, in_eta, row, k, value):
        phi, eta, _ = frame
        v, target = (eta, 1.0) if in_eta else (phi, -1.0)
        row %= len(v)
        v[row, k % v.shape[1]] = value
        broken = np.arange(len(v)) == row
        assert np.array_equal(off_quadric(v, v, target), broken)
        assert np.array_equal(off_quadric(phi, eta, 0.0), broken)


class TestBallModel:
    def test_base_point_to_center(self):
        np.testing.assert_allclose(to_poincare_ball([1.0, 0.0, 0.0]), [0.0, 0.0])

    def test_tanh_half_identity(self):
        p = to_poincare_ball([math.cosh(1.0), math.sinh(1.0), 0.0])
        np.testing.assert_allclose(p, [0.462117, 0.0], atol=1e-6)

    def test_inverse_of_tanh_half_identity(self):
        v = from_poincare_ball([0.462117, 0.0])
        np.testing.assert_allclose(v, [math.cosh(1.0), math.sinh(1.0), 0.0], atol=1e-5)

    def test_origin(self):
        np.testing.assert_allclose(from_poincare_ball([0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_ideal_point_rejected(self):
        with pytest.raises(HyperquadricError, match="ideal point"):
            from_poincare_ball([1.0, 0.0])

    def test_off_hyperboloid_rejected(self):
        with pytest.raises(HyperquadricError):
            to_poincare_ball([2.0, 0.0, 0.0])

    def test_roundtrip_bulk(self, rng):
        # two-sided inverse to 1e-12 on 10^4 samples with |p| <= 0.999
        p = rng.uniform(-1.0, 1.0, size=(10_000, 3))
        norms = np.linalg.norm(p, axis=1)
        p *= (rng.uniform(0.0, 0.999, size=10_000) / np.maximum(norms, 1e-12))[:, None]
        v = from_poincare_ball(p)
        assert not np.any(off_quadric(v, v, -1.0)) and np.all(v[:, 0] > 0)
        assert np.all(np.linalg.norm(to_poincare_ball(v), axis=1) < 1.0)
        np.testing.assert_allclose(to_poincare_ball(v), p, atol=1e-12)

    @given(st.lists(st.floats(-0.49, 0.49), min_size=2, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, coords):
        p = np.asarray(coords)
        v = from_poincare_ball(p)
        np.testing.assert_allclose(to_poincare_ball(v), p, atol=1e-12)
        assert mink_inner(v, v) == pytest.approx(-1.0, abs=1e-9)


def geodesic_point(phi, eta, t, rtol=QUADRIC_RTOL):
    """Position after normal flow time t, the frame checked to rtol first:
    phi on the hyperboloid, eta on de Sitter space, <phi,eta> = 0."""
    phi, eta = np.asarray(phi, dtype=float), np.asarray(eta, dtype=float)
    def within(defect, scale):
        return np.abs(defect) <= rtol * np.maximum(1.0, scale)

    ok = (within(mink_inner(phi, phi) + 1.0, phi[..., 0] ** 2) & (phi[..., 0] > 0)
          & within(mink_inner(eta, eta) - 1.0, eta[..., 0] ** 2)
          & within(mink_inner(phi, eta), np.abs(phi[..., 0] * eta[..., 0])))
    assert np.all(ok), "geodesic data must satisfy <phi,phi>=-1, <eta,eta>=1, <phi,eta>=0"
    return normal_flow(phi, eta, t)[0]


class TestGeodesicPoint:
    def test_time_zero_identity(self, rng):
        phi = random_hyperboloid_point(rng, 4)
        eta = random_unit_normal(rng, phi)
        np.testing.assert_allclose(geodesic_point(phi, eta, 0.0), phi)

    def test_base_frame_evaluation(self):
        out = geodesic_point([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 1.0)
        np.testing.assert_allclose(out, [math.cosh(1.0), math.sinh(1.0), 0.0])

    def test_flow_limit(self):
        # the base frame's squared height cosh(t)^2 stays finite up to the
        # limit; past it, scalar or array, the flow time is refused by name
        out = geodesic_point([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], FLOW_LIMIT)
        assert math.isfinite(out[0] ** 2)
        for t in (math.nextafter(FLOW_LIMIT, math.inf), -800.0, np.array([0.5, 400.0])):
            with pytest.raises(SingularParameterError, match="flow time"):
                normal_flow([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], t)

    def test_stays_on_hyperboloid(self, rng):
        for _ in range(100):
            phi = random_hyperboloid_point(rng, 4)
            eta = random_unit_normal(rng, phi)
            t = rng.uniform(-3.0, 3.0)
            out = geodesic_point(phi, eta, t)
            assert mink_inner(out, out) == pytest.approx(-1.0, abs=1e-9 * out[0] ** 2)

    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_flow_semigroup(self, s, t, seed):
        # flowing by s then t equals flowing by s+t, with the normal transported
        rng = np.random.default_rng(seed)
        phi = random_hyperboloid_point(rng, 3)
        eta = random_unit_normal(rng, phi)
        direct = geodesic_point(phi, eta, s + t)
        phi_s = geodesic_point(phi, eta, s)
        eta_s = phi * math.sinh(s) + eta * math.cosh(s)
        two_step = geodesic_point(phi_s, eta_s, t, rtol=1e-7)
        np.testing.assert_allclose(two_step, direct, atol=1e-10 * max(1.0, direct[0]))
