import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horocorr import sphere
from horocorr.conformal import ConformalMetric
from horocorr.correspondence import immerse
from horocorr.errors import ChartDomainError, DimensionMismatch, GeometryError
from horocorr.sphere import (
    DEFAULT_FD_STEP,
    BandChart,
    StereographicChart,
    axis_values,
    central_gradient,
    central_jet,
    constant_field,
    fd_jet,
    gradient_hessian,
    gradient_norm,
    radial_band_field,
    ScalarField,
)


def reference_axis_values(f, x, h):
    """axis_values as one call of f per stencil slot: x + h e_i, then
    x - h e_i, each stacked after x's leading axes."""
    x = np.asarray(x, dtype=float)
    steps = np.moveaxis(np.multiply.outer(h, np.eye(x.shape[-1])), -2, 0)
    axis = x.ndim - 1
    return (np.stack([f(x + e) for e in steps], axis),
            np.stack([f(x - e) for e in steps], axis))


def reference_central_jet(f, x, h):
    """central_jet as one call of f per stencil point: the center, the axis
    pairs of reference_axis_values, and the four corners of each axis pair."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    axis = x.ndim - 1
    f0 = f(x)
    plus, minus = reference_axis_values(f, x, h)
    grad = (plus - minus) / (2 * h)
    plus, minus = np.moveaxis(plus, axis, 0), np.moveaxis(minus, axis, 0)
    steps = h * np.eye(n)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = (plus[i] - 2 * f0 + minus[i]) / (h * h)
        for j in range(i + 1, n):
            ei, ej = steps[i], steps[j]
            rows[i][j] = rows[j][i] = (
                f(x + ei + ej) - f(x + ei - ej)
                - f(x - ei + ej) + f(x - ei - ej)) / (4 * (h * h))
    hess = np.stack([np.stack(row, axis) for row in rows], axis)
    return f0, grad, hess


STENCIL_FUNCTIONS = {
    "scalar": lambda y: np.sin(y[..., 0]) * np.exp(y[..., -1]) + y[..., 0] * y[..., -1] ** 2,
    "vector": lambda y: np.stack(
        [np.log1p(y[..., 0] ** 2), y[..., -1] / (2.0 + np.cos(y[..., 0]))], axis=-1),
}


@st.composite
def stencil_inputs(draw):
    """(f, x, per-point h, scalar h): x of shape (n,), (m, n) or (a, b, n)
    with n in {1, 2, 3}."""
    n = draw(st.integers(1, 3))
    lead = draw(st.sampled_from([(), (draw(st.integers(1, 4)),),
                                 (draw(st.integers(1, 3)), draw(st.integers(1, 3)))]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-1.5, 1.5, size=lead + (n,))
    h = 10.0 ** rng.uniform(-6.0, -2.0, size=lead)
    f = STENCIL_FUNCTIONS[draw(st.sampled_from(sorted(STENCIL_FUNCTIONS)))]
    return f, x, h, float(10.0 ** rng.uniform(-5.0, -2.0))


class TestStackedStencils:
    """One call of f on the stacked stencil gives the bits of one call per
    stencil slot."""

    @given(stencil_inputs())
    @settings(max_examples=60, deadline=None)
    def test_axis_values_match_per_slot_calls(self, case):
        f, x, h, step = case
        for steps in (h, step):
            got = axis_values(f, x, steps)
            want = reference_axis_values(f, x, steps)
            for a, b in zip(got, want):
                assert a.shape == b.shape
                np.testing.assert_array_equal(a, b)

    @given(stencil_inputs())
    @settings(max_examples=60, deadline=None)
    def test_central_jet_matches_per_slot_calls(self, case):
        f, x, _, step = case
        for a, b in zip(central_jet(f, x, step), reference_central_jet(f, x, step)):
            assert np.shape(a) == np.shape(b)
            np.testing.assert_array_equal(a, b)

    def test_one_call_per_stencil(self):
        calls = []

        def f(y):
            calls.append(y.shape)
            return y.sum(axis=-1)

        x = np.zeros((5, 3))
        axis_values(f, x, 1e-3)
        central_jet(f, x, 1e-3)
        assert calls == [(5, 6, 3), (5, 1 + 6 + 12, 3)]

    def test_single_point_callable_is_refused(self):
        # written for one (n,) point, it reads the first stacked point
        one_point = lambda u: u[0] ** 2 + u[1]
        with pytest.raises(DimensionMismatch):
            axis_values(one_point, np.array([0.3, 0.2]), 1e-3)
        with pytest.raises(DimensionMismatch):
            central_jet(one_point, np.array([[0.3, 0.2], [0.1, 0.4]]), 1e-3)
        field = ScalarField(one_point)
        for u in (np.array([0.3, 0.2]), np.array([[0.3, 0.2], [0.1, 0.4]])):
            with pytest.raises(DimensionMismatch):
                gradient_hessian(field, BandChart(), u)


def band_example_field():
    # rho(s) = -1/2 log(1 - s^2), with analytic jets; it lives on BandChart(1.0)
    return radial_band_field(
        f=lambda s: -0.5 * np.log(1.0 - s * s),
        fs=lambda s: s / (1.0 - s * s),
        fss=lambda s: (1.0 + s * s) / (1.0 - s * s) ** 2,
    )


CHARTS = {"band": BandChart(), "stereographic": StereographicChart()}


class TestCharts:
    def test_stereographic_metric_at_origin(self):
        chart = StereographicChart()
        np.testing.assert_allclose(chart.metric(np.zeros(2)), [4.0, 4.0])
        np.testing.assert_allclose(chart.metric_inverse(np.zeros(2)), [0.25, 0.25])

    @pytest.mark.parametrize("chart", [BandChart(), StereographicChart()],
                             ids=["band", "stereographic"])
    def test_metric_is_the_diagonal_and_its_reciprocal(self, chart, rng):
        # both metrics are diagonal: metric and metric_inverse return the
        # (..., 2) diagonal over any leading axes
        u = np.stack([rng.uniform(-1.2, 1.2, (3, 4)), rng.uniform(0.0, 6.0, (3, 4))], -1)
        g, ginv = chart.metric(u), chart.metric_inverse(u)
        assert g.shape == ginv.shape == (3, 4, 2)
        assert ginv.tobytes() == (1.0 / g).tobytes()
        for point, diagonal in zip(u.reshape(-1, 2), g.reshape(-1, 2)):
            assert chart.metric(point).tobytes() == diagonal.tobytes()

    @pytest.mark.parametrize("point", [[1e200, 0.0], [0.0, -1e200], [math.inf, 0.0],
                                       [-math.inf, 0.0], [math.nan, 0.0]])
    def test_stereographic_refuses_far_points_before_arithmetic(self, point):
        # every evaluation checks the range first, so nothing overflows and
        # warns on the way (pytest makes a RuntimeWarning an error)
        chart = StereographicChart()
        metric = ConformalMetric(chart, constant_field(0.5 * math.log(2.0)))
        for evaluate in (chart.embed, chart.jacobian, chart.metric, chart.geometry,
                         chart.metric_inverse, chart.christoffels, metric.ghat):
            with pytest.raises(ChartDomainError, match="outside the chart domain"):
                evaluate(np.array(point))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(CHARTS)),
           st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1e3, 1e3),
                              st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
                    min_size=1, max_size=6))
    def test_closed_forms_match_the_dense_oracles(self, kind, rows):
        # geometry's metric has the bits of metric(u), and the closed-form
        # correction those of the dense einsum over christoffels up to the
        # sign of zero: einsum's sums start from +0, and adding 0.0 maps -0
        # to +0 and changes no other bit
        chart = CHARTS[kind]
        u, grad = np.array(rows)[:, :2], np.array(rows)[:, 2:]
        assert chart.geometry(u)[2].tobytes() == chart.metric(u).tobytes()
        dense = np.einsum("...kij,...k->...ij", chart.christoffels(u), grad)
        assert (chart._christoffel_term(u, grad) + 0.0).tobytes() == dense.tobytes()

    def test_stereographic_domain_is_the_float_range_of_the_metric(self):
        # every coordinate below 2^255: 1/metric, the jacobian and the
        # Christoffels stay finite at the corner of that square, and no point
        # on or past its edge is in the chart
        chart = StereographicChart()
        edge = chart.limit
        corner = np.full(2, np.nextafter(edge, 0.0))
        assert chart.contains(corner) and chart.contains(-corner)
        for values in (chart.metric_inverse(corner), chart.jacobian(corner),
                       chart.christoffels(corner), chart.embed(corner)):
            assert np.all(np.isfinite(values))
        outside = np.array([[edge, 0.0], [0.0, -edge], [1e80, 0.0], [1e200, 1.0],
                            [np.inf, 0.0], [np.nan, 0.0]])
        assert not np.any(chart.contains(outside))

    def test_band_christoffels_vanish_on_equator(self):
        chart = BandChart()
        gamma = chart.christoffels(np.array([0.0, 0.3]))
        np.testing.assert_allclose(gamma[0], 0.0, atol=1e-15)

    def test_band_radial_christoffel_value(self):
        # Gamma^s_theta,theta = tan(s) cos(s)^2 at s = pi/6
        chart = BandChart()
        gamma = chart.christoffels(np.array([np.pi / 6, 1.1]))
        assert gamma[0, 1, 1] == pytest.approx(math.sqrt(3) / 4, abs=1e-12)
        assert gamma[0, 0, 0] == 0.0
        assert gamma[0, 0, 1] == 0.0

    def test_christoffels_symmetric_lower_indices(self, rng):
        for chart in (BandChart(), StereographicChart()):
            for _ in range(20):
                u = rng.uniform(0.2, 1.0, size=chart.n)
                gamma = chart.christoffels(u)
                np.testing.assert_allclose(gamma, np.swapaxes(gamma, 1, 2), atol=1e-14)

    def test_embedding_is_unit_and_matches_metric(self, rng):
        # J^T J equals the chart metric (the embedding is isometric)
        for chart in (BandChart(), StereographicChart()):
            for _ in range(20):
                u = rng.uniform(0.2, 1.0, size=chart.n)
                x = chart.embed(u)
                assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
                J = chart.jacobian(u)
                np.testing.assert_allclose(J.T @ J, np.diag(chart.metric(u)), atol=1e-10)

    def test_band_jacobian_matches_fd(self, rng):
        h = 1e-6
        for chart in (BandChart(), StereographicChart()):
            for _ in range(10):
                u = rng.uniform(0.3, 1.0, size=chart.n)
                J = chart.jacobian(u)
                for i in range(chart.n):
                    e = np.zeros(chart.n)
                    e[i] = h
                    fd = (chart.embed(u + e) - chart.embed(u - e)) / (2 * h)
                    np.testing.assert_allclose(J[:, i], fd, atol=1e-8)

    def test_band_range_error(self):
        # one refusal message on both charts
        with pytest.raises(ChartDomainError, match="outside the chart domain"):
            BandChart().embed(np.array([np.pi / 2, 0.0]))
        with pytest.raises(ChartDomainError, match="outside the chart domain"):
            BandChart(1.0).embed(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("edge", [0.0, -0.5, np.nextafter(np.pi / 2, 2.0), 2.0,
                                      math.nan, math.inf, -math.inf])
    def test_band_edge_outside_the_hemisphere_raises(self, edge):
        # the band's edge is a latitude in (0, pi/2]; a NaN edge would make
        # contains refuse every point
        with pytest.raises(GeometryError, match="band edge"):
            BandChart(edge)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, np.pi / 2, exclude_min=True),
           st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=8),
           st.floats(-1e6, 1e6))
    def test_band_contains_is_the_edge(self, edge, s, a):
        s = np.array(s)
        u = np.column_stack([s, np.full_like(s, a)])
        chart = BandChart(edge)
        assert chart.edge == edge
        np.testing.assert_array_equal(chart.contains(u), np.abs(s) < edge)

    def test_metric_compatibility_invariant(self, rng):
        # d_k g_ij = Gamma^m_ki g_mj + Gamma^m_kj g_im at 100 random band points
        chart = BandChart()
        h = 1e-6
        worst = 0.0
        for _ in range(100):
            u = np.array([rng.uniform(-1.2, 1.2), rng.uniform(0.0, 2 * np.pi)])
            gamma = chart.christoffels(u)
            g = np.diag(chart.metric(u))
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                dg = np.diag(chart.metric(u + e) - chart.metric(u - e)) / (2 * h)
                pred = np.einsum("mi,mj->ij", gamma[:, k, :], g) \
                    + np.einsum("mj,im->ij", gamma[:, k, :], g)
                worst = max(worst, np.abs(dg - pred).max())
        assert worst < 1e-8


class TestFdJet:
    def test_quadratic_exact(self):
        A = np.array([[2.0, -1.0], [-1.0, 3.0]])
        b = np.array([0.5, -0.7])
        field = ScalarField(lambda u: np.einsum("...i,ij,...j->...", u, A, u) + u @ b)
        val, grad, hess = fd_jet(field, np.array([0.3, -0.2]), h=1e-3,
                                 chart=StereographicChart())
        u = np.array([0.3, -0.2])
        assert val == pytest.approx(u @ A @ u + b @ u)
        np.testing.assert_allclose(grad, 2 * A @ u + b, atol=1e-9)
        np.testing.assert_allclose(hess, 2 * A, atol=1e-6)

    def test_second_order_convergence(self):
        field = ScalarField(lambda u: np.sin(u[..., 0]))
        u = np.array([0.7, 0.0])
        _, g1, _ = fd_jet(field, u, h=1e-2, chart=StereographicChart())
        _, g2, _ = fd_jet(field, u, h=5e-3, chart=StereographicChart())
        err1 = abs(g1[0] - math.cos(0.7))
        err2 = abs(g2[0] - math.cos(0.7))
        assert err1 / err2 >= 3.5  # halving h must cut the error ~4x

    @pytest.mark.parametrize("h", [0.0, -1e-4, math.nan, math.inf])
    def test_rejects_nonpositive_step(self, h):
        field = ScalarField(lambda u: 0.0)
        with pytest.raises(ChartDomainError, match="step must be positive"):
            fd_jet(field, np.zeros(2), h=h, chart=StereographicChart())

    def test_stencil_domain_guard(self):
        chart = BandChart(1.0)
        field = band_example_field()
        with pytest.raises(ChartDomainError):
            fd_jet(field, np.array([0.995, 0.0]), h=1e-2, chart=chart)

    def test_stencil_room_is_what_the_stencil_reaches(self):
        # central_jet reaches +-h along each axis and the +-h diagonal
        # corners, so a point 1.5h inside the domain edge has room and a
        # point 0.5h inside does not; h is the step gradient_hessian takes
        chart = BandChart(0.5)
        h = DEFAULT_FD_STEP
        field = radial_band_field(f=np.exp, fs=np.exp, fss=np.exp)
        u = np.array([0.5 - 1.5 * h, 0.7])
        value, grad, hess = fd_jet(field, u, h=h, chart=chart)
        assert value == pytest.approx(math.exp(u[0]), rel=1e-12)
        np.testing.assert_allclose(grad, field.gradient(u), atol=1e-6)
        np.testing.assert_allclose(hess, field.hessian(u), atol=1e-6)
        exact = gradient_hessian(field, chart, u)
        fd = gradient_hessian(field.without_jets(), chart, u)
        np.testing.assert_allclose(fd.gradient, exact.gradient, atol=1e-6)
        np.testing.assert_allclose(
            fd.covariant_hessian, exact.covariant_hessian, atol=1e-6)
        with pytest.raises(ChartDomainError):
            fd_jet(field, np.array([0.5 - 0.5 * h, 0.7]), h=h, chart=chart)

    def test_one_stencil_checked_then_evaluated(self, monkeypatch):
        # fd_jet builds one stencil; the field sees exactly the array that
        # the chart's domain check accepted, and nothing when it refuses
        builds, checked, evaluated = [], [], []
        build = sphere._stencil_points
        monkeypatch.setattr(sphere, "_stencil_points",
                            lambda *args, **kw: builds.append(1) or build(*args, **kw))

        class SpyChart(BandChart):
            def contains(self, u):
                checked.append(u)
                return super().contains(u)

        field = ScalarField(lambda u: evaluated.append(u) or np.exp(u[..., 0]))
        chart, h = SpyChart(0.5), 1e-3
        fd_jet(field, np.array([[0.1, 0.7], [0.2, 0.3]]), h, chart)
        assert (len(builds), len(checked), len(evaluated)) == (1, 1, 1)
        assert evaluated[0] is checked[0]
        with pytest.raises(ChartDomainError, match="stencil escapes"):
            fd_jet(field, np.array([0.5 - 0.5 * h, 0.7]), h, chart)
        assert (len(builds), len(checked), len(evaluated)) == (2, 2, 1)

    @pytest.mark.parametrize("f", [
        lambda y: y[..., 0] * y[..., 1] - y[..., 2] ** 3,
        lambda y: np.stack([y[..., 0] ** 2, y[..., 1] / (2.0 + y[..., 2])], axis=-1),
    ], ids=["scalar-valued", "vector-valued"])
    def test_per_point_step_matches_stacked_scalar_steps(self, f, rng):
        # a step per point, or one broadcast over the last leading axis,
        # gives the bits of one scalar-step call per point
        x = rng.normal(size=(4, 5, 3))
        h = 10.0 ** rng.uniform(-6.0, -2.0, size=(4, 5))
        for steps in (h, h[0]):
            got = central_gradient(f, x, steps)
            want = [[central_gradient(f, x[i, j], np.broadcast_to(steps, h.shape)[i, j])
                     for j in range(5)] for i in range(4)]
            np.testing.assert_array_equal(got, np.array(want))


class WholePlane:
    """Chart stand-in that contains every point, so that only the step
    check can refuse."""

    def contains(self, u):
        return np.ones(np.shape(u)[:-1], dtype=bool)


STEP_ROUTES = (axis_values, central_gradient, central_jet,
               lambda f, x, h: fd_jet(ScalarField(f), x, h, WholePlane()))


def step_refused(h):
    """The rule, written apart from the code: every step must be positive
    with 2h finite (Python float arithmetic, which overflows to inf)."""
    return not all(s > 0.0 and math.isfinite(2.0 * s) for s in map(float, np.ravel(h)))


class TestStepRefusal:
    HALF_MAX = 0.5 * np.finfo(float).max
    PAST_HALF_MAX = math.nextafter(HALF_MAX, math.inf)

    @given(st.floats(), st.lists(st.floats(), min_size=3, max_size=3))
    @example(0.0, [1e-4, -0.0, 1e-4])
    @example(-1e-4, [1e-4, math.nan, 1e-3])
    @example(math.inf, [-math.inf, 1e-4, 1e-4])
    @example(HALF_MAX, [HALF_MAX, 5e-324, 1.0])
    @example(PAST_HALF_MAX, [1e-4, 1e-4, PAST_HALF_MAX])
    @settings(max_examples=100, deadline=None)
    def test_every_route_refuses_the_same_steps(self, step, steps):
        # scalar and per-point steps alike; an accepted extreme step may
        # overflow the difference quotients, which is not the check's concern
        x = np.array([[0.1, 0.2], [-0.3, 0.4], [0.5, -0.6]])
        f = lambda y: np.sin(y[..., 0]) * np.cos(y[..., 1])
        for h in (step, np.array(steps)):
            for route in STEP_ROUTES:
                if step_refused(h):
                    with pytest.raises(ChartDomainError, match="step must be positive"):
                        route(f, x, h)
                else:
                    with np.errstate(all="ignore"):
                        route(f, x, h)


class TestGradientHessian:
    def test_constant_field(self):
        chart = BandChart()
        out = gradient_hessian(constant_field(3.0), chart, np.array([0.4, 1.0]))
        np.testing.assert_allclose(out.gradient, 0.0)
        assert out.grad_norm_sq == 0.0
        np.testing.assert_allclose(out.covariant_hessian, 0.0)

    def test_band_example_first_derivative(self):
        chart = BandChart()
        out = gradient_hessian(band_example_field(), chart, np.array([0.5, 0.3]))
        assert out.gradient[0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_band_example_second_derivative(self):
        chart = BandChart()
        out = gradient_hessian(band_example_field(), chart, np.array([0.5, 0.3]))
        assert out.covariant_hessian[0, 0] == pytest.approx(1.25 / 0.5625, abs=1e-12)

    def test_band_example_fd_matches_analytic(self):
        chart = BandChart()
        u = np.array([0.5, 0.3])
        exact = gradient_hessian(band_example_field(), chart, u)
        fd = gradient_hessian(band_example_field().without_jets(), chart, u)
        np.testing.assert_allclose(fd.gradient, exact.gradient, atol=1e-4)
        np.testing.assert_allclose(
            fd.covariant_hessian, exact.covariant_hessian, atol=1e-4)

    def test_angular_covariant_hessian(self):
        # for a radial field, rho_{theta,theta} = -Gamma^s_theta,theta rho_s
        chart = BandChart()
        u = np.array([0.5, 0.3])
        out = gradient_hessian(band_example_field(), chart, u)
        s = u[0]
        expected = -math.tan(s) * math.cos(s) ** 2 * (s / (1 - s * s))
        assert out.covariant_hessian[1, 1] == pytest.approx(expected, abs=1e-12)

    def test_chart_agreement_on_grad_norm(self):
        # the same intrinsic field through two charts gives the same |grad|^2
        F = lambda x: np.sin(x[..., 0]) * x[..., 2] + 0.3 * x[..., 1]
        band = BandChart()
        stereo = StereographicChart()
        f_band = ScalarField(lambda u: F(band.embed(u)))
        f_st = ScalarField(lambda u: F(stereo.embed(u)))
        for u_band in (np.array([0.4, 0.9]), np.array([-0.3, 2.2])):
            x = band.embed(u_band)
            # invert the stereographic embedding: u = (x_1..x_n)/(1 + x_{n+1})
            u_st = x[:-1] / (1.0 + x[-1])
            a = gradient_hessian(f_band, band, u_band).grad_norm_sq
            b = gradient_hessian(f_st, stereo, u_st).grad_norm_sq
            assert a == pytest.approx(b, abs=1e-6)

    def test_domain_error(self):
        chart = BandChart(1.0)
        with pytest.raises(ChartDomainError, match="outside the chart domain"):
            gradient_hessian(band_example_field(), chart, np.array([1.2, 0.0]))


class TestGradientNorm:
    @pytest.mark.parametrize("jets", ["analytic", "fd"])
    @pytest.mark.parametrize("chart", [BandChart(), StereographicChart()],
                             ids=["band", "stereographic"])
    def test_bits_of_gradient_hessian(self, jets, chart, rng):
        field = band_example_field() if chart.kind == "band" else ScalarField(
            lambda u: np.sin(u[..., 0]) * u[..., 1],
            lambda u: np.stack([np.cos(u[..., 0]) * u[..., 1], np.sin(u[..., 0])], -1),
            lambda u: np.zeros(np.shape(u) + (2,)))
        if jets == "fd":
            field = field.without_jets()
        u = np.column_stack([rng.uniform(-0.9, 0.9, 40), rng.uniform(0.0, 6.0, 40)])
        # the jets take the metric diagonal from their caller: the geometry
        # diagonal, as in immerse, and metric(u), as in gradient_hessian
        g = chart.geometry(u)[2]
        raised, norm_sq = gradient_norm(field, chart, u, g)
        full = gradient_hessian(field, chart, u)
        assert full.metric.tobytes() == g.tobytes()
        assert raised.tobytes() == (full.gradient * chart.metric_inverse(u)).tobytes()
        assert norm_sq.tobytes() == full.grad_norm_sq.tobytes()

    def test_analytic_hessian_not_evaluated(self):
        band = band_example_field()

        def hessian(u):
            raise AssertionError("the Hessian was evaluated")

        field = ScalarField(band.value, band.gradient, hessian)
        u = np.array([0.5, 0.3])
        raised, _ = gradient_norm(field, BandChart(), u, BandChart().metric(u))
        assert raised[0] == pytest.approx(2.0 / 3.0, abs=1e-12)   # g_ss = 1

    def test_domain_error(self):
        # the jets do not check the range: their callers' one chart call does,
        # before any field callable runs
        def refuse(u):
            raise AssertionError("the field was evaluated")

        field, u = ScalarField(refuse, refuse, refuse), np.array([1.2, 0.0])
        with pytest.raises(ChartDomainError, match="outside the chart domain"):
            immerse(ConformalMetric(BandChart(1.0), field), u)
        with pytest.raises(ChartDomainError, match="outside the chart domain"):
            gradient_hessian(field, BandChart(1.0), u)
