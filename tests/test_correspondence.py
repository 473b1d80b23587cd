import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horocorr import correspondence
from horocorr.analysis import make_example
from horocorr.conformal import (
    ConformalMetric,
    flow_time_for_bound,
    realizability_report,
    rescale,
    schouten,
)
from horocorr.correspondence import (
    CANONICAL,
    OPPOSITE,
    extrinsic_curvatures,
    fd_forms,
    fg_metric,
    flow_metric_factor,
    immerse,
    lambda_kappa,
    ricatti,
    support_and_gauss,
)
from horocorr.errors import (
    ChartDomainError,
    GeometryError,
    HyperquadricError,
    ImmersionError,
    SingularParameterError,
)
from horocorr.minkowski import mink_inner
from horocorr.sphere import (
    BandChart,
    ScalarField,
    StereographicChart,
    constant_field,
    gradient_hessian,
    radial_band_field,
)

from test_analysis import band_horosphere, stereographic_horosphere
from test_conformal import band_metric, cylinder_metric
from test_minkowski import geodesic_point

RHO0 = 0.5 * math.log(2.0)


def sphere_metric(rho0=RHO0):
    return ConformalMetric(StereographicChart(), constant_field(rho0))


def generic_band_metric():
    rho = radial_band_field(
        f=lambda s: 0.2 * np.sin(s),
        fs=lambda s: 0.2 * np.cos(s),
        fss=lambda s: -0.2 * np.sin(s),
    )
    return ConformalMetric(BandChart(), rho)


class TestImmerse:
    def test_degenerate_collapse(self, rng):
        metric = ConformalMetric(StereographicChart(), constant_field(0.0))
        for _ in range(20):
            u = rng.uniform(-2.0, 2.0, size=2)
            p = immerse(metric, u)
            np.testing.assert_allclose(p.phi, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_geodesic_sphere_closed_form(self, rng):
        metric = sphere_metric()
        for _ in range(20):
            u = rng.uniform(-2.0, 2.0, size=2)
            x = metric.chart.embed(u)
            p = immerse(metric, u)
            np.testing.assert_allclose(p.phi[0], math.cosh(RHO0), atol=1e-12)
            np.testing.assert_allclose(p.phi[1:], math.sinh(RHO0) * x, atol=1e-12)

    def test_light_cone_map_structure(self, rng):
        metric = band_metric()
        for _ in range(20):
            u = np.array([rng.uniform(-0.9, 0.9), rng.uniform(0.0, 6.0)])
            p = immerse(metric, u, t=0.7)
            w = metric.rho.value(u) + 0.7
            assert p.psi[0] == pytest.approx(math.exp(w), rel=1e-12)
            np.testing.assert_allclose(
                p.psi[1:] / p.psi[0], metric.chart.embed(u), atol=1e-12)

    def test_minkowski_constraints_analytic(self, rng):
        metric = band_metric()
        worst = 0.0
        for _ in range(50):
            u = np.array([rng.uniform(-0.95, 0.95), rng.uniform(0.0, 6.0)])
            p = immerse(metric, u, t=0.5)
            scale = max(1.0, p.phi[0] ** 2)
            worst = max(
                worst,
                abs(mink_inner(p.phi, p.phi) + 1.0) / scale,
                abs(mink_inner(p.eta, p.eta) - 1.0) / scale,
                abs(mink_inner(p.phi, p.eta)) / scale,
                abs(mink_inner(p.psi, p.psi)) / scale,
            )
        assert worst < 1e-8

    def test_minkowski_constraints_fd(self, rng):
        metric = ConformalMetric(BandChart(), band_metric().rho.without_jets())
        for _ in range(20):
            u = np.array([rng.uniform(-0.8, 0.8), rng.uniform(0.0, 6.0)])
            p = immerse(metric, u, t=0.5)
            assert abs(mink_inner(p.phi, p.phi) + 1.0) < 1e-5
            assert abs(mink_inner(p.eta, p.eta) - 1.0) < 1e-5
            assert abs(mink_inner(p.phi, p.eta)) < 1e-5

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf,
                                   np.array([0.5, math.nan, 1.0])])
    def test_nonfinite_flow_time_is_named(self, t):
        # the error names the flow time, not rho or its gradient
        pts = np.array([[0.2, 0.0], [0.5, 1.0], [-0.4, 3.0]])
        for metric in (band_metric(), sphere_metric()):
            with pytest.raises(SingularParameterError, match="flow time .* is not finite"):
                immerse(metric, pts, t)

    def test_nonfinite_rho_names_the_first_point(self):
        # rho = -log1p(-sin s) is the band horosphere written naively: sin s
        # rounds to 1 at s = (pi/2)(1 - 2^-40), so rho and its gradient are inf
        naive = ConformalMetric(BandChart(), radial_band_field(
            f=lambda s: -np.log1p(-np.sin(s)),
            fs=lambda s: np.cos(s) / (1.0 - np.sin(s)),
            fss=lambda s: 1.0 / (1.0 - np.sin(s))))
        s = 0.5 * math.pi * (1.0 - 2.0 ** -40)
        u = np.array([[0.3, 0.0], [s, 0.5], [s, 1.0]])
        with np.errstate(divide="ignore"):
            assert np.all(np.isinf(naive.rho.value(u[1:])))
            with pytest.raises(ChartDomainError, match=re.escape(f"point {u[1]}")):
                immerse(naive, u, 1.0)

    @pytest.mark.parametrize("t", [800.0, -800.0, np.array([0.5, 800.0])])
    def test_overflowing_flow_time_is_named(self, t):
        # past FLOW_LIMIT the flow guard names the time before any exponential
        u = np.array([[0.3, 0.0], [0.5, 1.0]])
        for metric in (band_metric(), sphere_metric()):
            with pytest.raises(SingularParameterError, match="flow time = -?800.0 "):
                immerse(metric, u, t)

    @pytest.mark.parametrize("rho0", [700.0, -700.0])
    def test_overflowing_rho_names_the_first_point(self, rho0):
        # e^(rho + t), e^-(rho + t) or phi^2 overflows although rho and t are
        # finite; pytest turns a RuntimeWarning into an error, so none is seen
        u = np.array([[0.3, 0.0], [0.5, 1.0]])
        for chart in (BandChart(), StereographicChart()):
            with pytest.raises(ChartDomainError,
                               match=re.escape(f"not finite at chart point {u[0]}")):
                immerse(ConformalMetric(chart, constant_field(rho0)), u)

    @pytest.mark.parametrize("metric", [band_metric(), sphere_metric()],
                             ids=["band", "stereographic"])
    def test_one_chart_metric_call(self, metric, monkeypatch):
        # immerse checks the range once and evaluates the chart once, by
        # geometry; schouten does both through one metric call, whose
        # diagonal its jets, g and ghat share
        calls = []
        for name in ("contains", "geometry", "metric"):
            def counted(u, method=getattr(metric.chart, name), name=name):
                calls.append(name)
                return method(u)

            monkeypatch.setattr(metric.chart, name, counted)
        pts = np.array([[0.3, 0.2], [-0.4, 1.0]])
        immerse(metric, pts, 0.5)
        assert sorted(calls) == ["contains", "geometry"]
        calls.clear()
        schouten(metric, pts)
        assert sorted(calls) == ["contains", "metric"]

    def test_spectral_gate(self):
        metric = ConformalMetric(StereographicChart(), constant_field(0.0))
        gate = "eigenvalues reach the 1/2 bound"
        assert gate in realizability_report(rescale(metric, 0.0), [0, 0]).flags
        # flowing far enough opens the gate
        assert gate not in realizability_report(rescale(metric, 1.0), [0, 0]).flags

    def test_flow_routes_agree(self, rng):
        # evaluating at shifted scale equals flowing the base immersion
        metric = band_metric()
        for _ in range(20):
            u = np.array([rng.uniform(-0.9, 0.9), rng.uniform(0.0, 6.0)])
            t = rng.uniform(0.0, 3.0)
            direct = immerse(metric, u, t)
            base = immerse(metric, u, 0.0)
            flowed = geodesic_point(base.phi, base.eta, t, rtol=1e-7)
            np.testing.assert_allclose(
                direct.phi, flowed, atol=1e-12 * max(1.0, abs(direct.phi[0])))


# the values each point function returns, by name
FAR_CALLS = {
    "immerse": lambda metric, u: immerse(metric, u).phi,
    "extrinsic_curvatures": extrinsic_curvatures,
    "schouten": lambda metric, u: schouten(metric, u).eigenvalues,
}
HUGE = st.builds(lambda e, sign: sign * 10.0 ** e, st.floats(60.0, 308.0),
                 st.sampled_from([-1.0, 1.0]))


class TestFarStereographicPoints:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(FAR_CALLS)), st.sampled_from([RHO0, -354.0]),
           HUGE, st.one_of(HUGE, st.floats(-10.0, 10.0)), st.booleans())
    @example("immerse", RHO0, 1e80, 0.0, False)
    @example("extrinsic_curvatures", RHO0, 1e150, 0.0, False)
    @example("extrinsic_curvatures", RHO0, 1e200, 0.0, True)
    @example("schouten", RHO0, 5e76, 5e76, False)
    def test_points_past_the_metric_range_leave_the_chart(self, name, rho0, a, b, swap):
        # past |u_i| = 2^255 1/metric or |u|^2 overflows: ChartDomainError
        # before any warning; inside, finite values or one GeometryError
        # (a stencil lost in rounding, or ghat underflowing at rho0 = -354)
        u = np.array([b, a] if swap else [a, b])
        metric = sphere_metric(rho0)
        if np.all(np.abs(u) < StereographicChart.limit):
            try:
                values = FAR_CALLS[name](metric, u)
            except GeometryError:
                return
            assert np.all(np.isfinite(values))
        else:
            with pytest.raises(ChartDomainError, match="outside the chart domain"):
                FAR_CALLS[name](metric, u)

    def test_curvatures_far_out_are_right_or_refused(self):
        # kappa = -3 exactly on the geodesic sphere; where one ulp of u passes
        # 1e-6 h, rounding u +- h e_i would cost digits, so the point is refused
        metric = sphere_metric()
        answered = []
        for k in range(77):
            try:
                kappas = extrinsic_curvatures(metric, np.array([10.0 ** k, 0.0]))
            except ChartDomainError as err:
                assert "lost in rounding" in str(err)
                continue
            np.testing.assert_allclose(kappas, -3.0, atol=1e-5)
            answered.append(k)
        assert answered == list(range(6))


class TestExtrinsicCurvatures:
    def test_geodesic_sphere_oracle(self, rng):
        # constant rho0 = (1/2)ln 2 gives kappa = -coth(rho0) = -3 exactly
        metric = sphere_metric()
        for _ in range(10):
            u = rng.uniform(-1.5, 1.5, size=2)
            kappas = extrinsic_curvatures(metric, u, h=1e-4)
            np.testing.assert_allclose(kappas, -3.0, atol=1e-5)

    def test_cross_oracle_generic_band(self, rng):
        # the field perturbs the round metric, so some eigenvalues sit above
        # 1/2 at t = 0; flow by t = 1 where both sides are defined
        metric = generic_band_metric()
        for _ in range(20):
            u = np.array([rng.uniform(-1.2, 1.2), rng.uniform(0.0, 6.0)])
            kappas = extrinsic_curvatures(metric, u, t=1.0, h=1e-4)
            lam = schouten(rescale(metric, 1.0), u).eigenvalues
            predicted = np.sort(lambda_kappa(lam, CANONICAL, "lambda_to_kappa"))
            np.testing.assert_allclose(kappas, predicted, atol=1e-3)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    @pytest.mark.parametrize("horosphere", [band_horosphere, stereographic_horosphere])
    def test_horosphere_exact_oracle(self, horosphere, t, rng):
        # a horosphere has Schouten eigenvalues 0 and kappa = -1, at every
        # flow time: the flow moves it to another horosphere
        metric = horosphere()
        if metric.chart.kind == "band":
            u = np.column_stack([rng.uniform(-1.2, 1.2, 50), rng.uniform(0.0, 6.0, 50)])
        else:
            u = rng.uniform(-2.0, 2.0, (50, 2))
        lam = schouten(rescale(metric, t), u).eigenvalues
        assert np.abs(lam).max() <= 1e-12
        kappas = extrinsic_curvatures(metric, u, t=t)
        assert np.abs(kappas + 1.0).max() <= 1e-8

    @pytest.mark.parametrize("h", [0.0, -1e-4, math.nan, math.inf])
    @pytest.mark.parametrize("route", [extrinsic_curvatures, fd_forms],
                             ids=["curvatures", "forms"])
    def test_step_must_be_positive_and_finite(self, h, route):
        with pytest.raises(ChartDomainError, match="step must be positive"):
            route(band_metric(), np.array([[0.2, 0.4]]), t=1.0, h=h)

    def test_degenerate_is_not_an_immersion(self):
        metric = ConformalMetric(StereographicChart(), constant_field(0.0))
        with pytest.raises(ImmersionError, match="not an immersion"):
            extrinsic_curvatures(metric, np.array([0.2, -0.4]))

    def test_fundamental_forms_returned(self):
        _, I, II = fd_forms(sphere_metric(), np.array([0.3, 0.1]))
        assert I.shape == (2, 2)
        # I is positive definite and II = -3 I on the geodesic sphere
        np.testing.assert_allclose(II, -3.0 * I, atol=1e-5)

    def test_pullback_identity(self, rng):
        # induced metric of psi equals e^{2(rho+t)} g_S in chart coordinates
        for metric, t in ((band_metric(), 0.4), (sphere_metric(), 0.0)):
            for _ in range(10):
                if metric.chart.kind == "band":
                    u = np.array([rng.uniform(-0.8, 0.8), rng.uniform(0.0, 6.0)])
                else:
                    u = rng.uniform(-1.0, 1.0, size=2)
                h = 1e-4
                dpsi = []
                for i in range(2):
                    e = np.zeros(2)
                    e[i] = h
                    dpsi.append(
                        (immerse(metric, u + e, t).psi - immerse(metric, u - e, t).psi)
                        / (2 * h))
                induced = np.array(
                    [[mink_inner(a, b) for b in dpsi] for a in dpsi])
                expected = math.exp(
                    2.0 * (metric.rho.value(u) + metric.t + t)) * np.diag(metric.chart.metric(u))
                np.testing.assert_allclose(
                    induced, expected, atol=1e-5 * max(1.0, np.abs(expected).max()))


class TestLambdaKappa:
    def test_canonical_quarter(self):
        assert lambda_kappa(0.25, CANONICAL, "lambda_to_kappa") == pytest.approx(-3.0)

    def test_horosphere_both_orientations(self):
        assert lambda_kappa(0.0, CANONICAL, "lambda_to_kappa") == pytest.approx(-1.0)
        assert lambda_kappa(0.0, OPPOSITE, "lambda_to_kappa") == pytest.approx(1.0)

    def test_roundtrip_pinned_values(self):
        for kappa in (-5.0, -1.0, 0.0, 0.9):
            lam = lambda_kappa(kappa, CANONICAL, "kappa_to_lambda")
            back = lambda_kappa(lam, CANONICAL, "lambda_to_kappa")
            assert back == pytest.approx(kappa, abs=1e-12)

    def test_orientations_are_opposite(self):
        for lam in (-2.0, 0.0, 0.3):
            a = lambda_kappa(lam, CANONICAL, "lambda_to_kappa")
            b = lambda_kappa(lam, OPPOSITE, "lambda_to_kappa")
            assert a == pytest.approx(-b)

    def test_singular_inputs(self):
        with pytest.raises(SingularParameterError):
            lambda_kappa(0.5, CANONICAL, "lambda_to_kappa")
        with pytest.raises(SingularParameterError):
            lambda_kappa(1.0, CANONICAL, "kappa_to_lambda")
        with pytest.raises(SingularParameterError):
            lambda_kappa(-1.0, OPPOSITE, "kappa_to_lambda")

    @given(st.floats(-30.0, 0.99), st.sampled_from([CANONICAL, OPPOSITE]))
    @settings(max_examples=300, deadline=None)
    def test_roundtrip_property(self, kappa, orientation):
        if orientation == OPPOSITE and kappa <= -0.99:
            kappa = -0.5  # keep clear of the opposite-orientation pole
        lam = lambda_kappa(kappa, orientation, "kappa_to_lambda")
        back = lambda_kappa(lam, orientation, "lambda_to_kappa")
        assert back == pytest.approx(kappa, rel=1e-9, abs=1e-9)


class TestRicattiAndFlowFactor:
    def test_time_zero(self):
        assert ricatti(-2.3, 0.0) == -2.3

    def test_zero_curvature(self):
        assert ricatti(0.0, 1.3) == pytest.approx(-math.tanh(1.3))

    def test_coth_addition_oracle(self):
        for rho, t in ((0.5, 0.7), (1.1, 2.0), (0.2, 3.5)):
            out = ricatti(-1.0 / math.tanh(rho), t)
            assert out == pytest.approx(-1.0 / math.tanh(rho + t), rel=1e-12)

    def test_pole_detected(self):
        kappa = 2.0
        t = math.atanh(0.5)  # 1 - 2*0.5 = 0
        with pytest.raises(SingularParameterError):
            ricatti(kappa, t)

    def test_flow_factor_values(self):
        assert flow_metric_factor(0.7, 0.0) == 1.0
        assert flow_metric_factor(-1.0, 1.3) == pytest.approx(math.exp(2.6), rel=1e-12)
        assert flow_metric_factor(0.0, 1.0) == pytest.approx(math.cosh(1.0) ** 2)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8),
           st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=8))
    def test_array_t_matches_one_call_per_t(self, ts, kappas):
        # t on a new leading axis broadcasts against kappa, bit for bit
        ts, kappas = np.array(ts), np.array(kappas)
        for law in (ricatti, flow_metric_factor):
            np.testing.assert_array_equal(
                law(kappas, ts[:, None]), np.stack([law(kappas, t) for t in ts]))

    def test_array_t_names_the_first_pole(self):
        # the pole 1 - kappa tanh t = 0 of the second time is found in the grid
        with pytest.raises(SingularParameterError, match="input 2 outside"):
            ricatti(np.array([0.5, 2.0]), np.array([[0.1], [math.atanh(0.5)]]))

    @pytest.mark.parametrize("t", [800.0, -800.0, 400.0, 1e308, math.nan, math.inf])
    def test_flow_factor_refuses_an_overflowing_time(self, t):
        # cosh(t)^2 overflows: an error naming the time, not OverflowError
        with pytest.raises(SingularParameterError, match="flow time"):
            flow_metric_factor(0.3, t)

    def test_horosphere_limit_bound(self):
        # |ricatti(kappa,t) + 1| <= 2 (1+|kappa|) e^{-2t} / (1 - max(kappa0, 0))
        kappa0 = 0.9
        kappas = np.linspace(-10.0, kappa0, 61)
        for t in np.linspace(0.0, 10.0, 41):
            lhs = np.abs(ricatti(kappas, t) + 1.0)
            rhs = 2.0 * (1.0 + np.abs(kappas)) * math.exp(-2.0 * t) / (1.0 - kappa0)
            assert np.all(lhs <= rhs + 1e-12)

    @given(st.floats(-5.0, 0.9), st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_flow_composes_by_addition(self, kappa, s, t):
        one = ricatti(ricatti(kappa, s), t)
        two = ricatti(kappa, s + t)
        assert one == pytest.approx(two, rel=1e-8, abs=1e-8)


class TestFgMetric:
    def test_r_zero_is_the_metric(self):
        metric = band_metric()
        u = np.array([0.4, 0.2])
        expected = math.exp(2 * metric.rho.value(u)) * np.diag(metric.chart.metric(u))
        np.testing.assert_allclose(fg_metric(metric, u, 0.0), expected, atol=1e-14)

    def test_round_metric_closed_form(self):
        metric = ConformalMetric(BandChart(), constant_field(0.0))
        u = np.array([0.3, 1.0])
        g = np.diag(metric.chart.metric(u))
        for r in np.linspace(0.0, 1.9, 20):
            np.testing.assert_allclose(
                fg_metric(metric, u, r), (1.0 - r**2 / 4.0) ** 2 * g, atol=1e-10)

    def test_flow_factor_equivalence_on_sphere(self):
        # eigenvalues of ghat^{-1} g_r at r = 2e^{-t} match the flow factor
        # normalized by 4 e^{-2t}/(1-kappa)^2
        metric = sphere_metric()
        u = np.array([0.5, -0.2])
        ghat = math.exp(2 * RHO0) * np.diag(metric.chart.metric(u))
        kappa = -3.0
        for t in (0.1, 0.5, 1.0, 2.5):
            r = 2.0 * math.exp(-t)
            ev = np.linalg.eigvalsh(np.linalg.inv(ghat) @ fg_metric(metric, u, r))
            predicted = 4.0 * math.exp(-2 * t) * flow_metric_factor(kappa, t) \
                / (1.0 - kappa) ** 2
            np.testing.assert_allclose(ev, predicted, atol=1e-6)

    def test_negative_r_rejected(self):
        with pytest.raises(SingularParameterError):
            fg_metric(band_metric(), np.array([0.1, 0.1]), -0.5)

    @pytest.mark.parametrize("r", [math.nan, math.inf, 1e200, -1e-300,
                                   np.array([[0.5], [math.nan]]),
                                   np.array([[0.5], [math.inf]]),
                                   np.array([[1e200], [0.5]])])
    def test_bad_r_rejected(self, r):
        # nan, inf and an r whose r^4 overflows are refused, scalar or array,
        # before any arithmetic could warn
        with pytest.raises(SingularParameterError, match="expansion parameter"):
            fg_metric(band_metric(), np.array([[0.1, 0.1], [0.3, 2.0]]), r)

    def test_array_r_calls_schouten_once(self, monkeypatch):
        calls = []

        def counted(metric, u):
            calls.append(np.shape(u))
            return schouten(metric, u)

        monkeypatch.setattr(correspondence, "schouten", counted)
        pts = np.array([[0.2, 0.0], [0.5, 1.0], [-0.4, 3.0]])
        out = fg_metric(band_metric(), pts, np.linspace(0.0, 1.9, 20)[:, None])
        assert out.shape == (20, 3, 2, 2)
        assert calls == [(3, 2)]


class TestSupportAndGauss:
    def test_definition_unwound(self):
        x = np.array([0.6, 0.8])
        psi = math.exp(0.7) * np.array([1.0, x[0], x[1]])
        data = support_and_gauss(psi)
        assert data.rho_tilde == pytest.approx(0.7)
        np.testing.assert_allclose(data.gauss_point, x, atol=1e-12)

    def test_on_immersion_output(self, rng):
        metric = band_metric()
        u = np.array([0.5, 1.1])
        p = immerse(metric, u, t=0.3)
        data = support_and_gauss(p.psi)
        assert data.rho_tilde == pytest.approx(metric.rho.value(u) + 0.3, rel=1e-12)
        np.testing.assert_allclose(data.gauss_point, metric.chart.embed(u), atol=1e-10)
        assert np.linalg.norm(data.gauss_point) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_non_null(self):
        with pytest.raises(HyperquadricError):
            support_and_gauss(np.array([1.0, 0.0, 0.0]))

    def test_rejects_negative_height(self):
        with pytest.raises(HyperquadricError):
            support_and_gauss(np.array([-1.0, -1.0, 0.0]))


class TestMinImmersionTime:
    def test_small_spectrum_needs_no_flow(self):
        metric = sphere_metric(2.0)  # lambda = e^{-4}/2, far below the gate
        t0 = realizability_report(metric, [np.zeros(2)]).suggested_t0
        assert t0 == 0.0

    def test_round_metric_value(self):
        metric = ConformalMetric(StereographicChart(), constant_field(0.0))
        report = realizability_report(metric, [np.zeros(2), np.ones(2)])
        assert flow_time_for_bound(report.lambda_max, 0.1) == pytest.approx(0.111572, abs=1e-6)

    def test_cylinder_same_value(self):
        report = realizability_report(
            cylinder_metric(0.0),
            [np.array([s, 0.0]) for s in np.linspace(-1.2, 1.2, 25)])
        assert flow_time_for_bound(report.lambda_max, 0.1) == pytest.approx(0.111572, abs=1e-6)


def _batch_cases():
    """(label, metric, lower corner, upper corner, flow time) of the gallery
    metrics and of the band with finite-difference jets."""
    band = make_example("incomplete-band").payload
    band_box = ((-0.8, 0.0), (0.8, 2.0 * math.pi))
    return [
        ("geodesic-sphere", make_example("geodesic-sphere").payload,
         (-2.0, -2.0), (2.0, 2.0), 0.0),
        ("round-degenerate", make_example("round-degenerate").payload,
         (-2.0, -2.0), (2.0, 2.0), 0.0),
        ("incomplete-band", band, *band_box, 1.0),
        ("incomplete-band-fd",
         ConformalMetric(band.chart, band.rho.without_jets(), band.t),
         *band_box, 1.0),
        ("cylinder-delaunay", make_example("cylinder-delaunay").payload,
         (-1.2, 0.0), (1.2, 2.0 * math.pi), 0.0),
    ]


BATCH_CASES = _batch_cases()
METRIC_CASES = [c for c in BATCH_CASES
                if c[0] in ("geodesic-sphere", "incomplete-band", "cylinder-delaunay")]


def assert_rows_agree(batch, rows, rel=1e-12):
    """Each row of a batched result matches its single-point result to rel,
    relative to the largest entry of that row."""
    assert len(batch) == len(rows)
    for got, want in zip(batch, rows):
        want = np.asarray(want)
        assert np.shape(got) == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=rel * np.max(np.abs(want)))


class TestBatchConvention:
    """A batch of chart points runs through the same code as one point and
    agrees row by row with the stacked single-point calls."""

    @pytest.mark.parametrize("case", BATCH_CASES, ids=[c[0] for c in BATCH_CASES])
    @given(unit=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                         min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_batch_matches_single_points(self, case, unit):
        label, metric, lo, hi, t = case
        lo, hi = np.array(lo), np.array(hi)
        pts = lo + (hi - lo) * np.array(unit)

        batch = immerse(metric, pts, t)
        singles = [immerse(metric, u, t) for u in pts]
        for name in ("phi", "eta", "psi"):
            assert_rows_agree(getattr(batch, name),
                              [getattr(p, name) for p in singles])

        jets = gradient_hessian(metric.rho, metric.chart, pts)
        single_jets = [gradient_hessian(metric.rho, metric.chart, u) for u in pts]
        for name in ("gradient", "grad_norm_sq", "covariant_hessian"):
            assert_rows_agree(getattr(jets, name),
                              [getattr(j, name) for j in single_jets])

        rep = schouten(metric, pts)
        single_reps = [schouten(metric, u) for u in pts]
        assert_rows_agree(rep.tensor, [r.tensor for r in single_reps])
        assert_rows_agree(rep.eigenvalues, [r.eigenvalues for r in single_reps])

        if label == "round-degenerate":
            # the round metric collapses to a point: no immersion either way
            with pytest.raises(ImmersionError, match="not an immersion"):
                extrinsic_curvatures(metric, pts, t)
            with pytest.raises(ImmersionError, match="not an immersion"):
                extrinsic_curvatures(metric, pts[0], t)
            return
        kappas = extrinsic_curvatures(metric, pts, t)
        assert_rows_agree(kappas, [extrinsic_curvatures(metric, u, t)
                                   for u in pts])

    @pytest.mark.parametrize("case", [c for c in BATCH_CASES if c[0] != "round-degenerate"],
                             ids=[c[0] for c in BATCH_CASES if c[0] != "round-degenerate"])
    @given(unit=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                         min_size=1, max_size=5),
           times=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4))
    @settings(max_examples=15, deadline=None)
    def test_flow_time_on_the_batch_axis(self, case, unit, times):
        # points tiled over several flow times, with t an array over the
        # leading axes, give the bits of one call per time
        _, metric, lo, hi, t0 = case
        lo, hi = np.array(lo), np.array(hi)
        pts = lo + (hi - lo) * np.array(unit)
        ts = t0 + np.array(times)
        tiled, t_axis = np.tile(pts, (len(ts), 1, 1)), ts[:, None]
        kappas = extrinsic_curvatures(metric, tiled, t=t_axis)
        forms, point = fd_forms(metric, tiled, t=t_axis), immerse(metric, tiled, t_axis)
        for k, t in enumerate(ts):
            np.testing.assert_array_equal(kappas[k], extrinsic_curvatures(metric, pts, t=t))
            for got, want in zip(forms, fd_forms(metric, pts, t=t)):
                np.testing.assert_array_equal(got[k], want)
            want_point = immerse(metric, pts, t)
            np.testing.assert_array_equal(point.phi[k], want_point.phi)
            np.testing.assert_array_equal(point.eta[k], want_point.eta)

    @pytest.mark.parametrize("case", METRIC_CASES, ids=[c[0] for c in METRIC_CASES])
    @given(unit=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                         min_size=1, max_size=5),
           rest=st.lists(st.floats(0.0, 1.9), min_size=0, max_size=19))
    @settings(max_examples=25, deadline=None)
    def test_fg_metric_r_on_the_batch_axis(self, case, unit, rest):
        # k = 1..20 values of r in [0, 1.9], 0 among them, over the leading
        # axes: each slice has the bits of the call with that r alone
        _, metric, lo, hi, _ = case
        lo, hi = np.array(lo), np.array(hi)
        pts = lo + (hi - lo) * np.array(unit)
        r = np.array([0.0] + rest)
        batch = fg_metric(metric, pts, r[:, None])
        assert batch.shape == (len(r), len(pts), 2, 2)
        for k, rk in enumerate(r):
            np.testing.assert_array_equal(batch[k], fg_metric(metric, pts, float(rk)))

    @staticmethod
    def counted_immerse(monkeypatch):
        calls = []

        def counted(metric, u, *args, **kwargs):
            calls.append(np.shape(u))
            return immerse(metric, u, *args, **kwargs)

        monkeypatch.setattr(correspondence, "immerse", counted)
        return calls

    def test_one_immerse_call(self, monkeypatch):
        # the whole stacked stencil, whatever n and t
        calls = self.counted_immerse(monkeypatch)
        pts = np.array([[0.2, 0.0], [0.5, 1.0], [-0.4, 3.0]])
        t = np.array([0.5, 1.0, 1.5])
        extrinsic_curvatures(band_metric(), pts, t=t)
        assert calls == [(3, 4, 2)]

    def test_lost_step_refused_before_immerse(self, monkeypatch):
        calls = self.counted_immerse(monkeypatch)
        pts = np.array([[0.3, 0.1], [1e7, 0.0]])
        message = "step h = 0.0001 is lost in rounding at chart point [10000000.        0.]"
        for route in (extrinsic_curvatures, fd_forms):
            with pytest.raises(ChartDomainError, match=re.escape(message)):
                route(sphere_metric(), pts)
        assert calls == []

    @pytest.mark.parametrize("route", [extrinsic_curvatures, fd_forms],
                             ids=["curvatures", "forms"])
    @pytest.mark.parametrize("u", [[math.nan, 0.3], [0.5 * math.pi + 1e-12, 0.3],
                                   [0.5 * math.pi, 0.3], [0.3, math.inf]])
    def test_base_point_outside_still_raises(self, u, route):
        # a base point outside the band's convex domain leaves a stencil
        # point outside too, so the stencil's immerse call refuses it
        metric = make_example("incomplete-band").payload
        with pytest.raises(ChartDomainError):
            route(metric, np.array(u), 0.5)

    def test_single_point_shapes(self):
        metric = band_metric()
        u = np.array([0.3, 1.0])
        p = immerse(metric, u, 0.5)
        assert p.phi.shape == p.eta.shape == p.psi.shape == (4,)
        jets = gradient_hessian(metric.rho, metric.chart, u)
        assert jets.gradient.shape == (2,) and np.ndim(jets.grad_norm_sq) == 0
        rep = schouten(metric, u)
        assert rep.tensor.shape == (2, 2) and rep.eigenvalues.shape == (2,)
        assert extrinsic_curvatures(metric, u, 1.0).shape == (2,)
        tangents, I, II = fd_forms(metric, u, 1.0)
        assert tangents.shape == (2, 4) and I.shape == II.shape == (2, 2)

    def test_one_point_outside_fails_the_batch(self):
        metric = band_metric()
        pts = np.array([[0.2, 0.0], [0.5, 1.0], [1.2, 2.0], [-0.4, 3.0]])
        with pytest.raises(ChartDomainError):
            immerse(metric, pts)
        with pytest.raises(ChartDomainError):
            schouten(metric, pts)
        with pytest.raises(ChartDomainError):
            BandChart().embed(np.array([[0.1, 0.0], [0.5 * math.pi, 0.0]]))


def mercator_shift(b, reflect=False):
    """The conformal map of S^2 that adds b to the Mercator coordinate
    atanh(sin s) of band chart points (s, a), then maps s to -s if reflect,
    with its log conformal factor log|Phi'| = log cos s' - log cos s."""
    sign = -1.0 if reflect else 1.0

    def phi(u):
        u = np.asarray(u, dtype=float)
        s = sign * np.arcsin(np.tanh(np.arctanh(np.sin(u[..., 0])) + b))
        return np.stack([s, u[..., 1]], -1)

    def log_factor(u):
        return np.log(np.cos(phi(u)[..., 0])) - np.log(np.cos(np.asarray(u)[..., 0]))

    return phi, log_factor


def dilation(c):
    """The conformal map u -> c u of stereographic chart points, with its log
    conformal factor log c + log(1 + |u|^2) - log(1 + c^2 |u|^2)."""
    def phi(u):
        return c * np.asarray(u, dtype=float)

    def log_factor(u):
        nsq = np.sum(np.asarray(u, dtype=float) ** 2, axis=-1)
        return math.log(c) + np.log1p(nsq) - np.log1p(c * c * nsq)

    return phi, log_factor


def assert_mobius_equivariant(metric, phi, log_factor, u, t):
    # rho~ = rho o Phi + log|Phi'| makes Phi an isometry from e^{2 rho~} g_S
    # to e^{2 rho} g_S, so the hypersurface of rho~ at u is that of rho at
    # Phi(u) moved by an isometry of H^3: their Minkowski Gram matrices and
    # principal curvatures agree.  rho~ carries no jets (finite differences).
    rho = metric.rho
    tilde = ConformalMetric(
        metric.chart, ScalarField(lambda v: rho.value(phi(v)) + log_factor(v)), metric.t)
    a, b = immerse(tilde, u, t).phi, immerse(metric, phi(u), t).phi
    gram_a = mink_inner(a[:, None, :], a[None, :, :])
    gram_b = mink_inner(b[:, None, :], b[None, :, :])
    # the O(h^2) error of the jets reaches 5e-7 of the largest entry where
    # the band field steepens, at s = 0.9
    np.testing.assert_allclose(gram_a, gram_b, rtol=0.0, atol=2e-6 * np.abs(gram_b).max())
    np.testing.assert_allclose(extrinsic_curvatures(tilde, u, t),
                               extrinsic_curvatures(metric, phi(u), t), rtol=0.0, atol=1e-4)


class TestMobiusEquivariance:
    @settings(max_examples=40, deadline=None)
    @given(st.floats(1.0 / 3.0, 3.0),
           st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                    min_size=2, max_size=6))
    def test_stereographic_dilation_of_the_geodesic_sphere(self, c, points):
        phi, log_factor = dilation(c)
        assert_mobius_equivariant(make_example("geodesic-sphere").payload,
                                  phi, log_factor, np.array(points), 0.0)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-1.0, 1.0), st.booleans(),
           st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi)),
                    min_size=2, max_size=6))
    def test_mercator_shift_of_the_incomplete_band(self, b, reflect, points):
        # arcs s with s and Phi(s) both within 0.9 of the equator, inside the
        # band |s| < 1 with room for every stencil
        phi, log_factor = mercator_shift(b, reflect)
        unshift, _ = mercator_shift(-b)
        lo, hi = np.clip(unshift(np.array([[-0.9, 0.0], [0.9, 0.0]]))[:, 0], -0.9, 0.9)
        fraction, angle = np.array(points).T
        u = np.column_stack([lo + fraction * (hi - lo), angle])
        assert_mobius_equivariant(make_example("incomplete-band").payload,
                                  phi, log_factor, u, 1.0)
