import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigh

from horocorr.analysis import make_example
from horocorr.conformal import (
    LENGTH_CAP,
    REALIZABLE_MARGIN,
    ConformalMetric,
    eigenvalue_realizability,
    generalized_eigvalsh,
    path_length,
    realizability_report,
    rescale,
    schouten,
)
from horocorr.errors import (
    ChartDomainError,
    DimensionMismatch,
    SamplingError,
    SingularParameterError,
)
from horocorr.minkowski import FLOW_LIMIT
from horocorr.sphere import (
    BandChart,
    ScalarField,
    StereographicChart,
    constant_field,
    radial_band_field,
)

from test_sphere import band_example_field


def band_metric(t=0.0):
    return ConformalMetric(BandChart(1.0), band_example_field(), t)


def cylinder_metric(t=1.0):
    rho = radial_band_field(
        f=lambda s: -np.log(np.cos(s)),
        fs=lambda s: np.tan(s),
        fss=lambda s: 1.0 / np.cos(s) ** 2,
    )
    return ConformalMetric(BandChart(), rho, t)


def with_angle(s, angle):
    """Chart points (s, angle) for an array s of arcs and a constant angle."""
    return np.stack([s, np.full_like(s, angle)], -1)


def constant_velocity(*components):
    """Analytic velocity returning the same (n,) vector at every tau."""
    return lambda tau: np.stack([np.full_like(tau, c) for c in components], -1)


def reference_path_length(metric, curve, velocity=None):
    """path_length as computed before batching: one scalar speed per node,
    shell by shell toward 1 and then toward 0, stopping at the cap.  The
    finite-difference step is capped by the distance to the nearer endpoint,
    with a floor of 1e-9 tau, as in path_length."""
    nodes, weights = leggauss(32)

    def speed(tau):
        u = np.asarray(curve(tau), dtype=float)
        if not metric.chart.contains(u):
            raise ChartDomainError(f"curve leaves the domain interior at tau={tau}")
        if velocity is not None:
            v = np.asarray(velocity(tau), dtype=float)
        else:
            room = min(tau, 1.0 - tau)
            h = min(max(1e-9 * tau, 1e-6 * room), room)
            v = (np.asarray(curve(tau + h), dtype=float)
                 - np.asarray(curve(tau - h), dtype=float)) / (2 * h)
        g = np.diag(metric.chart.metric(u))
        return math.exp(metric.effective(u)) * math.sqrt(max(float(v @ g @ v), 0.0))

    def shell(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return half * sum(w * speed(mid + half * x) for x, w in zip(nodes, weights))

    total = 0.0
    for left in (False, True):
        contributions = []
        for k in range(1, 51):
            lo, hi = 1.0 - 2.0 ** -k, 1.0 - 2.0 ** -(k + 1)
            if left:
                lo, hi = 1.0 - hi, 1.0 - lo
            c = shell(lo, hi)
            contributions.append(c)
            total += c
            if total > LENGTH_CAP:
                return math.inf
        tail = [c for c in contributions[-7:] if c > 0]
        ratios = [b / a for a, b in zip(tail, tail[1:]) if a > 0]
        if ratios and np.mean(ratios) >= 0.98:
            return math.inf
    return total


class TestSchouten:
    def test_constant_factor_isotropy(self):
        # rho = c constant: tensor is (1/2) e^{-2c} ghat and lambda = 1/2 e^{-2c}
        c = 0.5 * math.log(2.0)
        metric = ConformalMetric(StereographicChart(), constant_field(c))
        rep = schouten(metric, np.array([0.3, -0.8]))
        g = metric.chart.metric(np.array([0.3, -0.8]))
        np.testing.assert_allclose(rep.tensor, 0.5 * np.diag(g), atol=1e-10)
        np.testing.assert_allclose(rep.eigenvalues, 0.25, atol=1e-10)

    def test_round_metric_eigenvalue_half(self):
        metric = ConformalMetric(BandChart(), constant_field(0.0))
        rep = schouten(metric, np.array([0.4, 1.3]))
        np.testing.assert_allclose(rep.eigenvalues, 0.5, atol=1e-12)

    def test_band_radial_correction_formula(self):
        # the rho-correction part of the radial entry is -(1 + s^2/2)/(1-s^2)^2
        metric = band_metric()
        for s in (0.0, 0.3, 0.5, 0.7, 0.9):
            rep = schouten(metric, np.array([s, 0.7]))
            g = metric.chart.metric(np.array([s, 0.7]))
            correction = rep.tensor[0, 0] - 0.5 * g[0]
            expected = -(1.0 + 0.5 * s * s) / (1.0 - s * s) ** 2
            assert correction == pytest.approx(expected, abs=1e-10)

    def test_cylinder_spectrum(self):
        # product-metric oracle: eigenvalues {-1/2, 1/2} scaled by e^{-2t}
        for t in (0.0, 1.0):
            rep = schouten(cylinder_metric(t), np.array([0.6, 2.0]))
            np.testing.assert_allclose(
                rep.eigenvalues, [-0.5 * math.exp(-2 * t), 0.5 * math.exp(-2 * t)],
                atol=1e-10)

    def test_fd_and_analytic_agree(self):
        chart = BandChart()
        rho = radial_band_field(
            f=lambda s: 0.2 * np.sin(s),
            fs=lambda s: 0.2 * np.cos(s),
            fss=lambda s: -0.2 * np.sin(s),
        )
        exact = ConformalMetric(chart, rho)
        approx = ConformalMetric(chart, rho.without_jets())
        for s in (-0.8, 0.1, 0.9):
            u = np.array([s, 0.5])
            np.testing.assert_allclose(
                schouten(approx, u).eigenvalues, schouten(exact, u).eigenvalues,
                atol=5e-6)

    def test_eigenvalues_chart_invariant(self):
        F = lambda x: 0.3 * x[..., 2] + 0.1 * np.cos(x[..., 0])
        band = BandChart()
        stereo = StereographicChart()
        m_band = ConformalMetric(band, ScalarField(lambda u: F(band.embed(u))))
        m_st = ConformalMetric(stereo, ScalarField(lambda u: F(stereo.embed(u))))
        u_band = np.array([0.4, 0.9])
        x = band.embed(u_band)
        u_st = x[:-1] / (1.0 + x[-1])
        np.testing.assert_allclose(
            schouten(m_band, u_band).eigenvalues,
            schouten(m_st, u_st).eigenvalues, atol=1e-6)

    @pytest.mark.parametrize("u", [[1e8, 0.0], [[0.5, 0.0], [0.0, -3e8]]])
    def test_underflowing_ghat_raises_chart_domain_error(self, u):
        # e^{2(rho+t)} g underflows to 0 at rho0 = -354 beyond |u| ~ 1.5e4: the
        # pencil is singular, which is a chart point past the metric's float
        # range, not numpy's LinAlgError
        metric = make_example("geodesic-sphere", rho0=-354.0).payload
        with pytest.raises(ChartDomainError,
                           match=r"ghat underflows to 0 at chart point \[.*e\+08"):
            schouten(metric, np.array(u))


def spd_pencil_matrix(angle, scale, log_cond):
    """The 2x2 positive definite matrix with eigenvalues scale and
    scale * 10^-log_cond along axes turned by angle."""
    c, s = math.cos(angle), math.sin(angle)
    R = np.array([[c, -s], [s, c]])
    B = R @ np.diag([scale, scale * 10.0 ** -log_cond]) @ R.T
    return 0.5 * (B + B.T)


def whitened_eigvalsh(A, B):
    """The pencil's eigenvalues by LAPACK: Cholesky whitening, then eigvalsh."""
    Linv = np.linalg.inv(np.linalg.cholesky(B))
    return np.linalg.eigvalsh(Linv @ A @ Linv.T)


def assert_matches_whitened(A, B):
    # the closed form and LAPACK both lose about cond(B) eps, relative to
    # the larger eigenvalue of the pencil (1 at least)
    got, want = generalized_eigvalsh(A, B), whitened_eigvalsh(A, B)
    tol = 8.0 * np.linalg.cond(B) * np.finfo(float).eps * max(1.0, np.abs(want).max())
    np.testing.assert_allclose(got, want, rtol=0.0, atol=tol)
    assert got[0] <= got[1]


finite = st.floats(-1e3, 1e3)
entry = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


class TestGeneralizedEigvalsh:
    def test_matches_scipy_on_random_spd_pairs(self, rng):
        X = rng.normal(size=(40, 2, 2))
        Y = rng.normal(size=(40, 2, 2))
        A = X + np.swapaxes(X, -1, -2)
        B = Y @ np.swapaxes(Y, -1, -2) + 0.1 * np.eye(2)
        got = generalized_eigvalsh(A, B)
        assert got.shape == (40, 2)
        for a, b, row in zip(A, B, got):
            want = eigh(a, b, eigvals_only=True)
            np.testing.assert_allclose(row, want, rtol=1e-9,
                                       atol=1e-9 * np.max(np.abs(want)))
        np.testing.assert_allclose(generalized_eigvalsh(A[0], B[0]), got[0])

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, math.pi), st.floats(1e-3, 1e3), st.floats(0.0, 8.0),
           finite, finite, finite)
    def test_matches_whitened_eigvalsh(self, angle, scale, log_cond, a00, a01, a11):
        A = np.array([[a00, a01], [a01, a11]])
        assert_matches_whitened(A, spd_pencil_matrix(angle, scale, log_cond))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, math.pi), st.floats(1e-3, 1e3), st.floats(0.0, 8.0),
           st.floats(-1e3, 1e3), st.floats(-12.0, -4.0), finite, finite, finite)
    def test_near_equal_eigenvalues(self, angle, scale, log_cond, c, log_small,
                                    e00, e01, e11):
        # A = c B + small: both eigenvalues lie near c
        B = spd_pencil_matrix(angle, scale, log_cond)
        A = c * B + 10.0 ** log_small * np.array([[e00, e01], [e01, e11]])
        assert_matches_whitened(A, B)

    @pytest.mark.parametrize("B", [
        np.zeros((2, 2)),
        np.diag([0.0, 1.0]),
        np.diag([-1.0, 1.0]),
        np.array([[1.0, 2.0], [2.0, 4.0]]),        # det B = 0
        np.array([[1.0, 3.0], [3.0, 4.0]]),        # det B < 0
        np.diag([1.0, -1.0]),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.array([[1.0, np.nan], [np.nan, 1.0]]),
        np.array([[1.0, 0.0], [0.0, np.nan]]),
        np.array([[np.inf, np.inf], [np.inf, np.inf]]),
    ], ids=["zero", "b00-zero", "b00-negative", "det-zero", "det-negative",
            "indefinite", "nan-b00", "nan-b01", "nan-b11", "inf"])
    def test_rejects_without_warning(self, B):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                generalized_eigvalsh(np.eye(2), B)
            # one such B in a stack refuses the whole stack
            stack = np.stack([np.eye(2), B, np.eye(2)])
            with pytest.raises(np.linalg.LinAlgError):
                generalized_eigvalsh(np.stack([np.eye(2)] * 3), stack)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, math.pi), st.floats(1e-3, 1e3), st.floats(0.0, 8.0),
           entry, entry, entry, st.sampled_from([-700, 700]))
    def test_independent_of_the_scale_of_B(self, angle, scale, log_cond,
                                           a00, a01, a11, exponent):
        # B scaled by 2^+-700, where det B = b00 b11 - b01^2 leaves float range:
        # every step of the closed form scales exactly by the power of two,
        # as long as no step reaches the subnormals
        A = np.array([[a00, a01], [a01, a11]])
        B = spd_pencil_matrix(angle, scale, log_cond)
        np.testing.assert_array_equal(
            generalized_eigvalsh(A, 2.0 ** exponent * B) * 2.0 ** exponent,
            generalized_eigvalsh(A, B))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1e3, 1e3), finite, finite)
    def test_rejects_any_non_positive_determinant(self, b00, b01, b11):
        # the exact determinant: its float form can round either way
        assume(b00 <= 0.0 or Fraction(b00) * Fraction(b11) - Fraction(b01) ** 2 <= 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                generalized_eigvalsh(np.eye(2), np.array([[b00, b01], [b01, b11]]))

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (2, 3)])
    def test_only_two_by_two(self, shape):
        with pytest.raises(DimensionMismatch):
            generalized_eigvalsh(np.ones(shape), np.eye(*shape))


class TestPathLength:
    def test_band_meridian(self):
        # integral of 1/sqrt(1-s^2) over (0,1) = pi/2 despite the endpoint blowup
        metric = band_metric()
        length = path_length(
            metric,
            curve=lambda tau: with_angle(tau, 0.4),
            velocity=constant_velocity(1.0, 0.0),
        )
        assert length == pytest.approx(math.pi / 2, abs=1e-4)

    def test_round_quarter_circle(self):
        metric = ConformalMetric(BandChart(), constant_field(0.0))
        length = path_length(
            metric,
            curve=lambda tau: np.stack([np.zeros_like(tau), tau * math.pi / 2], -1),
            velocity=constant_velocity(0.0, math.pi / 2),
        )
        assert length == pytest.approx(math.pi / 2, abs=1e-10)

    def test_conformal_scaling(self):
        base = ConformalMetric(BandChart(), constant_field(0.0))
        scaled = ConformalMetric(BandChart(), constant_field(0.7))
        curve = lambda tau: np.stack([0.3 * tau - 0.1, 0.9 * tau], -1)
        velocity = constant_velocity(0.3, 0.9)
        a = path_length(base, curve, velocity=velocity)
        b = path_length(scaled, curve, velocity=velocity)
        assert b == pytest.approx(math.exp(0.7) * a, rel=1e-10)

    def test_divergent_meridian_reports_inf(self):
        # toward the cylinder pole the integrand behaves like 1/(pi/2 - s)
        metric = cylinder_metric(0.0)
        length = path_length(
            metric,
            curve=lambda tau: with_angle(tau * math.pi / 2, 0.0),
            velocity=constant_velocity(math.pi / 2, 0.0),
        )
        assert length == math.inf


def round_metric(c=0.0):
    return ConformalMetric(BandChart(), constant_field(c))


# (metric, curve, velocity or None for finite differences)
MATCH_CASES = {
    "verify band meridian, fd": (
        make_example("incomplete-band").payload, lambda tau: with_angle(tau, 0.3), None),
    "verify band meridian, analytic": (
        make_example("incomplete-band").payload, lambda tau: with_angle(tau, 0.3),
        constant_velocity(1.0, 0.0)),
    "band chord, fd": (
        band_metric(), lambda tau: with_angle(2.0 * tau - 1.0, 0.4), None),
    "band chord, analytic": (
        band_metric(), lambda tau: with_angle(2.0 * tau - 1.0, 0.4),
        constant_velocity(2.0, 0.0)),
    "round quarter circle, fd": (
        round_metric(), lambda tau: np.stack([np.zeros_like(tau), tau * math.pi / 2], -1),
        None),
    "round quarter circle, analytic": (
        round_metric(), lambda tau: np.stack([np.zeros_like(tau), tau * math.pi / 2], -1),
        constant_velocity(0.0, math.pi / 2)),
    "scaled chord": (
        round_metric(0.7), lambda tau: np.stack([0.3 * tau - 0.1, 0.9 * tau], -1),
        constant_velocity(0.3, 0.9)),
}


def meridian(tau):
    return with_angle(tau * math.pi / 2, 0.0)


class TestPathLengthMatchesReference:
    @pytest.mark.parametrize("name", sorted(MATCH_CASES))
    def test_finite_lengths(self, name):
        metric, curve, velocity = MATCH_CASES[name]
        want = reference_path_length(metric, curve, velocity=velocity)
        assert math.isfinite(want)
        got = path_length(metric, curve, velocity=velocity)
        assert got == pytest.approx(want, rel=1e-12)

    def test_divergence_found_by_decay(self):
        # shells of the cylinder meridian stay near log 2, far below the cap
        metric = cylinder_metric(0.0)
        assert reference_path_length(metric, meridian) == math.inf
        assert path_length(metric, meridian) == math.inf

    def test_divergence_found_by_cap(self):
        # e^rho = 1/cos^2 s: shell k carries about 2^k, passing 1e6 near
        # k = 20, while the last node's speed stays near 1e31
        rho = ScalarField(lambda u: -2.0 * np.log(np.cos(u[..., 0])))
        metric = ConformalMetric(BandChart(), rho)
        assert reference_path_length(metric, meridian) == math.inf
        assert path_length(metric, meridian) == math.inf

    def test_curve_leaving_the_domain_raises(self):
        # s = 2 tau leaves |s| < 1 at tau = 1/2, the first node of the grid
        with pytest.raises(ChartDomainError, match="tau=0.50"):
            path_length(band_metric(), lambda tau: with_angle(2.0 * tau, 0.4))

    def test_curve_sampled_within_unit_interval(self):
        # nodes within 1e-9 of an endpoint take a step no wider than their room
        seen = []

        def curve(tau):
            seen.extend(np.ravel(tau))
            return with_angle(tau, 0.3)

        path_length(make_example("incomplete-band").payload, curve)
        assert len(seen) == 3 * 3200
        assert 0.0 <= min(seen) and max(seen) <= 1.0

    def test_curve_defined_on_unit_interval_only(self):
        # the verify band meridian at another speed; sqrt has no value below 0
        length = path_length(make_example("incomplete-band").payload,
                             lambda tau: with_angle(np.sqrt(tau), 0.3))
        assert math.isfinite(length)
        assert abs(length - math.pi / 2) < 1e-7

    def test_single_point_curve_is_refused(self):
        # written for one scalar tau, these put the coordinates first (or
        # give one vector in all) on the array of nodes
        with pytest.raises(DimensionMismatch):
            path_length(band_metric(), lambda tau: np.array([tau, 0.3 * np.cos(tau)]))
        with pytest.raises(DimensionMismatch):
            path_length(band_metric(), lambda tau: with_angle(tau, 0.4),
                        velocity=lambda tau: np.array([1.0, 0.0]))

    def test_one_batched_metric_and_domain_call(self, monkeypatch):
        # a per-node loop would call each 3200 times; on the way to a length
        # contains runs once, as the metric's range check
        calls = {"metric": 0, "contains": 0}
        for name in calls:
            def counted(self, *args, _original=getattr(BandChart, name), _name=name):
                calls[_name] += 1
                return _original(self, *args)
            monkeypatch.setattr(BandChart, name, counted)
        path_length(band_metric(), lambda tau: with_angle(tau, 0.4),
                    velocity=constant_velocity(1.0, 0.0))
        assert calls == {"metric": 1, "contains": 1}


class TestRescaleAndRealizability:
    def test_rescale_identity(self):
        metric = band_metric()
        u = np.array([0.5, 0.2])
        np.testing.assert_allclose(
            schouten(rescale(metric, 0.0), u).eigenvalues,
            schouten(metric, u).eigenvalues)

    def test_rescale_scaling_law(self):
        c = 0.5 * math.log(2.0)
        metric = ConformalMetric(StereographicChart(), constant_field(c))
        rep = schouten(rescale(metric, 1.0), np.array([0.1, 0.2]))
        np.testing.assert_allclose(rep.eigenvalues, 0.25 * math.exp(-2.0), atol=1e-12)

    def test_rescale_composes(self):
        metric = cylinder_metric(0.0)
        u = np.array([0.4, 1.0])
        one = schouten(rescale(metric, 0.9), u).eigenvalues
        two = schouten(rescale(rescale(metric, 0.4), 0.5), u).eigenvalues
        np.testing.assert_allclose(one, two, rtol=1e-14)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 400.0])
    def test_rescale_rejects_nonfinite_offset(self, dt):
        with pytest.raises(SingularParameterError, match="flow time = .* not finite"):
            rescale(band_metric(), dt)

    def test_ghat_refuses_rho_plus_t_past_the_flow_limit(self):
        # e^{2(rho + t)} times the stereographic factor 4 stays finite up to
        # FLOW_LIMIT; past it ghat, and so schouten, names rho + t
        u = np.zeros((3, 2))
        at = ConformalMetric(StereographicChart(), constant_field(FLOW_LIMIT))
        assert np.all(np.isfinite(at.ghat(u)))
        past = rescale(ConformalMetric(StereographicChart(), constant_field(300.0)), 60.0)
        for call in (past.ghat, lambda u: schouten(past, u)):
            with pytest.raises(SingularParameterError, match=r"rho \+ t = 360.0 "):
                call(u)

    def test_constant_example_realizable(self):
        metric = ConformalMetric(
            StereographicChart(), constant_field(0.5 * math.log(2.0)))
        rep = realizability_report(metric, [np.array([0.0, 0.0]), np.array([1.0, 0.5])])
        assert rep.realizable
        assert rep.lambda_min == pytest.approx(0.25, abs=1e-10)
        assert rep.lambda_max == pytest.approx(0.25, abs=1e-10)
        assert rep.suggested_t0 == 0.0

    def test_round_not_realizable(self):
        metric = ConformalMetric(StereographicChart(), constant_field(0.0))
        rep = realizability_report(metric, [np.zeros(2)])
        assert not rep.realizable
        assert rep.suggested_t0 == pytest.approx(
            0.5 * math.log(0.5 / (0.5 - REALIZABLE_MARGIN)), abs=1e-12)

    def test_band_flags_unbounded_below(self):
        metric = band_metric()
        samples = [np.array([1.0 - 10.0 ** -k, 0.0]) for k in range(1, 8)]
        rep = realizability_report(metric, samples)
        assert "Schouten not bounded below" in rep.flags
        assert not rep.realizable

    @pytest.mark.parametrize("samples", [[], np.zeros((0, 2)), [[2.0, 0.0]]],
                             ids=["empty-list", "empty-array", "outside-domain"])
    def test_empty_samples_error(self, samples):
        with pytest.raises(SamplingError, match="no usable samples"):
            realizability_report(band_metric(), samples)

    def test_empty_eigenvalues_error(self):
        # the check realizability_report shares, reached directly by the
        # schouten command with no samples
        with pytest.raises(SamplingError, match="no usable samples"):
            eigenvalue_realizability(np.empty((0, 2)))

    def test_flow_time_examples(self):
        def t0(lambda_max):
            return eigenvalue_realizability(np.array([[-2.0, lambda_max]])).suggested_t0

        assert t0(-1.0) == 0.0 and t0(0.25) == 0.0
        bound = 0.5 - REALIZABLE_MARGIN
        assert t0(0.5) == pytest.approx(0.5 * math.log(0.5 / bound), abs=1e-15)
        assert t0(2.0) == pytest.approx(0.5 * math.log(2.0 / bound), abs=1e-15)
