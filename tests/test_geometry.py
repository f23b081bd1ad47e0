"""Curvature formulas and residual machinery against independently derived values."""

import math
import warnings

import numpy as np
import pytest

from staticstar import catalog, conformal, quasilocal, tov
from staticstar.errors import DomainError
from staticstar.geometry import (
    EIGHT_PI,
    ConformalFlat,
    FluidData,
    Piece,
    RadialReading,
    SchwarzschildForm,
    WarpedProduct,
    _chart_ricci,
    _conformal_ricci,
    _entry,
    _g_hessian,
    conformal_curvature,
    conformal_hessian,
    _radial_chart,
    _radial_frame,
    coordinate_sphere,
    spf_residuals,
    to_geometric,
    to_physical,
)
from staticstar.numerics import RadialFunction, chebyshev_grid

# ---------------------------------------------------------------------------
# convention bridge
# ---------------------------------------------------------------------------


class TestConventionBridge:
    def test_roundtrip(self):
        mu_g, rho_g = to_geometric(0.25, -0.1, lam=0.3)
        mu_p, rho_p = to_physical(mu_g, rho_g, lam=0.3)
        assert mu_p == pytest.approx(0.25, abs=1e-15)
        assert rho_p == pytest.approx(-0.1, abs=1e-15)

    def test_lambda_split(self):
        """mu_geo = 8 pi mu + Lambda, rho_geo = 8 pi rho - Lambda."""
        mu_g, rho_g = to_geometric(1.0, 2.0, lam=0.5)
        assert mu_g == pytest.approx(EIGHT_PI + 0.5)
        assert rho_g == pytest.approx(2.0 * EIGHT_PI - 0.5)


# ---------------------------------------------------------------------------
# warped products
# ---------------------------------------------------------------------------


def _rf(v, d1, d2, dom=(-math.inf, math.inf)):
    return RadialFunction(v, d1, d2, provenance="analytic", domain=dom)


SIN_WARP = _rf(np.sin, np.cos, lambda r: -np.sin(r), (0.0, math.pi))
TANH_WARP = _rf(
    np.tanh,
    lambda r: 1.0 / np.cosh(r) ** 2,
    lambda r: -2.0 * np.tanh(r) / np.cosh(r) ** 2,
    (0.0, math.inf),
)


class TestWarpedCurvature:
    def test_round_sphere_slice(self):
        """phi = sin r is the unit round 3-sphere: Ric = 2g, R = 6."""
        r11, rab, r_scal = _chart_ricci(*_radial_chart(WarpedProduct(SIN_WARP), math.pi / 4))
        assert r11 == pytest.approx(2.0, abs=1e-14)
        assert rab == pytest.approx(1.0, abs=1e-14)
        assert r_scal == pytest.approx(6.0, abs=1e-13)

    def test_tanh_warp_value(self):
        r11, _, _ = _chart_ricci(*_radial_chart(WarpedProduct(TANH_WARP), 1.0))
        assert r11 == pytest.approx(1.6798973664561043, abs=1e-12)

    def test_vanishing_warp_rejected(self):
        with pytest.raises(DomainError):
            _chart_ricci(*_radial_chart(WarpedProduct(TANH_WARP), 0.0))

    def test_mean_curvature(self):
        ansatz = WarpedProduct(phi=TANH_WARP)
        want = 2.0 / (math.sinh(1.0) * math.cosh(1.0))
        assert coordinate_sphere(ansatz, 1.0)[1] == pytest.approx(want, abs=1e-14)


# ---------------------------------------------------------------------------
# Schwarzschild form
# ---------------------------------------------------------------------------


class TestSchwarzschildForm:
    def _vacuum(self, M=1.0):
        """The vacuum ansatz and its lapse f = sqrt(1 - 2M/r)."""
        dom = (2.0 * M + 1e-9, math.inf)
        m = RadialFunction.constant(M, dom)
        f = _rf(
            lambda r: np.sqrt(1.0 - 2.0 * M / r),
            lambda r: M / (r * r * np.sqrt(1.0 - 2.0 * M / r)),
            lambda r: -2.0 * M / (r**3 * np.sqrt(1.0 - 2.0 * M / r))
            - M * M / (r**4 * np.sqrt(1.0 - 2.0 * M / r) ** 3),
            dom,
        )
        return SchwarzschildForm(m), f

    def test_mean_curvature(self):
        assert coordinate_sphere(self._vacuum()[0], 4.0)[1] == pytest.approx(
            0.35355339059327376, abs=1e-15
        )

    def test_vacuum_field_equations(self):
        ansatz, f = self._vacuum()
        zero = RadialFunction.constant(0.0, ansatz.m.domain)
        fluid = FluidData(f=f, mu=zero, rho=zero)
        rep = spf_residuals(ansatz, fluid, chebyshev_grid(2.5, 30.0, 48), tol=1e-9)
        assert rep.passed
        assert rep.worst < 1e-11


# ---------------------------------------------------------------------------
# conformally flat metrics: phi = sqrt(1 + |x|^2) (round sphere of curvature 1... scaled)
# ---------------------------------------------------------------------------


def _sqrt_factor(x):
    """phi = sqrt(1 + |x|^2) at one point or a batch, with its Euclidean
    gradient and Hessian written out by hand: (phi, x/phi, I/phi - x x^T/phi^3)."""
    x = np.asarray(x, dtype=float)
    p = np.sqrt(1.0 + np.sum(x * x, axis=-1))
    grad = x / p[..., None]
    hess = (np.eye(3) / p[..., None, None]
            - x[..., :, None] * x[..., None, :] / (p**3)[..., None, None])
    return p, grad, hess


# the same factor as a ConformalFlat chart: sqrt(1 + u) in u = |x|^2
SQRT_CHART = ConformalFlat(
    RadialFunction.from_formula(lambda u: np.sqrt(1.0 + u), (-1.0 + 1e-12, math.inf)),
    conformal.BasicInvariant(1.0, (0.0,) * 3, (0.0,) * 3),
)

GENERIC_POINT = np.array([0.5, -1.0 / 3.0, 0.2])
GENERIC_RICCI = np.array([
    [2.1145560620858413, 0.0848991994948812, -0.0509395196969287],
    [0.0848991994948812, 2.1853053949982423, 0.0339596797979525],
    [-0.0509395196969287, 0.0339596797979525, 2.2215290534493916],
])


class TestConformalCurvature:
    @pytest.mark.parametrize("curvature", [
        lambda x: _conformal_ricci(*_sqrt_factor(x)),
        lambda x: conformal_curvature(SQRT_CHART, x),
    ], ids=["kernel", "public"])
    def test_scalar_curvature_values(self, curvature):
        assert curvature(np.zeros(3))[1] == pytest.approx(12.0, abs=1e-12)
        assert curvature(np.array([1.0, 0.0, 0.0]))[1] == pytest.approx(7.0, abs=1e-12)
        assert curvature(GENERIC_POINT)[1] == pytest.approx(9.1371927042030135, abs=1e-12)
        # a batch gives its rows
        _, r_scal = curvature(np.stack([np.zeros(3), GENERIC_POINT]))
        np.testing.assert_allclose(r_scal, [12.0, 9.1371927042030135], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("curvature", [
        lambda x: _conformal_ricci(*_sqrt_factor(x)),
        lambda x: conformal_curvature(SQRT_CHART, x),
    ], ids=["kernel", "public"])
    def test_ricci_closed_forms(self, curvature):
        ric, _ = curvature(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(ric, np.diag([1.0, 1.25, 1.25]), atol=1e-13)
        ric, _ = curvature(GENERIC_POINT)
        assert np.allclose(ric, GENERIC_RICCI, atol=1e-12)

    def test_hessian_of_linear_function(self):
        """Hess_g of an affine function picks up pure connection terms."""
        grad_f, hess_f = np.array([1.0, 0.0, 0.0]), np.zeros((3, 3))
        p, grad_phi, _ = _sqrt_factor(np.zeros(3))
        h = _g_hessian(p, grad_phi, grad_f, hess_f)
        assert np.allclose(h, np.zeros((3, 3)), atol=1e-14)
        p, grad_phi, _ = _sqrt_factor(np.array([0.0, 1.0, 0.0]))
        h = _g_hessian(p, grad_phi, grad_f, hess_f)
        # Gamma-terms: (phi_i f_j + phi_j f_i)/phi - <grad phi, grad f>/phi delta_ij
        p = math.sqrt(2.0)
        want = np.zeros((3, 3))
        want[0, 1] = want[1, 0] = (1.0 / p) / p
        assert np.allclose(h, want, atol=1e-14)

    def test_hessian_of_the_invariant_itself(self):
        """f = u = |x|^2 through the public route: Hess_g u = 2 I plus the
        connection terms of sqrt(1 + u), 4 x x^T/phi^2 - 2|x|^2/phi^2 I."""
        u = RadialFunction.from_formula(lambda u: u, (-math.inf, math.inf))
        x = GENERIC_POINT
        p2 = 1.0 + float(x @ x)
        want = 2.0 * np.eye(3) + (4.0 * np.outer(x, x) - 2.0 * float(x @ x) * np.eye(3)) / p2
        np.testing.assert_allclose(conformal_hessian(SQRT_CHART, u, x), want,
                                   rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# residual reports
# ---------------------------------------------------------------------------


class TestResiduals:
    def test_unit_lapse_space_form_passes(self):
        """f = 1 on the round slice 1 - 2m/r = 1 - a r^2 needs rho = -mu/3."""
        c = 0.001
        a = EIGHT_PI * c / 3.0
        r_h = math.sqrt(1.0 / a)
        dom = (0.0, 0.99 * r_h)
        m = _rf(lambda r: 0.5 * a * r**3, lambda r: 1.5 * a * r * r, lambda r: 3.0 * a * r, dom)
        f = RadialFunction.constant(1.0, dom)
        grid = chebyshev_grid(0.05 * r_h, 0.9 * r_h, 64)
        ansatz = SchwarzschildForm(m)
        piece = Piece("slice", ansatz, f, RadialFunction.constant(c, dom),
                      RadialFunction.constant(-c / 3.0, dom), dom)
        rep = spf_residuals(ansatz, RadialReading(piece, grid), grid, tol=1e-9)
        assert rep.passed, rep.to_json_dict()
        assert [e.eq for e in rep.entries] == [
            "field[rr]", "field[tan]", "trace", "scalar-curvature", "traceless", "conservation",
        ]

        mu_g, rho_g = to_geometric(c, -c / 3.0)
        fluid = FluidData(
            f=f,
            mu=RadialFunction.constant(mu_g, dom),
            rho=RadialFunction.constant(rho_g, dom),
        )
        rep2 = spf_residuals(ansatz, fluid, grid, tol=1e-9)
        assert rep2.passed
        # geometric values carry no derivatives: no conservation entry, and
        # every other entry has the reading's bits
        assert rep2.entries == rep.entries[:-1]

    def test_nonsolution_is_flagged(self):
        c = 0.001
        a = EIGHT_PI * c / 3.0
        dom = (0.0, 10.0)
        m = _rf(lambda r: 0.5 * a * r**3, lambda r: 1.5 * a * r * r, lambda r: 3.0 * a * r, dom)
        f = RadialFunction.constant(1.0, dom)
        mu = RadialFunction.constant(2.0 * c, dom)  # wrong by a factor of two
        rho = RadialFunction.constant(-c, dom)
        grid = chebyshev_grid(0.5, 5.0, 16)
        piece = Piece("slice", SchwarzschildForm(m), f, mu, rho, dom)
        rep = spf_residuals(piece.ansatz, RadialReading(piece, grid), grid, tol=1e-9)
        assert not rep.passed
        # 8 pi mu - 2 m'/r^2: the density equation is the scalar constraint
        assert rep.entry("scalar-curvature").max == pytest.approx(EIGHT_PI * c, abs=1e-12)
        # a constant rho with f = 1 conserves whatever mu is
        assert rep.entry("conservation").max == 0.0

    def test_positive_lapse_required(self, witten):
        piece = witten.pieces[0]
        lo, hi = piece.interval
        bad_f = RadialFunction.constant(-1.0, (lo, hi))
        import dataclasses

        fluid = dataclasses.replace(piece.fluid, f=bad_f)
        with pytest.raises(DomainError):
            spf_residuals(piece.ansatz, fluid, np.linspace(lo, hi, 8))

    def test_report_json_shape(self, vacuum):
        rep = vacuum.verify().reports["field[exterior]"]
        d = rep.to_json_dict()
        assert d["pass"] is True
        assert {e["eq"] for e in d["entries"]} >= {"field[rr]", "trace"}

    @pytest.mark.parametrize("params", [{}, {"B": -0.5}, {"A": 0.6, "B": 0.45, "lam": 0.3}],
                             ids=["default", "phase", "lambda"])
    def test_conservation_residual_on_solution(self, params):
        # the warped chart's rho is read as a jet; f rho' + (mu + rho) f' = 0 is
        # Lambda-free in physical variables, and the report carries it as
        # 2 rho' + (2 f'/f)(rho + mu), written out here from the profiles
        model = catalog.build("witten_stellar", **params)
        piece = model.pieces[0]
        lo, hi = piece.interval
        grid = np.linspace(lo + 0.01, hi - 0.01, 200)
        rep = spf_residuals(piece.ansatz, RadialReading(piece, grid), grid, tol=1e-9)
        f, mu, rho = piece.f, piece.mu_phys, piece.rho_phys
        res = 2.0 * rho.d1(grid) + 2.0 * f.d1(grid) / f.value(grid) * (rho.value(grid)
                                                                        + mu.value(grid))
        assert rep.entry("conservation").max == float(np.max(np.abs(res)))
        assert rep.entry("conservation").max < 1e-11
        field = model.verify().reports["field[star]"]
        assert field.passed and field.entry("conservation").max < 1e-11


def _two_call_entry(values, grid):
    """(max, rms, worst_r) as two numpy calls and an argmax formed them, the
    reference for :func:`staticstar.geometry._entry`."""
    values = np.abs(np.asarray(values, dtype=float))
    if values.ndim > 1:
        values = values.reshape(values.shape[0], -1).max(axis=1)
    v = values.ravel()
    mx, rms = (float(np.max(v)), float(np.sqrt(np.mean(v * v)))) if v.size else (0.0, 0.0)
    worst = float(grid[int(np.argmax(values))]) if values.size else float("nan")
    return mx, rms, worst


def _decades(n, seed):
    rng = np.random.default_rng(seed)
    return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-20.0, 20.0, n)


_NAN, _INF = float("nan"), float("inf")
_ENTRY_CASES = {
    "decades-16": _decades(16, 1),
    "decades-96": _decades(96, 2),
    "decades-512": _decades(512, 3),
    # one magnitude, where the order of the sum shows in the rms's last bit: at
    # these seeds an ndarray.dot sum of squares gives a different rms
    "one-decade-16": np.random.default_rng(12).standard_normal(16),
    "one-decade-96": np.random.default_rng(0).standard_normal(96),
    "one-decade-512": np.random.default_rng(3).standard_normal(512),
    "componentwise": _decades(96 * 2, 4).reshape(96, 2),
    "componentwise-3x3": _decades(16 * 9, 5).reshape(16, 3, 3),
    "zero-d": np.float64(-3.5e-7),
    "empty": np.array([]),
    "nan": np.array([1.0, _NAN, 3.0, -_NAN, 2.0]),
    "nan-after-inf": np.array([_INF, 1.0, _NAN]),
    "inf": np.array([1.0, -_INF, _INF, 2.0]),
    "negative-zero": np.array([-0.0, 0.0, -0.0]),
    "subnormal": np.array([5e-324, -1e-310, 2.2e-308, -0.0]),
    "nan-component": np.array([[1.0, 2.0], [_NAN, 0.5], [4.0, -_INF]]),
}


@pytest.mark.parametrize("values", _ENTRY_CASES.values(), ids=_ENTRY_CASES.keys())
def test_entry_is_the_two_call_formula_bit_for_bit(values):
    grid = np.linspace(0.5, 7.0, max(np.shape(values)[:1], default=1))
    entry = _entry("eq", values, grid)
    got = np.array([entry.max, entry.rms, entry.worst_r])
    assert got.tobytes() == np.array(_two_call_entry(values, grid)).tobytes()


def test_entry_rms_of_a_max_whose_square_overflows():
    """1e200 squared overflows; the RMS scales by a power of two first and
    reads 1e200 / sqrt(3), to an ulp, with no overflow warning."""
    entry = _entry("eq", np.array([1e200, -1e-200, 3.0]), np.array([1.0, 2.0, 3.0]))
    assert (entry.max, entry.worst_r) == (1e200, 1.0)
    want = 1e200 / math.sqrt(3.0)
    assert abs(entry.rms - want) <= math.ulp(want)


def test_entry_of_an_infinite_max_forms_no_square():
    """An inf max makes the RMS inf without squaring 1e300, which would warn
    of an overflow."""
    grid = np.array([1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        entry = _entry("eq", np.array([np.inf, 1e300]), grid)
    assert (entry.max, entry.rms, entry.worst_r) == (math.inf, math.inf, grid[0])


def test_entry_max_rms_and_worst_point():
    entry = _entry("eq", np.array([3.0, -4.0]), np.array([1.0, 2.0]))
    assert (entry.eq, entry.max, entry.worst_r) == ("eq", 4.0, 2.0)
    assert entry.rms == pytest.approx(math.sqrt(12.5))
    assert _entry("eq", np.array([]), np.array([])).rms == 0.0


# ---------------------------------------------------------------------------
# the two radial charts against each other
# ---------------------------------------------------------------------------


def _chart_pair(space):
    """One space and lapse in both radial charts: (warped, schwarzschild, r(s)).

    ``space`` is "sphere" (the unit 3-sphere, phi = sin s, m = r^3/2, so
    1 - 2m/r = 1 - r^2, with r = sin s) or "flat" (phi = s, m = 0, r = s).  The lapse is
    cos s = sqrt(1 - r^2) on the sphere and cos s = cos r on flat space.
    """
    s_dom = (0.0, 0.5 * math.pi)
    if space == "sphere":
        warped = WarpedProduct(RadialFunction.from_formula(np.sin, s_dom))
        r_dom = (0.0, 1.0)
        schw = SchwarzschildForm(
            RadialFunction.from_formula(lambda r: 0.5 * r**3, r_dom))
        f_r = RadialFunction.from_formula(lambda r: np.sqrt(1.0 - r * r), r_dom)
        return (warped, RadialFunction.from_formula(np.cos, s_dom)), (schw, f_r), np.sin
    warped = WarpedProduct(RadialFunction.from_formula(lambda s: s, s_dom))
    schw = SchwarzschildForm(RadialFunction.constant(0.0, s_dom))
    f = RadialFunction.from_formula(np.cos, s_dom)
    return (warped, f), (schw, f), lambda s: s


def _chart_model(ansatz, f, lo, hi):
    zero = RadialFunction.constant(0.0, (lo, hi))
    piece = catalog.Piece("chart", ansatz, f, zero, zero, interval=(lo, hi))
    return catalog.AnalyticModel("chart", {}, [piece])


@pytest.mark.parametrize("space", ["sphere", "flat"])
class TestRadialChartsAgree:
    S = np.linspace(0.1, 1.4, 14)

    def test_frame(self, space):
        (warped, f_s), (schw, f_r), r_of = _chart_pair(space)
        a = _radial_frame(warped, f_s, self.S)
        b = _radial_frame(schw, f_r, r_of(self.S))
        for key in ("f", "ric_rr", "ric_tan", "R", "hess_rr", "hess_tan", "lap"):
            np.testing.assert_allclose(a[key], b[key], rtol=1e-12, atol=1e-12, err_msg=key)

    def test_coordinate_sphere(self, space):
        (warped, f_s), (schw, f_r), r_of = _chart_pair(space)
        for s in self.S:
            b_w, h_w, e_w, k_w = coordinate_sphere(warped, s)
            b_s, h_s, e_s, k_s = coordinate_sphere(schw, r_of(s))
            assert b_w == pytest.approx(b_s, rel=1e-12)
            assert h_w == pytest.approx(h_s, rel=1e-12)
            assert k_w == pytest.approx(k_s, rel=1e-12, abs=1e-15)
            assert e_w * abs(f_s.d1(s)) == pytest.approx(e_s * abs(f_r.d1(r_of(s))), rel=1e-12)

    @pytest.mark.parametrize("c", [0.3, 0.6, 0.9])
    def test_level_sets(self, space, c):
        (warped, f_s), (schw, f_r), r_of = _chart_pair(space)
        lo, hi = 0.05, 1.5
        (rep_w,) = quasilocal.level_set_data(_chart_model(warped, f_s, lo, hi), c)
        (rep_s,) = quasilocal.level_set_data(_chart_model(schw, f_r, r_of(lo), r_of(hi)), c)
        assert rep_s.r == pytest.approx(r_of(rep_w.r), rel=1e-12)
        for name in ("area", "mean_curvature", "kappa", "m_hawking"):
            assert getattr(rep_w, name) == pytest.approx(getattr(rep_s, name), rel=1e-12), name


@pytest.mark.parametrize("model_id, radius", [
    ("wyman", lambda m: m.extras["r_b"]),
    ("einstein_static", lambda m: m.pieces[0].ansatz.m.domain[1]),
], ids=["wyman", "einstein_static"])
def test_residuals_hold_near_a_regular_centre(model_id, radius):
    """The field report, conservation included, at the 1e-9 gate from 1e-4 of
    the surface (wyman) or horizon (einstein_static) radius, where the 1/r^2
    terms are ~1e8."""
    model = catalog.build(model_id)
    p = model.pieces[0]
    grid = chebyshev_grid(1e-4 * radius(model), p.interval[1], 512)
    field = spf_residuals(p.ansatz, RadialReading(p, grid), grid, tol=1e-9)
    assert field.passed, field.to_json_dict()
    assert field.entry("conservation").max <= 1e-9


# ---------------------------------------------------------------------------
# level spheres of the conformal chart
# ---------------------------------------------------------------------------


def _sphere_from_full_chart(ansatz, r):
    """(b, H, e, 1 - b_s^2) from all of the chart's data, as coordinate_sphere
    once read it."""
    b, b1, _, e2, _, one_minus_bs2 = (float(v) for v in _radial_chart(ansatz, r))
    e = math.sqrt(e2)
    return b, 2.0 * e * b1 / b, e, one_minus_bs2


def _charts_and_radii(chart):
    """(ansatz, radii) for each piece of a model that the test reads."""
    if chart == "tov":
        profile = tov.integrate_tov(tov.ConstantDensity(0.001), 5e-4)
        star = tov.match_exterior(profile, tov.detect_surface(profile))
        interior, exterior = (p.ansatz for p in star.pieces)
        r_b = star.r_b
        return [(interior, [1e-3, 0.5, 0.9 * r_b, r_b]), (exterior, [r_b, 3.0 * r_b])]
    return [(catalog.build(chart).pieces[0].ansatz, [0.05, 0.3, 0.7, 1.2])]


@pytest.mark.parametrize("chart", ["tov", "wyman", "witten_stellar"])
def test_coordinate_sphere_reads_first_order_data_only(chart):
    """Bit for bit the sphere of the full chart data, with every derivative
    beyond m, phi and phi' made to raise."""

    def refuse(r):
        raise AssertionError("a derivative the sphere does not read")

    for ansatz, radii in _charts_and_radii(chart):
        if isinstance(ansatz, SchwarzschildForm):
            m = ansatz.m
            first_order = SchwarzschildForm(RadialFunction(m.value, refuse, refuse,
                                                           domain=m.domain))
        else:
            p = ansatz.phi
            first_order = WarpedProduct(RadialFunction(p.value, p.d1, refuse, domain=p.domain))
        for r in radii:
            got = coordinate_sphere(first_order, r)
            assert got == _sphere_from_full_chart(ansatz, r)
            assert all(type(x) is float for x in got)


def test_conformal_sphere_matches_the_warped_chart():
    """g = delta/(1 + |x|^2) at u = |x|^2 = sinh^2 t is dt^2 + tanh^2 t g_{S^2}."""
    conformal_chart = conformal.build_model("witten", n=3).pieces[0].ansatz
    warped = catalog.witten_stellar().pieces[0].ansatz
    for t in (0.1, 0.5, 1.0, 2.0, 3.0):
        b_c, h_c, e_c, k_c = coordinate_sphere(conformal_chart, math.sinh(t) ** 2)
        b_w, h_w, _, k_w = coordinate_sphere(warped, t)
        assert b_c == pytest.approx(b_w, rel=1e-13, abs=0.0)
        assert h_c == pytest.approx(h_w, rel=1e-13, abs=0.0)
        # b_s = d tanh t/dt = sech^2 t in both charts
        assert k_c == pytest.approx(k_w, rel=1e-13, abs=0.0)
        assert k_w == pytest.approx(1.0 - math.cosh(t) ** -4, rel=1e-13, abs=0.0)
        assert e_c == pytest.approx(2.0 * math.sinh(t) * math.cosh(t), rel=1e-13, abs=0.0)


def test_conformal_sphere_needs_a_nonempty_round_level_set():
    phi = RadialFunction.from_formula(lambda u: np.sqrt(1.0 + u), (-1.0, math.inf))
    plane = conformal.BasicInvariant(0.0, (1.0, 0.5, 0.0), (0.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        coordinate_sphere(ConformalFlat(phi, plane), 0.5)
    # C = 0.61, so the level spheres of u are empty below u = -C/(4 tau) = -0.1525
    shifted = conformal.BasicInvariant(1.0, (0.4, -0.2, 0.1), (0.0, 0.0, -0.1))
    chart = ConformalFlat(phi, shifted)
    assert coordinate_sphere(chart, -0.15)[0] > 0.0
    with pytest.raises(DomainError):
        coordinate_sphere(chart, -0.2)


def _sphere_pieces(name):
    """The pieces of a model whose coordinate spheres the array test reads."""
    if name.startswith("tov-"):
        if name == "tov-constant":
            eos, rho_c = tov.ConstantDensity(0.001), 5e-4
        else:  # a bag model mu = 3 rho + 4B on a table
            rho = np.linspace(-3.5e-4, 5.25e-4, 60)
            eos, rho_c = tov.Tabulated(rho, 3.0 * rho + 4e-4), 3.5e-4
        profile = tov.integrate_tov(eos, rho_c)
        return tov.match_exterior(profile, tov.detect_surface(profile)).pieces
    if name == "conformal":
        return conformal.build_model("witten", n=3).pieces
    if name == "conformal-off-centre":
        shifted = conformal.BasicInvariant(1.0, (0.4, -0.2, 0.6), (0.0, 0.1, 0.0))
        return conformal.build_model("witten", n=3, invariant=shifted, span=(0.5, 6.0)).pieces
    if name == "schwarzschild_interior":
        return catalog.build(name, c=0.01).pieces
    return catalog.parse_model_spec(name).pieces


@pytest.mark.parametrize("name", ["schwarzschild_exterior", "schwarzschild_interior", "wyman",
                                  "gamma_zero", "tov-constant", "tov-bag", "witten_stellar",
                                  # H, read through a 0-d value, was one bit off the array's
                                  # at r = 2.98196414544603, one of the points below
                                  "witten_stellar:A=1.0591233546340295,B=-0.39304640352722564",
                                  "conformal", "conformal-off-centre"])
def test_coordinate_sphere_of_an_array_is_its_values_one_by_one(name):
    """Bit for bit, on Schwarzschild-form, warped and conformal charts: an
    array of radial values gives four arrays of its shape, each element the
    float its value alone gives, since a float is read as a one-point array."""
    for piece in _sphere_pieces(name):
        lo, hi = piece.scan_window()
        r = np.linspace(lo, min(hi, 50.0), 162)[1:-1]
        got = coordinate_sphere(piece.ansatz, r)
        assert all(type(v) is np.ndarray and v.shape == r.shape for v in got)
        for i, x in enumerate(r.tolist()):
            assert coordinate_sphere(piece.ansatz, x) == tuple(float(v[i]) for v in got)
        square = coordinate_sphere(piece.ansatz, r.reshape(8, 20))
        assert all(np.array_equal(a, b.reshape(8, 20)) for a, b in zip(square, got))


def test_coordinate_sphere_of_an_array_names_its_first_value_without_a_sphere():
    warped = WarpedProduct(RadialFunction.from_formula(lambda r: np.sin(r)))
    with pytest.raises(DomainError, match="^coordinate sphere needs r > 0$"):
        coordinate_sphere(warped, np.array([1.0, 0.0, -1.0]))
    with pytest.raises(DomainError, match=r"areal radius -0\.75\d* at r=4\.0$"):
        coordinate_sphere(warped, np.array([1.0, 4.0, 5.0]))
    # inside the horizon of M = 1: 1 - 2m/r < 0 below r = 2
    vacuum = catalog.build("schwarzschild_exterior").pieces[0].ansatz
    with pytest.raises(DomainError, match="at r=1.5, inside a horizon"):
        coordinate_sphere(vacuum, np.array([3.0, 1.5, 1.0]))
    phi = RadialFunction.from_formula(lambda u: 1.0 - u)
    chart = ConformalFlat(phi, conformal.BasicInvariant(1.0, (0.0,) * 3, (0.0,) * 3))
    with pytest.raises(DomainError, match=r"^no coordinate sphere at u=2\.0: radius 1\.414\d*, phi -1\.0$"):
        coordinate_sphere(chart, np.array([0.5, 2.0, 3.0]))
    assert coordinate_sphere(chart, 0.5) == tuple(float(v[0]) for v in
                                                  coordinate_sphere(chart, np.array([0.5])))
