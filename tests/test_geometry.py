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
    SchwarzschildForm,
    WarpedProduct,
    _chart_ricci,
    _entry,
    conformal_curvature,
    conformal_hessian,
    _radial_chart,
    _radial_frame,
    coordinate_sphere,
    spf_residuals,
    to_geometric,
    to_physical,
    tolman_residuals,
)
from staticstar.numerics import RadialFunction, ScalarField, chebyshev_grid

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


def _sqrt_field():
    def val(x):
        return math.sqrt(1.0 + float(np.dot(x, x)))

    def grad(x):
        x = np.asarray(x, dtype=float)
        return x / val(x)

    def hess(x):
        x = np.asarray(x, dtype=float)
        p = val(x)
        return np.eye(3) / p - np.outer(x, x) / p**3

    return ScalarField(val, grad, hess, 3)


GENERIC_POINT = np.array([0.5, -1.0 / 3.0, 0.2])


class TestConformalCurvature:
    def test_scalar_curvature_values(self):
        phi = _sqrt_field()
        assert conformal_curvature(phi, np.zeros(3))[1] == pytest.approx(12.0, abs=1e-12)
        assert conformal_curvature(phi, np.array([1.0, 0.0, 0.0]))[1] == pytest.approx(
            7.0, abs=1e-12
        )
        assert conformal_curvature(phi, GENERIC_POINT)[1] == pytest.approx(
            9.1371927042030135, abs=1e-12
        )

    def test_ricci_on_axis(self):
        ric, _ = conformal_curvature(_sqrt_field(), np.array([1.0, 0.0, 0.0]))
        assert np.allclose(ric, np.diag([1.0, 1.25, 1.25]), atol=1e-13)

    def test_ricci_generic_point(self):
        ric, _ = conformal_curvature(_sqrt_field(), GENERIC_POINT)
        want = np.array([
            [2.1145560620858413, 0.0848991994948812, -0.0509395196969287],
            [0.0848991994948812, 2.1853053949982423, 0.0339596797979525],
            [-0.0509395196969287, 0.0339596797979525, 2.2215290534493916],
        ])
        assert np.allclose(ric, want, atol=1e-12)

    def test_hessian_of_linear_function(self):
        """Hess_g of an affine function picks up pure connection terms."""
        phi = _sqrt_field()
        aff = ScalarField(
            value=lambda x: float(x[0]),
            gradient=lambda x: np.array([1.0, 0.0, 0.0]),
            hessian=lambda x: np.zeros((3, 3)),
            n=3,
        )
        h = conformal_hessian(phi, aff, np.zeros(3))
        assert np.allclose(h, np.zeros((3, 3)), atol=1e-14)
        x = np.array([0.0, 1.0, 0.0])
        h = conformal_hessian(phi, aff, x)
        # Gamma-terms: (phi_i f_j + phi_j f_i)/phi - <grad phi, grad f>/phi delta_ij
        p = math.sqrt(2.0)
        want = np.zeros((3, 3))
        want[0, 1] = want[1, 0] = (1.0 / p) / p
        assert np.allclose(h, want, atol=1e-14)


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
        mu = RadialFunction.constant(c, dom)
        rho = RadialFunction.constant(-c / 3.0, dom)
        grid = chebyshev_grid(0.05 * r_h, 0.9 * r_h, 64)
        rep = tolman_residuals(m, f, mu, rho, grid)
        assert rep.passed, rep.to_json_dict()

        ansatz = SchwarzschildForm(m)
        mu_g, rho_g = to_geometric(c, -c / 3.0)
        fluid = FluidData(
            f=f,
            mu=RadialFunction.constant(mu_g, dom),
            rho=RadialFunction.constant(rho_g, dom),
        )
        rep2 = spf_residuals(ansatz, fluid, grid, tol=1e-9)
        assert rep2.passed
        assert {e.eq for e in rep2.entries} == {
            "field[rr]", "field[tan]", "trace", "scalar-curvature", "traceless",
        }

    def test_nonsolution_is_flagged(self):
        c = 0.001
        a = EIGHT_PI * c / 3.0
        dom = (0.0, 10.0)
        m = _rf(lambda r: 0.5 * a * r**3, lambda r: 1.5 * a * r * r, lambda r: 3.0 * a * r, dom)
        f = RadialFunction.constant(1.0, dom)
        mu = RadialFunction.constant(2.0 * c, dom)  # wrong by a factor of two
        rho = RadialFunction.constant(-c, dom)
        rep = tolman_residuals(m, f, mu, rho, chebyshev_grid(0.5, 5.0, 16))
        assert not rep.passed
        assert rep.entry("density").max == pytest.approx(EIGHT_PI * c, abs=1e-12)

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

    def test_conservation_residual_on_solution(self, witten):
        piece = witten.pieces[0]
        lo, hi = piece.interval
        grid = np.linspace(lo + 0.01, hi - 0.01, 200)
        f, mu, rho = piece.fluid.f, piece.mu_phys, piece.rho_phys
        res = f.value(grid) * rho.d1(grid) + (mu.value(grid) + rho.value(grid)) * f.d1(grid)
        # f rho' + (mu + rho) f' = 0; the geometric residual is 8 pi times the physical one
        assert np.max(np.abs(EIGHT_PI * res)) < 1e-10


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
            b_w, h_w, e_w = coordinate_sphere(warped, s)
            b_s, h_s, e_s = coordinate_sphere(schw, r_of(s))
            assert b_w == pytest.approx(b_s, rel=1e-12)
            assert h_w == pytest.approx(h_s, rel=1e-12)
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
    """Both residual checks at the 1e-9 gate from 1e-4 of the surface (wyman)
    or horizon (einstein_static) radius, where the 1/r^2 terms are ~1e8."""
    model = catalog.build(model_id)
    p = model.pieces[0]
    grid = chebyshev_grid(1e-4 * radius(model), p.interval[1], 512)
    field = spf_residuals(p.ansatz, p.fluid, grid, tol=1e-9)
    tolman = tolman_residuals(p.ansatz.m, p.fluid.f, p.mu_phys, p.rho_phys, grid, tol=1e-9)
    assert field.passed, field.to_json_dict()
    assert tolman.passed, tolman.to_json_dict()


# ---------------------------------------------------------------------------
# level spheres of the conformal chart
# ---------------------------------------------------------------------------


def _sphere_from_full_chart(ansatz, r):
    """(b, H, e) from all of the chart's data, as coordinate_sphere once read it."""
    b, b1, _, e2, _, _ = (float(v) for v in _radial_chart(ansatz, r))
    e = math.sqrt(e2)
    return b, 2.0 * e * b1 / b, e


def _tov_star_ansatz():
    profile = tov.integrate_tov(tov.ConstantDensity(0.001), 5e-4)
    star = tov.match_exterior(profile, tov.detect_surface(profile))
    return SchwarzschildForm(star.mass_function()), star.r_b


@pytest.mark.parametrize("chart", ["tov", "wyman", "witten_stellar"])
def test_coordinate_sphere_reads_first_order_data_only(chart):
    """Bit for bit the sphere of the full chart data, with every derivative
    beyond m, phi and phi' made to raise."""
    if chart == "tov":
        ansatz, r_b = _tov_star_ansatz()
        radii = [1e-3, 0.5, 0.9 * r_b, r_b, 3.0 * r_b]
    else:
        ansatz = catalog.build(chart).pieces[0].ansatz
        radii = [0.05, 0.3, 0.7, 1.2]

    def refuse(r):
        raise AssertionError("a derivative the sphere does not read")

    if isinstance(ansatz, SchwarzschildForm):
        m = ansatz.m
        first_order = SchwarzschildForm(RadialFunction(m.value, refuse, refuse, domain=m.domain))
    else:
        p = ansatz.phi
        first_order = WarpedProduct(RadialFunction(p.value, p.d1, refuse, domain=p.domain))
    for r in radii:
        got = coordinate_sphere(first_order, r)
        assert got == _sphere_from_full_chart(ansatz, r)
        assert all(type(x) is float for x in got)


def test_conformal_sphere_matches_the_warped_chart():
    """g = delta/(1 + |x|^2) at u = |x|^2 = sinh^2 t is dt^2 + tanh^2 t g_{S^2}."""
    conformal_chart = conformal.build_model("witten", n=3).to_ansatz()
    warped = catalog.witten_stellar().pieces[0].ansatz
    for t in (0.1, 0.5, 1.0, 2.0, 3.0):
        b_c, h_c, e_c = coordinate_sphere(conformal_chart, math.sinh(t) ** 2)
        b_w, h_w, _ = coordinate_sphere(warped, t)
        assert b_c == pytest.approx(b_w, rel=1e-13, abs=0.0)
        assert h_c == pytest.approx(h_w, rel=1e-13, abs=0.0)
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
