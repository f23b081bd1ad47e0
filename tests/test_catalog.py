"""Catalog models: frozen values, verification gates, parameter guards."""

import dataclasses
import math

import numpy as np
import pytest

from staticstar.errors import BadParams, UnknownModel
from staticstar import catalog
from staticstar.geometry import EIGHT_PI, Piece, RadialReading, SchwarzschildForm, WarpedProduct
from staticstar.numerics import RadialFunction, chebyshev_grid

ALL_IDS = sorted(catalog.MODELS)


def test_registry_contents():
    assert ALL_IDS == [
        "einstein_static",
        "gamma_zero",
        "schwarzschild_exterior",
        "schwarzschild_interior",
        "witten_stellar",
        "wyman",
    ]


def test_unknown_model():
    with pytest.raises(UnknownModel):
        catalog.build("interior_schwarzschild")


def test_parse_model_spec():
    m = catalog.parse_model_spec("wyman:R=2.5,M=0.3")
    assert m.params == {"R": 2.5, "M": 0.3}
    m = catalog.parse_model_spec("witten_stellar:B=1.0")
    assert m.params["B"] == 1.0 and "n" not in m.params
    with pytest.raises(BadParams, match="no parameter 'n'"):
        catalog.parse_model_spec("witten_stellar:n=3")
    with pytest.raises(BadParams):
        catalog.parse_model_spec("wyman:R2.5")


@pytest.mark.parametrize("grid_n", [96, 512])
@pytest.mark.parametrize("model_id", ALL_IDS)
def test_every_model_verifies(model_id, grid_n):
    res = catalog.build(model_id).verify(grid_n=grid_n)
    assert res.passed, {k: r.worst for k, r in res.reports.items()}
    for name, rep in res.reports.items():
        if not name.startswith("diagnostic"):
            assert rep.passed, (name, rep.worst)
    assert all(v <= 1e-9 for v in res.junction.values())


def _sample_points(model):
    pts = [np.linspace(*p.scan_window(), 9) for p in model.pieces]
    if model.id == "wyman":
        r_b = model.extras["r_b"]
        # both sides of the seam, and a point left of every scan window that
        # falls back on the interior lapse's domain
        pts.append([r_b * (1.0 - 1e-12), r_b, r_b * (1.0 + 1e-12), 1e-3 * r_b])
    return np.concatenate(pts)


@pytest.mark.parametrize("model_id", ALL_IDS)
def test_array_evaluators_match_the_scalar_loop(model_id):
    model = catalog.build(model_id)
    r = _sample_points(model)
    for name in ("mu", "rho", "f"):
        evaluate = getattr(model, name)
        loop = [evaluate(float(x)) for x in r]
        assert all(type(v) is float for v in loop)
        assert np.array_equal(evaluate(r), loop), name
        assert evaluate(r.reshape(-1, 1)).shape == (r.size, 1)


def test_array_with_an_outside_point_is_refused(wyman):
    with pytest.raises(BadParams):
        wyman.mu(np.array([0.5, 1.0, -1.0]))
    with pytest.raises(BadParams):
        wyman.f(-1.0)


def test_verify_result_json(vacuum):
    d = vacuum.verify().to_json_dict()
    assert d["model"] == "schwarzschild_exterior"
    assert d["passed"] is True
    assert "field[exterior]" in d["reports"]


class TestInteriorAndStatic:
    def test_interior_constants(self):
        m = catalog.build("schwarzschild_interior", c=0.001)
        a = EIGHT_PI * 0.001 / 3.0
        assert m.mu(1.0) == pytest.approx(0.001)
        assert m.rho(1.0) == pytest.approx(-0.001)
        assert m.f(1.0) ** 2 == pytest.approx(1.0 - a, rel=1e-12)

    def test_interior_flat_limit(self):
        m = catalog.build("schwarzschild_interior", c=0.0)
        assert m.f(3.0) == 1.0 and m.mu(3.0) == 0.0
        assert m.verify().passed

    def test_einstein_static_values(self):
        m = catalog.build("einstein_static", c=0.5)
        assert m.mu(0.1) == pytest.approx(math.sqrt(3.0) * 0.5, rel=1e-14)
        assert m.rho(0.1) == pytest.approx(-0.5 / math.sqrt(3.0), rel=1e-14)
        assert m.f(0.1) == 1.0

    def test_einstein_static_guard(self):
        with pytest.raises(BadParams):
            catalog.build("einstein_static", c=-1.0)

    def test_gamma_zero_values(self):
        m = catalog.build("gamma_zero")  # c1 = c2 = 1
        assert m.f(1.0) == pytest.approx(2.0 * math.pi + 1.0, rel=1e-14)
        assert m.rho(1.0) == pytest.approx(1.0 / (2.0 * math.pi + 1.0), rel=1e-14)
        assert m.mu(5.0) == 0.0
        assert m.notes == ("unbounded fluid: exempt from surface matching",)

    def test_gamma_zero_guard(self):
        with pytest.raises(BadParams):
            catalog.build("gamma_zero", c1=0.0)


class TestWyman:
    """Quartic interior, R = 2, M = 0.2 (session fixture)."""

    def test_frozen_matching_constants(self, wyman):
        # r_b = (2 M R^4)^{1/5}; a1, a2 solve the C^1 seam at r_b
        assert wyman.extras["r_b"] == pytest.approx(
            (2.0 * 0.2 * 2.0**4) ** 0.2, rel=1e-14
        )
        assert wyman.extras["r_b"] == pytest.approx(1.449559327355391063, rel=1e-12)
        assert wyman.extras["a1"] == pytest.approx(-0.74932547891581974, rel=1e-12)
        assert wyman.extras["a2"] == pytest.approx(1.10297609130348737, rel=1e-12)

    @pytest.mark.parametrize(
        "r,f,rho,mu",
        [
            (0.30, 0.8105336358485934, 0.0008450083840572206, 0.0011190581936148891),
            (0.75, 0.8145431756492644, 0.0008191402214081301, 0.0069941137100930570),
            (1.00, 0.8209315168756865, 0.0007356887921548405, 0.0124339799290543230),
        ],
    )
    def test_frozen_interior_samples(self, wyman, r, f, rho, mu):
        assert wyman.f(r) == pytest.approx(f, rel=1e-12)
        assert wyman.rho(r) == pytest.approx(rho, rel=1e-12)
        assert wyman.mu(r) == pytest.approx(mu, rel=1e-12)
        # mu is the consistent quadratic: 8 pi mu = 5 r^2 / R^4
        assert wyman.mu(r) == pytest.approx(5.0 * r * r / 16.0 / EIGHT_PI, rel=1e-14)

    def test_junction_is_c1(self, wyman):
        res = wyman.verify(grid_n=48)
        assert res.junction and all(v <= 1e-9 for v in res.junction.values())

    def test_printed_density_is_diagnostic_only(self, wyman):
        res = wyman.verify(grid_n=48)
        rep = res.reports["diagnostic[printed-mu]"]
        assert not rep.passed       # the historical linear-in-R density fails
        assert res.passed           # ...without failing the model

    def test_printed_density_residual_value(self, wyman):
        # at r = 1, R = 2: 8 pi (mu_consistent - mu_printed) = 5/16 - 5/2, so
        # the density equation, the scalar constraint mu = R/2, is off by 35/16
        (hook,) = wyman.extra_verify
        r = np.array([1.0])
        ((name, rep),) = hook(wyman, 1, [RadialReading(wyman.pieces[0], r), None]).items()
        assert name == "diagnostic[printed-mu]"
        assert rep.entry("scalar-curvature").max == pytest.approx(35.0 / 16.0, rel=1e-12)
        assert rep.entry("traceless").max < 1e-14  # mu_printed enters only the trace parts

    def test_rejects_trapped_interior(self):
        with pytest.raises(BadParams):
            catalog.build("wyman", R=2.0, M=1.0)   # 2M = R
        with pytest.raises(BadParams):
            catalog.build("wyman", R=2.0, M=-0.1)

    @pytest.mark.parametrize("R", [0.5, 2.0, 7.0])
    def test_a_lapse_not_positive_at_the_centre_is_refused(self, R):
        # the interior lapse grows outward, so f(0) is its least value; it
        # reaches zero at 2M/R = 0.907160 whatever R is
        below = catalog.build("wyman", R=R, M=0.9071 * R / 2.0)
        assert 0.0 < below.pieces[0].f(0.0) < 1e-3
        assert below.verify(grid_n=48).passed
        with pytest.raises(BadParams, match=r"not positive at the centre, f\(0\) = -"):
            catalog.build("wyman", R=R, M=0.9072 * R / 2.0)


class TestWittenStellar:
    """Warped-chart star (session fixture: A = 1, B = 0, lam = 0)."""

    @pytest.mark.parametrize(
        "t,mu_geo,rho_geo,f",
        [
            (0.7, 4.1736979499122929, 3.8545257862493758, 0.22531879149285684),
            (1.3, 2.2871659835154701, -0.61878327514616250, 0.62762402057726598),
            (2.0, 1.3532541242658223, -1.0352030416363189, 0.96994453180030282),
        ],
    )
    def test_frozen_samples(self, witten, t, mu_geo, rho_geo, f):
        assert EIGHT_PI * witten.mu(t) == pytest.approx(mu_geo, rel=1e-12)
        assert EIGHT_PI * witten.rho(t) == pytest.approx(rho_geo, rel=1e-12)
        assert witten.f(t) == pytest.approx(f, rel=1e-12)
        # mu_geo = 1 + 5 sech^2 t in closed form
        assert mu_geo == pytest.approx(1.0 + 5.0 / math.cosh(t) ** 2, rel=1e-12)

    @pytest.mark.parametrize("B", [0.0, 0.5, -0.5])
    def test_pressure_poles(self, B):
        model = catalog.build("witten_stellar", B=B)
        delta = model.extras["delta"]
        poles = np.array(model.extras["zeros"])
        # log cosh t_k + delta is a multiple k pi: cot diverges there
        k = (np.log(np.cosh(poles)) + delta) / math.pi
        np.testing.assert_allclose(k, np.round(k), rtol=0.0, atol=1e-12)
        # in order, one per k, from the first t_k >= 0 to the last below t_max
        assert np.all(np.diff(poles) > 0.0) and poles[0] >= 0.0
        k = np.round(k)
        np.testing.assert_array_equal(k, np.arange(max(0, math.ceil(delta / math.pi)),
                                                   k[-1] + 1))
        assert math.acosh(math.exp((k[-1] + 1) * math.pi - delta)) > model.params["t_max"]

    def test_windows_avoid_poles(self, witten):
        for lo, hi in witten.extras["windows"]:
            assert 0.0 < lo < hi
            for t_k in witten.extras["zeros"]:
                assert not (lo <= t_k <= hi)

    def test_extra_reports_present(self, witten):
        res = witten.verify(grid_n=48)
        assert res.reports["tilde-chart[star]"].passed
        assert res.reports["sectional-curvature[star]"].passed

    def test_sectional_check_reads_the_chart(self):
        # every entry is 0 on the tanh warp; a sinh warp (K = -1) must fail
        model = catalog.build("witten_stellar")
        rep = model.verify().reports["sectional-curvature[star]"]
        assert rep.passed and rep.worst == 0.0
        star = model.pieces[0]
        hyperbolic = WarpedProduct(RadialFunction.from_formula(np.sinh, star.ansatz.phi.domain))
        model.pieces[0] = dataclasses.replace(star, ansatz=hyperbolic)
        rep = model.verify().reports["sectional-curvature[star]"]
        assert not rep.passed
        assert rep.entry("positivity[rad]").max == pytest.approx(1.0, rel=1e-12)
        assert rep.entry("positivity[tan]").max == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("params", [{}, {"B": 0.5}, {"B": -0.5}, {"lam": 0.1, "M": 2.0}])
    def test_the_tilde_check_reads_the_piece_as_the_model_reads_it(self, params):
        # the one piece's scan window holds its interval, so the tilde-chart
        # check may read mu and rho off the piece: the same bytes as model.mu
        model = catalog.build("witten_stellar", **params)
        (star,) = model.pieces
        for grid_n in (48, 96, 512):
            grid = chebyshev_grid(*star.interval, grid_n)
            assert star.mu_phys(grid).tobytes() == model.mu(grid).tobytes()
            assert star.rho_phys(grid).tobytes() == model.rho(grid).tobytes()

    def test_cosine_branch(self):
        m = catalog.build("witten_stellar", A=0.0, B=1.0)
        assert m.extras["delta"] == pytest.approx(math.pi / 2.0)
        t = 1.0
        assert m.f(t) == pytest.approx(
            math.cos(math.log(math.cosh(t))), rel=1e-14
        )
        assert m.verify(grid_n=48).passed

    def test_cosmological_offset(self):
        lam = 0.1
        m = catalog.build("witten_stellar", lam=lam)
        t = 0.7
        assert EIGHT_PI * m.mu(t) + lam == pytest.approx(4.1736979499122929, rel=1e-12)
        assert EIGHT_PI * m.rho(t) - lam == pytest.approx(3.8545257862493758, rel=1e-12)

    def test_parameter_guards(self):
        with pytest.raises(BadParams):
            catalog.build("witten_stellar", n=4)
        with pytest.raises(BadParams):
            catalog.build("witten_stellar", A=0.0, B=0.0)
        with pytest.raises(BadParams):
            catalog.build("witten_stellar", M=0.0)


def _kottler_piece(lam: float = 0.3, M: float = 0.1) -> Piece:
    """Schwarzschild-de Sitter (Kottler) vacuum in Schwarzschild form:
    m = M + lam r^3/6, f = sqrt(1 - 2M/r - lam r^2/3), zero physical fluid,
    so the geometric pair is (lam, -lam)."""
    interval = (0.25, 2.9)
    m = RadialFunction.from_formula(lambda r: M + lam * r**3 / 6.0, interval)
    f = RadialFunction.from_formula(lambda r: np.sqrt(1.0 - 2.0 * M / r - lam * r**2 / 3.0),
                                    interval)
    zero = RadialFunction.constant(0.0, interval)
    return Piece("kottler", SchwarzschildForm(m), f, zero, zero, interval, lam=lam)


class TestCosmologicalConstant:
    """Lambda enters a Schwarzschild-form piece's residuals through its
    geometric pair alone."""

    def test_a_kottler_piece_verifies(self):
        result = catalog.AnalyticModel("kottler", {}, [_kottler_piece()]).verify(96)
        assert result.passed, result.to_json_dict()
        assert set(result.reports) == {"field[kottler]"}

    def test_a_kottler_piece_without_its_lambda_fails(self):
        piece = dataclasses.replace(_kottler_piece(), lam=0.0)
        result = catalog.AnalyticModel("kottler", {}, [piece]).verify(96)
        assert not result.passed
        rep = result.reports["field[kottler]"]
        # R = 2 lam on the Kottler slice: mu = 0 is off by lam
        assert rep.entry("scalar-curvature").max == pytest.approx(0.3, rel=1e-12)
        # zero fluid conserves whatever the lapse
        assert rep.entry("conservation").max == 0.0
