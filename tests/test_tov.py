"""Interior integration, surface/lapse matching, and the EOS zoo.

The workhorse star (constant mu = 0.001, central pressure 0.0005) has
rational compactness: sqrt(x_b) = (c + rho_c)/(c + 3 rho_c) = 0.6, so

    x_b = 0.36,  r_b = sqrt(3 (1 - x_b) / (8 pi c)) = sqrt(240/pi),
    M = (1 - x_b) r_b / 2,  f(0) = (3 sqrt(x_b) - 1)/2 = 0.4.

Frozen sample rows below come from the closed-form interior evaluated at a
few radii; the solver at default tolerances lands within ~3e-7 of them.
"""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from staticstar.errors import (
    BadParams,
    CenterSingularity,
    DomainError,
    HorizonHit,
    NoSurface,
    NotARegularValue,
)
from staticstar import catalog, geometry, quasilocal, tov
from staticstar.cli import main
from staticstar.numerics import PiecewisePoly, chebyshev_grid

from fd import fd_derivative

R_B_EXACT = math.sqrt(240.0 / math.pi)   # 8.740387444736632
MASS_EXACT = 0.32 * R_B_EXACT            # 2.796923982315722


class TestEquationOfState:
    def test_constant_spec(self):
        eos = tov.EquationOfState.from_spec("constant:c=0.001")
        assert isinstance(eos, tov.ConstantDensity)
        assert eos.mu(-5.0) == eos.mu(0.25) == 0.001

    def test_chaplygin_spec(self):
        eos = tov.EquationOfState.from_spec("chaplygin:c=2.0")
        assert eos.mu(-1.0) == pytest.approx(4.0)
        with pytest.raises(CenterSingularity):
            eos.mu(0.0)

    def test_chaplygin_needs_nonzero_c(self):
        with pytest.raises(BadParams):
            tov.Chaplygin(0.0)
        with pytest.raises(BadParams):
            tov.EquationOfState.from_spec("chaplygin:k=1")

    def test_table_spec(self, tmp_path):
        path = tmp_path / "eos.csv"
        rho = np.linspace(-0.2, 1.0, 25)
        path.write_text(
            "rho,mu\n" + "\n".join(f"{float(r)!r},{3.0 * float(r)!r}" for r in rho)
        )
        eos = tov.EquationOfState.from_spec(f"table:{path}")
        # PCHIP reproduces linear data exactly, also between the nodes
        assert eos.mu(0.137) == pytest.approx(0.411, abs=1e-12)
        with pytest.raises(DomainError):
            eos.mu(1.5)

    def test_table_rejects_unsorted(self):
        with pytest.raises(BadParams):
            tov.Tabulated([0.0, 1.0, 0.5], [1.0, 1.0, 1.0])
        with pytest.raises(BadParams):
            tov.Tabulated([0.0], [1.0])

    def test_spec_errors(self):
        with pytest.raises(BadParams):
            tov.EquationOfState.from_spec("polytrope:g=2")
        with pytest.raises(BadParams):
            tov.EquationOfState.from_spec("constant:c")
        with pytest.raises(BadParams):
            tov.EquationOfState.from_spec("table:")

    def test_custom_wrapper(self):
        eos = tov.Custom(lambda rho: 2.0 * rho, "toy")
        assert eos.mu(3.0) == 6.0


@pytest.mark.parametrize("options", [
    {"abs_tol": math.inf}, {"rel_tol": math.inf}, {"abs_tol": math.nan}, {"rel_tol": math.nan},
], ids=["abs-inf", "rel-inf", "abs-nan", "rel-nan"])
def test_solver_options_refuse_a_tolerance_that_is_not_finite(options):
    with pytest.raises(BadParams, match="^tolerances must be finite, got abs_tol="):
        tov.SolverOptions(**options)


class TestUniformStar:
    """Solver output against the closed-form star (session fixture)."""

    def test_surface_and_mass(self, const_star):
        assert const_star.r_b == pytest.approx(R_B_EXACT, abs=5e-6)
        assert const_star.mass == pytest.approx(MASS_EXACT, abs=5e-6)
        # internal consistency: M = (4 pi / 3) c r_b^3 for constant mu
        m_of_rb = 4.0 * math.pi / 3.0 * 0.001 * const_star.r_b**3
        assert const_star.mass == pytest.approx(m_of_rb, rel=1e-8)

    def test_tight_tolerances_reach_closed_form(self):
        eos = tov.ConstantDensity(0.001)
        opts = tov.SolverOptions(abs_tol=1e-13, rel_tol=1e-11)
        profile = tov.integrate_tov(eos, 0.0005, opts)
        r_b = tov.detect_surface(profile)
        model = tov.match_exterior(profile, r_b)
        assert r_b == pytest.approx(R_B_EXACT, abs=1e-8)
        assert model.mass == pytest.approx(MASS_EXACT, abs=1e-8)

    @pytest.mark.parametrize(
        "r,rho,f,x",
        [
            (0.5, 0.0004980380449689393, 0.4005238732187476, 0.9979056048976068),
            (2.0, 0.0004689717707418018, 0.4084489654263484, 0.9664896783617089),
            (5.0, 0.0003174285830090061, 0.4554326570246414, 0.7905604897606805),
            (8.0, 7.243802512522906e-05, 0.5594728888225851, 0.4638348537873420),
        ],
    )
    def test_interior_samples(self, const_star, r, rho, f, x):
        assert const_star.rho(r) == pytest.approx(rho, rel=1e-6)
        assert const_star.f(r) == pytest.approx(f, abs=1e-6)
        assert 1.0 - 2.0 * const_star.profile.m(r) / r == pytest.approx(x, abs=1e-10)

    def test_central_lapse(self, const_star):
        assert const_star.f(1e-6) == pytest.approx(0.4, abs=1e-6)

    def test_matching_seam(self, const_star):
        r_b, M = const_star.r_b, const_star.mass
        ev = math.exp(const_star.profile.v(r_b))
        assert abs(ev - (1.0 - 2.0 * M / r_b)) <= 1e-9
        lo, hi = r_b * (1 - 1e-9), r_b * (1 + 1e-9)
        assert abs(const_star.f(lo) - const_star.f(hi)) < 1e-8
        assert const_star.rho(r_b + 0.1) == 0.0
        assert const_star.mu(r_b + 0.1) == 0.0
        r = 20.0
        assert 1.0 - 2.0 * const_star.pieces[1].ansatz.m(r) / r == 1.0 - 2.0 * M / r

    def test_center_series(self, const_star):
        # below R_START the O(r^2) series takes over, smoothly
        assert const_star.rho(1e-9) == pytest.approx(0.0005, abs=1e-12)
        assert const_star.pieces[0].ansatz.m(1e-8) == pytest.approx(
            4.0 * math.pi / 3.0 * 0.001 * 1e-24, rel=1e-12
        )
        r0 = const_star.profile.R_START
        assert const_star.rho(r0 * (1 - 1e-9)) == pytest.approx(
            const_star.rho(r0 * (1 + 1e-9)), rel=1e-9
        )

    def test_profile_reads_the_center_series(self, const_star):
        # the profile's first piece, on [0, R_START], is the series itself,
        # not the first step's polynomial extrapolated inward
        profile, rho_c, mu_c = const_star.profile, 0.0005, 0.001
        a2 = 2.0 * math.pi * (mu_c / 3.0 + rho_c) * (mu_c + rho_c)
        assert profile.rho(1e-9) == pytest.approx(rho_c - a2 * 1e-18, rel=1e-15)
        assert profile.rho(1e-9) <= rho_c and profile.rho(0.0) == rho_c
        assert profile.m(1e-8) == pytest.approx(4.0 * math.pi / 3.0 * mu_c * 1e-24, rel=1e-14)
        assert profile.m(0.0) == 0.0 and profile.v_free_fn(1e-7) == 0.0
        r = np.array([0.0, 1e-9, 1e-8, 0.5 * profile.R_START])
        assert np.array_equal(profile.rho(r), [profile.rho(float(x)) for x in r])
        assert np.array_equal(const_star.pieces[0].ansatz.m(r), profile.m(r))

    def test_metric_function_derivatives(self, const_star):
        interior, exterior = const_star.pieces
        r_b, M = const_star.r_b, const_star.mass
        for r in (3.0, 7.0, 15.0):
            piece = interior if r < r_b else exterior
            m, lapse = piece.ansatz.m, piece.f
            h = 1e-5 * r
            fd = (m.value(r + h) - m.value(r - h)) / (2 * h)
            assert m.d1(r) == pytest.approx(fd, abs=1e-6)
            # v' = 2 f'/f against a difference of v = log f^2
            fd = (2.0 * math.log(const_star.f(r + h))
                  - 2.0 * math.log(const_star.f(r - h))) / (2 * h)
            assert 2.0 * lapse.d1(r) / lapse.value(r) == pytest.approx(fd, abs=1e-6)
            assert lapse.value(r) == const_star.f(r)

        # m'' and f'' against the closed forms, with x = 1 - 2m/r: inside
        # m = a r^3/2, x = 1 - a r^2 and f = (3 sqrt(x_b) - sqrt(x))/2,
        # outside m = M, x = 1 - 2M/r and f = sqrt(x)
        def sqrt_x_d2(x, x1, x2):
            return x2 / (2.0 * np.sqrt(x)) - x1 * x1 / (4.0 * x**1.5)

        def worst(got, want):
            return float(np.max(np.abs(got - want) / np.abs(want)))

        a = 8.0 * math.pi * 0.001 / 3.0
        r = np.linspace(0.05 * r_b, 0.98 * r_b, 200)
        root2 = sqrt_x_d2(1.0 - a * r * r, -2.0 * a * r, -2.0 * a)
        assert worst(interior.ansatz.m.d2(r), 3.0 * a * r) < 1e-10
        assert worst(interior.f.d2(r), -0.5 * root2) < 5e-8
        r = np.linspace(1.01 * r_b, 5.0 * r_b, 200)
        root2 = sqrt_x_d2(1.0 - 2.0 * M / r, 2.0 * M / r**2, -4.0 * M / r**3)
        assert np.all(exterior.ansatz.m.d2(r) == 0.0)
        assert worst(exterior.f.d2(r), root2) < 1e-12

    def test_tabulated_star_second_derivatives(self):
        """m'' and f'' of a soft-surface table star against a difference of
        m' and f'.

        m' and m'' are both derivatives of the integrator's dense m, so they
        agree to about 3.5e-11 of max |m''|; outside the star both are exactly
        0.  f'' comes from the right-hand side and keeps to the difference of
        f' to 1e-3.
        """
        rho_c = 2e-4
        rho = np.linspace(-rho_c, 1.5 * rho_c, 60)
        eos = tov.Tabulated(rho, np.sqrt(np.maximum(rho, 0.0) / 100.0))
        profile = tov.integrate_tov(eos, rho_c)
        star = tov.match_exterior(profile, tov.detect_surface(profile))
        interior, exterior = star.pieces
        for fn, bound in ((interior.ansatz.m, 1e-9), (interior.f, 1e-3)):
            r = np.linspace(0.05 * star.r_b, 0.98 * star.r_b, 300)
            fd = fd_derivative(fn.d1, r)
            assert np.max(np.abs(fn.d2(r) - fd)) < bound * np.max(np.abs(fd))
        r = np.linspace(1.01 * star.r_b, 5.0 * star.r_b, 300)
        m, lapse = exterior.ansatz.m, exterior.f
        assert np.all(m.d1(r) == 0.0) and np.all(m.d2(r) == 0.0)
        fd = fd_derivative(lapse.d1, r)
        assert np.max(np.abs(lapse.d2(r) - fd)) < 1e-9 * np.max(np.abs(fd))

    def test_no_negative_density_sampled(self, const_star):
        assert not const_star.profile.negative_density_seen

    def test_volkoff_forms(self, const_star):
        r = np.array([1.0, 4.0, 8.0])
        # e^{-gamma} = 1 - (8 pi c / 3) r^2 + k / r: k = 0 inside, c = 0 and
        # k = -2M outside
        inside = 1.0 - (8.0 * math.pi * 0.001 / 3.0) * r * r
        got = 1.0 - 2.0 * const_star.pieces[0].ansatz.m(r) / r
        assert np.max(np.abs(inside - got)) < 1e-8
        M = const_star.mass
        outside = 1.0 - 2.0 * const_star.pieces[1].ansatz.m(20.0) / 20.0
        assert outside == pytest.approx(1.0 - 2.0 * M / 20.0)


class TestLapseConstruction:
    def test_matched_and_normalized_agree_up_to_constant(self):
        eos = tov.ConstantDensity(0.001)
        profile = tov.integrate_tov(eos, 0.0005)
        r_b = tov.detect_surface(profile)
        matched = tov.integrate_lapse(profile, r_b=r_b)
        floating = tov.integrate_lapse(profile)
        assert floating.lapse_normalized and not matched.lapse_normalized
        ratios = [
            math.exp(matched.v(r) - floating.v(r)) for r in (0.5, 2.0, 5.0, 8.0)
        ]
        assert max(ratios) / min(ratios) - 1.0 < 1e-12

    def test_vacuum_profile_gets_flat_lapse(self):
        eos = tov.Custom(lambda rho: 0.0, "nothing")
        profile = tov.integrate_tov(eos, 0.0, tov.SolverOptions(r_max=10.0))
        with pytest.raises(NoSurface):
            tov.detect_surface(profile)
        # the carried v' is exactly 0, so the profile's own lapse is flat
        assert profile.lapse_normalized
        assert profile.v(5.0) == 0.0 and profile.f(5.0) == 1.0
        assert np.all(profile.column("f") == 1.0)
        profile = tov.integrate_lapse(profile)
        assert profile.v(5.0) == 0.0 and profile.f(5.0) == 1.0

    def test_mu_plus_rho_zero_branch_has_the_closed_form_lapse(self):
        # chaplygin with rho_c = -c rides the mu + rho = 0 line exactly: mu = c,
        # rho = -c, m = (4 pi/3) c r^3, so v' = -2 a r / (1 - a r^2) with
        # a = 8 pi c / 3, and normalized at r_end the lapse is interior
        # Schwarzschild's f = sqrt((1 - a r^2) / (1 - a r_end^2)).  (Stop
        # before 2m catches up with r, which happens near r = 3.45.)
        c = 1e-2
        profile = tov.integrate_tov(tov.Chaplygin(c), -c, tov.SolverOptions(r_max=3.0))
        assert profile.rho(2.5) == pytest.approx(-c, abs=1e-14)
        assert np.all(profile.column("mu") + profile.column("rho") == 0.0)
        with pytest.raises(NoSurface):
            tov.detect_surface(profile)
        assert profile.lapse_normalized and profile.r_end == 3.0
        a = 8.0 * math.pi * c / 3.0
        r = profile.column("r")
        closed = np.sqrt((1.0 - a * r * r) / (1.0 - a * profile.r_end**2))
        assert np.max(np.abs(profile.column("f") - closed)) <= 1e-6
        assert np.max(np.abs(profile.f(r) - closed)) <= 1e-6

    def test_polytrope_surface_where_mu_plus_rho_vanishes(self):
        # Gamma = 1.5 polytrope rho = 10 mu^1.5: mu(0) = 0, so on the surface
        # row mu + rho is round-off (7e-19 here)
        eos = tov.Custom(lambda rho: (np.maximum(rho, 0.0) / 10.0) ** (1 / 1.5), "polytrope")
        profile = tov.integrate_tov(eos, 1e-4)
        r_b = tov.detect_surface(profile)
        assert r_b == pytest.approx(35.384, abs=1e-3)
        assert abs(profile.column("mu")[-1] + profile.column("rho")[-1]) < 1e-14
        star = tov.match_exterior(profile, r_b)
        assert not star.profile.lapse_normalized
        x_b = 1.0 - 2.0 * star.mass / r_b
        assert star.profile.f(r_b) == pytest.approx(math.sqrt(x_b), rel=1e-12)
        assert star.profile.column("f")[-1] == pytest.approx(math.sqrt(x_b), rel=1e-12)

    def test_static_chaplygin_branch(self):
        # rho_c = -c/sqrt(3) balances the pressure gradient: mu/3 + rho = 0, so
        # m + 4 pi r^3 rho = 0 and rho' = v' = 0: rho stays put and the carried
        # lapse is constant.  The balance is one ulp off in floating point,
        # hence the loose 1e-7 bands.
        c = 1.0
        eos = tov.Chaplygin(c)
        opts = tov.SolverOptions(r_max=0.2)
        profile = tov.integrate_tov(eos, -c / math.sqrt(3.0), opts)
        assert profile.rho(0.15) == pytest.approx(-c / math.sqrt(3.0), abs=1e-7)
        profile = tov.integrate_lapse(profile)
        assert profile.lapse_normalized
        assert profile.v(0.1) == pytest.approx(0.0, abs=1e-7)

    def test_horizon_guard(self):
        # same branch left to run: 2m(r) catches up with r near r = 0.26
        eos = tov.Chaplygin(1.0)
        with pytest.raises(HorizonHit):
            tov.integrate_tov(eos, -1.0 / math.sqrt(3.0))

    def test_nan_from_the_eos_is_a_domain_error(self):
        # finite at the center, NaN once the pressure falls below 2e-4: the
        # error names the pressure instead of collapsing the step size
        eos = tov.Custom(lambda rho: np.where(np.asarray(rho) < 2e-4, np.nan, 1e-3))
        with pytest.raises(DomainError, match="non-finite mu=nan at rho=0.000"):
            tov.integrate_tov(eos, 5e-4)


class TestSurfaceDetection:
    def test_rmax_stop_is_not_a_surface(self):
        eos = tov.ConstantDensity(0.001)
        profile = tov.integrate_tov(eos, 0.0005, tov.SolverOptions(r_max=5.0))
        with pytest.raises(NoSurface):
            tov.detect_surface(profile)

    def test_match_requires_a_surface(self, const_star):
        with pytest.raises(BadParams):
            tov.match_exterior(const_star.profile, 4.0)

    @pytest.mark.parametrize("k", [1.02, 1.2, 0.5])
    def test_match_off_the_surface_is_refused(self, const_star, k):
        # past r_end the profile is extrapolated: rho(1.2 r_b) ~ -2e-4, and
        # M = m(1.2 r_b) would come from beyond the star
        profile = tov.integrate_tov(tov.ConstantDensity(0.001), 0.0005)
        with pytest.raises(BadParams):
            tov.match_exterior(profile, k * const_star.r_b)

    @pytest.mark.parametrize("shift", [
        lambda r_b: math.nextafter(r_b, 0.0), lambda r_b: r_b * (1.0 - 1e-10),
        lambda r_b: math.nextafter(r_b, math.inf)], ids=["ulp-below", "1e-10-below", "ulp-above"])
    def test_match_takes_only_the_surface_event(self, const_star, shift):
        profile = const_star.profile
        with pytest.raises(BadParams, match="surface event"):
            tov.match_exterior(profile, shift(profile.surface_event_r))
        assert tov.match_exterior(profile, profile.surface_event_r).r_b == const_star.r_b

    def test_match_refuses_a_lapse_pinned_elsewhere(self, const_star):
        floating = tov.integrate_lapse(const_star.profile)
        with pytest.raises(BadParams, match="lapse mismatch"):
            tov.match_exterior(floating, floating.surface_event_r)

    def test_model_rejects_trapped_surface(self, const_star):
        with pytest.raises(HorizonHit):
            tov.StellarModel(profile=const_star.profile, r_b=1.0, mass=0.6)


class TestArrayContract:
    """Evaluators take arrays and return the same values as one point at a time."""

    RHO = np.array([-1e-4, 0.0, 2.5e-4, 5e-4])

    @pytest.mark.parametrize(
        "eos",
        [
            tov.ConstantDensity(0.001),
            tov.Chaplygin(0.01),
            tov.Tabulated([-1e-3, 0.0, 1e-3], [2e-3, 1e-3, 3e-3]),
            tov.Custom(lambda rho: 0.001 + rho * rho, "quadratic"),
            tov.Custom(lambda rho: 0.001, "flat"),
        ],
    )
    def test_eos_mu_takes_arrays(self, eos):
        rho = self.RHO[self.RHO != 0.0] if isinstance(eos, tov.Chaplygin) else self.RHO
        got = eos.mu(rho)
        assert isinstance(got, np.ndarray) and got.shape == rho.shape
        for x, y in zip(rho, got):
            one = eos.mu(float(x))
            assert type(one) is float and one == y

    def test_eos_array_errors(self):
        with pytest.raises(CenterSingularity):
            tov.Chaplygin(0.01).mu(self.RHO)
        with pytest.raises(DomainError):
            tov.Tabulated([0.0, 1.0], [1.0, 1.0]).mu(self.RHO)
        with pytest.raises(BadParams):
            tov.Custom(lambda rho: np.ones(3), "wrong").mu(self.RHO)

    def test_model_evaluators(self, const_star):
        r0, r_b = const_star.profile.R_START, const_star.r_b
        r = np.array([0.3 * r0, 0.9 * r0, r0, 0.5, 4.0, 0.999 * r_b, r_b, 1.5 * r_b, 40.0])
        # the model's evaluators on every radius, each piece's metric and
        # lapse with their derivatives on the radii the piece owns
        fns = [(fn, r) for fn in (const_star.rho, const_star.mu, const_star.f)]
        for piece, radii in zip(const_star.pieces, (r[r <= r_b], r[r > r_b])):
            m, lapse = piece.ansatz.m, piece.f
            fns += [(fn, radii) for fn in (m.value, m.d1, m.d2, lapse.value, lapse.d1, lapse.d2)]
        for fn, radii in fns:
            got = fn(radii)
            assert got.shape == radii.shape
            for x, y in zip(radii, got):
                one = fn(float(x))
                assert isinstance(one, float) and one == pytest.approx(y, rel=1e-15, abs=0.0)

    def test_profile_evaluators(self, const_star):
        prof = const_star.profile
        r = np.array([prof.R_START, 1.0, 5.0, prof.r_end])
        for fn in (prof.rho, prof.m, prof.mu, prof.v, prof.f):
            got = fn(r)
            assert got.shape == r.shape
            assert all(type(fn(float(x))) is float and fn(float(x)) == y
                       for x, y in zip(r, got))


class TestCatalogModel:
    """A star is a two-piece catalog model: its dense interior, then the
    catalog's vacuum piece."""

    @staticmethod
    def _star(eos, rel_tol=1e-8):
        profile = tov.integrate_tov(eos, 0.0005, tov.SolverOptions(rel_tol=rel_tol))
        return tov.match_exterior(profile, tov.detect_surface(profile))

    def test_a_star_is_a_catalog_model(self, const_star):
        assert issubclass(tov.StellarModel, catalog.AnalyticModel)
        assert [p.label for p in const_star.pieces] == ["interior", "exterior"]
        assert const_star.junction_points == (const_star.r_b,)

    @pytest.mark.parametrize("eos", [
        tov.ConstantDensity(0.001),
        tov.Tabulated(np.linspace(-5e-5, 7.5e-4, 40), np.full(40, 0.001)),
    ], ids=["constant", "table-twin"])
    def test_verify_passes_at_the_default_tolerances(self, eos):
        result = self._star(eos).verify()
        assert result.passed, result.to_json_dict()
        assert set(result.reports) == {"field[interior]", "field[exterior]"}
        for rep in result.reports.values():
            assert [e.eq for e in rep.entries][-1] == "conservation"
        assert max(result.junction.values()) <= 1e-15

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-4, 1e-2])
    def test_verify_fails_a_coarse_solve(self, rel_tol):
        # the dense output's residual grows with the step: the conservation
        # equation rho' + (f'/f)(mu + rho) = 0 of field[interior] leaves the
        # 1e-9 gate, while the field equations themselves stay near rounding
        result = self._star(tov.ConstantDensity(0.001), rel_tol).verify()
        assert not result.passed
        rep = result.reports["field[interior]"]
        assert [e.eq for e in rep.entries if e.max > catalog.RESIDUAL_TOL] == ["conservation"]

    @pytest.mark.parametrize("part, eq", [("m", "scalar-curvature"), ("rho", "conservation")])
    def test_a_derivative_off_by_1e_6_fails_verify(self, const_star, part, eq):
        # the quick-start star's interior passes the 1e-9 gate as solved; with
        # m' or rho' off by 1e-6 the equation that reads it fails there
        interior = const_star.pieces[0]
        if part == "m":
            m = interior.ansatz.m
            off = dataclasses.replace(m, d1=lambda r: m.d1(r) + 1e-6)
            mutant = dataclasses.replace(interior, ansatz=geometry.SchwarzschildForm(off))
        else:
            rho = interior.rho_phys
            mutant = dataclasses.replace(
                interior, rho_phys=dataclasses.replace(rho, d1=lambda r: rho.d1(r) + 1e-6))
        for piece, passed in ((interior, True), (mutant, False)):
            result = catalog.AnalyticModel("star", {}, [piece]).verify()
            assert result.passed is passed
        assert result.reports["field[interior]"].entry(eq).max > catalog.RESIDUAL_TOL

    def test_exterior_is_the_catalog_vacuum(self, const_star):
        exterior = const_star.pieces[1]
        vacuum = catalog.schwarzschild_exterior(const_star.mass).pieces[0]
        r = np.linspace(const_star.r_b, 10.0 * const_star.r_b, 50)
        for name in ("value", "d1", "d2"):
            np.testing.assert_array_equal(getattr(exterior.ansatz.m, name)(r),
                                          getattr(vacuum.ansatz.m, name)(r))
            np.testing.assert_array_equal(getattr(exterior.f, name)(r),
                                          getattr(vacuum.f, name)(r))

    def test_lapse_reads_the_center_series_and_is_continuous(self, const_star):
        profile, r_b = const_star.profile, const_star.r_b
        # the first piece of the profile, on [0, R_START], carries v_free = 0
        assert const_star.f(0.0) == math.exp(0.5 * profile.v_shift)
        r = np.array([0.0, 1e-9, 0.5 * profile.R_START, profile.R_START])
        np.testing.assert_array_equal(const_star.f(r), profile.f(r))
        # f' vanishes at the regular center, for a float and among an array's
        # points alike, so c = f(0) is a critical level of a one-level scan and
        # of a sweep
        lapse = const_star.pieces[0].f
        assert lapse.d1(0.0) == 0.0
        np.testing.assert_array_equal(lapse.d1(r), [0.0] + [lapse.d1(x) for x in r[1:].tolist()])
        f_center = float(const_star.f(0.0))
        for levels in ([f_center], [0.5, f_center]):
            with pytest.raises(NotARegularValue, match=r"f'\(0\.0\) ~ 0"):
                quasilocal.mass_sweep(const_star, levels)
        interior, exterior = const_star.pieces
        for name in ("value", "d1"):
            inner, outer = getattr(interior.f, name)(r_b), getattr(exterior.f, name)(r_b)
            assert abs(inner - outer) <= 1e-15
        assert abs(const_star.f(r_b) - const_star.f(math.nextafter(r_b, math.inf))) <= 1e-15


class TestCarriedLapse:
    def test_workhorse_lapse_matches_closed_form(self, const_star):
        # interior Schwarzschild: f = (3 sqrt(x_b) - sqrt(1 - (8 pi c/3) r^2)) / 2
        prof = const_star.profile
        r = prof.column("r")
        r = r[r <= const_star.r_b]
        closed = 0.5 * (3.0 * 0.6 - np.sqrt(1.0 - (8.0 * math.pi * 0.001 / 3.0) * r * r))
        assert np.max(np.abs(prof.column("f")[: r.size] - closed)) <= 1e-8
        assert np.max(np.abs(const_star.f(r) - closed)) <= 1e-8

    def test_integrate_tov_pins_its_own_lapse(self):
        # integrate_tov's own profile, before any match_exterior: pinned at
        # its surface event
        profile = tov.integrate_tov(tov.ConstantDensity(0.001), 0.0005)
        assert not profile.lapse_normalized
        r = profile.column("r")
        closed = 0.5 * (3.0 * 0.6 - np.sqrt(1.0 - (8.0 * math.pi * 0.001 / 3.0) * r * r))
        assert np.max(np.abs(profile.column("f") - closed)) <= 1e-8
        assert np.allclose(profile.column("exp_v"), profile.column("f") ** 2, rtol=1e-14, atol=0)
        # stopped by r_max: pinned by f(r_end) = 1
        short = tov.integrate_tov(tov.ConstantDensity(0.001), 0.0005,
                                  tov.SolverOptions(r_max=5.0))
        assert short.lapse_normalized and short.r_end == 5.0
        assert short.f(short.r_end) == 1.0 and short.column("f")[-1] == 1.0


def test_table_rejects_non_finite_values():
    with pytest.raises(BadParams):
        tov.Tabulated([0.0, 1.0, 2.0], [1.0, float("nan"), 1.0])
    with pytest.raises(BadParams):
        tov.Tabulated([0.0, 1.0, float("inf")], [1.0, 1.0, 1.0])


def test_table_with_subnormal_steps_builds_without_warning():
    # pchip's slope ratios overflow on these rows; the interpolant is still finite
    rho = [0.0, 1.0, 2.0, 3.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eos = tov.Tabulated(rho, [0.0, 1e-310, 0.0, 1e-3])
    assert np.all(np.isfinite(eos.mu(np.array(rho))))


@pytest.mark.parametrize("rho,mu", [
    ([0.0, 1e-300, 2e-300], [0.0, 1e300, 2e300]),          # infinite slopes
    ([0.0, 1e-8, 2e-8, 3e-8], [0.0, 1e292, 0.0, 1e292]),   # infinite cubic terms
])
def test_table_with_an_overflowing_interpolant_is_refused(rho, mu):
    with pytest.raises(BadParams):
        tov.Tabulated(rho, mu)


def test_spec_rejects_non_numeric_parameter():
    with pytest.raises(BadParams):
        tov.EquationOfState.from_spec("constant:c=abc")


@pytest.mark.parametrize("body", ["0.0,1.0\n1.0,abc\n", "0.0\n1.0\n"])
def test_spec_rejects_malformed_table(tmp_path, body):
    path = tmp_path / "eos.csv"
    path.write_text("rho,mu\n" + body)
    with pytest.raises(BadParams):
        tov.EquationOfState.from_spec(f"table:{path}")


# --- the sample table, built on first read ------------------------------------

def _eager_table(profile):
    """The table as integrate_tov used to sample it: the three-component dense
    output on the Chebyshev grid in one call, then the lapse columns."""
    dense = PiecewisePoly(np.stack([fn.c for fn in (profile.rho, profile.m,
                                                    profile.v_free_fn)], axis=-1),
                          profile.rho.x)
    grid = chebyshev_grid(tov.R_START, profile.r_end, profile.grid_n)
    rho, m, v_free = dense(grid).T
    v = v_free + profile.v_shift
    return np.column_stack((grid, m, profile.eos.mu(rho), rho, 1.0 - 2.0 * m / grid,
                            np.exp(v), np.exp(0.5 * v)))


def _table_eos(rho_lo, rho_hi, rows, mu_of):
    rho = np.linspace(rho_lo, rho_hi, rows)
    return tov.Tabulated(rho, mu_of(rho))


def _twin_table_file(tmp_path):
    """A ``table:`` EOS of the workhorse star, mu = 0.001 on 40 rows."""
    path = tmp_path / "twin.csv"
    rho = np.linspace(-5e-4, 7.5e-4, 40)
    path.write_text("rho,mu\n" + "".join(f"{float(r)!r},0.001\n" for r in rho))
    return f"table:{path}"


# the EOS shapes of the benchmark's tov_stars pass, a Custom EOS and a run
# stopped by r_max
TABLE_STARS = {
    "constant": (tov.ConstantDensity(0.0015), 8e-4, {}),
    "table-twin": (_table_eos(-8e-4, 1.2e-3, 40, lambda r: np.full(r.shape, 0.0015)), 8e-4, {}),
    "bag": (_table_eos(-3.5e-4, 5.25e-4, 60, lambda r: 3.0 * r + 4e-4), 3.5e-4, {}),
    "soft-grid-64": (_table_eos(-2e-4, 3e-4, 60, lambda r: np.sqrt(np.maximum(r, 0.0) / 100.0)),
                     2e-4, {"grid_n": 64}),
    "custom": (tov.Custom(lambda rho: 1e-3 + 0.5 * rho, "linear"), 5e-4, {}),
    "stopped-at-r-max": (tov.ConstantDensity(0.001), 5e-4, {"r_max": 5.0}),
}


@pytest.mark.parametrize("star", sorted(TABLE_STARS))
def test_table_on_first_read_is_the_eager_table(star):
    eos, rho_c, options = TABLE_STARS[star]
    profile = tov.integrate_tov(eos, rho_c, tov.SolverOptions(**options))
    assert "samples" not in vars(profile)  # integrate_tov sampled nothing
    table = profile.samples
    want = _eager_table(profile)
    assert table.shape == (profile.grid_n, 7)
    assert table.tobytes() == want.tobytes()
    assert profile.samples is table  # built once, then kept
    # the flags read the dense solution, and agree with the table
    assert profile.negative_density_seen == bool(np.any(want[:, 3] < -profile.surface_tol))
    assert profile.lapse_normalized == bool(want[-1, 6] == 1.0)


class TestCsv:
    @pytest.mark.parametrize("star", sorted(TABLE_STARS))
    def test_export_is_the_sample_table(self, tmp_path, star):
        eos, rho_c, options = TABLE_STARS[star]
        profile = tov.integrate_tov(eos, rho_c, tov.SolverOptions(**options))
        path = tmp_path / "star.csv"
        tov.profile_to_csv(profile, path)
        assert path.read_text().splitlines()[0] == ",".join(tov.CSV_COLUMNS)
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert rows.tobytes() == profile.samples.tobytes()
        # the table ends where the integration stopped: on the surface, if
        # one was found
        assert rows[-1, 0] == profile.r_end
        assert (profile.surface_event_r is None) == (star == "stopped-at-r-max")
        if profile.surface_event_r is not None:
            assert profile.r_end == profile.surface_event_r


def test_tov_out_writes_the_eager_table(capsys, tmp_path):
    path = tmp_path / "star.csv"
    assert main(["tov", "--eos", "constant:c=0.001", "--rho-c", "0.0005", "--json",
                 "--out", str(path)]) == 0
    r_b = json.loads(capsys.readouterr().out)["r_b"]
    profile = tov.integrate_tov(tov.ConstantDensity(0.001), 0.0005)
    rows = "".join(",".join(repr(float(x)) for x in row) + "\n" for row in _eager_table(profile))
    assert path.read_bytes() == (",".join(tov.CSV_COLUMNS) + "\n" + rows).encode()
    assert float(path.read_text().splitlines()[-1].split(",")[0]) == r_b


@pytest.mark.parametrize("argv", [
    ("mass", "--level", "0.6", "--json"),
    ("mass", "--level", "0.5", "--level", "0.7", "--json"),
    ("audit", "--json"),
    ("tov", "--json"),
])
def test_requests_that_read_no_table_build_none(capsys, monkeypatch, tmp_path, argv):
    def refuse(profile):
        raise AssertionError("the sample table was built")

    monkeypatch.setattr(tov, "_sample_table", refuse)
    for eos in ("constant:c=0.001", _twin_table_file(tmp_path)):
        assert main([*argv, "--eos", eos, "--rho-c", "0.0005"]) == 0
        capsys.readouterr()


def _narrowed_after_integration(monkeypatch):
    """integrate_tov runs as it is; then its Tabulated EOS refuses densities
    below half the central one, which the table's grid samples."""
    integrate = tov.integrate_tov

    def run(eos, rho_center, options=None):
        profile = integrate(eos, rho_center, options)
        eos.rho_min = 0.5 * rho_center
        return profile

    monkeypatch.setattr(tov, "integrate_tov", run)


def test_a_refused_grid_density_raises_where_the_table_is_read(monkeypatch):
    eos = _table_eos(-5e-4, 7.5e-4, 40, lambda r: np.full(r.shape, 0.001))
    _narrowed_after_integration(monkeypatch)
    profile = tov.integrate_tov(eos, 5e-4)
    assert not profile.negative_density_seen and not profile.lapse_normalized
    star = tov.match_exterior(profile, tov.detect_surface(profile))
    assert star.mass == pytest.approx(MASS_EXACT, abs=5e-6)
    with pytest.raises(DomainError, match="outside tabulated range"):
        profile.samples
    with pytest.raises(DomainError):
        profile.column("mu")


def test_a_refused_grid_density_leaves_no_partial_csv(capsys, monkeypatch, tmp_path):
    _narrowed_after_integration(monkeypatch)
    out = tmp_path / "star.csv"
    code = main(["tov", "--eos", _twin_table_file(tmp_path), "--rho-c", "0.0005", "--out", str(out)])
    assert code == 3 and "DomainError" in capsys.readouterr().err
    assert not out.exists()
