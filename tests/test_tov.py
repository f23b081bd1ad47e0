"""Interior integration, surface/lapse matching, and the EOS zoo.

The workhorse star (constant mu = 0.001, central pressure 0.0005) has
rational compactness: sqrt(x_b) = (c + rho_c)/(c + 3 rho_c) = 0.6, so

    x_b = 0.36,  r_b = sqrt(3 (1 - x_b) / (8 pi c)) = sqrt(240/pi),
    M = (1 - x_b) r_b / 2,  f(0) = (3 sqrt(x_b) - 1)/2 = 0.4.

Frozen sample rows below come from the closed-form interior evaluated at a
few radii; the solver at default tolerances lands within ~3e-7 of them.
"""

import math
import warnings

import numpy as np
import pytest

from staticstar.errors import (
    BadParams,
    CenterSingularity,
    DegenerateFluid,
    DomainError,
    HorizonHit,
    NoSurface,
)
from staticstar import tov

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
        assert eos.spec_string() == "toy"


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
        assert const_star.exp_neg_gamma(r) == pytest.approx(x, abs=1e-10)

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
        assert const_star.exp_neg_gamma(r) == 1.0 - 2.0 * M / r

    def test_center_series(self, const_star):
        # below r_start the O(r^2) series takes over, smoothly
        assert const_star.rho(1e-9) == pytest.approx(0.0005, abs=1e-12)
        assert const_star.m(1e-8) == pytest.approx(
            4.0 * math.pi / 3.0 * 0.001 * 1e-24, rel=1e-12
        )
        r0 = const_star.profile.r_start
        assert const_star.rho(r0 * (1 - 1e-9)) == pytest.approx(
            const_star.rho(r0 * (1 + 1e-9)), rel=1e-9
        )

    def test_metric_function_derivatives(self, const_star):
        gamma = const_star.gamma_function()
        v = const_star.v_function()
        lapse = const_star.lapse_function()
        for r in (3.0, 7.0, 15.0):
            h = 1e-5 * r
            fd = (gamma.value(r + h) - gamma.value(r - h)) / (2 * h)
            assert gamma.d1(r) == pytest.approx(fd, abs=1e-6)
            fd = (v.value(r + h) - v.value(r - h)) / (2 * h)
            assert v.d1(r) == pytest.approx(fd, abs=1e-6)
            # f' = f v'/2 by construction
            assert lapse.d1(r) == pytest.approx(
                0.5 * lapse.value(r) * v.d1(r), rel=1e-12
            )

    def test_no_negative_density_sampled(self, const_star):
        assert not const_star.profile.negative_density_seen

    def test_volkoff_forms(self, const_star):
        r = np.array([1.0, 4.0, 8.0])
        inside = tov.volkoff_gamma(0.001, 0.0, r)
        got = np.array([const_star.exp_neg_gamma(s) for s in r])
        assert np.max(np.abs(inside - got)) < 1e-8
        M = const_star.mass
        assert tov.volkoff_gamma(0.0, -2.0 * M, 20.0) == pytest.approx(
            1.0 - 2.0 * M / 20.0
        )


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
        profile = tov.integrate_lapse(profile)
        assert profile.v(5.0) == 0.0 and profile.f(5.0) == 1.0

    def test_degenerate_fluid_rejected(self):
        # chaplygin with rho_c = -c rides the mu + rho = 0 line exactly
        # (stop before 2m catches up with r, which happens near r = 3.45)
        eos = tov.Chaplygin(1e-2)
        profile = tov.integrate_tov(eos, -1e-2, tov.SolverOptions(r_max=3.0))
        assert profile.rho(2.5) == pytest.approx(-1e-2, abs=1e-14)
        with pytest.raises(NoSurface):
            tov.detect_surface(profile)
        with pytest.raises(DegenerateFluid):
            tov.integrate_lapse(profile)

    def test_static_chaplygin_branch(self):
        # rho_c = -c/sqrt(3) balances the pressure gradient: rho' = 0, so rho
        # stays put and the lapse quadrature returns a constant.  The balance
        # is one ulp off in floating point, hence the loose 1e-7 bands.
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


class TestSurfaceDetection:
    def test_rmax_stop_is_not_a_surface(self):
        eos = tov.ConstantDensity(0.001)
        profile = tov.integrate_tov(eos, 0.0005, tov.SolverOptions(r_max=5.0))
        with pytest.raises(NoSurface):
            tov.detect_surface(profile)

    def test_match_requires_a_surface(self, const_star):
        with pytest.raises(BadParams):
            tov.match_exterior(const_star.profile, 4.0)

    def test_model_rejects_trapped_surface(self, const_star):
        with pytest.raises(HorizonHit):
            tov.StellarModel(profile=const_star.profile, r_b=1.0, mass=0.6)


class TestCsv:
    def test_round_trip(self, tmp_path, const_star):
        path = tmp_path / "star.csv"
        const_star.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "r,m,mu,rho,exp_neg_gamma,exp_v,f"
        back = tov.profile_from_csv(path, eos=const_star.profile.eos)
        for r in (1.0, 4.0, 7.0):
            assert back.rho(r) == pytest.approx(const_star.rho(r), abs=1e-9)
            assert back.m(r) == pytest.approx(const_star.m(r), abs=1e-9)
            assert back.v(r) == pytest.approx(const_star.profile.v(r), abs=1e-9)

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(BadParams):
            tov.profile_from_csv(path)


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
        r0, r_b = const_star.profile.r_start, const_star.r_b
        r = np.array([0.3 * r0, 0.9 * r0, r0, 0.5, 4.0, 0.999 * r_b, r_b, 1.5 * r_b, 40.0])
        gamma = const_star.gamma_function()
        v = const_star.v_function()
        lapse = const_star.lapse_function()
        for fn in (const_star.rho, const_star.m, const_star.mu, const_star.v,
                   const_star.f, const_star.exp_neg_gamma, gamma.value, gamma.d1,
                   v.value, v.d1, lapse.value, lapse.d1):
            got = fn(r)
            assert got.shape == r.shape
            for x, y in zip(r, got):
                one = fn(float(x))
                assert isinstance(one, float) and one == pytest.approx(y, rel=1e-15, abs=0.0)

    def test_profile_evaluators(self, const_star):
        prof = const_star.profile
        r = np.array([prof.r_start, 1.0, 5.0, prof.r_end])
        for fn in (prof.rho, prof.m, prof.mu, prof.v, prof.f, prof.exp_neg_gamma):
            got = fn(r)
            assert got.shape == r.shape
            assert all(type(fn(float(x))) is float and fn(float(x)) == y
                       for x, y in zip(r, got))


class TestCarriedLapse:
    def test_workhorse_lapse_matches_closed_form(self, const_star):
        # interior Schwarzschild: f = (3 sqrt(x_b) - sqrt(1 - (8 pi c/3) r^2)) / 2
        prof = const_star.profile
        r = prof.column("r")
        r = r[r <= const_star.r_b]
        closed = 0.5 * (3.0 * 0.6 - np.sqrt(1.0 - (8.0 * math.pi * 0.001 / 3.0) * r * r))
        assert np.max(np.abs(prof.column("f")[: r.size] - closed)) <= 1e-8
        assert np.max(np.abs(const_star.f(r) - closed)) <= 1e-8

    def test_profile_lapse_columns_wait_for_the_constant(self):
        profile = tov.integrate_tov(tov.ConstantDensity(0.001), 0.0005)
        assert not profile.has_lapse()
        assert np.all(np.isnan(profile.column("exp_v")))
        assert np.all(np.isnan(profile.column("f")))
        with pytest.raises(BadParams):
            profile.v(1.0)

    def test_csv_without_lapse_can_be_pinned(self, tmp_path, const_star):
        raw = tov.integrate_tov(tov.ConstantDensity(0.001), 0.0005)
        path = tmp_path / "raw.csv"
        tov.profile_to_csv(raw, path)
        back = tov.profile_from_csv(path)
        assert not back.has_lapse()
        back = tov.integrate_lapse(back, r_b=const_star.r_b)
        for r in (1.0, 4.0, 8.0):
            assert back.f(r) == pytest.approx(const_star.f(r), abs=1e-7)


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
