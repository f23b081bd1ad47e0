"""Energy-condition scans: pointwise logic first, then whole models."""

import math

import numpy as np
import pytest

from staticstar.errors import BadParams, DomainError
from staticstar import catalog, conformal
from staticstar.energy import BAND, scan_conditions, scan_model
from staticstar.numerics import RadialFunction

GRID = np.array([1.0, 2.0, 3.0])


# --- pointwise logic ---------------------------------------------------------

def test_all_satisfied():
    scan = scan_conditions(np.full(GRID.shape, 2.0), np.ones(GRID.shape), GRID)
    assert scan.nec and scan.wec and scan.dec
    assert scan.first_violation is None


def test_scalar_shorthand():
    scan = scan_conditions(2.0, -1.0, GRID)
    assert scan.dec and scan.first_violation is None
    assert scan.mu.shape == GRID.shape


def test_dec_fails_first_by_name():
    # mu = 1, rho = 2: NEC and WEC hold (3 >= 0), DEC fails (1 < 2)
    scan = scan_conditions(1.0, 2.0, GRID)
    assert scan.nec and scan.wec and not scan.dec
    assert scan.first_violation == ("dec", 1.0)


def test_wec_named_when_nec_holds():
    # mu = -1, rho = 2: mu + rho = 1 >= 0 but mu < 0
    scan = scan_conditions(-1.0, 2.0, GRID)
    assert scan.nec and not scan.wec and not scan.dec
    assert scan.first_violation == ("wec", 1.0)


def test_nec_subsumes_the_rest():
    # mu = 1, rho = -3: mu + rho < 0 fails everything; name the weakest
    scan = scan_conditions(1.0, -3.0, GRID)
    assert not scan.nec and not scan.wec and not scan.dec
    assert scan.first_violation == ("nec", 1.0)


def test_first_violation_is_smallest_radius():
    rho = np.where(GRID >= 3.0, -2.0, 0.5)
    scan = scan_conditions(1.0, rho, GRID)
    assert scan.first_violation == ("nec", 3.0)


def test_arrays_and_numbers_fill_the_grid():
    scan = scan_conditions(2.0 * GRID, 1.0, GRID)
    assert np.array_equal(scan.mu, 2.0 * GRID)
    assert np.array_equal(scan.rho, np.ones(GRID.shape))


@pytest.mark.parametrize("value", [lambda r: 2.0 * r, "dense", None, {"mu": 1.0}],
                         ids=["callable", "string", "none", "dict"])
def test_callables_and_non_numbers_are_refused(value):
    with pytest.raises(BadParams, match="must be numbers"):
        scan_conditions(value, 0.0, GRID)
    with pytest.raises(BadParams, match="must be numbers"):
        scan_conditions(1.0, value, GRID)


def test_precomputed_arrays_pass_through():
    mu = np.array([1.0, 1.0, 1.0])
    rho = np.array([0.5, 0.5, -2.0])
    scan = scan_conditions(mu, rho, GRID)
    assert scan.first_violation == ("nec", 3.0)
    assert np.array_equal(scan.rho, rho)
    with pytest.raises(BadParams):
        scan_conditions(mu, rho[:2], GRID)


def test_stellar_model_scan_uses_array_evaluators(const_star):
    scan = scan_model(const_star, n=64)
    grid = scan.grid
    assert np.array_equal(scan.mu, const_star.mu(grid))
    assert np.array_equal(scan.rho, const_star.rho(grid))
    # the scalar branch of the model's evaluators, one float per point
    per_point = scan_conditions(np.array([const_star.mu(float(r)) for r in grid]),
                                np.array([const_star.rho(float(r)) for r in grid]), grid)
    np.testing.assert_allclose(scan.rho, per_point.rho, rtol=1e-12, atol=1e-18)
    assert (scan.nec, scan.wec, scan.dec) == (per_point.nec, per_point.wec, per_point.dec)


def test_roundoff_band():
    # a -1e-13 dip is attributed to round-off, not physics
    scan = scan_conditions(0.0, -BAND / 10.0, GRID)
    assert scan.nec and scan.wec and scan.dec


def test_implication_structure_on_random_signs():
    rng = np.random.default_rng(3)
    for _ in range(50):
        mu, rho = rng.uniform(-2.0, 2.0, size=2)
        scan = scan_conditions(float(mu), float(rho), GRID)
        assert (not scan.dec) or scan.wec     # DEC -> WEC
        assert (not scan.wec) or scan.nec     # WEC -> NEC


def test_rejects_bad_grids():
    with pytest.raises(DomainError):
        scan_conditions(1.0, 0.0, np.array([]))
    with pytest.raises(DomainError):
        scan_conditions(float("nan"), 0.0, GRID)


def test_json_shape():
    d = scan_conditions(1.0, 2.0, GRID).to_json_dict()
    assert d == {
        "wec": True,
        "nec": True,
        "dec": False,
        "first_violation": {"condition": "dec", "r": 1.0},
        "n_points": 3,
    }


# --- whole models ------------------------------------------------------------

def test_interior_model_all_green():
    scan = scan_model(catalog.build("schwarzschild_interior", c=0.001))
    assert scan.wec and scan.nec and scan.dec


def test_wyman_violates_dec_near_the_center(wyman):
    # mu ~ r^2 vanishes at the center while the pressure stays positive,
    # so mu >= |rho| fails from the first sample on
    scan = scan_model(wyman)
    assert scan.nec and scan.wec and not scan.dec
    name, r = scan.first_violation
    assert name == "dec" and r == pytest.approx(0.007247796636776956, rel=1e-9)


def test_witten_breaks_everything(witten):
    scan = scan_model(witten)
    assert not scan.nec and not scan.wec and not scan.dec
    name, r = scan.first_violation
    assert name == "dec" and r == pytest.approx(0.050001, abs=1e-6)


def test_stellar_model_scan(const_star):
    # a TOV star is scanned as a two-piece catalog model: the interior on
    # [R_START, r_b], then the vacuum exterior from r_b on
    scan = scan_model(const_star)
    assert scan.wec and scan.nec and scan.dec
    assert scan.first_violation is None
    interior = np.linspace(const_star.profile.R_START, const_star.r_b, 256)
    assert scan.grid.size == 2 * 256 and np.array_equal(scan.grid[:256], interior)
    # r_b itself is the interior's; past it the vacuum has mu = rho = 0
    assert scan.grid[256] == const_star.r_b and np.all(scan.grid[257:] > const_star.r_b)
    assert np.all(scan.mu[257:] == 0.0) and np.all(scan.rho[257:] == 0.0)


def test_point_count_sets_the_grid(const_star):
    scan = scan_model(const_star, n=2)
    assert scan.grid.size == 2 * 2 and scan.dec
    assert scan.grid[0] == const_star.profile.R_START


@pytest.mark.parametrize("source", ["wyman", "witten", "const_star"])
def test_catalog_scan_arrays_are_the_model_on_its_grid(source, request):
    model = request.getfixturevalue(source)
    scan = scan_model(model)
    assert np.array_equal(scan.mu, model.mu(scan.grid))
    assert np.array_equal(scan.rho, model.rho(scan.grid))


SQRT_ONE_PLUS_U = RadialFunction.from_formula(lambda u: np.sqrt(1.0 + u),
                                              (-1.0 + 1e-9, math.inf))


@pytest.mark.parametrize("phi, kw", [
    ("witten", {"n": 3}),
    ("witten", {"n": 5}),
    ("unit", {"n": 3, "lam": 0.2}),
    (SQRT_ONE_PLUS_U, {"n": 3, "ic": (1.0, 0.2)}),
], ids=["witten-3", "witten-5", "unit", "custom"])
def test_conformal_scan_is_the_model_on_its_piece(phi, kw):
    model = conformal.build_model(phi, **kw)
    n = 64
    scan = scan_model(model, n=n)
    g = np.linspace(*model.pieces[0].interval, n)
    want = scan_conditions(model.mu(g), model.rho(g), g)
    assert np.array_equal(scan.grid, g)
    assert np.array_equal(scan.mu, want.mu) and np.array_equal(scan.rho, want.rho)
    assert scan.to_json_dict() == want.to_json_dict()


def test_witten_scan_fails_dec_at_the_lapse_zero():
    # f(0) = 0: the pressure diverges at u = 0, and the padded grid keeps it finite
    model = conformal.build_model("witten", n=3)
    scan = scan_model(model)
    lo = model.pieces[0].interval[0]
    assert 0.0 < lo < 1e-4 and np.all(np.isfinite(scan.rho))
    assert scan.nec and scan.wec and not scan.dec
    assert scan.first_violation == ("dec", lo)


def test_unknown_model_type():
    with pytest.raises(BadParams):
        scan_model(3.14)
