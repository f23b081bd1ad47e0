"""One reading per profile and point set.

A ``ProfileAt`` of a closed form takes its value from the jet its
derivatives need, to the bits of the profile's own callables, and builds no
jet when only values are read.  ``verify`` reads each profile of a radial
piece once on the piece's grid, and its reports are the bytes the separate
calls gave.
"""

import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from staticstar import catalog, conformal, geometry, tov
from staticstar.errors import BadParams
from staticstar.numerics import Jet, ProfileAt, RadialFunction, chebyshev_grid

REAL_FROM_FORMULA = RadialFunction.from_formula
DEFAULT_DOMAIN = (-math.inf, math.inf)


def _verify_grid(interval, n):
    lo, hi = interval
    pad = 1e-6 * (hi - lo)
    return chebyshev_grid(lo + pad, hi - pad, n)


def _formula_profiles():
    """(name, profile, verification window) for every ``from_formula`` profile
    the package builds: the six catalog models' f, m or phi, mu and rho (the
    vacuum pieces among them), a ``vacuum_piece`` of its own, Wyman's
    mu_printed, and the witten and unit presets' phi and lapse.  Every
    ``from_formula`` call made while building them is checked to be listed."""
    made = []

    def recording(cls, fn, domain=DEFAULT_DOMAIN):
        rf = REAL_FROM_FORMULA(fn, domain)
        made.append(rf)
        return rf

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RadialFunction, "from_formula", classmethod(recording))
        models = [catalog.build(model_id) for model_id in catalog.MODELS]
        vacuum = catalog.vacuum_piece(0.7, (1.5, 30.0), (1.4 + 1e-9, 300.0))
        presets = {name: conformal.build_model(name, n=3) for name in ("witten", "unit")}

    out = []
    for model in models:
        for p in model.pieces:
            for part, rf in (("f", p.f), ("chart", geometry._chart_profile(p.ansatz)),
                             ("mu", p.mu_phys), ("rho", p.rho_phys)):
                out.append((f"{model.id}/{p.label}/{part}", rf, p.interval))
        if model.id == "wyman":
            out.append(("wyman/mu_printed", model.extras["mu_printed"], model.pieces[0].interval))
    out.append(("vacuum_piece/f", vacuum.f, vacuum.interval))
    for name, m in presets.items():
        out += [(f"{name}/phi", m.phi, m.pieces[0].interval), (f"{name}/f", m.f, m.pieces[0].interval)]
    out = [entry for entry in out if entry[1].jet is not None]
    listed = {id(rf) for _, rf, _ in out}
    assert [rf for rf in made if id(rf) not in listed] == []
    return out


PROFILES = _formula_profiles()


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_reading_is_the_callables(rf, u):
    at = ProfileAt(rf, u).with_derivatives()
    assert _same_bits(at.v, rf.value(u))
    assert _same_bits(at.d1, rf.d1(u))
    assert _same_bits(at.d2, rf.d2(u))


def test_every_formula_profile_is_listed():
    names = {name for name, _, _ in PROFILES}
    assert {"wyman/interior/rho", "wyman/mu_printed", "vacuum_piece/f", "witten/phi",
            "unit/f", "witten_stellar/star/chart"} <= names


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_reading_has_the_bits_of_the_callables(data):
    name, rf, (lo, hi) = data.draw(st.sampled_from(PROFILES), label="profile")
    x = data.draw(st.floats(lo, hi), label="point")
    kind = data.draw(st.sampled_from(["float", "0-d", "one-element"]), label="kind")
    u = {"float": x, "0-d": np.array(x), "one-element": np.array([x])}[kind]
    _assert_reading_is_the_callables(rf, u)


@pytest.mark.parametrize("n", [96, 512])
@pytest.mark.parametrize("name, rf, window", PROFILES, ids=[name for name, _, _ in PROFILES])
def test_a_reading_on_a_verify_grid_has_the_bits_of_the_callables(name, rf, window, n):
    _assert_reading_is_the_callables(rf, _verify_grid(window, n))


def test_a_values_only_reading_builds_no_jet():
    # sqrt's derivatives are singular at 0: only a jet would warn there
    rf = RadialFunction.from_formula(np.sqrt, (0.0, math.inf))
    grid = np.linspace(0.0, 1.0, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _same_bits(ProfileAt(rf, grid).v, np.sqrt(grid))
    with pytest.warns(RuntimeWarning):
        ProfileAt(rf, grid).d1


def test_a_reading_passed_with_another_grid_is_refused():
    p = catalog.build("wyman").pieces[0]
    grid = _verify_grid(p.interval, 16)
    other = ProfileAt(p.f, grid[::-1]).with_derivatives()
    foreign = geometry.RadialReading(dataclasses.replace(p, f=other), grid)
    with pytest.raises(BadParams):
        geometry.spf_residuals(p.ansatz, foreign, grid)
    read = geometry.RadialReading(p, grid)
    with pytest.raises(BadParams):
        geometry.spf_residuals(geometry.SchwarzschildForm(p.ansatz.m), read, grid)
    # a reading whose frame is formed already is still read on its own grid only
    geometry.spf_residuals(p.ansatz, read, grid.copy())
    with pytest.raises(BadParams):
        geometry.spf_residuals(p.ansatz, read, grid[::-1])


# ---------------------------------------------------------------------------
# verify: the same bytes, one reading per profile and grid
# ---------------------------------------------------------------------------

def _readme_star():
    profile = tov.integrate_tov(tov.EquationOfState.from_spec("constant:c=0.001"), 5e-4)
    return tov.match_exterior(profile, tov.detect_surface(profile))


BUILDERS = {model_id: (lambda m=model_id: catalog.build(m)) for model_id in catalog.MODELS}
BUILDERS["readme_star"] = _readme_star


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_verify_gives_the_bytes_of_separate_value_calls(monkeypatch, name):
    # a dataclasses.replace copy of a formula profile has no jet, so its
    # readings call value, d1 and d2 one by one, as verify once did
    readings = BUILDERS[name]()
    monkeypatch.setattr(RadialFunction, "from_formula", classmethod(
        lambda cls, fn, domain=DEFAULT_DOMAIN: dataclasses.replace(REAL_FROM_FORMULA(fn, domain))))
    separate = BUILDERS[name]()
    assert all(p.f.jet is None for p in separate.pieces)
    for n in (96, 512):
        assert (json.dumps(readings.verify(n).to_json_dict())
                == json.dumps(separate.verify(n).to_json_dict())), n


def _logged_build(monkeypatch, model_id):
    """The model with every formula's calls logged as (profile number, "jet"
    or "value", the points' bytes), and the profile number of each formula
    profile by id."""
    log, numbers, count = [], {}, itertools.count()

    def logged(cls, fn, domain=DEFAULT_DOMAIN):
        k = next(count)

        def call(r):
            jet = isinstance(r, Jet)
            points = np.asarray(r.v if jet else r, dtype=float)
            log.append((k, "jet" if jet else "value", points.tobytes()))
            return fn(r)

        rf = REAL_FROM_FORMULA(call, domain)
        numbers[id(rf)] = k
        return rf

    monkeypatch.setattr(RadialFunction, "from_formula", classmethod(logged))
    return catalog.build(model_id), log, numbers


@pytest.mark.parametrize("n", [96, 512])
@pytest.mark.parametrize("model_id", ["wyman", "witten_stellar", "schwarzschild_exterior"])
def test_verify_reads_each_profile_once_per_grid(monkeypatch, model_id, n):
    model, log, numbers = _logged_build(monkeypatch, model_id)
    del log[:]
    assert model.verify(n).passed
    calls = {}
    for k, kind, points in log:
        calls.setdefault((k, points), []).append(kind)
    # no point set is read twice by one formula, nor as a value beside its jet
    for (k, _), kinds in calls.items():
        assert kinds in (["jet"], ["value"]), (k, kinds)
    for p in model.pieces:
        grid = _verify_grid(p.interval, n).tobytes()
        for rf, differentiated in ((p.f, True), (geometry._chart_profile(p.ansatz), True),
                                   (p.rho_phys, True), (p.mu_phys, False)):
            if id(rf) in numbers:
                assert calls[numbers[id(rf)], grid] == ["jet" if differentiated else "value"]
    if model_id == "wyman":
        # rho is one jet of the lapse: once for the field report and the printed-mu check
        rho = model.pieces[0].rho_phys
        grid = _verify_grid(model.pieces[0].interval, n).tobytes()
        assert [kind for k, kind, points in log if k == numbers[id(rho)] and points == grid] == ["jet"]
