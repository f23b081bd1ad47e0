"""The spec grammar NAME[:key=value,...], the checked factory call and the
run configuration's tolerances."""

import inspect
import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from staticstar import catalog, config, tov
from staticstar.config import call_with, parse_spec
from staticstar.errors import BadParams, StaticStarError


@pytest.mark.parametrize("spec,want", [
    ("wyman", ("wyman", {})),
    ("wyman:", ("wyman", {})),
    (" WYMAN : R = 2.5 , M=0.3", ("wyman", {"R": 2.5, "M": 0.3})),
    ("Constant:c=1e-3", ("constant", {"c": 1e-3})),
    ("x:a=-inf", ("x", {"a": -math.inf})),  # a number; call_with refuses it
])
def test_parse_spec_reads_name_and_numbers(spec, want):
    assert parse_spec(spec, "model") == want


@pytest.mark.parametrize("spec,match", [
    ("wyman:R=2,", r"bad model parameter '' .*key=value"),
    ("wyman:R=2,R=3", r"model parameter 'R' given twice"),
    ("wyman:R=2, R =3", r"model parameter 'R' given twice"),
])
def test_parse_spec_refuses(spec, match):
    with pytest.raises(BadParams, match=match):
        parse_spec(spec, "model")


@pytest.mark.parametrize("factory,params,cause", [
    (catalog.wyman, {"R": 1e100, "M": 1.0}, OverflowError),        # R**4
    (catalog.witten_stellar, {"t_max": 1e6}, OverflowError),       # cosh(t_max / 2)
    (catalog.wyman, {"R": 1e-320, "M": 5e-324}, ZeroDivisionError),  # r_b underflows to 0
], ids=["wyman-R-1e100", "witten-t_max-1e6", "wyman-underflow"])
def test_call_with_turns_float_arithmetic_errors_into_bad_params(factory, params, cause):
    with pytest.raises(BadParams, match="cannot be evaluated in floats") as info:
        call_with(factory, factory.__name__, params)
    assert isinstance(info.value.__cause__, cause)


def _counting_signature(monkeypatch):
    reads = []
    signature = config.inspect.signature

    def counting_signature(factory):
        reads.append(factory)
        return signature(factory)

    monkeypatch.setattr(config.inspect, "signature", counting_signature)
    config._parameter_names.cache_clear()
    return reads


def test_parameter_names_are_read_once_per_factory(monkeypatch):
    reads = _counting_signature(monkeypatch)
    for _ in range(3):
        catalog.build("wyman", R=2.5)
        with pytest.raises(BadParams, match=r"takes no parameter 'Q'; accepted: R, M$"):
            catalog.build("wyman", Q=1.0)
    assert reads == [catalog.wyman]


def test_eos_parameter_names_are_read_once(monkeypatch):
    reads = _counting_signature(monkeypatch)
    for _ in range(3):
        assert tov.EquationOfState.from_spec("constant:c=0.001") == tov.ConstantDensity(0.001)
        with pytest.raises(BadParams, match=r"^constant EOS takes no parameter 'C'; accepted: c$"):
            tov.EquationOfState.from_spec("constant:C=0.001")
    assert reads == [tov.ConstantDensity]


def test_a_bare_eos_kind_takes_its_defaults():
    assert tov.EquationOfState.from_spec("constant") == tov.ConstantDensity(0.0)
    with pytest.raises(BadParams, match="chaplygin EOS needs c != 0"):
        tov.EquationOfState.from_spec("chaplygin")


# --- every text is a model, an EOS or a package error ------------------------

_NAMES = sorted({*catalog.MODELS, *tov.EOS_KINDS, "Wyman", " constant ", "table", "x"})
_KEYS = sorted({key for factory in (*catalog.MODELS.values(), *tov.EOS_KINDS.values())
                for key in inspect.signature(factory).parameters}
               | {"model_id", "self", "factory", "name", "params", "C", ""})
_VALUES = st.one_of(st.floats().map(repr), st.sampled_from(["1e100", "1e-320", "-0"]),
                    st.text(max_size=4))
_ITEMS = st.lists(st.tuples(st.sampled_from(_KEYS) | st.text(max_size=3), _VALUES)
                  .map("=".join) | st.text(max_size=4), max_size=4)
SPECS = st.one_of(
    st.text(),
    st.builds(lambda name, items: f"{name}:{','.join(items)}" if items else name,
              st.sampled_from(_NAMES) | st.text(max_size=6), _ITEMS),
)


def _builds_or_refuses(make, spec):
    try:
        make(spec)
    except StaticStarError:
        pass


@settings(max_examples=300, deadline=None)
@given(SPECS)
@example("wyman:model_id=3")
@example("wyman:R=2,R=3")
@example("wyman:R=1e100,M=1")
@example("witten_stellar:t_max=1e6")
@example("wyman:R=1e-320,M=5e-324")
def test_any_model_spec_builds_or_raises_a_package_error(spec):
    _builds_or_refuses(catalog.parse_model_spec, spec)


@settings(max_examples=300, deadline=None)
@given(SPECS)
@example("constant:C=0.001")
@example("constant:c=0.001,k=3")
@example("chaplygin:self=1")
def test_any_eos_spec_builds_or_raises_a_package_error(spec):
    assume(spec.partition(":")[0].strip().lower() != "table")
    _builds_or_refuses(tov.EquationOfState.from_spec, spec)


@pytest.mark.parametrize("name", ["abs_tol", "rel_tol"])
@pytest.mark.parametrize("value,words", [
    (math.inf, "must be finite"), (-math.inf, "must be positive"),
    (math.nan, "must be positive"), (0.0, "must be positive"),
])
def test_a_tolerance_must_be_finite_and_positive(name, value, words):
    with pytest.raises(BadParams, match=f"^{name} {words}, got {value}$"):
        config.RunConfig(**{name: value})


def test_a_config_file_tolerance_must_be_finite(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[staticstar]\nabs_tol = inf\n")
    with pytest.raises(BadParams, match="^abs_tol must be finite, got inf$"):
        config.merge_config(config.load_config(str(path)))
