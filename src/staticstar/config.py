"""Run configuration: defaults, config-file parsing, CLI merge; and specs.

Precedence is CLI > file > built-in defaults.  The file format is flat
``key = value`` pairs under a ``[staticstar]`` section, read with
:mod:`configparser`::

    [staticstar]
    abs_tol = 1e-10
    grid_n = 512

EOS and catalog model specs share one grammar, ``NAME[:key=value,...]``.
"""

from __future__ import annotations

import configparser
import functools
import inspect
import math
from collections.abc import Callable
from dataclasses import dataclass, fields, replace

from .errors import BadParams
from .numerics import check_grid_n

CONFIG_SECTION = "staticstar"


@dataclass(frozen=True)
class RunConfig:
    """Numeric knobs of the CLI, one per config key: abs_tol / rel_tol for the
    TOV integrator, grid_n for its sample rows and the residual and scan grids,
    and lam, the cosmological constant of ``build`` (not of catalog models)."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    grid_n: int = 512
    lam: float = 0.0

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol"):
            value = getattr(self, name)
            if not value > 0.0:
                raise BadParams(f"{name} must be positive, got {value}")
            # an infinite tolerance takes the integrator's step-size control away
            if not math.isfinite(value):
                raise BadParams(f"{name} must be finite, got {value}")
        check_grid_n(self.grid_n, 8)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_PARSERS = {"float": float, "int": int}


def load_config(path: str) -> dict:
    """Read a config file into an override dict (keys validated, values typed)."""
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise OSError(f"config file not readable: {path}")
    if not cp.has_section(CONFIG_SECTION):
        raise BadParams(f"config file has no [{CONFIG_SECTION}] section: {path}")
    overrides = {}
    for key, raw in cp.items(CONFIG_SECTION):
        if key not in _FIELD_TYPES:
            raise BadParams(f"unknown config key {key!r}")
        try:
            overrides[key] = _PARSERS[_FIELD_TYPES[key]](raw)
        except ValueError as exc:
            raise BadParams(f"bad value for {key}: {raw!r}") from exc
    return overrides


def merge_config(file_overrides: dict | None = None,
                 cli_overrides: dict | None = None) -> RunConfig:
    """Defaults, then file, then CLI; ``None`` CLI values mean 'not given'."""
    cfg = RunConfig()
    if file_overrides:
        cfg = replace(cfg, **file_overrides)
    if cli_overrides:
        explicit = {k: v for k, v in cli_overrides.items() if v is not None}
        if explicit:
            cfg = replace(cfg, **explicit)
    return cfg


def parse_spec(spec: str, what: str) -> tuple[str, dict[str, float]]:
    """Read ``NAME[:key=value,...]`` into (name stripped and lower-cased,
    params): each value a number, no key twice.  ``what`` ("model", "EOS")
    names the spec in messages."""
    name, _, rest = spec.partition(":")
    params: dict[str, float] = {}
    for item in rest.split(",") if rest else ():
        key, eq, val = item.partition("=")
        key = key.strip()
        if not eq:
            raise BadParams(f"bad {what} parameter {item!r} in {spec!r}: expected key=value")
        if key in params:
            raise BadParams(f"{what} parameter {key!r} given twice in {spec!r}")
        try:
            params[key] = float(val)
        except ValueError:
            raise BadParams(f"{what} parameter {item!r} in {spec!r} is not a number") from None
    return name.strip().lower(), params


@functools.cache
def _parameter_names(factory: Callable) -> tuple[str, ...]:
    """A factory's keyword names in signature order, read once per factory."""
    return tuple(inspect.signature(factory).parameters)


def call_with(factory: Callable, name: str, params: dict[str, float]):
    """``factory(**params)`` once every key is a parameter of it and every
    value is finite; a float overflow or zero division in it is BadParams."""
    accepted = _parameter_names(factory)
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise BadParams(
            f"{name} takes no parameter {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(accepted)}"
        )
    infinite = [f"{k}={v}" for k, v in params.items() if not math.isfinite(v)]
    if infinite:
        raise BadParams(f"{name} needs finite parameters, got {', '.join(infinite)}")
    try:
        return factory(**params)
    except ArithmeticError as exc:  # e.g. R**4 of wyman:R=1e100
        raise BadParams(f"{name} cannot be evaluated in floats at {params}: {exc}") from exc
