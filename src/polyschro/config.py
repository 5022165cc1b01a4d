"""Experiment configuration: one YAML file drives the verification suites.

The file is a nested key/value mapping.  Families may be named from the
builtin catalog or written inline with the small expression grammar; every
validation error names the offending field path.  The options of a suite
are the keyword parameters of its ``suites.plan_<name>`` function.  The
plan of every selected suite, and of every given ``options.<suite>``
section, is built at load, so every option, default or given, passes the
constructor its suite builds it with, and a rejected value is reported
under ``options.<suite>.<key>`` (or ``options.<suite>`` for a default).
A suite run in place of the selection, such as a CLI subcommand's, has
its plan built by ``cli.run_experiment`` before any suite runs.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import ConfigError, FamilyError
from .grid import SpatialGrid, make_grid
from .potentials import InteractionFamily, PotentialFamily, get_family, get_interaction
from .propagator import PropagatorConfig
from .suites import (_SUITE_PLANS, INITIAL_STATE_KEYS, PROPAGATOR_KEYS, check_block,
                     initial_packet, suite_function)


def _keyword_defaults(fn) -> dict:
    """The keyword-only parameters of fn, mapped to their defaults."""
    return {p.name: p.default for p in inspect.signature(fn).parameters.values()
            if p.kind is p.KEYWORD_ONLY}


# each suite's option names and defaults, read from its plan's signature
SUITE_OPTIONS = {name: _keyword_defaults(plan) for name, plan in _SUITE_PLANS.items()}
SUITE_NAMES = tuple(SUITE_OPTIONS)

_FAMILY_KEYS = {"name", "v", "a", "growth_order", "delta", "mass", "rho_interval"}
_INTERACTION_KEYS = {"name", "w", "growth_order", "delta", "rho_interval"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment inputs shared by the suites."""

    family: PotentialFamily
    interaction: InteractionFamily
    grid: SpatialGrid
    propagator: dict
    initial_state: dict
    rho: float
    suites: tuple
    output_dir: str
    options: dict = field(default_factory=dict)

    def suite_options(self, name: str) -> dict:
        """The overrides of the options section of suite name (no defaults)."""
        return dict(self.options.get(name, {}))


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _checked(path: str, build, *args, **kwargs):
    """build(*args, **kwargs), with a rejected value reported under path."""
    try:
        with np.errstate(all="ignore"):  # a bad value raises below; no warnings
            return build(*args, **kwargs)
    except (ArithmeticError, TypeError, ValueError) as err:
        raise ConfigError(f"{path}: {err}") from err


def _resolve_potential(value, path: str, cls, lookup, keys):
    """A cls instance, a builtin name for lookup, or an inline block of keys."""
    if isinstance(value, cls):
        return value
    if isinstance(value, str):
        return _checked(path, lookup, value)
    kwargs = {"name": "custom", **_checked(path, check_block, value, keys)}
    try:
        return cls(**kwargs)
    except (FamilyError, TypeError, ValueError) as err:
        raise ConfigError(f"{path}: {err}") from err


def _resolve_grid(value, path: str) -> SpatialGrid:
    data = _checked(path, check_block, value, {"L", "N"})
    return _checked(path, make_grid, 1, data.get("L", 10.0), data.get("N", 512))


def check_plan(cfg: ExperimentConfig, name: str) -> None:
    """Build suite name's plan from cfg's options.<name>, merged over its defaults.

    A rejected section is reported under its first key, in signature
    order, that the plan rejects on its own, else under its first key.
    """
    plan, section, path = _SUITE_PLANS[name], cfg.suite_options(name), f"options.{name}"

    def rejection(options):
        try:
            _checked(path, plan, cfg, **options)
        except ConfigError as err:
            return err.__cause__
        return None

    err = rejection(section)
    if err is not None:
        keys = [key for key in SUITE_OPTIONS[name] if key in section]
        key = next((k for k in keys if rejection({k: section[k]})), keys[0] if keys else None)
        raise ConfigError(f"{path}.{key}: {err}" if key else f"{path}: {err}") from err


def from_mapping(data: dict | None) -> ExperimentConfig:
    """Build a validated config from a parsed mapping (None = all defaults)."""
    data = dict(data or {})

    family = _resolve_potential(data.pop("family", "confined_quartic"), "family",
                                PotentialFamily, get_family, _FAMILY_KEYS)
    interaction = _resolve_potential(data.pop("interaction", "soft_pair"), "interaction",
                                     InteractionFamily, get_interaction, _INTERACTION_KEYS)
    grid = _resolve_grid(data.pop("grid", {}), "grid")

    propagator = _checked("propagator", check_block, data.pop("propagator", {}),
                          PROPAGATOR_KEYS)
    _checked("propagator", PropagatorConfig, **propagator)
    initial_state = _checked("initial_state", check_block, data.pop("initial_state", {}),
                             INITIAL_STATE_KEYS)
    _checked("initial_state", initial_packet, grid, **initial_state)
    rho = _checked("rho", family.check_rho, data.pop("rho", 0.0))

    suites = data.pop("suites", list(SUITE_NAMES))
    if isinstance(suites, str):
        suites = [suites]
    if not suites:
        raise ConfigError("suites: the selection must be nonempty")
    for name in suites:
        _checked("suites", suite_function, name)
    seen = set()
    suites = tuple(s for s in suites if not (s in seen or seen.add(s)))

    output_dir = str(data.pop("output_dir", "polyschro_out"))

    options = _require_mapping(data.pop("options", {}), "options")
    for name, section in options.items():
        _checked("options", suite_function, name)
        _checked(f"options.{name}", check_block, section, SUITE_OPTIONS[name])

    if data:
        raise ConfigError(f"unknown top-level keys {sorted(data, key=str)}")

    cfg = ExperimentConfig(
        family=family,
        interaction=interaction,
        grid=grid,
        propagator=dict(propagator),
        initial_state=dict(initial_state),
        rho=rho,
        suites=suites,
        output_dir=output_dir,
        options={k: dict(v) for k, v in options.items()},
    )
    for name in dict.fromkeys((*suites, *options)):
        check_plan(cfg, name)
    return cfg


def load_config(path: str | None) -> ExperimentConfig:
    """Parse the YAML file at path; None yields the all-defaults config."""
    if path is None:
        return from_mapping(None)
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError as err:
        raise ConfigError(f"config file not found: {path}") from err
    except yaml.YAMLError as err:
        raise ConfigError(f"config file {path} does not parse: {err}") from err
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    return from_mapping(data)
