"""Experiment configuration: one YAML file drives the verification suites.

The file is a nested key/value mapping.  Families may be named from the
builtin catalog or written inline with the small expression grammar; every
validation error names the offending field path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import yaml

from .errors import ConfigError, FamilyError
from .grid import SpatialGrid
from .potentials import InteractionFamily, PotentialFamily, get_family, get_interaction
from .propagator import PropagatorConfig

SUITE_NAMES = (
    "propagate",
    "eps_sweep",
    "parametrix",
    "commutator",
    "sensitivity",
    "continuity",
    "two_particle",
    "validate",
)

_FAMILY_KEYS = {"name", "v", "a", "growth_order", "delta", "mass", "rho_interval", "dim"}
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
    seed: int  # accepted; no suite reads it
    options: dict = field(default_factory=dict)

    def suite_options(self, name: str) -> dict:
        return dict(self.options.get(name, {}))


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _resolve_potential(value, path: str, cls, lookup, keys):
    """A cls instance, a builtin name for lookup, or an inline block of keys."""
    if isinstance(value, cls):
        return value
    if isinstance(value, str):
        try:
            return lookup(value)
        except FamilyError as err:
            raise ConfigError(f"{path}: {err}") from err
    data = _require_mapping(value, path)
    unknown = set(data) - keys
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    try:
        kwargs = dict(data)
        kwargs.setdefault("name", "custom")
        if "a" in kwargs and isinstance(kwargs["a"], (list, tuple)):
            kwargs["a"] = tuple(str(c) for c in kwargs["a"])
        if kwargs.get("rho_interval") is not None:
            lo, hi = kwargs["rho_interval"]
            kwargs["rho_interval"] = (float(lo), float(hi))
        return cls(**kwargs)
    except (FamilyError, TypeError, ValueError) as err:
        raise ConfigError(f"{path}: {err}") from err


def _resolve_grid(value, path: str) -> SpatialGrid:
    data = _require_mapping(value, path)
    unknown = set(data) - {"d", "L", "N"}
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    try:
        return SpatialGrid(
            d=int(data.get("d", 1)),
            L=float(data.get("L", 10.0)),
            N=int(data.get("N", 512)),
        )
    except Exception as err:
        raise ConfigError(f"{path}: {err}") from err


def from_mapping(data: dict | None) -> ExperimentConfig:
    """Build a validated config from a parsed mapping (None = all defaults)."""
    data = dict(data or {})

    family = _resolve_potential(data.pop("family", "confined_quartic"), "family",
                                PotentialFamily, get_family, _FAMILY_KEYS)
    interaction = _resolve_potential(data.pop("interaction", "soft_pair"), "interaction",
                                     InteractionFamily, get_interaction, _INTERACTION_KEYS)
    grid = _resolve_grid(data.pop("grid", {}), "grid")

    propagator = _require_mapping(data.pop("propagator", {}), "propagator")
    try:
        PropagatorConfig(**propagator)
    except (ConfigError, TypeError) as err:
        raise ConfigError(f"propagator: {err}") from err
    initial_state = _require_mapping(data.pop("initial_state", {}), "initial_state")
    for key in initial_state:
        if key not in {"center", "width", "momentum"}:
            raise ConfigError(f"initial_state: unknown key {key!r}")

    rho = data.pop("rho", 0.0)
    try:
        rho = float(rho)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"rho: {err}") from err

    suites = data.pop("suites", list(SUITE_NAMES))
    if isinstance(suites, str):
        suites = [suites]
    if not suites:
        raise ConfigError("suites: the selection must be nonempty")
    for name in suites:
        if name not in SUITE_NAMES:
            raise ConfigError(
                f"suites: unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}"
            )
    seen = set()
    suites = tuple(s for s in suites if not (s in seen or seen.add(s)))

    output_dir = str(data.pop("output_dir", "polyschro_out"))
    seed = data.pop("seed", 20260814)
    if not isinstance(seed, int):
        raise ConfigError(f"seed: expected an integer, got {seed!r}")

    options = _require_mapping(data.pop("options", {}), "options")
    for name in options:
        if name not in SUITE_NAMES:
            raise ConfigError(f"options: unknown suite section {name!r}")
        _require_mapping(options[name], f"options.{name}")

    if data:
        raise ConfigError(f"unknown top-level keys {sorted(data)}")

    return ExperimentConfig(
        family=family,
        interaction=interaction,
        grid=grid,
        propagator=dict(propagator),
        initial_state=dict(initial_state),
        rho=rho,
        suites=suites,
        output_dir=output_dir,
        seed=seed,
        options={k: dict(v) for k, v in options.items()},
    )


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
