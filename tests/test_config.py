"""YAML experiment configuration: defaults, validation, round trips."""

import re

import pytest
import yaml
from click.testing import CliRunner

from polyschro import load_config
from polyschro.cli import main, run_experiment
from polyschro.config import SUITE_NAMES, from_mapping
from polyschro.errors import ConfigError
from polyschro.propagator import PropagatorConfig


def test_defaults():
    cfg = load_config(None)
    assert cfg.family.name == "confined_quartic"
    assert cfg.interaction.name == "soft_pair"
    assert cfg.grid.d == 1 and cfg.grid.L == 6.0 and cfg.grid.N == 256
    assert cfg.suites == SUITE_NAMES
    assert len(cfg.suites) == 8
    assert cfg.rho == 0.0
    assert cfg.output_dir == "polyschro_out"
    # the stepper and the packet are set only in options.propagate
    assert not hasattr(cfg, "propagator") and not hasattr(cfg, "initial_state")


def test_unknown_family_names_the_field():
    with pytest.raises(ConfigError, match="family"):
        from_mapping({"family": "coulomb"})


def test_unknown_interaction_names_the_field():
    with pytest.raises(ConfigError, match="interaction"):
        from_mapping({"interaction": "hard_core"})


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown top-level"):
        from_mapping({"familly": "harmonic"})


def test_unknown_grid_key_rejected():
    with pytest.raises(ConfigError, match="grid"):
        from_mapping({"grid": {"L": 8.0, "points": 64}})


def test_bad_grid_values_reported_under_grid():
    with pytest.raises(ConfigError, match="grid"):
        from_mapping({"grid": {"N": 7}})


@pytest.mark.parametrize("block,field", [({"N": 100.7}, "N"), ({"N": True}, "N"), ({"N": "256"}, "N")])
def test_grid_sizes_must_be_whole_numbers(block, field):
    with pytest.raises(ConfigError, match=f"^grid: {field} must be a whole number"):
        from_mapping({"grid": block})


@pytest.mark.parametrize("L", [True, "x", float("inf"), 0.0])
def test_grid_length_must_be_a_finite_positive_number(L):
    """A bool L is rejected like a bool N, not read as L = 1.0."""
    with pytest.raises(ConfigError, match=rf"^grid: L must be positive and finite, got {L!r}$"):
        from_mapping({"grid": {"L": L}})


def test_grid_sizes_accept_whole_floats():
    grid = from_mapping({"grid": {"L": 8, "N": 256.0}}).grid
    assert (grid.d, grid.N) == (1, 256)
    assert type(grid.N) is int


@pytest.mark.parametrize("block", [
    {"dtt": 1.0e-3},                  # misspelled field
    {"use_preconditioner": False},    # a field that no longer exists
    {"solver_tol": 0},                # tolerances are propagator constants, not keys
    {"dt": 1.0e-3, "t_final": 1.0005},
    {"save_every": 2.5},
    {"krylov_dim": 2.5},
    {"max_solver_iter": 2.5},
    {"save_every": True},
    {"boundary_tol": "x"},
    {"boundary_tol": 0.0},
    {"cutoff_mu": float("nan")},
    {"keep_states": "no"},
    {"t0": 0.5},                      # runs start at t = 0
])
def test_bad_propagator_block_rejected_at_load(block):
    """A key that is not a PropagatorConfig field is an unknown key."""
    unknown = sorted(set(block) - set(PropagatorConfig.__dataclass_fields__))
    message = re.escape(f"unknown keys {unknown}") + "$" if unknown else ""
    with pytest.raises(ConfigError, match=f"^options.propagate.propagator: {message}"):
        from_mapping({"options": {"propagate": {"propagator": block}}})


_PLANAR = {"name": "planar", "v": "x^2", "a": ["0"], "growth_order": 0, "delta": 1.0}


@pytest.mark.parametrize("doc, message", [
    ({"grid": {"d": 2, "N": 16}}, "grid: unknown keys ['d']"),
    ({"family": {**_PLANAR, "dim": 2}}, "family: unknown keys ['dim']"),
    ({"family": {**_PLANAR, "v": "x1^2"}}, "family: V uses unknown variables ['x1']"),
])
def test_families_and_grids_are_one_dimensional(tmp_path, doc, message):
    """A config that sets the dimension keys, or writes a coordinate of a
    second axis, exits 2 naming its field."""
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(doc))
    result = CliRunner().invoke(main, ["validate", "--config", str(path),
                                       "--output-dir", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert f"config error: {message}" in (result.stderr or result.output)
    assert not (tmp_path / "o").exists()


def test_inline_family_block():
    cfg = from_mapping({
        "family": {
            "name": "tilted",
            "v": "x^2/2 + rho*x^4/4",
            "a": ["0"],
            "growth_order": 1,
            "delta": 1.0,
            "rho_interval": [0.4, 8.0],
        },
        "rho": 1.0,
    })
    assert cfg.family.name == "tilted"
    assert cfg.family.rho_interval == (0.4, 8.0)
    assert cfg.rho == 1.0


def test_inline_family_bad_expression_names_path():
    with pytest.raises(ConfigError, match="family"):
        from_mapping({"family": {"v": "x +", "a": ["0"],
                                 "growth_order": 0, "delta": 1.0}})


def test_inline_family_unknown_key():
    with pytest.raises(ConfigError, match="family"):
        from_mapping({"family": {"v": "x^2", "a": ["0"], "growth_order": 0,
                                 "delta": 1.0, "potential": "x^2"}})


def test_inline_interaction_block():
    cfg = from_mapping({"interaction": {"name": "pair", "w": "rho*r^2",
                                        "growth_order": 1, "delta": 1.0,
                                        "rho_interval": [-1, 1]}})
    assert cfg.interaction.name == "pair"


@pytest.mark.parametrize("doc, message", [
    ({"family": "parametric_quartic"}, r"rho=0.0 outside the open interval \(0.4, 8.0\)"),
    ({"family": "parametric_quartic", "rho": 8.0}, "rho=8.0 outside the open interval"),
    ({"rho": "one"}, "rho must be a number"),
    ({"rho": True}, r"rho must be a number \(finite, not a bool\), got True"),
    ({"rho": float("inf")}, r"rho must be a number \(finite, not a bool\), got inf"),
    ({"rho": "1.5"}, r"rho must be a number \(finite, not a bool\), got '1.5'"),
])
def test_top_level_rho_checked_against_family_at_load(doc, message):
    with pytest.raises(ConfigError, match=f"^rho: {message}"):
        from_mapping(doc)
    assert from_mapping({"family": "parametric_quartic", "rho": 1}).rho == 1.0


def test_suite_selection_and_deduplication():
    cfg = from_mapping({"suites": ["propagate", "validate", "propagate"]})
    assert cfg.suites == ("propagate", "validate")
    single = from_mapping({"suites": "validate"})
    assert single.suites == ("validate",)


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError, match="suites"):
        from_mapping({"suites": ["propagate", "spectral_gap"]})


def test_empty_suites_rejected():
    with pytest.raises(ConfigError, match="suites"):
        from_mapping({"suites": []})


def test_seed_key_is_rejected():
    """The seed key, which no suite ever read, is an unknown top-level key."""
    with pytest.raises(ConfigError, match=r"^unknown top-level keys \['seed'\]"):
        from_mapping({"seed": 7})


def test_initial_state_keys_validated():
    def initial_state(block):
        return from_mapping({"options": {"propagate": {"initial_state": block}}})

    path = re.escape("options.propagate.initial_state")
    cfg = initial_state({"center": 1.0, "width": 0.8, "momentum": 0.5})
    assert cfg.suite_options("propagate")["initial_state"]["width"] == 0.8
    with pytest.raises(ConfigError, match=f"^{path}: unknown keys"):
        initial_state({"wavelength": 2.0})
    for width in (0, -1.0, float("inf"), True):
        with pytest.raises(ConfigError, match=rf"^{path}: width must be a finite "
                                              rf"positive number, got {width!r}$"):
            initial_state({"width": width})
    for name in ("center", "momentum"):
        for bad in (float("inf"), float("nan"), True, "1.0"):
            with pytest.raises(ConfigError, match=rf"^{path}: {name} must be a finite "
                                                  rf"number, got {bad!r}$"):
                initial_state({name: bad})
        for bad in ([1.0, 2.0], [], [[1.0]]):
            message = (f"options.propagate.initial_state: {name} must be one number or "
                       f"one per axis (1), got {bad!r}")
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                initial_state({name: bad})


def test_suite_options_sections_validated():
    cfg = from_mapping({"options": {"parametrix": {"N": 64}}})
    assert cfg.suite_options("parametrix") == {"N": 64}
    assert cfg.suite_options("commutator") == {}
    with pytest.raises(ConfigError, match="options"):
        from_mapping({"options": {"spectra": {}}})
    with pytest.raises(ConfigError, match="options.parametrix"):
        from_mapping({"options": {"parametrix": 3}})


def test_unknown_suite_option_keys_rejected():
    with pytest.raises(ConfigError, match=r"^options.parametrix: unknown keys \['NN', 'n_probe'\]"):
        from_mapping({"options": {"parametrix": {"n_probe": 4, "NN": 64}}})
    with pytest.raises(ConfigError, match=r"^options.validate: unknown keys \['dt'\]"):
        from_mapping({"options": {"validate": {"N": 128, "dt": 1e-3}}})


@pytest.mark.parametrize("doc, message", [
    ({1: 2, "x": 3}, "unknown top-level keys [1, 'x']"),
    ({"grid": {1: 2, "x": 3}}, "grid: unknown keys [1, 'x']"),
    ({"options": {"validate": {2: 0, "N": 64, "L2": 1}}},
     "options.validate: unknown keys [2, 'L2']"),
])
def test_mixed_int_and_str_keys_listed_as_unknown(doc, message):
    """A YAML mapping may mix int and str keys; the unknown ones are sorted as text."""
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        from_mapping(doc)


@pytest.mark.parametrize("options, field", [
    ({"eps_sweep": {"family": "coulomb"}}, "options.eps_sweep.family"),
    ({"commutator": {"L": -1.0, "N": 64}}, "options.commutator.L"),
    ({"parametrix": {"N": 7}}, "options.parametrix.N"),
    ({"continuity": {"t_final": 0.35, "dt": 0.1}}, "options.continuity.dt"),
    ({"two_particle": {"t_final": 0.003, "dt": 2.0e-3}}, "options.two_particle.t_final"),
    ({"two_particle": {"factorization_dt": 1.0e-3}}, "options.two_particle"),  # unknown key
    ({"sensitivity": {"width": 0}}, "options.sensitivity.width"),
    ({"eps_sweep": {"eps_values": [2.0]}}, "options.eps_sweep.eps_values"),
    ({"two_particle": {"krylov_dim": 0}}, "options.two_particle.krylov_dim"),
    ({"sensitivity": {"taus": [5.0]}}, "options.sensitivity.taus"),  # rho - tau = -4
    ({"propagate": {"norm_orders": [4]}}, "options.propagate.norm_orders"),
    ({"eps_sweep": {"eps_values": []}}, "options.eps_sweep.eps_values"),
    ({"sensitivity": {"taus": [1e-2, 0.0]}}, "options.sensitivity.taus"),
    ({"continuity": {"deltas": []}}, "options.continuity.deltas"),
    ({"parametrix": {"t": "noon"}}, "options.parametrix.t"),
    ({"commutator": {"t": "noon"}}, "options.commutator.t"),
    ({"commutator": {"mu": [0.5]}}, "options.commutator.mu"),
    ({"parametrix": {"family": "harmonic", "rho": "one"}}, "options.parametrix.rho"),
    ({"eps_sweep": {"dt": 0.0}}, "options.eps_sweep.dt"),
    ({"eps_sweep": {"width": -1.0}}, "options.eps_sweep.width"),
    ({"propagate": {"norm_orders": [1, 1]}}, "options.propagate.norm_orders"),  # one column each
    ({"propagate": {"norm_orders": [2, 1, 2.0]}}, "options.propagate.norm_orders"),
])
def test_bad_suite_option_values_rejected_at_load(options, field):
    with pytest.raises(ConfigError, match=f"^{field}: "):
        from_mapping({"options": options})


@pytest.mark.parametrize("suite, key", [
    ("commutator", "mu"), ("commutator", "t"), ("parametrix", "t"),
])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_probe_options_rejected_at_load(suite, key, value):
    with pytest.raises(ConfigError, match=rf"^options\.{suite}\.{key}: {key} must be a finite "
                                          rf"number, got {value!r}$"):
        from_mapping({"options": {suite: {key: value}}})


def test_suite_option_values_are_checked_together():
    # valid only together: the default t_final = 1.0 is no whole number of 0.3 steps
    cfg = from_mapping({"options": {"sensitivity": {"dt": 0.3, "t_final": 0.9}}})
    assert cfg.suite_options("sensitivity") == {"dt": 0.3, "t_final": 0.9}


@pytest.mark.parametrize("override", [
    {"dtt": 1.0e-3},
    {"solver_tol": -1.0},
    {"dt": 3.0e-4},                   # 1.0 is no whole number of these steps
    {"t_final": 0.002},               # nor is 0.002 of the suite's dt = 4e-3
])
def test_bad_propagate_propagator_override_rejected_at_load(override):
    """The propagator block is named, not the valid norm_orders beside it."""
    with pytest.raises(ConfigError, match="^options.propagate.propagator: "):
        from_mapping({"options": {"propagate": {"norm_orders": [1], "propagator": override}}})


@pytest.mark.parametrize("doc, message", [
    ({"options": {"propagate": {"propagator": {"t0": 0.5, "solver_tol": 1e-12}}}},
     "options.propagate.propagator: unknown keys ['solver_tol', 't0']"),
    ({"options": {"propagate": {"propagator": {"dt": 1e-3, "boundary_tol": 1e-6}}}},
     "options.propagate.propagator: unknown keys ['boundary_tol']"),
    ({"options": {"propagate": {"initial_state": {"wavelength": 2.0}}}},
     "options.propagate.initial_state: unknown keys ['wavelength']"),
    ({"options": {"eps_sweep": {"cutoff_mu": 0.5}}}, "options.eps_sweep: unknown keys ['cutoff_mu']"),
    ({"propagator": {"t_final": 0.002}, "options": {"propagate": {"norm_orders": [1]}}},
     "unknown top-level keys ['propagator']"),
    ({"initial_state": {"width": 0.5}}, "unknown top-level keys ['initial_state']"),
])
def test_unknown_propagator_keys_exit_2(tmp_path, doc, message):
    """A key that no propagator, initial-state or suite block takes, such
    as a removed stepper tolerance, exits 2 naming its path."""
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(doc))
    result = CliRunner().invoke(main, ["propagate", "--config", str(path),
                                       "--output-dir", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert (result.stderr or result.output) == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_propagate_overrides_merge_over_the_suite_defaults():
    # valid only together: the default t_final = 1.0 is no whole number of 0.3 steps
    prop = {"dt": 0.3, "t_final": 0.9}
    cfg = from_mapping({"options": {"propagate": {"propagator": prop,
                                                  "initial_state": {"width": 0.5}}}})
    assert cfg.suite_options("propagate")["propagator"] == prop
    with pytest.raises(ConfigError, match="^options.propagate.propagator: "):
        from_mapping({"options": {"propagate": {"propagator": {"dt": 0.3}}}})
    with pytest.raises(ConfigError, match="^options.propagate.initial_state: "):
        from_mapping({"options": {"propagate": {"initial_state": {"wavelength": 2.0}}}})


def test_selected_suite_defaults_checked_at_load():
    # the two_particle defaults step rho=0.1 and 0.0, outside this interaction's interval
    doc = {"interaction": {"name": "pair", "w": "rho*r^2", "growth_order": 1,
                           "delta": 1.0, "rho_interval": [0.5, 1]}}
    with pytest.raises(ConfigError, match=r"^options\.two_particle: rho=0\.1 outside"):
        from_mapping(doc)
    assert from_mapping({**doc, "suites": ["propagate", "validate"]}).suites == (
        "propagate", "validate")


def test_run_suites_are_checked_outside_the_selection(tmp_path):
    """A suite run in place of the selection, as by a CLI subcommand, is
    checked by name and has its plan built before any suite runs."""
    doc = {"suites": ["validate"],
           "interaction": {"name": "pair", "w": "rho*r^2", "growth_order": 1,
                           "delta": 1.0, "rho_interval": [0.5, 1]}}
    cfg = from_mapping(doc)
    assert cfg.suites == ("validate",)
    out = tmp_path / "o"
    for suite, message in (("two_particle", r"^options\.two_particle: rho=0\.1 outside"),
                           ("spectral_gap", r"^unknown suite 'spectral_gap'")):
        with pytest.raises(ConfigError, match=message):
            run_experiment(cfg, suites=["validate", suite], out_dir=str(out))
        assert not out.exists()


def test_yaml_file_round_trip(tmp_path):
    doc = {
        "family": "harmonic",
        "grid": {"L": 8.0, "N": 64},
        "suites": ["propagate", "validate"],
        "output_dir": "out_here",
        "options": {"propagate": {"propagator": {"dt": 2.0e-3, "t_final": 0.1},
                                  "initial_state": {"center": 0.5}}},
    }
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(doc))
    cfg = load_config(str(path))
    assert cfg.family.name == "harmonic"
    assert cfg.grid.N == 64
    assert cfg.suite_options("propagate") == {"propagator": {"dt": 2.0e-3, "t_final": 0.1},
                                              "initial_state": {"center": 0.5}}
    assert cfg.suites == ("propagate", "validate")
    assert cfg.output_dir == "out_here"


def test_missing_file_and_bad_yaml(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "absent.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("family: [unclosed\n")
    with pytest.raises(ConfigError, match="parse"):
        load_config(str(bad))
    listy = tmp_path / "list.yaml"
    listy.write_text("- a\n- b\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(str(listy))


def test_empty_yaml_file_loads_the_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    assert load_config(str(path)) == from_mapping(None)
