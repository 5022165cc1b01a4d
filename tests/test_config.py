"""YAML experiment configuration: defaults, validation, round trips."""

import pytest
import yaml

from polyschro import load_config
from polyschro.config import SUITE_NAMES, from_mapping
from polyschro.errors import ConfigError


def test_defaults():
    cfg = load_config(None)
    assert cfg.family.name == "confined_quartic"
    assert cfg.interaction.name == "soft_pair"
    assert cfg.grid.d == 1 and cfg.grid.L == 10.0 and cfg.grid.N == 512
    assert cfg.suites == SUITE_NAMES
    assert len(cfg.suites) == 8
    assert cfg.seed == 20260814
    assert cfg.rho == 0.0
    assert cfg.output_dir == "polyschro_out"


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
        from_mapping({"grid": {"d": 1, "points": 64}})


def test_bad_grid_values_reported_under_grid():
    with pytest.raises(ConfigError, match="grid"):
        from_mapping({"grid": {"N": 7}})


@pytest.mark.parametrize("block", [
    {"dtt": 1.0e-3},                  # misspelled field
    {"use_preconditioner": False},    # a field that no longer exists
    {"solver_tol": 0},
    {"dt": 1.0e-3, "t_final": 1.0005},
])
def test_bad_propagator_block_rejected_at_load(block):
    with pytest.raises(ConfigError, match="^propagator: "):
        from_mapping({"propagator": block})


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


def test_seed_must_be_integer():
    with pytest.raises(ConfigError, match="seed"):
        from_mapping({"seed": "lucky"})
    assert from_mapping({"seed": 7}).seed == 7


def test_initial_state_keys_validated():
    cfg = from_mapping({"initial_state": {"center": 1.0, "width": 0.8,
                                          "momentum": 0.5}})
    assert cfg.initial_state["width"] == 0.8
    with pytest.raises(ConfigError, match="initial_state"):
        from_mapping({"initial_state": {"wavelength": 2.0}})


def test_suite_options_sections_validated():
    cfg = from_mapping({"options": {"parametrix": {"N": 64}}})
    assert cfg.suite_options("parametrix") == {"N": 64}
    assert cfg.suite_options("commutator") == {}
    with pytest.raises(ConfigError, match="options"):
        from_mapping({"options": {"spectra": {}}})
    with pytest.raises(ConfigError, match="options.parametrix"):
        from_mapping({"options": {"parametrix": 3}})


def test_yaml_file_round_trip(tmp_path):
    doc = {
        "family": "harmonic",
        "grid": {"d": 1, "L": 8.0, "N": 64},
        "propagator": {"dt": 2.0e-3, "t_final": 0.1},
        "initial_state": {"center": 0.5},
        "suites": ["propagate", "validate"],
        "seed": 99,
        "output_dir": "out_here",
    }
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(doc))
    cfg = load_config(str(path))
    assert cfg.family.name == "harmonic"
    assert cfg.grid.N == 64
    assert cfg.propagator == {"dt": 2.0e-3, "t_final": 0.1}
    assert cfg.suites == ("propagate", "validate")
    assert cfg.seed == 99
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
