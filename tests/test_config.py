"""RunConfig is the one place a setting is validated."""

import pytest

from hreb.config import DEFAULTS, RunConfig, parse_config
from hreb.errors import ConfigError


@pytest.mark.parametrize("key, value", [
    ("chunk_size", 0),
    ("attn_fn", "linear"),
    ("reduced_bias", "classic"),
    ("d_model", 8.0),
    ("h_lstm", True),
    ("chunk_size", 2.5),
    ("batch_norm_fidelity", 1),
])
def test_bad_encoder_setting_is_rejected_naming_its_key(key, value):
    with pytest.raises(ConfigError, match=key):
        RunConfig(**{key: value})


def test_z_dim_is_not_a_key():
    # z_dim could only be 0 or d_model, and both built the same model
    with pytest.raises(ConfigError, match="unknown config key 'z_dim'"):
        RunConfig(z_dim=0)


def test_int_stands_for_a_float():
    assert RunConfig(lr=1).lr == 1


FLOAT_KEYS = [key for key, (default, _) in DEFAULTS.items()
              if isinstance(default, float)]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_a_non_finite_float_is_rejected_naming_its_key(key, value):
    # nan fails every range comparison, so it must be refused on its own
    with pytest.raises(ConfigError, match=f"key '{key}': must be finite"):
        RunConfig(**{key: value})


def test_a_negative_seed_is_rejected():
    with pytest.raises(ConfigError, match="key 'seed': must be >= 0"):
        RunConfig(seed=-1)
    assert RunConfig(seed=0).seed == 0


@pytest.mark.parametrize("lines, message", [
    (["lr=0.1", "d_model=16", "lr=0.002"],
     "config line 3: key 'lr' is already set on line 1"),
    # the same value twice, after a comment and a blank line
    (["# run", "seed=1", "", "seed = 1  # again"],
     "config line 4: key 'seed' is already set on line 2"),
])
def test_a_key_set_twice_is_refused_naming_both_lines(lines, message):
    with pytest.raises(ConfigError) as e:
        parse_config(lines)
    assert str(e.value) == message
