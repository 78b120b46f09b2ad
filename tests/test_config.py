"""RunConfig is the one place a setting is validated."""

import pytest

from hreb.config import RunConfig
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
