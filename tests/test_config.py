"""The shared JSON loader of the model, train and synth configs."""

import pytest

from pacn.augment import AugmentConfig
from pacn.errors import ConfigError
from pacn.model import PacnConfig
from pacn.synth import SynthSpec
from pacn.train import TrainConfig

CONFIGS = [
    PacnConfig(wiring_mode="serial", pre_pools=[[2, 2], [4, 1]]),
    TrainConfig(kd_lambda=0.5, augment=AugmentConfig(pitch_factors=(0.9, 1.1))),
    SynthSpec(classes=3, noise_level=0.1),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: type(c).__name__)
def test_json_file_loader(config, tmp_path):
    cls = type(config)
    assert cls.from_json(config.to_json()) == config

    good = tmp_path / "config.json"
    good.write_text(config.to_json(), encoding="utf-8")
    assert cls.from_file(good) == config

    with pytest.raises(ConfigError, match="bogus"):
        cls.from_json('{"bogus": 1}')

    bad = tmp_path / "bad.json"
    bad.write_bytes(config.to_json().encode("utf-8").replace(b"{", b"{\xff", 1))
    with pytest.raises(ConfigError, match="UTF-8") as info:
        cls.from_file(bad)
    assert str(bad) in str(info.value) and "byte 1" in str(info.value)
