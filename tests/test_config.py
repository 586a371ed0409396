"""Every field of the six config classes declares a kind that refuses values of the wrong type."""

from dataclasses import fields

import pytest

from mhctc.alphabet import LabelAlphabet
from mhctc.audio import SynthConfig
from mhctc.decode import DecodeConfig
from mhctc.errors import ConfigError, Kind
from mhctc.features import FeatureConfig
from mhctc.model import ModelConfig, TrainConfig
from mhctc.pipeline import ExperimentPlan

# the fields without a default, at valid values
REQUIRED = {
    ModelConfig: dict(feat_dim=48, n_outputs=6),
    SynthConfig: dict(alphabet=LabelAlphabet(tuple("abcde"))),
}
CONFIGS = (ExperimentPlan, SynthConfig, TrainConfig, ModelConfig, DecodeConfig, FeatureConfig)
FIELDS = [(cls, f) for cls in CONFIGS for f in fields(cls)]


def wrong_values(kind, default):
    """A bool, a string for a number, a list for a scalar and a scalar for a list."""
    if kind.many:
        return [True, 3, "x", [True], ["3"], [[0]]]
    number = isinstance(default, (int, float))
    return [True, [default], () if number else 3, "3" if number else 3.5]


@pytest.mark.parametrize("cls,field", FIELDS, ids=[f"{c.__name__}.{f.name}" for c, f in FIELDS])
def test_every_config_field_refuses_the_wrong_type(cls, field):
    kinds = getattr(field.type, "__metadata__", ())
    assert len(kinds) == 1 and isinstance(kinds[0], Kind), f"{field.name} declares no kind"
    valid = cls(**REQUIRED.get(cls, {}))
    for value in wrong_values(kinds[0], getattr(valid, field.name)):
        with pytest.raises(ConfigError, match=f"^{field.name} must be "):
            cls(**dict(REQUIRED.get(cls, {}), **{field.name: value}))
