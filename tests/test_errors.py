"""The one field check, over every float field of the validated dataclasses.

Each rejects nan, inf, -inf and an int past the float range, naming the field.
"""

import dataclasses
import math
import typing

import numpy as np
import pytest

from bracelearn.dataset import NormStats
from bracelearn.errors import ValidationError
from bracelearn.model import ModelConfig
from bracelearn.oracle import FORCE, BoucWenParams, LoadingProtocol, Series
from bracelearn.training import TrainConfig

VALID = (
    Series(dt=0.1, values=np.ones(3), unit=FORCE),
    LoadingProtocol(),
    BoucWenParams(),
    TrainConfig(),
    ModelConfig("m", 1, 1, 1),
    NormStats(mean_x=0.0, std_x=1.0, mean_y=0.0, std_y=1.0),
)

FLOAT_FIELDS = [
    (obj, f.name)
    for obj in VALID
    for f in dataclasses.fields(obj)
    if typing.get_type_hints(type(obj))[f.name] is float
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
@pytest.mark.parametrize(
    "obj, name", FLOAT_FIELDS, ids=[f"{type(o).__name__}.{n}" for o, n in FLOAT_FIELDS]
)
def test_float_field_rejects_non_finite(obj, name, value):
    with pytest.raises(ValidationError) as excinfo:
        dataclasses.replace(obj, **{name: value})
    assert excinfo.value.field == name


def test_the_walk_finds_float_fields():
    # ModelConfig has none; an unresolved annotation would leave the walk empty
    assert {type(obj) for obj, _ in FLOAT_FIELDS} == {type(obj) for obj in VALID} - {ModelConfig}


def test_integer_rule_takes_ints_past_the_float_range():
    assert TrainConfig(seed=10**400).seed == 10**400
