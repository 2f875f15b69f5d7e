"""What a Bloch vector input may be, and what a bad one raises, word for word.

Every function that takes an axis (``unit_bloch``, ``bloch_dot``,
``rotation``, ``ControlledGateSpec``) validates it the same way; ints, lists
and numpy arrays are accepted, and a spec keeps its vectors as tuples of
Python floats.
"""

import math

import numpy as np
import pytest

import oracles
from oracles import same_bytes
from switchsynth.linalg import bloch_dot, rotation, unit_bloch
from switchsynth.synthesis import ControlledGateSpec


AXIS_TAKERS = {
    "unit_bloch": unit_bloch,
    "bloch_dot": bloch_dot,
    "rotation": lambda n: rotation(n, 0.3),
    "ControlledGateSpec": lambda n: ControlledGateSpec(alpha=0.1, theta=0.2, axis=n),
}

REFUSED_AXES = [
    ((1.0, 0.0), "axis must have exactly 3 components"),
    (np.array([[1.0], [0.0], [0.0]]), "axis must have exactly 3 components"),
    ("100", "axis must have exactly 3 components"),
    ((math.nan, 0.0, 0.0), "axis must be a unit vector, |axis|^2 = nan"),
    ((math.inf, 0.0, 0.0), "axis must be a unit vector, |axis|^2 = inf"),
    ((1.0, 1.0, 0.0), "axis must be a unit vector, |axis|^2 = 2.0"),
    ((0.5, 0.0, 0.0), "axis must be a unit vector, |axis|^2 = 0.25"),
    ("xyz", "could not convert string to float: 'xyz'"),
]


@pytest.mark.parametrize("taker", sorted(AXIS_TAKERS))
@pytest.mark.parametrize("axis,message", REFUSED_AXES)
def test_a_bad_axis_is_refused_with_its_message(taker, axis, message):
    with pytest.raises(ValueError) as info:
        AXIS_TAKERS[taker](axis)
    assert type(info.value) is ValueError
    assert str(info.value) == message


@pytest.mark.parametrize("perp,message", [
    ((0.0, 1.0, 1.0), "perp must be a unit vector, |perp|^2 = 2.0"),
    ((1.0, 0.0), "perp must have exactly 3 components"),
    ((0.0, 0.0, math.nan), "perp must be a unit vector, |perp|^2 = nan"),
    ((1.0, 0.0, 0.0), "perp must be orthogonal to axis"),
])
def test_a_bad_perp_is_refused_with_its_message(perp, message):
    with pytest.raises(ValueError) as info:
        ControlledGateSpec(alpha=0.1, theta=0.2, axis=(1.0, 0.0, 0.0), perp=perp)
    assert type(info.value) is ValueError
    assert str(info.value) == message


@pytest.mark.parametrize("axis", [(0, 0, 1), [0.0, 1.0, 0.0], [-1, 0, 0],
                                  np.array([1.0, 0.0, 0.0]), np.array([0, 0, -1]),
                                  np.array([0, 1, 0], dtype=np.float32)])
def test_ints_lists_and_arrays_are_accepted(axis):
    components = tuple(float(v) for v in np.asarray(axis, dtype=float))
    assert tuple(unit_bloch(axis).tolist()) == components
    assert same_bytes(bloch_dot(axis), oracles.numpy_bloch_dot(axis))
    assert same_bytes(rotation(axis, 0.3), oracles.numpy_rotation(axis, 0.3))
    spec = ControlledGateSpec(alpha=0.1, theta=0.2, axis=axis,
                              perp=None if components[2] == 0.0 else (0, 1, 0))
    assert spec.axis == components
    assert all(type(v) is float for v in spec.axis + spec.perp)
