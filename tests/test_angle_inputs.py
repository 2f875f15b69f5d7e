"""What an angle input may be, and what a bad one raises, word for word.

Every function that takes an angle judges it by ``linalg.require_angle``: an
int, a float or a numpy integer or floating (not a bool) that converts to a
finite float. A refusal names the argument, and an int or a numpy real gives
the bytes of the equal Python float.
"""

import math
import re

import numpy as np
import pytest

from switchsynth.linalg import (
    rotation,
    rotation_x,
    rotation_y,
    rotation_z,
    two_qubit_rotation,
)
from switchsynth.synthesis import barenco_matrix, preset_barenco


def spec_bytes(spec):
    return np.array([spec.alpha, spec.theta, *spec.axis, *spec.perp]).tobytes()


# (name of the argument, call with the angle in its place, bytes of the result)
ANGLE_TAKERS = {
    "rotation": ("theta", lambda a: rotation((0.6, 0.0, 0.8), a), np.ndarray.tobytes),
    "rotation_x": ("theta", rotation_x, np.ndarray.tobytes),
    "rotation_y": ("theta", rotation_y, np.ndarray.tobytes),
    "rotation_z": ("theta", rotation_z, np.ndarray.tobytes),
    "two_qubit_rotation": ("theta", lambda a: two_qubit_rotation((1, 0, 0), (0, 0.6, 0.8), a),
                           np.ndarray.tobytes),
    "barenco_matrix_alpha": ("alpha", lambda a: barenco_matrix(a, 0.7, 0.3), np.ndarray.tobytes),
    "barenco_matrix_phi": ("phi", lambda a: barenco_matrix(0.3, a, 0.3), np.ndarray.tobytes),
    "barenco_matrix_theta": ("theta", lambda a: barenco_matrix(0.3, 0.7, a), np.ndarray.tobytes),
    "preset_barenco_alpha": ("alpha", lambda a: preset_barenco(a, 0.7, 0.3), spec_bytes),
    "preset_barenco_phi": ("phi", lambda a: preset_barenco(0.3, a, 0.3), spec_bytes),
    "preset_barenco_theta": ("theta", lambda a: preset_barenco(0.3, 0.7, a), spec_bytes),
}

REFUSED_ANGLES = [
    ("1", "{} must be a real number, got '1'"),
    (None, "{} must be a real number, got None"),
    (True, "{} must be a real number, got True"),
    (math.nan, "{} must be finite, got nan"),
    (math.inf, "{} must be finite, got inf"),
    (10 ** 400, "{} must be finite, got inf"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("taker", sorted(ANGLE_TAKERS))
@pytest.mark.parametrize("angle,message", REFUSED_ANGLES,
                         ids=["str", "none", "bool", "nan", "inf", "huge_int"])
def test_a_bad_angle_is_refused_by_name(taker, angle, message):
    name, call, _ = ANGLE_TAKERS[taker]
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(name))}$") as info:
        call(angle)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("taker", sorted(ANGLE_TAKERS))
@pytest.mark.parametrize("angle", [1, -2, 7, np.int64(-3), np.float64(0.3),
                                   np.float32(0.3), np.float64(-2.5), np.float64(-0.0)])
def test_an_int_or_numpy_angle_gives_the_bytes_of_its_float(taker, angle):
    _, call, to_bytes = ANGLE_TAKERS[taker]
    assert to_bytes(call(angle)) == to_bytes(call(float(angle)))


@pytest.mark.filterwarnings("error")
def test_preset_barenco_negates_theta_as_given():
    # an int 0 negates to +0.0 and a float 0.0 to -0.0, as they always have,
    # and a numpy scalar as its Python number
    for theta, sign in [(0, 1.0), (0.0, -1.0), (np.int64(0), 1.0), (np.float64(0.0), -1.0),
                        (np.float64(-0.0), 1.0)]:
        assert math.copysign(1.0, preset_barenco(0.3, 0.7, theta).theta) == sign
    # the least np.int64 has no int64 negation: no overflow warning first
    with pytest.raises(ValueError, match=r"^\|theta\| must be at most 2\*\*20, got "):
        preset_barenco(0.3, 0.7, np.int64(-2 ** 63))
