import numpy as np
import pytest

from switchsynth.sampling import random_state, random_states


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 7, 42, 2024])
def test_random_states_draw_the_stream_of_successive_random_state_calls(
        num_qubits, seed):
    count = 9
    stacked = random_states(np.random.default_rng(seed), num_qubits, count)
    rng = np.random.default_rng(seed)
    one_by_one = np.array([random_state(rng, num_qubits) for _ in range(count)])
    assert stacked.shape == (count, 2 ** num_qubits)
    assert stacked.tobytes() == one_by_one.tobytes()
    # and the bits of the original one-state draw, normalized by np.linalg.norm
    rng = np.random.default_rng(seed)
    dim = 2 ** num_qubits
    for row in stacked:
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        assert row.tobytes() == (v / np.linalg.norm(v)).tobytes()


def test_random_states_are_normalized():
    states = random_states(np.random.default_rng(3), 3, 50)
    assert np.allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-14)
