import re

import numpy as np
import pytest

from oracles import numpy_kraus_stack, numpy_random_density, same_bytes
from switchsynth.sampling import (
    _kraus_from,
    _wishart,
    random_density,
    random_kraus_channel,
    random_state,
    random_states,
    random_unitary,
)


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


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_stacked_kraus_kernel_is_rows_of_one_item_calls_bitwise(dim, rank):
    parts = np.random.default_rng(10 * dim + rank).standard_normal((6, 2, rank * dim, dim))
    stacked = _kraus_from(parts, rank)
    assert stacked.shape == (6, rank, dim, dim)
    for row, one in zip(stacked, parts):
        assert same_bytes(row, _kraus_from(one, rank))
    # and with two leading axes
    assert same_bytes(_kraus_from(parts.reshape(2, 3, 2, rank * dim, dim), rank),
                      stacked.reshape(2, 3, rank, dim, dim))


@pytest.mark.parametrize("dim", [2, 4])
def test_stacked_wishart_kernel_is_rows_of_one_item_calls_bitwise(dim):
    parts = np.random.default_rng(dim).standard_normal((6, 2, dim, dim))
    stacked = _wishart(parts)
    assert stacked.shape == (6, dim, dim)
    for row, one in zip(stacked, parts):
        assert same_bytes(row, _wishart(one))


@pytest.mark.parametrize("dim", [1, 2, 4])
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_random_density_is_the_two_call_draw(dim, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(4):
        assert same_bytes(random_density(rng, dim), numpy_random_density(oracle_rng, dim))
    assert rng.random() == oracle_rng.random()


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_random_kraus_channel_is_the_two_call_draw(dim, rank):
    rng, oracle_rng = np.random.default_rng(rank), np.random.default_rng(rank)
    for _ in range(4):
        assert same_bytes(random_kraus_channel(rng, dim, rank).stack,
                          numpy_kraus_stack(oracle_rng, dim, rank))
    assert rng.random() == oracle_rng.random()


def _draw(sampler, *sizes):
    return sampler(np.random.default_rng(0), *sizes)


@pytest.mark.parametrize("sampler,sizes,message", [
    (random_state, (-1,), "num_qubits must be an integer from 0 to 20, got -1"),
    (random_state, (True,), "num_qubits must be an integer from 0 to 20, got True"),
    (random_state, (21,), "num_qubits must be an integer from 0 to 20, got 21"),
    (random_state, (1.0,), "num_qubits must be an integer from 0 to 20, got 1.0"),
    (random_states, (1, -1), "count must be an integer of at least 0, got -1"),
    (random_states, (1, 2.0), "count must be an integer of at least 0, got 2.0"),
    (random_states, (-1, 2), "num_qubits must be an integer from 0 to 20, got -1"),
    (random_density, (0,), "dim must be an integer of at least 1, got 0"),
    (random_density, (False,), "dim must be an integer of at least 1, got False"),
    (random_unitary, (0,), "dim must be an integer of at least 1, got 0"),
    (random_unitary, ("2",), "dim must be an integer of at least 1, got '2'"),
    (random_kraus_channel, (0, 2), "dim must be an integer of at least 1, got 0"),
    (random_kraus_channel, (2, 0), "rank must be an integer of at least 1, got 0"),
    (random_kraus_channel, (2, None), "rank must be an integer of at least 1, got None"),
])
def test_samplers_refuse_a_size_by_name(sampler, sizes, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _draw(sampler, *sizes)


def test_samplers_take_the_smallest_sizes_and_numpy_integers():
    assert _draw(random_state, 0).shape == (1,)
    assert _draw(random_states, 2, 0).shape == (0, 4)
    assert _draw(random_density, 1).shape == (1, 1)
    assert _draw(random_unitary, 1).shape == (1, 1)
    assert _draw(random_kraus_channel, 1, 1).stack.shape == (1, 1, 1)
    assert same_bytes(_draw(random_states, np.int64(2), np.uint8(3)), _draw(random_states, 2, 3))
    assert same_bytes(_draw(random_kraus_channel, np.int32(2), np.int64(3)).stack,
                      _draw(random_kraus_channel, 2, 3).stack)
