import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from switchsynth.linalg import H, I2, X, Z, is_density_matrix, projector, tensor
from switchsynth.sampling import random_density, random_kraus_channel, random_unitary
from switchsynth.switch import (
    KrausChannel,
    _four_term_map,
    _orders_map,
    _require_state_stacks,
    choi_matrix,
    switch_channel,
    switch_channel_n,
    switch_unitary,
    uniform_control_state,
)

import oracles

PLUS_DM = np.full((2, 2), 0.5, dtype=complex)


def depolarizing(p):
    ops = [np.sqrt(1 - p) * I2,
           np.sqrt(p / 3) * X,
           np.sqrt(p / 3) * np.array([[0, -1j], [1j, 0]]),
           np.sqrt(p / 3) * Z]
    return KrausChannel(ops)


def test_kraus_channel_basics():
    chan = depolarizing(0.3)
    assert chan.dim == 2
    assert chan.input_dim == 2 and chan.output_dim == 2
    assert chan.rank == 4
    rho = projector(np.array([1.0, 0.0], dtype=complex))
    out = chan.apply(rho)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    assert is_density_matrix(out)
    # full depolarizing noise from the fixed point side
    assert_allclose(chan.apply(I2 / 2), I2 / 2, atol=1e-12)


def test_kraus_channel_from_unitary():
    chan = KrausChannel.from_unitary(H)
    assert chan.rank == 1
    rho = projector(np.array([1.0, 0.0], dtype=complex))
    assert_allclose(chan.apply(rho), PLUS_DM, atol=1e-14)
    with pytest.raises(ValueError):
        KrausChannel.from_unitary(1.1 * H)


def test_kraus_channel_validation():
    with pytest.raises(ValueError):
        KrausChannel([])
    with pytest.raises(ValueError):
        KrausChannel([np.ones((2, 3))])
    with pytest.raises(ValueError):
        KrausChannel([I2 / np.sqrt(2), np.eye(4) / np.sqrt(2)])
    with pytest.raises(ValueError):
        KrausChannel([0.5 * I2])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kraus_channel_refuses_non_finite_operators(bad):
    op = I2 / np.sqrt(2)
    op[0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        KrausChannel([op])
    with pytest.raises(ValueError, match="finite"):
        KrausChannel([I2 / np.sqrt(2), op])


@pytest.mark.parametrize("entry", [(1, 1), (0, 1)])
def test_switch_channels_refuse_a_non_finite_rho(entry):
    rho = np.array([[1, 0], [0, 0]], dtype=complex)
    rho[entry] = rho[entry[::-1]] = np.nan
    chan = KrausChannel.from_unitary(H)
    with pytest.raises(ValueError, match="rho is not a density matrix"):
        switch_channel(chan, chan, rho, PLUS_DM)
    with pytest.raises(ValueError, match="rho is not a density matrix"):
        switch_channel_n([chan, chan], rho)


def test_random_kraus_channel_is_complete():
    rng = np.random.default_rng(3)
    for rank in (1, 2, 3):
        chan = random_kraus_channel(rng, rank=rank)
        assert chan.rank == rank
        total = sum(k.conj().T @ k for k in chan.operators)
        assert np.linalg.norm(total - I2) < 1e-12


def test_switch_channel_matches_kraus_oracle():
    rng = np.random.default_rng(41)
    for _ in range(100):
        chan_a = random_kraus_channel(rng, rank=2)
        chan_b = random_kraus_channel(rng, rank=2)
        rho = random_density(rng, 2)
        omega = random_density(rng, 2)
        got = switch_channel(chan_a, chan_b, rho, omega)
        want = oracles.kraus_form_switch(chan_a.operators, chan_b.operators,
                                         rho, omega)
        assert np.linalg.norm(got - want) < 1e-12
        assert np.trace(got).real == pytest.approx(1.0, abs=1e-10)
        assert is_density_matrix(got, atol=1e-9)


def test_switch_channel_unitary_case_matches_pure_switch():
    rng = np.random.default_rng(43)
    for _ in range(50):
        a = random_unitary(rng, 2)
        b = random_unitary(rng, 2)
        rho = random_density(rng, 2)
        omega = random_density(rng, 2)
        got = switch_channel(KrausChannel.from_unitary(a),
                             KrausChannel.from_unitary(b), rho, omega)
        s = switch_unitary(a, b).matrix
        want = s @ tensor(rho, omega) @ s.conj().T
        assert np.linalg.norm(got - want) < 1e-12


def test_switch_channel_input_validation():
    chan = depolarizing(0.1)
    rho = I2 / 2
    with pytest.raises(ValueError):
        switch_channel(chan, chan, np.eye(2), rho)  # trace 2
    with pytest.raises(ValueError):
        switch_channel(chan, chan, rho, np.eye(4) / 4)  # control not a qubit


def test_switch_channel_interference_witness():
    # Two maximally depolarizing channels in superposed orders keep signal:
    # the control-conditioned target state depends on rho, which no definite
    # order composition of the two channels allows.
    chan = depolarizing(0.75)
    rho = projector(np.array([1.0, 0.0], dtype=complex))
    out = switch_channel(chan, chan, rho, PLUS_DM)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    proj_minus = tensor(I2, projector(minus))
    conditioned = proj_minus @ out @ proj_minus
    block = conditioned.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    p_minus = np.trace(block).real
    assert p_minus > 1e-3
    target = block / p_minus
    assert np.linalg.norm(target - I2 / 2) > 0.1
    # and in either definite order the output target state is fully mixed
    for omega in (projector(np.array([1.0, 0.0])), projector(np.array([0.0, 1.0]))):
        fixed = switch_channel(chan, chan, rho, np.asarray(omega, dtype=complex))
        marginal = fixed.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
        assert np.linalg.norm(marginal - I2 / 2) < 1e-12


def test_switch_channel_n_two_matches_pairwise_form():
    rng = np.random.default_rng(47)
    for _ in range(50):
        chan_a = random_kraus_channel(rng, rank=2)
        chan_b = random_kraus_channel(rng, rank=2)
        rho = random_density(rng, 2)
        omega = random_density(rng, 2)
        got = switch_channel_n([chan_a, chan_b], rho, omega)
        want = switch_channel(chan_a, chan_b, rho, omega)
        assert np.linalg.norm(got - want) < 1e-12


def test_switch_channel_n_single_operation():
    rng = np.random.default_rng(53)
    chan = random_kraus_channel(rng, rank=2)
    rho = random_density(rng, 2)
    out = switch_channel_n([chan], rho)
    assert_allclose(out, chan.apply(rho), atol=1e-12)


def test_switch_channel_n_three_operations():
    rng = np.random.default_rng(59)
    channels = [random_kraus_channel(rng, rank=2) for _ in range(3)]
    rho = random_density(rng, 2)
    out = switch_channel_n(channels, rho)
    assert out.shape == (12, 12)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
    assert is_density_matrix(out, atol=1e-9)


def test_switch_channel_n_definite_order_reduces_to_composition():
    # control in a permutation basis state: output is that ordering applied
    from itertools import permutations
    rng = np.random.default_rng(61)
    channels = [random_kraus_channel(rng, rank=2) for _ in range(3)]
    rho = random_density(rng, 2)
    orders = list(permutations(range(3)))
    for k, order in enumerate(orders):
        omega = np.zeros((6, 6), dtype=complex)
        omega[k, k] = 1.0
        out = switch_channel_n(channels, rho, omega)
        composed = rho
        # product reads left to right, so the rightmost factor acts first
        for wire in reversed(order):
            composed = channels[wire].apply(composed)
        marker = np.zeros((6, 6), dtype=complex)
        marker[k, k] = 1.0
        assert np.linalg.norm(out - tensor(composed, marker)) < 1e-12


def test_switch_channel_n_validation():
    rng = np.random.default_rng(67)
    chan = random_kraus_channel(rng, rank=1)
    rho = I2 / 2
    with pytest.raises(ValueError):
        switch_channel_n([], rho)
    with pytest.raises(ValueError):
        switch_channel_n([chan] * 5, rho)
    with pytest.raises(ValueError):
        switch_channel_n([chan, chan], rho, omega=np.eye(3) / 3)
    wide = random_kraus_channel(rng, dim=4, rank=1)
    with pytest.raises(ValueError, match="^all channels must share the target dimension$"):
        switch_channel_n([chan, wide], rho)


def test_uniform_control_state():
    omega = uniform_control_state(6)
    assert omega.shape == (6, 6)
    assert_allclose(omega, np.full((6, 6), 1 / 6), atol=1e-15)
    assert is_density_matrix(omega)


@pytest.mark.parametrize("num_orders", [1, 2, 3, 4, np.int64(3)])
def test_uniform_control_state_keeps_its_bytes(num_orders):
    n = int(num_orders)
    want = projector(np.full(n, 1.0 / np.sqrt(n), dtype=complex))
    assert uniform_control_state(num_orders).tobytes() == want.tobytes()


@pytest.mark.parametrize("num_orders,shown", [(0, "0"), (-1, "-1"), (2.5, "2.5"),
                                              (True, "True")])
def test_uniform_control_state_refuses_a_count_below_one_or_not_an_integer(num_orders, shown):
    with pytest.raises(ValueError, match=f"^num_orders must be a positive integer, "
                                         f"got {shown}$"):
        uniform_control_state(num_orders)


def test_choi_matrix_of_identity_and_unitary():
    choi = choi_matrix(lambda m: m, 2)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0
    assert_allclose(choi, np.outer(bell, bell.conj()), atol=1e-15)
    rng = np.random.default_rng(71)
    u = random_unitary(rng, 2)
    choi_u = choi_matrix(lambda m: u @ m @ u.conj().T, 2)
    values = np.linalg.eigvalsh(choi_u)
    assert values[-1] == pytest.approx(2.0, abs=1e-12)
    assert np.all(values[:-1] < 1e-12)


@pytest.mark.parametrize("input_dim", [0, -1])
def test_choi_matrix_refuses_an_input_dimension_below_one(input_dim):
    with pytest.raises(ValueError, match=f"input_dim must be at least 1, "
                                         f"got {input_dim}"):
        choi_matrix(lambda m: m, input_dim)


def test_choi_matrix_of_switch_map_is_positive():
    rng = np.random.default_rng(73)
    omega = PLUS_DM
    for _ in range(20):
        chan_a = random_kraus_channel(rng, rank=2)
        chan_b = random_kraus_channel(rng, rank=2)

        def supermap(m):
            return oracles.kraus_form_switch(chan_a.operators, chan_b.operators,
                                             m, omega)

        choi = choi_matrix(supermap, 2)
        values = np.linalg.eigvalsh(choi)
        assert values[0] > -1e-9
        assert np.trace(choi).real == pytest.approx(2.0, abs=1e-10)


# Signed zeros in the operators and in rho: the stacked routes must leave the
# same +0.0 entries as the Kronecker loop's zero start.
SIGNED_ZERO_Z = np.array([[1, -0.0], [-0.0, -1]], dtype=complex)
SIGNED_ZERO_RHO = np.array([[1, -0.0], [-0.0, 0]], dtype=complex)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_switch_channel_n_is_the_kronecker_loop_bitwise(n, dim):
    rng = np.random.default_rng(100 * n + dim)
    for rank in range(1, 5):
        # wire w has rank (rank + w - 1) % 4 + 1, so every rank 1-4 shows
        channels = [random_kraus_channel(rng, dim, (rank + w - 1) % 4 + 1)
                    for w in range(n)]
        rho = random_density(rng, dim)
        orders = math.factorial(n)
        for omega in (None, random_density(rng, orders)):
            got = switch_channel_n(channels, rho, omega)
            want = oracles.kronecker_switch_channel_n(
                channels, rho,
                uniform_control_state(orders) if omega is None else omega)
            assert got.tobytes() == want.tobytes()
    signed = [KrausChannel([SIGNED_ZERO_Z])] * n
    assert (switch_channel_n(signed, SIGNED_ZERO_RHO).tobytes()
            == oracles.kronecker_switch_channel_n(
                signed, SIGNED_ZERO_RHO, uniform_control_state(orders)).tobytes())


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_four_term_map_and_its_choi_matrix_are_the_kronecker_loop_bitwise(dim):
    rng = np.random.default_rng(200 + dim)
    for rank_a in range(1, 5):
        for rank_b in range(1, 5):
            ops_a = random_kraus_channel(rng, dim, rank_a).operators
            ops_b = random_kraus_channel(rng, dim, rank_b).operators
            rho = random_density(rng, dim)
            omega = random_density(rng, 2)
            got = _four_term_map(ops_a, ops_b, rho, omega)
            want = oracles.kronecker_four_term_map(ops_a, ops_b, rho, omega)
            assert got.tobytes() == want.tobytes()
            choi = choi_matrix(lambda m: _four_term_map(ops_a, ops_b, m, omega), dim)
            want = choi_matrix(
                lambda m: oracles.kronecker_four_term_map(ops_a, ops_b, m, omega), dim)
            assert choi.tobytes() == want.tobytes()
    ops = (SIGNED_ZERO_Z,)
    assert (_four_term_map(ops, ops, SIGNED_ZERO_RHO, SIGNED_ZERO_RHO).tobytes()
            == oracles.kronecker_four_term_map(ops, ops, SIGNED_ZERO_RHO,
                                               SIGNED_ZERO_RHO).tobytes())


@pytest.mark.parametrize("input_dim", [2.0, 1.5, True, np.float64(2.0), "2", None])
def test_choi_matrix_refuses_an_input_dimension_that_is_not_an_integer(input_dim):
    with pytest.raises(ValueError, match=re.escape(
            f"input_dim must be an integer, got {input_dim!r}")):
        choi_matrix(lambda m: m, input_dim)


def test_choi_matrix_takes_a_numpy_integer_dimension():
    assert_allclose(choi_matrix(lambda m: m, np.int64(2)),
                    choi_matrix(lambda m: m, 2), atol=0)


# states that fail (or pass) the density check in every way a caller can
# hand one over, for a channel pair on one qubit
_STATES = {
    "good": I2 / 2,
    "nan": np.array([[0.5, np.nan], [np.nan, 0.5]]),
    "inf": np.array([[1.0, 0.0], [0.0, np.inf]]),
    "not_hermitian": np.array([[0.5, 0.5], [-0.5, 0.5]]),
    "trace_two": np.eye(2),
    "negative": np.array([[1.5, 0.0], [0.0, -0.5]]),
    "not_square": np.full((2, 3), 0.5),
    "vector": np.array([1.0, 0.0]),
    "stack_of_one": (I2 / 2)[None],
    "four_dim": np.eye(4) / 4,
    "three_dim": uniform_control_state(3),
}


def _first_fault(form, rho, omega):
    """The message each form raised before one check covered both states:
    rho's density check, then (switch_channel_n only) its dimension, then
    omega's density check, then the remaining dimension checks."""
    if not oracles.single_density_check(rho):
        return "rho is not a density matrix"
    if form == "n" and rho.shape[0] != 2:
        return "rho dimension must match the channels"
    if not oracles.single_density_check(omega):
        return "omega is not a density matrix"
    if form == "two" and rho.shape[0] != 2:
        return "channel dimensions must match rho"
    if omega.shape != (2, 2):
        return ("control omega must be a qubit state" if form == "two"
                else "control omega must have dimension 2")
    return None


@pytest.mark.parametrize("rho_kind", list(_STATES))
def test_switch_channels_name_the_first_bad_state(rho_kind):
    chan = KrausChannel.from_unitary(H)
    rho = _STATES[rho_kind]
    for omega_kind, omega in _STATES.items():
        for form, run in (("two", lambda: switch_channel(chan, chan, rho, omega)),
                          ("n", lambda: switch_channel_n([chan, chan], rho, omega))):
            want = _first_fault(form, rho, omega)
            if want is None:
                assert run().shape == (4, 4), (form, omega_kind)
                continue
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                run()
    # the default control state is the library's own; only rho is judged
    want = _first_fault("n", rho, uniform_control_state(2))
    if want is None:
        assert switch_channel_n([chan, chan], rho).shape == (4, 4)
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            switch_channel_n([chan, chan], rho)


def test_kraus_channel_keeps_one_read_only_copy_of_its_operators():
    ops = np.stack([I2 / np.sqrt(2), X / np.sqrt(2)])
    rows = [ops[0].copy(), ops[1].copy()]
    for given in (ops, rows, tuple(rows)):
        chan = KrausChannel(given)
        assert chan.stack.shape == (2, 2, 2) and not chan.stack.flags.writeable
        assert len(chan.operators) == chan.rank == 2
        for op, row in zip(chan.operators, chan.stack):
            assert np.shares_memory(op, chan.stack) and not op.flags.writeable
            assert op.tobytes() == row.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            chan.operators[0][0, 0] = 2.0
        before = chan.stack.copy()
        ops[0, 0, 0] = rows[0][0, 0] = 7.0  # the caller's arrays change ...
        assert chan.stack.tobytes() == before.tobytes()  # ... the channel's do not
        assert chan.operators[0].tobytes() == before[0].tobytes()
        ops[0, 0, 0] = rows[0][0, 0] = 1 / np.sqrt(2)


def test_kraus_channel_messages_keep_their_order():
    good = I2 / np.sqrt(2)
    nan = good.copy()
    nan[0, 1] = np.nan
    wide = np.ones((2, 3))
    square = re.escape("Kraus operator must be square, got shape (2, 3)")
    cases = [
        ([], "a channel needs at least one Kraus operator"),
        ([wide, nan], square),
        ([nan, wide], "Kraus operators must be finite"),
        ([good, wide], square),
        ([good, np.eye(4), nan], "Kraus operators must share one dimension"),
        ([good, nan, np.eye(4)], "Kraus operators must be finite"),
        ([nan], "Kraus operators must be finite"),  # before completeness
        ([0.5 * I2], "Kraus operators do not satisfy completeness"),
        ([good, good, good], "Kraus operators do not satisfy completeness"),
    ]
    for ops, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            KrausChannel(ops)


def _batch(trials):
    """Kraus stacks (rank, trials, d, d) per wire, rhos and omegas of
    same-rank (channels, rho, omega) trials."""
    stacks = [np.asarray([chans[w].stack for chans, _, _ in trials]).swapaxes(0, 1)
              for w in range(len(trials[0][0]))]
    return (stacks, np.asarray([rho for _, rho, _ in trials]),
            np.asarray([omega for _, _, omega in trials]))


# the channels bench's shapes: N = 2 at dims 2-4, N = 3 at dims 2-4, N = 4 at
# dim 2, with every Kraus rank 1-4 on some wire
@pytest.mark.parametrize("n,dim", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2)])
def test_one_item_channel_maps_are_rows_of_a_batched_call_bitwise(n, dim):
    rng = np.random.default_rng(300 + 10 * n + dim)
    orders = math.factorial(n)
    for rank in range(1, 5):
        ranks = [(rank + w - 1) % 4 + 1 for w in range(n)]
        trials = [([random_kraus_channel(rng, dim, r) for r in ranks],
                   random_density(rng, dim), random_density(rng, orders))
                  for _ in range(3)]
        stacks, rhos, omegas = _batch(trials)
        for row, (chans, rho, omega) in zip(_orders_map(stacks, rhos, omegas), trials):
            assert row.tobytes() == switch_channel_n(chans, rho, omega).tobytes()
        if n == 2:
            for row, (chans, rho, omega) in zip(_four_term_map(*stacks, rhos, omegas),
                                                trials):
                assert row.tobytes() == switch_channel(*chans, rho, omega).tobytes()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("which", ["rho", "omega"])
@pytest.mark.parametrize("kind", ["nan", "inf", "not_hermitian", "trace_two", "negative"])
def test_a_stack_with_a_bad_state_raises_the_single_calls_message(n, which, kind):
    rng = np.random.default_rng(17)
    chans = [random_kraus_channel(rng, 2, 2) for _ in range(n)]
    rhos = np.asarray([random_density(rng, 2) for _ in range(4)])
    omegas = np.asarray([random_density(rng, math.factorial(n)) for _ in range(4)])
    _require_state_stacks(rhos, omegas)  # all good: no error
    stack = {"rho": rhos, "omega": omegas}[which]
    stack[2] = 0.0
    stack[2, :2, :2] = _STATES[kind]  # the bad 2 x 2 state, padded with zeros
    rhos[3] = _STATES["trace_two"]  # a later bad trial does not name itself
    with pytest.raises(ValueError) as caught:
        switch_channel_n(chans, rhos[2], omegas[2])
    assert str(caught.value) == f"{which} is not a density matrix"
    message = f"^{re.escape(str(caught.value))}$"
    with pytest.raises(ValueError, match=message):
        _require_state_stacks(rhos, omegas)
    if n == 2:
        with pytest.raises(ValueError, match=message):
            switch_channel(*chans, rhos[2], omegas[2])


@pytest.mark.parametrize("rho_kind", list(_STATES))
def test_each_channel_call_judges_each_state_once(monkeypatch, rho_kind):
    from switchsynth import linalg, switch

    decisions = []

    def counting(rho, *args, **kwargs):
        verdict = is_density_matrix(rho, *args, **kwargs)
        decisions.append(1 if isinstance(verdict, bool) else len(verdict))
        return verdict

    monkeypatch.setattr(switch, "is_density_matrix", counting)
    monkeypatch.setattr(linalg, "is_density_matrix", counting)
    chan = KrausChannel.from_unitary(H)
    rho = _STATES[rho_kind]
    calls = [(f"n-{kind}", lambda omega=omega: switch_channel_n([chan, chan], rho, omega))
             for kind, omega in _STATES.items()]
    calls += [(f"two-{kind}", lambda omega=omega: switch_channel(chan, chan, rho, omega))
              for kind, omega in _STATES.items()]
    calls.append(("n-default", lambda: switch_channel_n([chan, chan], rho)))
    for name, run in calls:
        states = 1 if name == "n-default" else 2
        decisions.clear()
        try:
            run()
        except ValueError:
            # a failing call judges a 2-D rho (any other shape is refused as
            # it stands), and omega at most once
            assert (rho.ndim == 2) <= sum(decisions) <= states, name
        else:
            assert sum(decisions) == states, name


def test_switch_channel_refuses_a_missing_omega():
    # None is the library's own control state only for switch_channel_n
    chan = KrausChannel.from_unitary(H)
    with pytest.raises(ValueError, match="^omega is not a density matrix$"):
        switch_channel(chan, chan, I2 / 2, None)
