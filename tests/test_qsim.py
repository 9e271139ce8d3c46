"""Statevector engine: layouts, preparation, controlled powers, QFT,
reflections, and seeded measurement."""

import numpy as np
import pytest

from qarm import QubitBudgetError, RegisterLayout, Statevector
from qarm.qsim import (
    apply_controlled_power,
    inject_state,
    inverse_qft,
    measure,
    prepare_uniform,
    register_marginal,
    reflect_about_state,
    sample_counts,
)


def small_layout(*regs):
    return RegisterLayout(list(regs))


def random_state(layout, rng) -> Statevector:
    amps = rng.standard_normal(np.prod(layout.dims)) * 1.0
    amps = amps + 1j * rng.standard_normal(amps.size)
    amps /= np.linalg.norm(amps)
    state = Statevector.zero(layout)
    state.amps[:] = amps
    return state


def random_unitary(dim, rng) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_layout_geometry():
    layout = small_layout(("a", 2), ("b", 3), ("c", 1))
    assert layout.names == ("a", "b", "c")
    assert layout.dims == (4, 8, 2)
    assert layout.width("b") == 3
    assert layout.axis("c") == 2
    assert layout.shift("a") == 4  # a is most significant
    assert layout.basis_index({"a": 1, "b": 5, "c": 0}) == (1 << 4) + (5 << 1)


def test_layout_rejects_duplicates_and_budget():
    with pytest.raises(ValueError):
        small_layout(("a", 1), ("a", 2))
    with pytest.raises(ValueError):
        small_layout(("a", 0))
    # the cap is the widest state of 16-byte amplitudes within LEVEL_BYTES
    with pytest.raises(QubitBudgetError, match="27 qubits .* but the cap is 26"):
        RegisterLayout([("a", 27)])
    assert RegisterLayout([("a", 26)]).dims == (1 << 26,)


def test_prepare_uniform_cases():
    layout = small_layout(("r", 2))
    state = prepare_uniform(Statevector.zero(layout), "r", 4)
    assert np.allclose(state.amps, 0.5)

    layout = small_layout(("r", 3))
    state = prepare_uniform(Statevector.zero(layout), "r", 5)
    expect = np.zeros(8)
    expect[:5] = 1 / np.sqrt(5)
    assert np.allclose(state.amps, expect)

    state = prepare_uniform(Statevector.zero(layout), "r", 1)
    assert state.amps[0] == 1.0


def test_prepare_uniform_preconditions():
    layout = small_layout(("r", 2))
    with pytest.raises(ValueError):
        prepare_uniform(Statevector.zero(layout), "r", 5)
    occupied = Statevector.basis_state(layout, {"r": 1})
    with pytest.raises(ValueError):
        prepare_uniform(occupied, "r", 2)


def test_inject_state_and_marginals():
    layout = small_layout(("idx", 2), ("item", 2))
    state = inject_state(Statevector.zero(layout), "idx",
                         np.array([0, 0, 1.0, 0]))
    assert state.amplitude({"idx": 2, "item": 0}) == 1.0

    # paired (index, pattern) amplitudes: entangled, uniform populations
    pairs = [(0, 3), (1, 0), (2, 1)]
    vec = np.zeros(16, dtype=complex)
    for j, pattern in pairs:
        vec[j * 4 + pattern] = 1 / np.sqrt(3)
    state = inject_state(Statevector.zero(layout), ["idx", "item"], vec)
    marg = register_marginal(state, "idx")
    assert np.allclose(marg, [1 / 3, 1 / 3, 1 / 3, 0])
    for j, pattern in pairs:
        assert abs(state.amplitude({"idx": j, "item": pattern})) > 0.5


def test_inject_state_preconditions():
    layout = small_layout(("idx", 1), ("item", 1))
    with pytest.raises(ValueError):
        inject_state(Statevector.zero(layout), "idx", np.array([0.5, 0.5]))
    occupied = Statevector.basis_state(layout, {"item": 1})
    with pytest.raises(ValueError):
        inject_state(occupied, "item", np.array([1.0, 0]))


def counting_step(u, calls):
    """U as the callable form of apply_controlled_power: it acts on the
    last register and records one call per application."""
    def step(block):
        calls.append(1)
        block[...] = block @ u.T
    return step


def test_controlled_power_trivial_cases():
    layout = small_layout(("c", 1), ("t", 1))
    x_gate = np.array([[0, 1], [1, 0]], dtype=complex)
    calls = []

    state = Statevector.zero(layout)  # control |0>
    before = state.amps.copy()
    apply_controlled_power(state, ("c", 0), counting_step(x_gate, calls), 2)
    assert np.array_equal(state.amps, before)
    assert len(calls) == 2

    state = Statevector.basis_state(layout, {"c": 1})
    apply_controlled_power(state, ("c", 0), counting_step(x_gate, calls), 2)
    assert state.amplitude({"c": 1, "t": 0}) == 1.0  # X^2 = I
    apply_controlled_power(state, ("c", 0), counting_step(x_gate, calls), 1)
    assert state.amplitude({"c": 1, "t": 1}) == 1.0
    apply_controlled_power(state, ("c", 0), counting_step(x_gate, calls), 0)
    assert state.amplitude({"c": 1, "t": 1}) == 1.0
    assert len(calls) == 5


def test_controlled_power_phase_kickback():
    phi = 0.731
    u = np.diag([1.0, np.exp(1j * phi)])
    for p in (0, 1, 2, 3):
        layout = small_layout(("c", 1), ("t", 1))
        state = Statevector.zero(layout)
        state.amps[:] = 0
        # control |+>, target |1>
        state.amps[layout.basis_index({"c": 0, "t": 1})] = 1 / np.sqrt(2)
        state.amps[layout.basis_index({"c": 1, "t": 1})] = 1 / np.sqrt(2)
        calls = []
        apply_controlled_power(state, ("c", 0), counting_step(u, calls), 1 << p)
        got = state.amplitude({"c": 1, "t": 1}) / state.amplitude({"c": 0, "t": 1})
        assert abs(got - np.exp(1j * (1 << p) * phi)) < 1e-12
        assert len(calls) == 1 << p


def test_controlled_power_matches_dense_matrix():
    rng = np.random.default_rng(13)
    layout = small_layout(("pre", 1), ("c", 2), ("t", 2))
    u = random_unitary(4, rng)
    for power in (1, 2, 4, 8):
        state = random_state(layout, rng)
        ref = state.amps.copy().reshape(2, 2, 2, 4)
        calls = []
        apply_controlled_power(state, ("c", 1), counting_step(u, calls), power)
        # control bit 1 of register c is its high bit: c values 2 and 3
        powered = np.linalg.matrix_power(u, power)
        ref[:, 1, :, :] = ref[:, 1, :, :] @ powered.T
        assert np.max(np.abs(state.amps - ref.ravel())) < 1e-12
        assert len(calls) == power


def test_controlled_power_rejects_bad_input():
    layout = small_layout(("c", 1), ("t", 1))
    state = Statevector.zero(layout)
    step = counting_step(np.eye(2), [])
    with pytest.raises(ValueError):
        apply_controlled_power(state, ("c", 5), step, 1)
    with pytest.raises(ValueError):
        apply_controlled_power(state, ("c", 0), step, -1)


def test_inverse_qft_uniform_and_grid_phase():
    t = 3
    big_t = 8
    layout = small_layout(("est", t))
    state = prepare_uniform(Statevector.zero(layout), "est", big_t)
    inverse_qft(state, "est")
    assert abs(state.amplitude({"est": 0}) - 1.0) < 1e-12

    state = Statevector.zero(layout)
    y = np.arange(big_t)
    state.amps[:] = np.exp(2j * np.pi * 3 * y / big_t) / np.sqrt(big_t)
    inverse_qft(state, "est")
    assert abs(abs(state.amplitude({"est": 3})) - 1.0) < 1e-12


def test_inverse_qft_matches_dense_and_unitary():
    rng = np.random.default_rng(3)
    layout = small_layout(("pad", 1), ("est", 3))
    grid = np.arange(8)
    fourier = np.exp(2j * np.pi * np.outer(grid, grid) / 8) / np.sqrt(8)
    f_dag = fourier.conj().T
    state = random_state(layout, rng)
    original = state.amps.copy()
    expect = original.reshape(2, 8) @ f_dag.T
    inverse_qft(state, "est")
    assert np.max(np.abs(state.amps - expect.ravel())) < 1e-12
    # the dense forward transform must undo it exactly
    back = (state.amps.reshape(2, 8) @ fourier.T).ravel()
    assert np.max(np.abs(back - original)) < 1e-12


def test_reflect_about_state_properties():
    rng = np.random.default_rng(23)
    layout = small_layout(("a", 2), ("b", 1))
    psi = random_state(layout, rng)

    same = psi.copy()
    reflect_about_state(same, psi)
    assert np.max(np.abs(same.amps - psi.amps)) < 1e-12

    # orthogonal state flips sign
    other = random_state(layout, rng)
    other.amps -= np.vdot(psi.amps, other.amps) * psi.amps
    other.amps /= np.linalg.norm(other.amps)
    flipped = other.copy()
    reflect_about_state(flipped, psi)
    assert np.max(np.abs(flipped.amps + other.amps)) < 1e-12

    # double reflection is the identity
    twice = other.copy()
    reflect_about_state(twice, psi)
    reflect_about_state(twice, psi)
    assert np.max(np.abs(twice.amps - other.amps)) < 1e-12


def test_reflect_layout_mismatch():
    a = Statevector.zero(small_layout(("a", 1)))
    b = Statevector.zero(small_layout(("b", 2)))
    a.amps[0] = b.amps[0] = 1.0
    with pytest.raises(ValueError):
        reflect_about_state(a, b)


def test_measure_deterministic_and_collapse():
    layout = small_layout(("r", 3), ("s", 1))
    state = Statevector.basis_state(layout, {"r": 5, "s": 1})
    outcomes, state = measure(state, ["r"], np.random.default_rng(0))
    assert outcomes == {"r": 5}
    assert state.amplitude({"r": 5, "s": 1}) == 1.0


def test_measure_conditional_marginal():
    rng = np.random.default_rng(31)
    layout = small_layout(("a", 2), ("b", 2))
    state = random_state(layout, rng)
    joint = np.abs(state.amps.reshape(4, 4)) ** 2
    outcomes, collapsed = measure(state, ["a"], rng)
    a = outcomes["a"]
    conditional = joint[a] / joint[a].sum()
    assert np.allclose(register_marginal(collapsed, "b"), conditional)
    assert np.allclose(register_marginal(collapsed, "a"),
                       np.eye(4)[a])


def test_measure_zero_weight_errors():
    layout = small_layout(("r", 1))
    state = Statevector.zero(layout)
    state.amps[:] = 0
    with pytest.raises(ValueError):
        measure(state, ["r"], np.random.default_rng(0))


def test_measurement_frequencies_uniform():
    layout = small_layout(("r", 2))
    state = prepare_uniform(Statevector.zero(layout), "r", 4)
    counts = sample_counts(state, ["r"], 100_000, np.random.default_rng(42))
    freqs = counts / 100_000
    assert np.all(np.abs(freqs - 0.25) < 0.01)


def test_same_seed_same_transcript():
    layout = small_layout(("r", 2), ("s", 2))
    outs = []
    for _ in range(2):
        rng = np.random.default_rng(777)
        state = prepare_uniform(Statevector.zero(layout), "r", 4)
        prepare_uniform(state, "s", 3)
        transcript = [measure(state.copy(), ["r", "s"], rng)[0]
                      for _ in range(10)]
        outs.append(transcript)
    assert outs[0] == outs[1]
