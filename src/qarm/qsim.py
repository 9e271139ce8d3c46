"""Dense statevector simulator organized around named registers.

A layout is an ordered list of (name, width) registers; the first
register holds the most significant bits of the basis index.  Amplitudes
live in one flat contiguous complex array, so reshaping to one axis per
register is always a view and every operation below mutates in place.

Basis convention: basis state b assigns register r the integer formed by
its bits of b, most significant qubit first.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .constants import DEFAULT_QUBIT_CAP, NORM_TOL

__all__ = [
    "QubitBudgetError",
    "RegisterLayout",
    "Statevector",
    "as_rng",
    "prepare_uniform",
    "inject_state",
    "apply_controlled_power",
    "inverse_qft",
    "reflect_about_state",
    "register_marginal",
    "joint_probs",
    "measure",
    "sample_counts",
]


class QubitBudgetError(ValueError):
    """Layout would need more qubits than the configured cap."""


def as_rng(rng) -> np.random.Generator:
    """Accept a Generator, a seed, or None (fresh entropy)."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


class RegisterLayout:
    """Ordered named registers packed into one basis index."""

    def __init__(self, registers: Sequence[tuple[str, int]],
                 qubit_cap: int | None = None):
        names = [name for name, _ in registers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate register names in {names}")
        for name, width in registers:
            if width < 1:
                raise ValueError(f"register {name!r} must have width >= 1")
        self.registers = tuple((str(n), int(w)) for n, w in registers)
        self.n_qubits = sum(w for _, w in self.registers)
        cap = DEFAULT_QUBIT_CAP if qubit_cap is None else int(qubit_cap)
        if self.n_qubits > cap:
            raise QubitBudgetError(
                f"layout needs {self.n_qubits} qubits "
                f"({', '.join(f'{n}:{w}' for n, w in self.registers)}) "
                f"but the cap is {cap}"
            )
        self._axis = {name: i for i, (name, _) in enumerate(self.registers)}
        shifts = {}
        below = 0
        for name, width in reversed(self.registers):
            shifts[name] = below
            below += width
        self._shift = shifts

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.registers)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(1 << w for _, w in self.registers)

    def width(self, name: str) -> int:
        return self.registers[self._axis[name]][1]

    def dim(self, name: str) -> int:
        return 1 << self.width(name)

    def axis(self, name: str) -> int:
        return self._axis[name]

    def shift(self, name: str) -> int:
        """Bit position of the register's least significant qubit."""
        return self._shift[name]

    def basis_index(self, values: dict[str, int]) -> int:
        idx = 0
        for name, value in values.items():
            if not 0 <= value < self.dim(name):
                raise ValueError(f"{name}={value} outside register range")
            idx |= value << self.shift(name)
        return idx

    def __repr__(self) -> str:
        body = ", ".join(f"{n}:{w}" for n, w in self.registers)
        return f"RegisterLayout({body})"


class Statevector:
    """Flat complex amplitudes over a register layout."""

    def __init__(self, layout: RegisterLayout, amps: np.ndarray):
        if amps.shape != (1 << layout.n_qubits,):
            raise ValueError("amplitude array does not match layout size")
        self.layout = layout
        self.amps = np.ascontiguousarray(amps, dtype=np.complex128)

    @classmethod
    def zero(cls, layout: RegisterLayout) -> "Statevector":
        amps = np.zeros(1 << layout.n_qubits, dtype=np.complex128)
        amps[0] = 1.0
        return cls(layout, amps)

    @classmethod
    def basis_state(cls, layout: RegisterLayout, values: dict[str, int]) -> "Statevector":
        amps = np.zeros(1 << layout.n_qubits, dtype=np.complex128)
        amps[layout.basis_index(values)] = 1.0
        return cls(layout, amps)

    def view(self) -> np.ndarray:
        return self.amps.reshape(self.layout.dims)

    def copy(self) -> "Statevector":
        return Statevector(self.layout, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def check_norm(self):
        n = self.norm()
        if abs(n - 1.0) > NORM_TOL:
            raise ValueError(f"state norm drifted to {n!r}")

    def amplitude(self, values: dict[str, int]) -> complex:
        return complex(self.amps[self.layout.basis_index(values)])


def _fourier_matrix(size: int) -> np.ndarray:
    """F[i, j] = exp(2*pi*1j*i*j/size)/sqrt(size)."""
    grid = np.arange(size)
    return np.exp(2j * np.pi * np.outer(grid, grid) / size) / np.sqrt(size)


def _three_axis_view(state: Statevector, first_axis: int, last_axis: int):
    """(pre, block, post) reshape around a run of adjacent register axes."""
    dims = state.layout.dims
    pre = int(np.prod(dims[:first_axis], dtype=np.int64))
    block = int(np.prod(dims[first_axis:last_axis + 1], dtype=np.int64))
    post = int(np.prod(dims[last_axis + 1:], dtype=np.int64))
    return state.amps.reshape(pre, block, post)


def _require_zeroed(view3: np.ndarray, what: str):
    weight = np.sum(np.abs(view3[:, 1:, :]) ** 2)
    if weight > NORM_TOL:
        raise ValueError(f"{what} must be |0>: residual weight {weight:.3e}")


def prepare_uniform(state: Statevector, register: str, limit: int) -> Statevector:
    """Map the register from |0> to a uniform superposition of |0..limit-1>.

    limit may be any value in [1, 2^width]; limits below the full register
    dimension give the exact-N uniform state used for transaction indices.
    """
    axis = state.layout.axis(register)
    dim = state.layout.dim(register)
    if not 1 <= limit <= dim:
        raise ValueError(f"limit {limit} outside [1, {dim}] for {register!r}")
    view3 = _three_axis_view(state, axis, axis)
    _require_zeroed(view3, f"register {register!r}")
    base = view3[:, 0, :] / np.sqrt(limit)
    view3[:, :limit, :] = base[:, None, :]
    state.check_norm()
    return state


def inject_state(state: Statevector, registers, amplitudes: np.ndarray) -> Statevector:
    """Write an arbitrary normalized vector into adjacent |0> registers.

    The model-level stand-in for state preparation circuits (candidate
    superpositions, QRAM loads).  registers must be adjacent in layout
    order; amplitudes has their combined dimension.
    """
    if isinstance(registers, str):
        registers = [registers]
    axes = [state.layout.axis(r) for r in registers]
    if axes != list(range(axes[0], axes[0] + len(axes))):
        raise ValueError(f"registers {registers} are not adjacent in layout")
    amps = np.asarray(amplitudes, dtype=np.complex128)
    dim = int(np.prod([state.layout.dim(r) for r in registers], dtype=np.int64))
    if amps.shape != (dim,):
        raise ValueError(f"amplitudes must have shape ({dim},)")
    if abs(np.linalg.norm(amps) - 1.0) > NORM_TOL:
        raise ValueError("amplitudes are not normalized")
    view3 = _three_axis_view(state, axes[0], axes[-1])
    _require_zeroed(view3, f"registers {registers}")
    base = view3[:, 0, :].copy()
    view3[:] = amps[None, :, None] * base[:, None, :]
    state.check_norm()
    return state


def apply_controlled_power(state: Statevector, control: tuple[str, int], u,
                           power: int) -> Statevector:
    """Apply U^power to amplitude slices whose control qubit is 1.

    control is (register, bit) with bit the exponent of the qubit's weight
    inside the register value (bit p has weight 2^p).  u is a callable
    mutating a view in place, invoked once per unit of power with an array
    whose trailing axes are the registers after the control register; U
    must act only on those registers.
    """
    reg, bit = control
    width = state.layout.width(reg)
    if not 0 <= bit < width:
        raise ValueError(f"bit {bit} outside register {reg!r} of width {width}")
    if power < 0:
        raise ValueError("power must be >= 0")
    layout = state.layout
    ctrl_axis = layout.axis(reg)
    dims_after = layout.dims[ctrl_axis + 1:]
    pre_bits = sum(layout.width(n) for n in layout.names[:ctrl_axis]) + (width - 1 - bit)
    shape = (1 << pre_bits, 2, 1 << bit) + dims_after
    block = state.amps.reshape(shape)[:, 1]
    for _ in range(power):
        u(block)
    state.check_norm()
    return state


def inverse_qft(state: Statevector, register: str) -> Statevector:
    """Apply the inverse Fourier transform on one register's value axis."""
    axis = state.layout.axis(register)
    view3 = _three_axis_view(state, axis, axis)
    f_dag = _fourier_matrix(view3.shape[1]).conj().T
    view3[:] = np.matmul(f_dag, view3)
    state.check_norm()
    return state


def reflect_about_state(state: Statevector, reference: Statevector) -> Statevector:
    """In-place 2|ref><ref| - I over the whole state."""
    if reference.layout.dims != state.layout.dims:
        raise ValueError("reference layout mismatch")
    overlap = np.vdot(reference.amps, state.amps)
    state.amps *= -1.0
    state.amps += (2.0 * overlap) * reference.amps
    state.check_norm()
    return state


def register_marginal(state: Statevector, register: str) -> np.ndarray:
    """Probability distribution over one register's values."""
    axis = state.layout.axis(register)
    view3 = _three_axis_view(state, axis, axis)
    return np.sum(np.abs(view3) ** 2, axis=(0, 2))


def joint_probs(state: Statevector, registers: Sequence[str]) -> np.ndarray:
    """Joint distribution over the named registers, axes in the given order."""
    view = state.view()
    axes = [state.layout.axis(r) for r in registers]
    others = tuple(a for a in range(view.ndim) if a not in axes)
    probs = np.sum(np.abs(view) ** 2, axis=others)
    # sum removed the other axes; reorder survivors to the requested order
    survivors = sorted(axes)
    order = [survivors.index(a) for a in axes]
    return probs.transpose(order)


def measure(state: Statevector, registers: Sequence[str], rng):
    """Born-rule measurement of the named registers; collapses in place.

    Returns (outcomes dict, state).
    """
    if isinstance(registers, str):
        registers = [registers]
    if not registers or len(set(registers)) != len(registers):
        raise ValueError("registers must be nonempty and distinct")
    rng = as_rng(rng)
    probs = joint_probs(state, registers)
    flat = probs.ravel()
    total = flat.sum()
    if total < 1e-12:
        raise ValueError("measurement on a zero-weight state")
    pick = int(rng.choice(flat.size, p=flat / total))
    values = np.unravel_index(pick, probs.shape)
    outcomes = {reg: int(v) for reg, v in zip(registers, values)}

    view = state.view()
    indexer = tuple(
        outcomes[name] if name in outcomes else slice(None)
        for name in state.layout.names
    )
    block = view[indexer].copy()
    norm = np.linalg.norm(block)
    state.amps.fill(0.0)
    view[indexer] = block / norm
    state.check_norm()
    return outcomes, state


def sample_counts(state: Statevector, registers: Sequence[str], shots: int,
                  rng) -> np.ndarray:
    """Outcome counts over repeated non-collapsing measurements.

    Returns an integer array with one axis per requested register.
    """
    if isinstance(registers, str):
        registers = [registers]
    rng = as_rng(rng)
    probs = joint_probs(state, registers)
    flat = probs.ravel()
    draws = rng.choice(flat.size, size=shots, p=flat / flat.sum())
    return np.bincount(draws, minlength=flat.size).reshape(probs.shape)
