"""Exact statevector simulation of small gate circuits.

Amplitude ordering is little-endian: qubit 0 is the least significant bit
of the basis-state index, so basis index ``b`` assigns qubit ``q`` the bit
``(b >> q) & 1``.  Rotation gates follow the convention
``R(theta) = exp(-i * theta * P / 2)`` for the matching Pauli ``P``, hence
``RY(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>``.

All public operations have value semantics: they return a new state and
never mutate their arguments.  The batched row kernels used internally
operate in place on ``[rows, 2**n]`` arrays, so that many circuits, and
the forward and backward sweeps of their gradients, share one allocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError

MAX_QUBITS = 12

ROTATION_KINDS = ("RX", "RY", "RZ")
GATE_KINDS = ROTATION_KINDS + ("CNOT",)


@dataclass(frozen=True)
class GateSpec:
    """A single gate: one-qubit rotation (RX/RY/RZ) or a CNOT."""

    kind: str
    target: int
    control: Optional[int] = None
    angle: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ConfigurationError(f"unknown gate kind {self.kind!r}")
        if self.kind == "CNOT":
            if self.control is None:
                raise ConfigurationError("CNOT requires a control qubit")
            if self.control == self.target:
                raise ConfigurationError("CNOT control and target must differ")
            if self.angle is not None:
                raise ConfigurationError("CNOT takes no angle")
        else:
            if self.angle is None:
                raise ConfigurationError(f"{self.kind} requires an angle")
            if self.control is not None:
                raise ConfigurationError("rotation gates take no control qubit")


@dataclass(frozen=True)
class StateVector:
    """Pure n-qubit state: 2**n complex amplitudes, little-endian order.

    The constructor takes ownership of the amplitude buffer and freezes it;
    use :meth:`from_amplitudes` to build a state from external data.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ConfigurationError(
                f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}"
            )
        if amps.ndim != 1 or amps.size != 1 << self.n_qubits:
            raise ConfigurationError(
                f"expected {1 << self.n_qubits} amplitudes, got shape {amps.shape}"
            )
        object.__setattr__(self, "amplitudes", amps)
        amps.setflags(write=False)

    @classmethod
    def from_amplitudes(cls, amplitudes: Sequence[complex]) -> "StateVector":
        amps = np.array(amplitudes, dtype=np.complex128)
        n = int(amps.size).bit_length() - 1
        if amps.size != 1 << n:
            raise ConfigurationError("amplitude count must be a power of two")
        norm = float(np.sum(amps.real**2 + amps.imag**2))
        if abs(norm - 1.0) > 1e-8:
            raise ConfigurationError(f"state is not normalised (|psi|^2 = {norm})")
        return cls(n, amps)


def init_zero_state(n_qubits: int) -> StateVector:
    """Return |0...0> on ``n_qubits`` qubits."""
    if not isinstance(n_qubits, (int, np.integer)) or not 1 <= n_qubits <= MAX_QUBITS:
        raise ConfigurationError(
            f"n_qubits must be an integer in [1, {MAX_QUBITS}], got {n_qubits!r}"
        )
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(int(n_qubits), amps)


# ---------------------------------------------------------------------------
# strided kernels over amplitude pairs, shared by the single-state API and
# the batched evaluation path in qscale.vqc


@lru_cache(maxsize=None)
def _rotation_indices(dim: int, target: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(dim)
    mask = 1 << target
    i0 = idx[(idx & mask) == 0]
    i1 = i0 | mask
    i0.setflags(write=False)
    i1.setflags(write=False)
    return i0, i1


@lru_cache(maxsize=None)
def _cnot_indices(dim: int, control: int, target: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(dim)
    sel = ((idx & (1 << control)) != 0) & ((idx & (1 << target)) == 0)
    i0 = idx[sel]
    i1 = i0 | (1 << target)
    i0.setflags(write=False)
    i1.setflags(write=False)
    return i0, i1


@lru_cache(maxsize=None)
def _z_signs(dim: int, qubit: int) -> np.ndarray:
    signs = np.where((np.arange(dim) & (1 << qubit)) == 0, 1.0, -1.0)
    signs.setflags(write=False)
    return signs


def _rotate_rows(amps: np.ndarray, kind: str, angles: np.ndarray, target: int) -> None:
    """Apply a rotation in place to batched amplitudes [rows, dim], one angle per row."""
    i0, i1 = _rotation_indices(amps.shape[-1], target)
    half = 0.5 * angles
    c = np.cos(half)[:, None]
    s = np.sin(half)[:, None]
    a0 = amps[:, i0]
    a1 = amps[:, i1]
    if kind == "RX":
        amps[:, i0] = c * a0 - 1j * (s * a1)
        amps[:, i1] = c * a1 - 1j * (s * a0)
    elif kind == "RY":
        amps[:, i0] = c * a0 - s * a1
        amps[:, i1] = s * a0 + c * a1
    elif kind == "RZ":
        amps[:, i0] = (c - 1j * s) * a0
        amps[:, i1] = (c + 1j * s) * a1
    else:  # pragma: no cover - guarded by GateSpec validation
        raise ConfigurationError(f"unknown rotation kind {kind!r}")


def _cnot_rows(amps: np.ndarray, control: int, target: int) -> None:
    """Apply a CNOT in place to batched amplitudes [rows, dim]."""
    i0, i1 = _cnot_indices(amps.shape[-1], control, target)
    swapped = amps[:, i1].copy()
    amps[:, i1] = amps[:, i0]
    amps[:, i0] = swapped


def _expect_z_rows(amps: np.ndarray, qubit: int) -> np.ndarray:
    probs = amps.real**2 + amps.imag**2
    return np.sum(probs * _z_signs(amps.shape[-1], qubit), axis=-1)


@lru_cache(maxsize=None)
def _flip_indices(dim: int, target: int) -> np.ndarray:
    flipped = np.arange(dim) ^ (1 << target)
    flipped.setflags(write=False)
    return flipped


def _pauli_overlap_im_rows(
    bra: np.ndarray, ket: np.ndarray, kind: str, target: int
) -> np.ndarray:
    """Im <bra|P|ket> per row of [rows, dim] amplitudes, for the Pauli P
    that the rotation ``kind`` turns about on ``target``."""
    dim = ket.shape[-1]
    conj_bra = bra.conj()
    if kind == "RZ":  # Z ket = signs * ket
        return np.einsum("rj,rj,j->r", conj_bra, ket, _z_signs(dim, target)).imag
    flipped = ket[:, _flip_indices(dim, target)]  # X ket
    if kind == "RX":
        return np.einsum("rj,rj->r", conj_bra, flipped).imag
    if kind == "RY":  # Y ket = -i * signs * X ket, and Im(-i z) = -Re z
        return -np.einsum("rj,rj,j->r", conj_bra, flipped, _z_signs(dim, target)).real
    raise ConfigurationError(f"unknown rotation kind {kind!r}")  # pragma: no cover


def _check_qubit(index: int, n_qubits: int, role: str) -> None:
    if not 0 <= index < n_qubits:
        raise IndexError(f"{role} qubit {index} out of range for {n_qubits} qubits")


def _apply_to_rows(rows: np.ndarray, gate: GateSpec, n_qubits: int) -> None:
    _check_qubit(gate.target, n_qubits, "target")
    if gate.kind == "CNOT":
        _check_qubit(gate.control, n_qubits, "control")
        _cnot_rows(rows, gate.control, gate.target)
    else:
        angles = np.full(rows.shape[0], float(gate.angle))
        _rotate_rows(rows, gate.kind, angles, gate.target)


# ---------------------------------------------------------------------------
# public single-state operations


def apply_gate(state: StateVector, gate: GateSpec) -> StateVector:
    """Apply one gate and return the resulting state (the input is unchanged)."""
    work = state.amplitudes.reshape(1, -1).copy()
    _apply_to_rows(work, gate, state.n_qubits)
    return StateVector(state.n_qubits, work[0])


def apply_circuit(state: StateVector, gates: Iterable[GateSpec]) -> StateVector:
    """Apply a gate sequence in order, sharing a single working buffer."""
    work = state.amplitudes.reshape(1, -1).copy()
    for gate in gates:
        _apply_to_rows(work, gate, state.n_qubits)
    return StateVector(state.n_qubits, work[0])


def expectation_z(state: StateVector, qubit: int) -> float:
    """<Z> on one qubit: sum of |amp|^2 signed by that qubit's bit."""
    _check_qubit(qubit, state.n_qubits, "measured")
    return float(_expect_z_rows(state.amplitudes.reshape(1, -1), qubit)[0])


def expectation_z_all(state: StateVector) -> np.ndarray:
    """Vector of <Z_q> for every qubit q."""
    rows = state.amplitudes.reshape(1, -1)
    return np.array(
        [_expect_z_rows(rows, q)[0] for q in range(state.n_qubits)], dtype=float
    )
