"""Exact statevector simulation of small gate circuits.

Amplitude ordering is little-endian: qubit 0 is the least significant bit
of the basis-state index, so basis index ``b`` assigns qubit ``q`` the bit
``(b >> q) & 1``.  Rotation gates follow the convention
``R(theta) = exp(-i * theta * P / 2)`` for the matching Pauli ``P``, hence
``RY(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>``.

All public operations have value semantics: they return a new state and
never mutate their arguments.  Underneath, a few row kernels act on many
states at once, ``[rows, 2**n]`` amplitudes stored column-major:

* ``_rotate_rows`` applies one 2x2 unitary per row to one qubit, in place,
  with elementwise products over whole rows; ``_su2`` builds those
  unitaries from unit quaternions, so a single rotation and a fused run of
  rotations take the same path;
* ``_cnot_rows`` applies a layer of CNOTs as one permutation gather, from
  ``_cnot_permutation``;
* ``_expect_z_rows`` reads <Z> on every qubit in one reduction;
* ``_pauli_rows`` reduces two states to Im <bra|P|ket> for the three
  Paulis on each of several qubits, which the adjoint sweep of
  ``qscale.vqc`` differentiates from.

The single-state API runs one gate at a time through the same kernels that
``qscale.vqc`` runs its fused circuit plans through, so the dense-matrix
oracle of the tests pins the kernels the models use.
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
# row kernels, shared by the single-state API and the fused circuit plans of
# qscale.vqc.  Amplitudes are [rows, dim] arrays stored column-major: the
# transpose [dim, rows] is C-contiguous, so one basis state's amplitudes for
# every row sit side by side and each elementwise product runs over whole rows.


def _column_major(amps: np.ndarray) -> np.ndarray:
    """The C-contiguous [dim, rows] buffer behind column-major amplitudes."""
    work = amps.T
    if not work.flags.c_contiguous:  # pragma: no cover - internal contract
        raise ValueError("row kernels need column-major amplitudes")
    return work


def _zero_rows(rows: int, n_qubits: int) -> np.ndarray:
    """|0...0> on every row, as column-major amplitudes [rows, 2**n]."""
    work = np.zeros((1 << n_qubits, rows), dtype=np.complex128)
    work[0] = 1.0
    return work.T


def _su2(w, x, y, z) -> np.ndarray:
    """The unitaries U = w I - i (x X + y Y + z Z) of unit quaternions, as
    [2, 2, ...] complex arrays u[a, i] = U[i, i ^ a]: the diagonal, then
    the off-diagonal; each component has the trailing shape."""
    u = np.empty((2, 2) + np.shape(w), dtype=np.complex128)
    re, im = u.real, u.imag
    minus_x = np.negative(x)
    re[0, 0], im[0, 0] = w, np.negative(z)
    re[0, 1], im[0, 1] = w, z
    re[1, 0], im[1, 0] = np.negative(y), minus_x
    re[1, 1], im[1, 1] = y, minus_x
    return u


def _rotation_su2(kind: str, angles: np.ndarray) -> np.ndarray:
    """R(theta) = exp(-i theta P / 2) per angle, in the form of :func:`_su2`."""
    half = 0.5 * np.asarray(angles, dtype=float)
    q = [np.cos(half)] + [np.zeros_like(half)] * 3
    q[1 + ROTATION_KINDS.index(kind)] = np.sin(half)
    return _su2(*q)


def _rotate_rows(amps: np.ndarray, u: np.ndarray, target: int) -> None:
    """Apply one 2x2 unitary per row, u [2, 2, rows] in the form of
    :func:`_su2`, in place on qubit ``target`` of column-major amplitudes
    [rows, dim].  With the pair (a0, a1) of each amplitude index,
    a_i <- U[i, i] a_i + U[i, i ^ 1] a_(i ^ 1)."""
    pairs = _column_major(amps).reshape(-1, 2, 1 << target, amps.shape[0])
    off = u[1, :, None] * pairs[:, ::-1]
    pairs *= u[0, :, None]
    pairs += off


@lru_cache(maxsize=None)
def _cnot_permutation(n_qubits: int, pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Gather index of a CNOT layer: ``amps[:, perm]`` applies the CNOTs
    ``pairs`` ((control, target), ...) in order."""
    idx = np.arange(1 << n_qubits)
    perm = idx
    for control, target in pairs:
        perm = perm[idx ^ (((idx >> control) & 1) << target)]
    perm.setflags(write=False)
    return perm


def _cnot_rows(amps: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """A CNOT layer as one permutation gather; returns new column-major
    amplitudes [rows, dim]."""
    return _column_major(amps)[perm].T


@lru_cache(maxsize=None)
def _z_signs(n_qubits: int) -> np.ndarray:
    """[n, 2**n]: +1 where qubit q's bit is 0, -1 where it is 1."""
    bits = (np.arange(1 << n_qubits)[None, :] >> np.arange(n_qubits)[:, None]) & 1
    signs = 1.0 - 2.0 * bits
    signs.setflags(write=False)
    return signs


def _expect_z_rows(amps: np.ndarray) -> np.ndarray:
    """<Z_q> for every qubit q, as [rows, n], from amplitudes [rows, dim]."""
    probs = amps.real**2 + amps.imag**2
    return probs @ _z_signs(amps.shape[-1].bit_length() - 1).T


@lru_cache(maxsize=None)
def _pauli_tables(n_qubits: int, qubits: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per qubit q of ``qubits``: the gather index b -> b ^ 2**q [k, dim],
    the reductions [sum_b, sum_b z_q(b)] as [k, 2, dim] complex, and the
    signs z_q [k, dim]."""
    idx = np.arange(1 << n_qubits)
    flips = np.stack([idx ^ (1 << q) for q in qubits])
    signs = _z_signs(n_qubits)[list(qubits)]
    sums = np.stack([np.ones_like(signs), signs], axis=1).astype(np.complex128)
    for table in (flips, sums, signs):
        table.setflags(write=False)
    return flips, sums, signs


def _pauli_rows(ket: np.ndarray, conj_bra: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """Im <bra|P_q|ket> for P = X, Y, Z and each qubit q of ``qubits``, as
    [3, k, rows]: with R the 2x2 overlap sum over the other qubits of
    ket_i * conj(bra_j) on qubit q, these are Im Tr(P R).  Both operands
    are column-major [rows, dim]; the second holds conj(bra)."""
    n = ket.shape[-1].bit_length() - 1
    flips, sums, signs = _pauli_tables(n, qubits)
    ket, conj_bra = ket.T, conj_bra.T
    # [sum_b, sum_b z_q(b)] of ket_(b ^ 2**q) conj(bra_b), per qubit: X ket
    # flips bit q, and Y ket = -i z_q X ket
    flipped = ket[flips]
    flipped *= conj_bra
    flipped = np.matmul(sums, flipped)
    out = np.empty((3, len(qubits), ket.shape[-1]))
    out[0] = flipped[:, 0].imag
    np.negative(flipped[:, 1].real, out=out[1])
    out[2] = (signs @ (ket * conj_bra)).imag
    return out


def _check_qubit(index: int, n_qubits: int, role: str) -> None:
    if not 0 <= index < n_qubits:
        raise IndexError(f"{role} qubit {index} out of range for {n_qubits} qubits")


def _apply_to_rows(rows: np.ndarray, gate: GateSpec, n_qubits: int) -> np.ndarray:
    _check_qubit(gate.target, n_qubits, "target")
    if gate.kind == "CNOT":
        _check_qubit(gate.control, n_qubits, "control")
        perm = _cnot_permutation(n_qubits, ((gate.control, gate.target),))
        return _cnot_rows(rows, perm)
    _rotate_rows(rows, _rotation_su2(gate.kind, np.array([gate.angle])), gate.target)
    return rows


# ---------------------------------------------------------------------------
# public single-state operations


def apply_gate(state: StateVector, gate: GateSpec) -> StateVector:
    """Apply one gate and return the resulting state (the input is unchanged)."""
    work = state.amplitudes.reshape(1, -1).copy()
    return StateVector(state.n_qubits, _apply_to_rows(work, gate, state.n_qubits)[0])


def apply_circuit(state: StateVector, gates: Iterable[GateSpec]) -> StateVector:
    """Apply a gate sequence in order."""
    work = state.amplitudes.reshape(1, -1).copy()
    for gate in gates:
        work = _apply_to_rows(work, gate, state.n_qubits)
    return StateVector(state.n_qubits, work[0])


def expectation_z(state: StateVector, qubit: int) -> float:
    """<Z> on one qubit: sum of |amp|^2 signed by that qubit's bit."""
    _check_qubit(qubit, state.n_qubits, "measured")
    return float(expectation_z_all(state)[qubit])


def expectation_z_all(state: StateVector) -> np.ndarray:
    """Vector of <Z_q> for every qubit q."""
    return _expect_z_rows(state.amplitudes.reshape(1, -1))[0]
