"""Variational circuit templates, evaluation, and exact gradients.

A :class:`CircuitTemplate` is an ordered list of segments.  An embedding
segment encodes classical inputs as rotation angles (optionally through an
``arctan`` squashing transform); an ansatz segment takes the next
:func:`ansatz_param_count` entries of a flat trainable-parameter vector,
after those of the ansatz segments before it.  Supported ansatz families:

* ``strongly_entangling`` - per qubit a RZ/RY/RZ rotation triple followed
  by a ring of CNOTs whose control-target distance grows with the layer
  index (``r = (layer mod (n-1)) + 1``).
* ``ring_rx`` - one RX rotation per qubit followed by a nearest-neighbour
  CNOT ring.

Gradients are exact.  Training uses adjoint differentiation (Jones &
Gacon, arXiv:2009.02823): the forward pass that produced the outputs keeps
its final amplitudes, and one backward sweep over the same rows (for the
ansatz matrix below, over one overlap matrix per circuit) yields the
derivative of every gate angle.  The two-point parameter-shift rule (shift
pi/2, coefficient 1/2) stays as the public API: it is the rule that runs on
quantum hardware, and it is the oracle the adjoint sweep is tested against.
It costs 2 x n_angles circuit evaluations per gradient, 104 for a row of the
default vqr circuit and 80 for one call of a default qlstm circuit.  Both
differentiate ansatz parameters and encoded inputs; for an ``arctan``
embedding the chain-rule factor 1/(1+x^2) is included.

Every template lowers twice, and both forms are cached per template:

* The op table lists the gates in circuit order, each rotation with the
  column of its angle in the per-row source table ``[params | inputs |
  arctan(inputs)]``.  Many circuits that share a template, each with its
  own params and inputs, are rows of one angle table.
* The fused plan runs those rows.  Gate fusion is the standard simulator
  technique (see Qulacs, Suzuki et al., arXiv:2011.13524).  Between CNOT
  layers, each run of rotations on one qubit (a group) becomes one 2x2
  unitary per row, built as a product of unit quaternions from one cosine
  and sine per angle.  Each CNOT layer becomes one permutation of the
  amplitudes, and one reduction reads <Z> on every qubit.  The adjoint
  sweep walks the same plan backwards, one group at a time.

The plan is the gate kernel and the oracle: :func:`evaluate` runs one
circuit as a one-row batch of it, the parameter-shift gradients run their
shifted circuits as rows of it, with results identical to evaluating each
circuit on its own, and :func:`adjoint_grad_batch` sweeps it.  A model's
circuits run through a :class:`CircuitStack`, which lowers its template one
of three ways; :func:`lowering` is the one choice:

* ``"phase"``, every template made only of RX rotations and CNOTs (every
  qlstm circuit, no vqr circuit).  In the X basis an RX is a diagonal phase
  and CNOT(c -> t) is the permutation CNOT(t -> c), so the circuit is a
  phase polynomial (Amy, Maslov & Mosca, arXiv:1303.2042): from the
  uniform X-basis state, final amplitude j is 2**(-n/2) exp(-i phi_j),
  phi_j linear in the gate angles.  Z_q swaps the X-basis states j and j ^
  2**q, so <Z_q> = 2**(1-n) sum over the pairs (j, j ^ 2**q) of cos(phi_(j
  ^ 2**q) - phi_j).  Each phase difference is a fixed +-1 combination of
  the angles, split into a params part per circuit and an inputs part per
  row.  The inputs parts of the n 2**(n-1) pairs are only a few patterns,
  each up to its sign one of m input frequencies (:func:`_frequencies`; 12
  for the default qlstm's 80 pairs, 20 for 2,304 pairs at 9 qubits).  So
  <Z_q> is a Fourier series in the inputs, as for any encoding circuit
  (Schuld, Sweke & Meyer, arXiv:2008.08605): the encoding fixes the
  frequencies, and the params set only their coefficients.  The
  coefficients are made once per set of params, and a row costs a cosine
  and a sine per frequency and a few matrix products, with no statevector.
* ``"matrix"``, every template whose first segment is its only embedding,
  followed by ansatz segments (every linear vqr circuit), for training and
  for predicts.  The ansatz is one 2**n x 2**n unitary U per set of params,
  the product of block unitaries W_b = P_b (u_(n-1) x ... x u_0), one per
  CNOT-free block of the ansatz's plan, made from its group quaternions;
  each row is then its embedding's product state, in closed form, times U.
  Every row of a circuit shares U, so the backward pass sums the batch
  into one 2**n x 2**n overlap matrix per circuit and sweeps that through
  the blocks, where the plan would sweep every row.
* ``"plan"``, everything else: the re-uploading (nonlinear) vqr trains and
  predicts through the plan and its adjoint sweep.

Templates have no file format of their own: a checkpoint stores a model's
options, and the model rebuilds its template from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from . import sim
from .errors import ConfigurationError

AXES = ("X", "Y")
TRANSFORMS = ("identity", "arctan")
ANSATZ_KINDS = ("strongly_entangling", "ring_rx")

SHIFT = math.pi / 2.0


@dataclass(frozen=True)
class Embedding:
    """Angle-encode selected input features, one qubit per feature."""

    axis: str = "Y"
    feature_slots: tuple[int, ...] = ()
    transform: str = "identity"

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise ConfigurationError(f"embedding axis must be one of {AXES}")
        if self.transform not in TRANSFORMS:
            raise ConfigurationError(f"transform must be one of {TRANSFORMS}")


@dataclass(frozen=True)
class Ansatz:
    """A trainable block.  It takes the next ``ansatz_param_count(kind,
    n_qubits, n_layers)`` params, after those of the template's ansatz
    segments before it."""

    kind: str
    n_layers: int

    def __post_init__(self) -> None:
        if self.kind not in ANSATZ_KINDS:
            raise ConfigurationError(f"ansatz kind must be one of {ANSATZ_KINDS}")
        if self.n_layers < 1:
            raise ConfigurationError("ansatz needs at least one layer")


Segment = Union[Embedding, Ansatz]


def ansatz_param_count(kind: str, n_qubits: int, n_layers: int) -> int:
    per_layer = 3 * n_qubits if kind == "strongly_entangling" else n_qubits
    return n_layers * per_layer


@dataclass(frozen=True)
class CircuitTemplate:
    """Ordered embedding/ansatz segments on a fixed number of qubits.  The
    ansatz segments take the params in segment order, so ``total_params``
    is the sum of their counts."""

    n_qubits: int
    input_dim: int
    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n_qubits <= sim.MAX_QUBITS:
            raise ConfigurationError(
                f"n_qubits must be in [1, {sim.MAX_QUBITS}], got {self.n_qubits}"
            )
        if self.input_dim < 0:
            raise ConfigurationError("input_dim must be non-negative")
        if not self.segments:
            raise ConfigurationError("template needs at least one segment")
        for seg in self.segments:
            if isinstance(seg, Embedding):
                if len(seg.feature_slots) > self.n_qubits:
                    raise ConfigurationError(
                        f"{len(seg.feature_slots)} features exceed "
                        f"{self.n_qubits} qubits"
                    )
                for slot in seg.feature_slots:
                    if not 0 <= slot < self.input_dim:
                        raise ConfigurationError(
                            f"feature slot {slot} out of range for "
                            f"input_dim {self.input_dim}"
                        )
            elif not isinstance(seg, Ansatz):
                raise ConfigurationError(f"unknown segment type {type(seg).__name__}")

    @cached_property
    def total_params(self) -> int:
        return sum(
            ansatz_param_count(seg.kind, self.n_qubits, seg.n_layers)
            for seg in self.segments
            if isinstance(seg, Ansatz)
        )


# ---------------------------------------------------------------------------
# lowered representation: one op table per template whose gate angles are
# gathered per row, evaluated and differentiated over [rows, 2**n] amplitudes


def _ansatz_ops(kind: str, n_qubits: int, n_layers: int) -> list[tuple]:
    """Gate structure of an ansatz in circuit order: ``(rotation kind,
    target, local param index)`` per rotation, ``("CNOT", control, target)``
    per CNOT."""
    ops: list[tuple] = []
    k = 0
    for layer in range(n_layers):
        for q in range(n_qubits):
            if kind == "strongly_entangling":
                ops += [("RZ", q, k), ("RY", q, k + 1), ("RZ", q, k + 2)]
                k += 3
            else:
                ops.append(("RX", q, k))
                k += 1
        if n_qubits >= 2:
            reach = (layer % (n_qubits - 1)) + 1 if kind == "strongly_entangling" else 1
            ops += [("CNOT", q, (q + reach) % n_qubits) for q in range(n_qubits)]
    return ops


class _Lowered(NamedTuple):
    """``ops``: ``(rotation kind, target, angle index)`` or ``("CNOT",
    control, target)``, in circuit order.  ``columns``: per angle, its
    column in the source table ``[params | inputs | arctan(inputs)]``;
    ``scatter`` [n_angles, n_sources] is the same map as a 0/1 matrix.
    ``phase``: whether every gate is an RX or a CNOT."""

    ops: tuple
    columns: np.ndarray
    scatter: np.ndarray
    phase: bool


def _index(values) -> np.ndarray:
    out = np.array(values, dtype=np.intp)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _lowered(template: CircuitTemplate) -> _Lowered:
    n_params, n_inputs = template.total_params, template.input_dim
    ops: list[tuple] = []
    columns: list[int] = []
    start = 0  # the first param of the next ansatz
    for seg in template.segments:
        if isinstance(seg, Embedding):
            offset = n_params + (n_inputs if seg.transform == "arctan" else 0)
            for q, slot in enumerate(seg.feature_slots):
                ops.append(("R" + seg.axis, q, len(columns)))
                columns.append(offset + slot)
        else:
            for kind, a, b in _ansatz_ops(seg.kind, template.n_qubits, seg.n_layers):
                if kind == "CNOT":
                    ops.append((kind, a, b))
                else:
                    ops.append((kind, a, len(columns)))
                    columns.append(start + b)
            start += ansatz_param_count(seg.kind, template.n_qubits, seg.n_layers)
    gather = _index(columns)
    scatter = np.zeros((gather.size, n_params + 2 * n_inputs))
    scatter[np.arange(gather.size), gather] = 1.0
    scatter.setflags(write=False)
    phase = all(op[0] in ("RX", "CNOT") for op in ops)
    return _Lowered(tuple(ops), gather, scatter, phase)


def _angle_table(
    template: CircuitTemplate, params: np.ndarray, inputs: np.ndarray
) -> np.ndarray:
    """Gate angles ``[..., n_angles]`` for params ``[..., P]`` and inputs
    ``[..., input_dim]``.  Leading axes broadcast, so the params can be
    given once for every row or one set per row."""
    params = np.asarray(params, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    lead = np.broadcast_shapes(params.shape[:-1], inputs.shape[:-1])
    source = np.concatenate(
        [
            np.broadcast_to(params, lead + params.shape[-1:]),
            np.broadcast_to(inputs, lead + inputs.shape[-1:]),
            np.broadcast_to(np.arctan(inputs), lead + inputs.shape[-1:]),
        ],
        axis=-1,
    )
    return source[..., _lowered(template).columns]


# ---------------------------------------------------------------------------
# fused plan: the op table lowered once more.  Between CNOT layers every run
# of rotations on one qubit (a group) becomes one 2x2 unitary per row, and
# every CNOT layer one permutation.


class _Class(NamedTuple):
    """Groups ``groups`` that share one sequence of rotation axes (0, 1, 2
    for X, Y, Z).  Their angles are rows ``start`` onward of the fused
    table, position-major: the one at position m of the g-th group is row
    ``start + m * len(groups) + g``, so the class reads its [L, G] slab of
    any fused table as a view."""

    axes: tuple[int, ...]
    groups: np.ndarray
    start: int

    def slab(self, table: np.ndarray) -> np.ndarray:
        """The class's rows of a fused table [n_angles, rows], as [L, G, rows]."""
        size = len(self.axes) * self.groups.size
        return table[self.start : self.start + size].reshape(len(self.axes), -1, table.shape[-1])


class _Plan(NamedTuple):
    """A template's fused plan.  Its fused table holds the template's
    angles class by class: ``order`` lists the angle of each row, and
    ``fused_of_angle``, the inverse permutation, each angle's row.
    ``blocks`` lists per CNOT-free block the qubits of its groups, in group
    order, and the gather indices of the CNOT layer after it and of that
    layer's inverse (``None`` where no CNOT follows)."""

    order: np.ndarray
    fused_of_angle: np.ndarray
    blocks: tuple[tuple[tuple[int, ...], Optional[np.ndarray], Optional[np.ndarray]], ...]
    classes: tuple[_Class, ...]
    n_groups: int


_AXES = {"RX": 0, "RY": 1, "RZ": 2}


def _left_product(k: int) -> np.ndarray:
    """The matrix of q -> (0, e_k) * q, the quaternion product, on
    components (w, x, y, z); (cos, sin * e_k) * q = cos q + sin (this q)."""
    i, j = (k + 1) % 3, (k + 2) % 3
    out = np.zeros((4, 4))
    out[0, 1 + k], out[1 + k, 0] = -1.0, 1.0
    out[1 + i, 1 + j], out[1 + j, 1 + i] = -1.0, 1.0
    out.setflags(write=False)
    return out


_LEFT_PRODUCT = tuple(_left_product(k) for k in range(3))


@lru_cache(maxsize=None)
def _plan(template: CircuitTemplate) -> _Plan:
    n = template.n_qubits
    # per block: {qubit: [(axis, angle index), ...]} and its CNOT layer
    blocks: list[tuple[dict, tuple]] = []
    runs: dict[int, list] = {}
    pairs: list[tuple[int, int]] = []
    for kind, a, b in _lowered(template).ops:
        if kind == "CNOT":
            pairs.append((a, b))
            continue
        if pairs:
            blocks.append((runs, tuple(pairs)))
            runs, pairs = {}, []
        runs.setdefault(a, []).append((_AXES[kind], b))
    if runs:  # every block has rotations; a template without any has no block
        blocks.append((runs, tuple(pairs)))

    by_axes: dict[tuple, tuple[list, list]] = {}  # axes -> group ids, runs
    plan_blocks = []
    n_groups = 0
    for runs, pairs in blocks:
        for run in runs.values():
            groups, members = by_axes.setdefault(tuple(ax for ax, _ in run), ([], []))
            groups.append(n_groups)
            members.append([angle for _, angle in run])
            n_groups += 1
        layer = inverse = None
        if pairs:
            layer = sim._cnot_permutation(n, pairs)
            inverse = sim._cnot_permutation(n, pairs[::-1])
        plan_blocks.append((tuple(runs), layer, inverse))

    order: list[int] = []
    classes = []
    for axes, (groups, members) in by_axes.items():
        classes.append(_Class(axes, _index(groups), len(order)))
        order += [run[m] for m in range(len(axes)) for run in members]
    return _Plan(
        _index(order),
        _index(np.argsort(order)),
        tuple(plan_blocks),
        tuple(classes),
        n_groups,
    )


def _half_angles(plan: _Plan, angle_rows: np.ndarray) -> np.ndarray:
    """Half of every angle, as a fused table [n_angles, rows]."""
    half = angle_rows.T[plan.order]
    half *= 0.5
    return half


def _group_quaternions(plan: _Plan, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Unit quaternions (w, x, y, z) [4, n_groups, rows] of every group's
    unitary U = w I - i (x X + y Y + z Z), from the fused tables of the
    cosines and sines of the half angles [n_angles, rows]."""
    quats = np.empty((4, plan.n_groups, cos.shape[-1]))
    for cls in plan.classes:
        c, s = cls.slab(cos), cls.slab(sin)  # [L, G, rows]
        q = np.zeros((4,) + c[0].shape)
        q[0], q[1 + cls.axes[0]] = c[0], s[0]
        turn = np.empty_like(q)
        for m in range(1, len(cls.axes)):
            # left-multiply by the member's rotation, in place
            np.matmul(_LEFT_PRODUCT[cls.axes[m]], q.reshape(4, -1), out=turn.reshape(4, -1))
            turn *= s[m]
            q *= c[m]
            q += turn
        quats[:, cls.groups] = q
    return quats


def _run_rows(template: CircuitTemplate, angle_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate many circuits sharing the template structure.

    ``angle_rows`` has shape [rows, n_angles]; each row starts from
    |0...0>.  Returns the Pauli-Z expectations [rows, n_qubits] and the
    final column-major amplitudes [rows, 2**n], from which
    :func:`_adjoint_rows` differentiates the same circuits.
    """
    plan = _plan(template)
    half = _half_angles(plan, angle_rows)
    cos = np.cos(half)
    quats = _group_quaternions(plan, cos, np.sin(half, out=half))
    del half, cos  # free the angle tables before the amplitudes grow
    amps = sim._zero_rows(angle_rows.shape[0], template.n_qubits)
    g = 0
    for qubits, layer, _ in plan.blocks:
        u = sim._su2(*quats[:, g : g + len(qubits)])
        for k, qubit in enumerate(qubits):
            sim._rotate_rows(amps, u[:, :, k], qubit)
        g += len(qubits)
        if layer is not None:
            amps = sim._cnot_rows(amps, layer)
    return sim._expect_z_rows(amps), amps


def _adjoint_rows(
    template: CircuitTemplate,
    angle_rows: np.ndarray,
    states: np.ndarray,
    cotangent: np.ndarray,
) -> np.ndarray:
    """Per-row derivatives [rows, n_angles] of f_r = 2 Re <lambda_r|psi_r>,
    lambda_r the row's amplitude cotangent [rows, 2**n] held fixed, with
    respect to every gate angle of row r's circuit.  For f_r = sum_q
    w[r, q] <Z_q>, lambda_r = (w[r] @ Z) psi_r, the amplitudes signed by
    the weighted Z of each basis state.

    ``states`` are the final amplitudes psi that :func:`_run_rows` returned
    for ``angle_rows`` (from any start); they are left unchanged.  The
    sweep (Jones & Gacon, arXiv:2009.02823) walks the fused plan backwards
    over psi and lambda, stacked in one [2 * rows, 2**n] array.  For a
    rotation exp(-i theta P / 2), df/dtheta = Im <lambda|P|psi> just after
    it.  With R the 2x2 overlap of psi and lambda on a group's qubit, the
    readings t = Im Tr(sigma R) of the three Paulis after the group give
    the derivatives of all its members (:func:`_member_grads`).  Undoing a
    group on one qubit leaves R on every other qubit unchanged, so t is
    read for all groups of a CNOT-free block in one reduction before the
    block's groups are undone with U^dagger.
    """
    plan = _plan(template)
    rows, dim = states.shape
    half = _half_angles(plan, angle_rows)
    cos = np.cos(half)
    sin = np.sin(half, out=half)
    # each group's U^dagger, repeated for the psi and the lambda rows
    inverses = _group_quaternions(plan, cos, sin)
    inverses = np.concatenate([inverses, inverses], axis=-1)
    inverses[1:] *= -1.0
    pair = np.empty((dim, 2 * rows), dtype=np.complex128).T
    pair[:rows] = states
    pair[rows:] = cotangent
    pauli = np.empty((3, plan.n_groups, rows))
    g = plan.n_groups
    for qubits, _, inverse in reversed(plan.blocks):
        if inverse is not None:
            pair = sim._cnot_rows(pair, inverse)
        g -= len(qubits)
        pauli[:, g : g + len(qubits)] = sim._pauli_rows(pair[:rows], pair[rows:].conj(), qubits)
        if g:
            u = sim._su2(*inverses[:, g : g + len(qubits)])
            for k, qubit in enumerate(qubits):
                sim._rotate_rows(pair, u[:, :, k], qubit)
    return _member_grads(plan, pauli, cos, sin)


def _member_grads(plan: _Plan, pauli: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Derivatives [rows, n_angles] of every gate angle from the readings
    t = Im Tr(sigma R) [3, n_groups, rows] of the three Paulis, taken just
    after each group, and the fused tables of the cosines and sines of the
    half angles [n_angles, rows].  Member m of a group has derivative
    Im Tr(P' R), P' its Pauli conjugated by the later members, so t turned
    back through each later member's rotation gives them all."""
    cos_full, sin_full = 1.0 - 2.0 * sin**2, 2.0 * sin * cos
    dfused = np.empty_like(sin)
    for cls in plan.classes:
        t = pauli[:, cls.groups]  # [3, G, rows]
        c, s = cls.slab(cos_full), cls.slab(sin_full)  # [L, G, rows]
        d = cls.slab(dfused)
        for m in range(len(cls.axes) - 1, -1, -1):
            k = cls.axes[m]
            d[m] = t[k]
            if m:  # turn t back through member m's rotation about axis k
                i, j = (k + 1) % 3, (k + 2) % 3
                t[i], t[j] = c[m] * t[i] + s[m] * t[j], c[m] * t[j] - s[m] * t[i]
    return dfused[plan.fused_of_angle].T


def _angle_grads_to_args(
    template: CircuitTemplate, dangles: np.ndarray, inputs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fold angle derivatives [rows, n_angles] into gradients with respect
    to params [rows, P] and inputs [rows, input_dim]."""
    dsource = dangles @ _lowered(template).scatter
    n_params = template.total_params
    return dsource[..., :n_params], _input_grads(dsource[..., n_params:], inputs)


def _input_grads(dsource: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Fold derivatives [..., rows, 2 * input_dim] by the input columns of
    the source table, ``[inputs | arctan(inputs)]``, into gradients with
    respect to the inputs [..., rows, input_dim].  An input that several
    embeddings encode accumulates every term, its arctan terms through the
    chain rule 1/(1+x^2)."""
    n_inputs = inputs.shape[-1]
    grad_inputs = dsource[..., n_inputs:] * (1.0 / (1.0 + inputs**2))
    grad_inputs += dsource[..., :n_inputs]
    return grad_inputs


# ---------------------------------------------------------------------------
# the stack's lowerings: phase polynomials for RX/CNOT circuits, and ansatz
# matrices when the data enter only through a first embedding, the rest of
# the circuit then being one unitary U per set of params, shared by all rows


def lowering(template: CircuitTemplate) -> str:
    """How a :class:`CircuitStack` runs circuits of ``template``:
    ``"phase"`` when every gate is an RX or a CNOT, else ``"matrix"``
    (product state x U) when the template's first segment is its only
    embedding and ansatz segments follow it, else ``"plan"``."""
    if _lowered(template).phase:
        return "phase"
    first, *rest = template.segments
    if isinstance(first, Embedding) and rest and all(isinstance(seg, Ansatz) for seg in rest):
        return "matrix"
    return "plan"


class _Frequencies(NamedTuple):
    """An RX/CNOT template's phase differences phi_(j ^ 2**q) - phi_j of
    the final X-basis amplitudes, one per pair (q, j) of states that differ
    in bit q alone, j with bit q 0, each a params part plus an inputs part.
    The inputs part of a pair on qubit q is s (source @ u), source the row
    ``[inputs | arctan(inputs)]``, for one sign s and one column u, a
    frequency, of ``inputs`` [2 * input_dim, m]; a pattern and its negation
    fold onto one frequency, whose first non-zero entry is positive.  The
    pair then adds to its circuit's coefficient of (q, u), column ``q * 2m
    + u`` of a row [n * 2m] (the next m columns are the sine terms).

    The n 2**(n-1) pairs are sorted by that column, ``slots``, so the pairs
    of one coefficient are one run, starting at each of ``starts``.
    ``params`` [P, n 2**(n-1)] takes a circuit's params to the params parts
    dp of the pairs, and ``signs`` holds their signs.  The spread from
    pairs to frequencies is kept as these indices and signs: as a 0/+-1
    matrix it would be n 2**(n-1) x m, 1 GB at 12 qubits and one layer."""

    params: np.ndarray
    inputs: np.ndarray
    signs: np.ndarray
    slots: np.ndarray
    starts: np.ndarray


@lru_cache(maxsize=None)
def _frequencies(template: CircuitTemplate) -> _Frequencies:
    """The frequency table of an RX/CNOT template.  Each path starts at
    X-basis state j0 with phase 0; an RX on qubit q adds theta / 2 times
    the sign of the path's bit q, and CNOT(c -> t) flips the path's bit c
    where its bit t is set."""
    n = template.n_qubits
    ops, columns, scatter, _ = _lowered(template)
    labels = np.arange(1 << n)
    phases = np.zeros((1 << n, columns.size))  # d phi / d angle, by start
    for kind, a, b in ops:
        if kind == "CNOT":
            labels ^= ((labels >> b) & 1) << a
        else:
            phases[:, b] = 0.5 - ((labels >> a) & 1)
    final = np.empty_like(phases)
    final[labels] = phases
    index = np.arange(1 << n)
    low = np.concatenate([index[(index >> q) & 1 == 0] for q in range(n)])
    high = low | np.repeat(1 << np.arange(n), 1 << (n - 1))
    differences = (final[high] - final[low]) @ scatter  # [n * 2**(n-1), n_sources]
    n_params = template.total_params
    patterns = differences[:, n_params:]
    # the sign of each pattern's first non-zero entry; +1 for a zero pattern
    padded = np.hstack([patterns, np.ones((len(patterns), 1))])
    signs = np.sign(padded[np.arange(len(padded)), np.argmax(padded != 0, axis=1)])
    frequencies, which = np.unique(patterns * signs[:, None], axis=0, return_inverse=True)
    slots = np.repeat(2 * len(frequencies) * np.arange(n), 1 << (n - 1)) + which.ravel()
    order = np.argsort(slots, kind="stable")
    slots = slots[order]
    table = _Frequencies(
        np.ascontiguousarray(differences[order, :n_params].T),
        np.ascontiguousarray(frequencies.T),
        signs[order],
        slots,
        np.flatnonzero(np.diff(slots, prepend=-1)),
    )
    for array in table:
        array.setflags(write=False)
    return table


def _embedding_factors(template: CircuitTemplate, inputs: np.ndarray) -> np.ndarray:
    """The one-qubit states [n, 2, ...] that the first segment's rotations
    make from |0> for inputs [..., input_dim], (cos, -i sin) of the half
    angle for RX and (cos, sin) for RY.  A qubit that encodes no feature
    stays |0>."""
    embedding = template.segments[0]
    count = len(embedding.feature_slots)
    angles = np.moveaxis(inputs[..., list(embedding.feature_slots)], -1, 0)
    if embedding.transform == "arctan":
        angles = np.arctan(angles)
    phase = -1j if embedding.axis == "X" else 1.0
    factors = np.zeros((template.n_qubits, 2) + inputs.shape[:-1], dtype=np.complex128)
    factors[count:, 0] = 1.0
    factors[:count, 0], factors[:count, 1] = np.cos(0.5 * angles), phase * np.sin(0.5 * angles)
    return factors


def _product_state(factors: np.ndarray) -> np.ndarray:
    """The product of one-qubit states [n, 2, ...] as column-major
    amplitudes [..., 2**n], qubit 0 the least significant bit."""
    lead = factors.shape[2:]
    state = factors[0].reshape(2, -1)
    for factor in factors[1:]:
        state = (factor.reshape(2, 1, -1) * state[None]).reshape(-1, state.shape[-1])
    return state.T.reshape(lead + (-1,))


class _AnsatzMatrix(NamedTuple):
    """How a template that takes the ansatz matrix builds and reads U.
    ``plan`` is the fused plan of its ansatz segments alone, without the
    embedding: its angles are the params in circuit order, and each of its
    L blocks, one ansatz layer, holds one group per qubit, in qubit order.
    ``embedding`` [count, 2 * input_dim] takes the derivatives of the
    embedding angles to the source columns ``[inputs | arctan(inputs)]``.

    With U_b = W_b ... W_1 the product through block b's CNOT layer P_b,
    the overlap just after the block's rotations is C_b = P_b^T (U_b C0
    U_b^dagger) P_b, so C_b[a, c] = X[v[a], v[c]] for X = U_b C0
    U_b^dagger and v the inverse gather of P_b.  ``reads`` [L, n + 1, dim]
    are flat indices into the L matrices X of C_b[i ^ 2**q, i] for each
    qubit q, then of the diagonal C_b[i, i]; ``sums`` [dim, n + 1] holds a
    column of ones and each qubit's signs z_q.  Tr(X_q C_b) is then the sum
    of C_b[i ^ 2**q, i], Tr(Y_q C_b) -i times that sum signed by z_q(i),
    and Tr(Z_q C_b) the diagonal's sum signed by z_q(i)."""

    plan: _Plan
    embedding: np.ndarray
    reads: np.ndarray
    sums: np.ndarray


@lru_cache(maxsize=None)
def _ansatz_matrix(template: CircuitTemplate) -> _AnsatzMatrix:
    n, dim = template.n_qubits, 1 << template.n_qubits
    plan = _plan(CircuitTemplate(n, 0, template.segments[1:]))
    index, reads = np.arange(dim), []
    for b, (_, _, inverse) in enumerate(plan.blocks):
        undo = index if inverse is None else inverse
        rows = np.stack([undo[index ^ (1 << q)] for q in range(n)] + [undo])
        reads.append((b * dim + rows) * dim + undo)
    count = len(template.segments[0].feature_slots)
    layout = _AnsatzMatrix(
        plan,
        _lowered(template).scatter[:count, template.total_params :].copy(),
        _index(reads),
        np.vstack([np.ones(dim), sim._z_signs(n)]).T.astype(np.complex128),
    )
    for table in (layout.embedding, layout.sums):
        table.setflags(write=False)
    return layout


# the unitaries w I - i (x X + y Y + z Z) of quaternions (w, x, y, z): row c
# is the 2x2 matrix, flattened, that component c multiplies
_QUATERNION_BASIS = np.array(
    [[1, 0, 0, 1], [0, -1j, -1j, 0], [0, -1, 1, 0], [-1j, 0, 0, 1j]], dtype=np.complex128
)
_QUATERNION_BASIS.setflags(write=False)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kron(a, b) of square matrices [..., m, m] and [..., k, k]."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (out.shape[-4] * out.shape[-3], -1))


def _ansatz_products(
    layout: _AnsatzMatrix, cos: np.ndarray, sin: np.ndarray, every: bool
) -> np.ndarray:
    """The products U_b = W_b ... W_1 [circuits, L, 2**n, 2**n] through
    each block b of ``layout.plan`` when ``every``, else only U = U_L, as
    [circuits, 1, 2**n, 2**n].  ``cos`` and ``sin`` are the fused tables of
    the cosines and sines of the half angles [n_angles, circuits].

    W_b = P_b (A_b x B_b): A_b and B_b are the Kronecker products of the
    unitaries of the block's groups on the high and on the low half of the
    qubits, made for every block at once, and P_b is the CNOT layer after
    the block.  W_1 is made whole; each later W_b is applied to U_(b-1) as
    B_b on the low bits of its row index, then A_b on the high bits, and
    then P_b, so it costs (2**(n-n/2) + 2**(n/2)) 4**n products instead of
    8**n, and the build holds at most two 2**n x 2**n matrices per circuit
    beyond the ones it returns."""
    plan, circuits, blocks = layout.plan, cos.shape[-1], len(layout.plan.blocks)
    n = plan.n_groups // blocks
    quats = _group_quaternions(plan, cos, sin)  # [4, n_groups, circuits]
    units = (_QUATERNION_BASIS.T @ quats.reshape(4, -1)).T.reshape(blocks, n, circuits, 2, 2)
    factors = [units[:, q] for q in range(n - 1, -1, -1)]  # qubit n - 1 first
    high = reduce(_kron, factors[: n - n // 2])
    low = reduce(_kron, factors[n - n // 2 :], np.ones((blocks, circuits, 1, 1)))
    dim, split = 1 << n, (circuits, high.shape[-1], low.shape[-1], 1 << n)
    product, kept = None, []
    for (_, layer, _), a, b in zip(plan.blocks, high, low):
        if product is None:
            product = _kron(a, b)
        else:
            product = b[:, None] @ product.reshape(split)
            product = (a @ product.reshape(split[:2] + (-1,))).reshape(circuits, dim, dim)
        if layer is not None:
            product = product[:, layer]  # (P v)[i] = v[layer[i]]
        if every:
            kept.append(product)
    return np.stack(kept, axis=1) if every else product[:, None]


class CircuitStack:
    """K circuits of one template, each with its own params ``params``
    [..., K, P], to run on input rows [..., B, input_dim] that each run
    shares among its circuits, and to differentiate.  Leading axes are
    models: the circuits of M models of one shape are one stack with params
    [M, K, P], and each model's inputs [M, B, input_dim] reach only its own
    circuits.  :func:`lowering` picks one of three ways for all its runs,
    named by ``lowering``.  A stack that will only run, never be
    differentiated, is ``forward_only`` and keeps less.

    * Phase: each pair's phase difference is a params part dp_j plus s_j
      x_u, x_u = source @ u for one of the template's m input frequencies u
      (:func:`_frequencies`).  So <Z_q> is a Fourier series in the inputs
      (Schuld, Sweke & Meyer, arXiv:2008.08605): the encoding fixes the
      frequencies, and the params set only their coefficients z_qu, the
      sum of exp(i s_j dp_j) over qubit q's pairs on u.  They are made once
      per stack, as ``coefficients`` [..., K, n, 2m], 2**(1-n) (Re z, -Im
      z); a run makes the features t = (cos x, sin x) [..., B, 2m] of its
      rows (:meth:`features`), and <Z> is t times the coefficients.
      :meth:`backward` takes dt back to the inputs through the frequencies
      (:meth:`feature_grads`) and adds sum_b w t to the seeds, per circuit,
      qubit and frequency (:meth:`add_seeds`); :meth:`param_grads` hands
      each pair its coefficient's seeds and takes them back to the params
      once.  ``run`` and ``backward`` are these parts composed; a caller
      that maps the outputs on linearly, as the qlstm's fc_out maps do, may
      fold its maps into the coefficients and call the parts itself.  A
      forward-only stack keeps only the coefficients.
    * Ansatz matrix: ``matrices`` [..., K, 2**n, 2**n] holds each
      circuit's U = W_L ... W_1, the product of the unitaries of its
      ansatz blocks (:func:`_ansatz_products`).  A run is the product state
      phi of each input row times U^T, psi = U phi.  With lambda = (w @ Z)
      psi the amplitude cotangent of f = sum w <Z>, :meth:`backward` takes
      mu = U^dagger lambda to the embedding angles per row and adds the
      overlap C0 = sum_b phi_b mu_b^dagger of each circuit to its seeds.
      Every row of a circuit shares its ansatz angles, so
      :meth:`param_grads` makes one adjoint sweep over C0 instead of over
      the rows: the overlap just after block b's rotations is U_b C0
      U_b^dagger with its CNOT layer undone, U_b = W_b ... W_1 the
      products the build kept.  It makes them for every block at once,
      reads Im Tr(sigma C_b) for the three Paulis sigma on every qubit
      (:class:`_AnsatzMatrix`), and :func:`_member_grads` turns the
      readings into angle derivatives, as in the plan's sweep.  A
      forward-only stack keeps only U.
    * Plan: every run goes through the fused plan, and :meth:`backward`
      makes one adjoint sweep over its rows.

    ``grads`` [..., K, P] accumulates the plan path's parameter gradients.
    """

    def __init__(self, template: CircuitTemplate, params: np.ndarray, forward_only: bool = False):
        self.template = template
        self.params = params
        self.grads = np.zeros(params.shape)
        self.lowering = lowering(template)
        self.seeds = None
        n = template.n_qubits
        if self.lowering == "phase":
            self.frequencies = table = _frequencies(template)
            m = table.inputs.shape[1]
            dp = params @ table.params  # [..., K, n 2**(n-1)]
            cos, sin = np.cos(dp), np.sin(dp)
            z = np.zeros(dp.shape[:-1] + (n * 2 * m,))
            coefficient = table.slots[table.starts]
            z[..., coefficient] = np.add.reduceat(cos, table.starts, axis=-1)
            z[..., coefficient + m] = np.add.reduceat(sin * -table.signs, table.starts, axis=-1)
            z *= 2.0 ** (1 - n)
            self.coefficients = z.reshape(dp.shape[:-1] + (n, 2 * m))
            if not forward_only:
                self.pairs = cos, sin
        elif self.lowering == "matrix":
            self.layout = _ansatz_matrix(template)
            half = _half_angles(self.layout.plan, params.reshape(-1, params.shape[-1]))
            cos = np.cos(half)
            sin = np.sin(half, out=half)
            products = _ansatz_products(self.layout, cos, sin, not forward_only)
            if not forward_only:
                self.products, self.turns = products, (cos, sin)
            matrix = products[:, -1]
            self.matrices = matrix.reshape(params.shape[:-1] + matrix.shape[-2:])

    def run(self, circuits: slice, inputs: np.ndarray) -> tuple[np.ndarray, object]:
        """<Z> [..., k, B, n] of the given circuits on the inputs [...,
        B, input_dim], and the record :meth:`backward` differentiates them
        from."""
        template = self.template
        if self.lowering == "phase":
            t = self.features(inputs)
            return t[..., None, :, :] @ self.coefficients[..., circuits, :, :].swapaxes(-1, -2), t
        if self.lowering == "plan":
            angles = _angle_table(
                template, self.params[..., circuits, None, :], inputs[..., None, :, :]
            )
            rows = angles.shape[:-1]  # [..., k, B]
            angles = angles.reshape(-1, angles.shape[-1])
            exps, states = _run_rows(template, angles)
            return exps.reshape(rows + (-1,)), (angles, states)
        product = _product_state(_embedding_factors(template, inputs))  # [..., B, 2**n]
        amps = product[..., None, :, :] @ self.matrices[..., circuits, :, :].swapaxes(-1, -2)
        exps = sim._expect_z_rows(amps.reshape(-1, amps.shape[-1]))
        return exps.reshape(amps.shape[:-1] + (-1,)), (product, amps)

    def features(self, inputs: np.ndarray) -> np.ndarray:
        """The phase lowering's Fourier features t = (cos x, sin x) [..., B,
        2m] of the inputs [..., B, input_dim], x their m input frequencies:
        circuit k's <Z> is t times its ``coefficients[..., k, :, :]``
        transposed."""
        source = np.concatenate([inputs, np.arctan(inputs)], axis=-1)
        x = source @ self.frequencies.inputs
        return np.concatenate([np.cos(x), np.sin(x)], axis=-1)

    def feature_grads(self, t: np.ndarray, dt: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """The input gradient [..., B, input_dim] of the inputs whose
        :meth:`features` are t, for the gradient dt [..., B, 2m] at t."""
        m = t.shape[-1] // 2
        dx = t[..., :m] * dt[..., m:] - t[..., m:] * dt[..., :m]
        return _input_grads(dx @ self.frequencies.inputs.T, inputs)

    def add_seeds(self, circuits: slice, seeds: np.ndarray) -> None:
        """Add seeds [..., k, ...] to the given circuits' seeds, from which
        :meth:`param_grads` makes the parameter gradients: for the phase
        lowering sum_b w t [..., k, n, 2m] (w the weights of <Z>), for the
        ansatz matrix the overlaps C0 [..., k, 2**n, 2**n]."""
        if self.seeds is None:
            self.seeds = np.zeros(self.params.shape[:-1] + seeds.shape[-2:], dtype=seeds.dtype)
        self.seeds[..., circuits, :, :] += seeds

    def backward(
        self, circuits: slice, record, weights: np.ndarray, inputs: np.ndarray
    ) -> np.ndarray:
        """Differentiate sum weights * <Z> of a :meth:`run`, weights [...,
        k, B, n]: adds the parameter gradient to the stack's and returns the
        input gradient [..., B, input_dim], summed over the circuits."""
        template = self.template
        if self.lowering == "phase":
            t = record
            self.add_seeds(circuits, weights.swapaxes(-1, -2) @ t[..., None, :, :])
            dt = (weights @ self.coefficients[..., circuits, :, :]).sum(axis=-3)  # [..., B, 2m]
            return self.feature_grads(t, dt, inputs)
        if self.lowering == "matrix":
            return self._matrix_backward(circuits, record, weights, inputs)
        angles, states = record
        rows = weights.shape[:-1]  # [..., k, B]
        cotangent = (weights.reshape(-1, template.n_qubits) @ sim._z_signs(template.n_qubits)) * states
        dangles = _adjoint_rows(template, angles, states, cotangent)
        per_row = np.broadcast_to(inputs[..., None, :, :], rows + inputs.shape[-1:])
        grad_params, grad_inputs = _angle_grads_to_args(
            template, dangles, per_row.reshape(-1, inputs.shape[-1])
        )
        self.grads[..., circuits, :] += grad_params.reshape(rows + (-1,)).sum(axis=-2)
        return grad_inputs.reshape(rows + (-1,)).sum(axis=-3)

    def _matrix_backward(self, circuits, record, weights, inputs) -> np.ndarray:
        template, (product, amps) = self.template, record
        n = template.n_qubits
        cotangent = (weights.reshape(-1, n) @ sim._z_signs(n)).reshape(amps.shape) * amps
        back = cotangent @ self.matrices[..., circuits, :, :].conj()  # U^dagger lambda, as rows
        self.add_seeds(circuits, product[..., None, :, :].swapaxes(-1, -2) @ back.conj())
        # every circuit reads the same product state, so the embedding angles
        # take the sum of the circuits' U^dagger lambda
        back = back.sum(axis=-3)
        embedding, dim = self.layout.embedding, product.shape[-1]
        if not len(embedding):  # an embedding of no features: no input enters
            return np.zeros(inputs.shape)
        readings = sim._pauli_rows(
            product.reshape(-1, dim), back.reshape(-1, dim).conj(), tuple(range(len(embedding)))
        )
        dangles = readings[AXES.index(template.segments[0].axis)].T  # [rows, count]
        return _input_grads((dangles @ embedding).reshape(inputs.shape[:-1] + (-1,)), inputs)

    def param_grads(self) -> np.ndarray:
        """The parameter gradients [..., K, P] of every :meth:`backward` so
        far."""
        if self.seeds is None:
            return self.grads
        if self.lowering == "matrix":
            return self.grads + self._overlap_sweep()
        # seeds hold sum_b w (cos x, sin x) per qubit and frequency; each
        # pair j takes its own: d/d(dp_j) = -2**(1-n) sum_b w sin(dp_j + s_j x)
        table, (cos, sin), m = self.frequencies, self.pairs, self.seeds.shape[-1] // 2
        seeds = self.seeds.reshape(self.seeds.shape[:-2] + (-1,))  # [..., K, n 2m]
        d_pairs = sin * seeds[..., table.slots]
        d_pairs += cos * table.signs * seeds[..., table.slots + m]
        d_pairs *= -(2.0 ** (1 - self.template.n_qubits))
        return self.grads + d_pairs @ table.params.T

    def _overlap_sweep(self) -> np.ndarray:
        """The parameter gradients [..., K, P] from the overlaps C0 in the
        seeds: every block's overlap C_b at once, then one reading of the
        three Paulis on every qubit of every block."""
        layout, dim = self.layout, self.seeds.shape[-1]
        products, n = self.products, layout.sums.shape[-1] - 1
        circuits = len(products)
        overlaps = products.reshape(circuits, -1, dim) @ self.seeds.reshape(circuits, dim, dim)
        # [circuits, L, dim, dim]
        overlaps = overlaps.reshape(products.shape) @ products.conj().swapaxes(-1, -2)
        read = overlaps.reshape(circuits, -1)[:, layout.reads].reshape(-1, dim) @ layout.sums
        read = read.reshape((circuits,) + layout.reads.shape[:2] + (n + 1,))
        # read [circuits, L, n + 1, n + 1]: X and Y from the flipped sums of
        # each qubit, Z from the diagonal; the plan's groups are (L, n)
        pauli = np.stack([
            read[..., :n, 0].imag,
            -np.diagonal(read[..., :n, 1:], axis1=-2, axis2=-1).real,
            read[..., n, 1:].imag,
        ]).reshape(3, len(read), -1)
        grads = _member_grads(layout.plan, pauli.swapaxes(1, 2), *self.turns)
        return grads.reshape(self.params.shape)


def _check_batch_args(
    template: CircuitTemplate, params, inputs_batch, output_weights_batch=None
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Params [P], inputs [rows, input_dim] and, when given, output weights
    [rows, n_qubits] as float arrays; any other shape is a
    ``ConfigurationError``."""
    params = np.asarray(params, dtype=float)
    inputs_batch = np.asarray(inputs_batch, dtype=float)
    if params.shape != (template.total_params,):
        raise ConfigurationError(
            f"expected {template.total_params} params, got shape {params.shape}"
        )
    if inputs_batch.ndim != 2 or inputs_batch.shape[1] != template.input_dim:
        raise ConfigurationError(
            f"expected inputs with {template.input_dim} columns, "
            f"got shape {inputs_batch.shape}"
        )
    if output_weights_batch is None:
        return params, inputs_batch, None
    weights = np.asarray(output_weights_batch, dtype=float)
    if weights.shape != (inputs_batch.shape[0], template.n_qubits):
        raise ConfigurationError(
            "output weights must have one row per input row and one column "
            f"per qubit; got {weights.shape}"
        )
    return params, inputs_batch, weights


def evaluate(
    template: CircuitTemplate, params: Sequence[float], inputs: Sequence[float]
) -> np.ndarray:
    """Run the circuit from |0...0> and return all Pauli-Z expectations."""
    params, row, _ = _check_batch_args(
        template, params, np.asarray(inputs, dtype=float)[None]
    )
    return _run_rows(template, _angle_table(template, params, row))[0][0]


def adjoint_grad_batch(
    template: CircuitTemplate,
    params: Sequence[float],
    inputs_batch: np.ndarray,
    output_weights_batch: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The gradients of :func:`parameter_shift_grad_batch`, by adjoint
    differentiation: one forward and one backward pass over the batch rows
    instead of 2 * n_angles shifted circuits per row.  It needs the
    simulator's amplitudes, so it has no counterpart on hardware.
    """
    params, inputs_batch, weights = _check_batch_args(
        template,
        params,
        np.atleast_2d(inputs_batch),
        np.atleast_2d(output_weights_batch),
    )
    angles = _angle_table(template, params, inputs_batch)
    _, states = _run_rows(template, angles)
    cotangent = (weights @ sim._z_signs(template.n_qubits)) * states
    dangles = _adjoint_rows(template, angles, states, cotangent)
    return _angle_grads_to_args(template, dangles, inputs_batch)


def parameter_shift_grad_batch(
    template: CircuitTemplate,
    params: Sequence[float],
    inputs_batch: np.ndarray,
    output_weights_batch: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row gradients of f_b = sum_q w[b, q] * <Z_q>(params, inputs[b]).

    Returns ``(grad_params [B, P], grad_inputs [B, input_dim])``.  All
    shifted circuits for the whole batch are evaluated in one batched run.
    """
    params, inputs_batch, weights = _check_batch_args(
        template,
        params,
        np.atleast_2d(inputs_batch),
        np.atleast_2d(output_weights_batch),
    )
    batch = inputs_batch.shape[0]
    n_angles = _lowered(template).columns.size
    if n_angles == 0 or not np.any(weights):
        return np.zeros((batch, template.total_params)), np.zeros(
            (batch, template.input_dim)
        )

    base = _angle_table(template, params, inputs_batch)
    # rows: for each sample, 2 * n_angles shifted copies (+pi/2 then -pi/2)
    rows = np.repeat(base, 2 * n_angles, axis=0)
    offsets = np.zeros((2 * n_angles, n_angles))
    ar = np.arange(n_angles)
    offsets[2 * ar, ar] = SHIFT
    offsets[2 * ar + 1, ar] = -SHIFT
    rows += np.tile(offsets, (batch, 1))
    exps, _ = _run_rows(template, rows)  # [batch * 2A, n_qubits]
    f = np.einsum("bq,baq->ba", weights, exps.reshape(batch, 2 * n_angles, -1))
    dangle = 0.5 * (f[:, 0::2] - f[:, 1::2])  # [batch, n_angles]
    return _angle_grads_to_args(template, dangle, inputs_batch)


def parameter_shift_grad(
    template: CircuitTemplate,
    params: Sequence[float],
    inputs: Sequence[float],
    output_weights: Optional[Sequence[float]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient of f = sum_q w_q * <Z_q> w.r.t. params and inputs.

    ``output_weights`` defaults to reading qubit 0 only.  The same rule
    differentiates encoded inputs (with the arctan chain rule when that
    transform is active); an input appearing in several embedding segments
    accumulates all its shift terms.
    """
    if output_weights is None:
        output_weights = np.zeros(template.n_qubits)
        output_weights[0] = 1.0
    params, row, weights = _check_batch_args(
        template,
        params,
        np.asarray(inputs, dtype=float)[None],
        np.asarray(output_weights, dtype=float)[None],
    )
    gp, gx = parameter_shift_grad_batch(template, params, row, weights)
    return gp[0], gx[0]


# ---------------------------------------------------------------------------
# ready-made templates and parameter initialisation


def linear_vqr_template(
    n_qubits: int, n_layers: int, axis: str = "Y", transform: str = "arctan"
) -> CircuitTemplate:
    """Single embedding followed by one strongly entangling block."""
    embedding = Embedding(axis, tuple(range(n_qubits)), transform)
    ansatz = Ansatz("strongly_entangling", n_layers)
    return CircuitTemplate(n_qubits, n_qubits, (embedding, ansatz))


def nonlinear_vqr_template(
    n_qubits: int, n_layers: int, axis: str = "Y", transform: str = "arctan"
) -> CircuitTemplate:
    """Data re-uploading: n_layers repetitions of [embedding; one SE layer]."""
    embedding = Embedding(axis, tuple(range(n_qubits)), transform)
    pair = (embedding, Ansatz("strongly_entangling", 1))
    return CircuitTemplate(n_qubits, n_qubits, pair * n_layers)


def ring_rx_template(
    n_qubits: int, n_layers: int, transform: str = "identity"
) -> CircuitTemplate:
    """RX angle embedding followed by a ring-RX ansatz (recurrent-cell circuit)."""
    embedding = Embedding("X", tuple(range(n_qubits)), transform)
    return CircuitTemplate(n_qubits, n_qubits, (embedding, Ansatz("ring_rx", n_layers)))


def init_params(template: CircuitTemplate, rng: np.random.Generator) -> np.ndarray:
    """Trainable angles drawn uniformly from [0, 2*pi)."""
    return rng.uniform(0.0, 2.0 * math.pi, template.total_params)

