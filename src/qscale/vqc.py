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
  CNOT-free block of the ansatz's plan, made from its group quaternions.
  The embedding makes a product state D r, r real in closed form and D the
  fixed phases of an RX embedding, so each <Z_q> is a fixed quadratic form
  r . (A_q r), A_q = Re(D^dagger U^dagger Z_q U D), made once per set of
  params; a row costs one real product per qubit read, and no row of
  amplitudes is made.  Every row of a circuit shares U, so the backward
  pass sums the batch into one 2**n x 2**n overlap matrix per circuit,
  from the rows' outer products, and sweeps that through the blocks, where
  the plan would sweep every row; it turns the rows to the input gradient
  only for a caller that asks for it.
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
    layer's inverse (``None`` where no CNOT follows), and ``class_slots``
    each group's place in class order."""

    order: np.ndarray
    fused_of_angle: np.ndarray
    blocks: tuple[tuple[tuple[int, ...], Optional[np.ndarray], Optional[np.ndarray]], ...]
    classes: tuple[_Class, ...]
    n_groups: int
    class_slots: np.ndarray


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
        _index(np.argsort([g for cls in classes for g in cls.groups])),
    )


def _group_quaternions(plan: _Plan, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Unit quaternions (w, x, y, z) [4, n_groups, rows] of every group's
    unitary U = w I - i (x X + y Y + z Z), from the fused tables of the
    cosines and sines of the half angles [n_angles, rows]."""
    by_class, end = np.zeros((4, plan.n_groups, cos.shape[-1])), 0
    for cls in plan.classes:
        c, s = cls.slab(cos), cls.slab(sin)  # [L, G, rows]
        start, end = end, end + cls.groups.size
        q = by_class[:, start:end]
        q[0], q[1 + cls.axes[0]] = c[0], s[0]
        turn = np.empty_like(q)
        for m in range(1, len(cls.axes)):
            # left-multiply by the member's rotation, in place
            np.matmul(_LEFT_PRODUCT[cls.axes[m]], q.reshape(4, -1), out=turn.reshape(4, -1))
            turn *= s[m]
            q *= c[m]
            q += turn
    return by_class.take(plan.class_slots, axis=1)


def _run_rows(template: CircuitTemplate, angle_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate many circuits sharing the template structure.

    ``angle_rows`` has shape [rows, n_angles]; each row starts from
    |0...0>.  Returns the Pauli-Z expectations [rows, n_qubits] and the
    final column-major amplitudes [rows, 2**n], from which
    :func:`_adjoint_rows` differentiates the same circuits.
    """
    plan = _plan(template)
    half = 0.5 * angle_rows.T.take(plan.order, axis=0)  # the fused table [n_angles, rows]
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
    half = 0.5 * angle_rows.T.take(plan.order, axis=0)
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
    return _member_grads(plan, pauli, 1.0 - 2.0 * sin**2, 2.0 * sin * cos)


def _member_grads(plan: _Plan, pauli: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Derivatives [rows, n_angles] of every gate angle from the readings
    t = Im Tr(sigma R) [3, n_groups, rows] of the three Paulis, taken just
    after each group, and the fused tables of the cosines and sines of the
    angles [n_angles, rows].  Member m of a group has derivative Im Tr(P'
    R), P' its Pauli conjugated by the later members, so t turned back
    through each later member's rotation gives them all."""
    dfused = np.empty_like(sin)
    for cls in plan.classes:
        t = pauli.take(cls.groups, axis=1)  # [3, G, rows]
        c, s = cls.slab(cos), cls.slab(sin)  # [L, G, rows]
        d = cls.slab(dfused)
        for m in range(len(cls.axes) - 1, -1, -1):
            k = cls.axes[m]
            d[m] = t[k]
            if m:  # turn t back through member m's rotation about axis k, in place
                ti, tj, cm, sm = t[(k + 1) % 3], t[(k + 2) % 3], c[m], s[m]
                minus = sm * ti
                ti *= cm
                ti += sm * tj  # c t_i + s t_j
                tj *= cm
                tj -= minus  # c t_j - s t_i
    return dfused.take(plan.fused_of_angle, axis=0).T


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


def fourier_features(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The Fourier features t = (cos x, sin x) [..., 2m] of the angles x
    [..., m] of the m input frequencies, written into ``out`` when given:
    a phase-lowered circuit's <Z> is t times its coefficients."""
    m = x.shape[-1]
    if out is None:
        out = np.empty(x.shape[:-1] + (2 * m,))
    np.cos(x, out=out[..., :m])
    np.sin(x, out=out[..., m:])
    return out


def turned(a: np.ndarray) -> np.ndarray:
    """a [..., 2m] in the layout of the Fourier features (cos x, sin x),
    with its halves swapped and the new second one negated: (a_sin,
    -a_cos).  The gradient at the angles x for a gradient dt at the
    features t is dx = cos x dt_sin - sin x dt_cos, the sum of the two
    halves of t * turned(dt) (:meth:`CircuitStack.feature_grads`).  A
    caller whose dt is D F^T may turn F^T once instead, and fold the
    halves' sum into the product that takes dx on."""
    m = a.shape[-1] // 2
    return np.concatenate([a[..., m:], -a[..., :m]], axis=-1)


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
    of one coefficient are one run.  ``params`` [P, n 2**(n-1)] takes a
    circuit's params to the params parts dp of the pairs, and ``signs``
    holds their signs.  The spread from pairs to frequencies is kept as
    these indices and signs: as a 0/+-1 matrix it would be n 2**(n-1) x m,
    1 GB at 12 qubits and one layer.  A circuit sums its pairs' terms [cos
    | sin | 0] by the runs starting at ``starts``, and ``spread`` [n * 2m]
    gathers its coefficients from the sums, the zero where no pair adds."""

    params: np.ndarray
    inputs: np.ndarray
    signs: np.ndarray
    slots: np.ndarray
    starts: np.ndarray
    spread: np.ndarray


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
    starts = np.flatnonzero(np.diff(slots, prepend=-1))
    columns, runs = slots[starts], np.arange(2 * starts.size)
    spread = np.full(2 * len(frequencies) * n, runs.size)
    spread[np.concatenate([columns, columns + len(frequencies)])] = runs
    table = _Frequencies(
        np.ascontiguousarray(differences[order, :n_params].T),
        np.ascontiguousarray(frequencies.T),
        signs[order],
        slots,
        np.concatenate([starts, starts + slots.size, [2 * slots.size]]),
        spread,
    )
    for array in table:
        array.setflags(write=False)
    return table


def _product_states(
    template: CircuitTemplate, inputs: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """The real product states r [..., 2**n, B] of the first segment's
    embedding for inputs [..., B, input_dim], qubit 0 the least significant
    bit of the amplitude index: per qubit (cos, sin) of the half angle, and
    (1, 0) where no feature is encoded.  An RY embedding makes r from
    |0...0>, an RX one D r, D the phases (-i)**popcount(a) of the embedded
    bits of each basis state a (``_AnsatzMatrix.phases``).  The states are
    amplitude-major, as the lstm's are feature-major, so that each step of
    the build and each product runs over contiguous rows of B.  Written
    into ``out``, a C-contiguous array, when given."""
    embedding = template.segments[0]
    count, rows, lead = len(embedding.feature_slots), inputs.shape[-2], inputs.shape[:-2]
    half = inputs.reshape(-1, inputs.shape[-1]).T.take(embedding.feature_slots, axis=0)
    if embedding.transform == "arctan":
        np.arctan(half, out=half)
    half *= 0.5
    half = half.reshape((count,) + lead + (1, rows))
    factors = np.empty((count,) + lead + (2, rows))  # per qubit (cos, sin) of the half angle
    np.cos(half, out=factors[..., :1, :])
    np.sin(half, out=factors[..., 1:, :])
    if out is None:
        out = np.empty(lead + (1 << template.n_qubits, rows))
    if count < template.n_qubits:
        out[..., 1 << count :, :] = 0.0
    # qubit q's factor times the states of qubits 0 .. q - 1, the last into out
    state = factors[0] if count else np.ones(lead + (1, rows))
    for q in range(1, count):
        into = out[..., : 2 << q, :].reshape(lead + (2, 1 << q, rows)) if q == count - 1 else None
        state = np.multiply(factors[q][..., None, :], state[..., None, :, :], out=into)
        state = state.reshape(lead + (2 << q, rows))
    if count <= 1:
        out[..., : 1 << count, :] = state
    return out


class _AnsatzMatrix(NamedTuple):
    """How a template that takes the ansatz matrix builds and reads U.
    ``plan`` is the fused plan of its ansatz segments alone, without the
    embedding: its angles are the params in circuit order, and each of its
    L blocks, one ansatz layer, holds one group per qubit, in qubit order.
    ``layers`` [L, 2**n] gathers each block's CNOT layer, the identity
    where none follows.  ``embedding`` [count, 2 * input_dim] takes the
    derivatives of the embedding angles to the source columns ``[inputs |
    arctan(inputs)]``.  ``phases`` [2**n] is the diagonal D of an RX
    embedding's product states D r, ones for RY.  ``flips`` and ``turns``
    [count, 2**n] turn the real product states r towards their embedding
    angles: d r / d theta_j = J_j r / 2, (J_j r)[i] = turns[j, i] r[flips[j,
    i]] = -+ r[i ^ 2**j], minus where bit j of i is 0.

    With U_b = W_b ... W_1 the product through block b's CNOT layer P_b,
    the overlap just after the block's rotations is C_b = P_b^T (U_b C0
    U_b^dagger) P_b, so C_b[a, c] = X[v[a], v[c]] for X = U_b C0
    U_b^dagger and v the inverse gather of P_b.  ``reads`` [L, n + 1, dim]
    are flat indices into the L matrices X of C_b[i ^ 2**q, i] for each
    qubit q, then of the diagonal C_b[i, i].  ``sums`` [dim, 2n + 1] holds
    a column of ones, each qubit's signs z_q, and each -i z_q: Tr(X_q C_b)
    is the sum of C_b[i ^ 2**q, i], Tr(Y_q C_b) that sum weighted by -i
    z_q(i), and Tr(Z_q C_b) the diagonal's sum weighted by z_q(i).
    ``picks`` [3, L, n] are the flat indices of these three among the
    products [L, n + 1, 2n + 1] of the reads and the sums."""

    plan: _Plan
    layers: np.ndarray
    embedding: np.ndarray
    phases: np.ndarray
    flips: np.ndarray
    turns: np.ndarray
    reads: np.ndarray
    sums: np.ndarray
    picks: np.ndarray


@lru_cache(maxsize=None)
def _ansatz_matrix(template: CircuitTemplate) -> _AnsatzMatrix:
    n, dim = template.n_qubits, 1 << template.n_qubits
    first = template.segments[0]
    count = len(first.feature_slots)
    plan = _plan(CircuitTemplate(n, 0, template.segments[1:]))
    index, layers, reads = np.arange(dim), [], []
    for b, (_, layer, inverse) in enumerate(plan.blocks):
        layers.append(index if layer is None else layer)
        undo = index if inverse is None else inverse
        rows = np.stack([undo[index ^ (1 << q)] for q in range(n)] + [undo])
        reads.append((b * dim + rows) * dim + undo)
    qubits, first_row = np.arange(n), (n + 1) * np.arange(len(layers))[:, None]
    columns = 2 * n + 1
    picks = [
        (first_row + qubits) * columns,  # X_q: row q, the ones
        (first_row + qubits) * columns + n + 1 + qubits,  # Y_q: row q, -i z_q
        (first_row + n) * columns + 1 + qubits,  # Z_q: the diagonal, z_q
    ]
    signs = sim._z_signs(n).T
    bits = (index[None, :] >> np.arange(count)[:, None]) & 1  # [count, dim]
    powers = np.array([1, -1j, -1, 1j]) if first.axis == "X" else np.ones(4, dtype=np.complex128)
    layout = _AnsatzMatrix(
        plan,
        _index(layers),
        _lowered(template).scatter[:count, template.total_params :].copy(),
        powers[bits.sum(axis=0) % 4],  # (-i)**popcount for RX
        _index(index ^ (1 << np.arange(count)[:, None])),
        2.0 * bits - 1.0,
        _index(reads),
        np.hstack([np.ones((dim, 1)), signs, -1j * signs]),
        _index(picks),
    )
    for table in (layout.embedding, layout.phases, layout.turns, layout.sums):
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
    B_b on the low bits of its row index, then A_b on the high bits, so it
    costs (2**(n-n/2) + 2**(n/2)) 4**n products instead of 8**n.  P_b then
    gathers the rows, when ``every`` straight into the array returned, so
    the build holds at most two 2**n x 2**n matrices per circuit beyond
    the ones it returns."""
    plan, circuits, blocks = layout.plan, cos.shape[-1], len(layout.layers)
    n = plan.n_groups // blocks
    quats = _group_quaternions(plan, cos, sin)  # [4, n_groups, circuits]
    units = (quats.reshape(4, -1).T @ _QUATERNION_BASIS).reshape(blocks, n, circuits, 2, 2)
    factors = [units[:, q] for q in range(n - 1, -1, -1)]  # qubit n - 1 first
    split = n - n // 2  # the qubits of the high half
    high = reduce(_kron, factors[1:split], factors[0])
    if split < n:
        low = reduce(_kron, factors[split + 1 :], factors[split])
    else:  # one qubit: no low half
        low = np.ones((blocks, circuits, 1, 1))
    dim, hi = 1 << n, high.shape[-1]
    halves = (circuits, hi, low.shape[-1], dim)  # the row index as (high bits, low bits)
    kept = np.empty((circuits, blocks, dim, dim), dtype=np.complex128) if every else None
    # one name holds each matrix in turn, so that each is freed once replaced
    product = _kron(high[0], low[0])
    for b, (layer, a, lo) in enumerate(zip(layout.layers, high, low[:, :, None])):
        if b:
            product = lo @ product.reshape(halves)
            product = (a @ product.reshape(circuits, hi, -1)).reshape(circuits, dim, dim)
        out = None if kept is None else kept[:, b]
        product = product.take(layer, axis=1, out=out, mode="clip")  # (P v)[i] = v[layer[i]]
    return product[:, None] if kept is None else kept


# the ansatz matrix's build rotates by the half angles, and its backward
# pass turns the Pauli readings by the angles
_HALF_AND_WHOLE = np.array([0.5, 1.0])[:, None, None]


@lru_cache(maxsize=None)
def _readout_signs(n_qubits: int, readout: tuple[int, ...]) -> np.ndarray:
    """The diagonals of Z_q [m, 2**n] of the read qubits."""
    signs = sim._z_signs(n_qubits).take(readout, axis=0)
    signs.setflags(write=False)
    return signs


class CircuitStack:
    """K circuits of one template, each with its own params ``params``
    [..., K, P], to run on input rows [..., B, input_dim] that each run
    shares among its circuits, and to differentiate.  Leading axes are
    models: the circuits of M models of one shape are one stack with params
    [M, K, P], and each model's inputs [M, B, input_dim] reach only its own
    circuits.  :func:`lowering` picks one of three ways for all its runs,
    named by ``lowering``.  A stack that will only run, never be
    differentiated, is ``forward_only`` and keeps less.  A run reads <Z> on
    the m qubits ``readout``, every qubit unless the caller names fewer,
    and a backward pass takes one weight per row and read qubit.  The
    ansatz matrix pays for each qubit it reads; the phase lowering reads
    every qubit.

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
      fold its maps into the coefficients and call the parts itself.  With
      an identity embedding the frequency angles x are linear in the
      inputs too, so a caller that makes its inputs by linear maps, as the
      qlstm's fc_in and projection do, may fold those into the frequencies
      and take :func:`fourier_features` of x and the gradient at x through
      :func:`turned` itself.  A forward-only stack keeps only the
      coefficients.
    * Ansatz matrix: the embedding makes a product state, D r with r real
      (:func:`_product_states`) and D the phases of an RX embedding, so
      each <Z_q> is a fixed quadratic form r . (A_q r) in r, the view the
      phase lowering takes: the encoding fixes the states, and the params
      set only the forms.  With U = W_L ... W_1 the product of the
      unitaries of the ansatz blocks (:func:`_ansatz_products`) and V = U
      D, M_q = V^dagger Z_q V and A_q = Re M_q, real and symmetric, made
      once per stack; ``forms`` [..., K, m, 2**n, 2**n] holds A_q for each
      read qubit, and a run costs one real product per row and read qubit.
      For f = sum w <Z>, w [..., k, B, m], :meth:`pull_back` adds to each
      circuit's seeds the overlap Y = sum_q S_q M_q, S_q = sum_b w_bq r_b
      r_b^T, which is D^dagger C0 D for the overlap C0 = sum_b phi_b
      mu_b^dagger of the product states phi = D r and the pulled-back
      cotangents mu = U^dagger O psi; no row of psi or mu is made.
      :meth:`embedding_grads` reads d f / d theta_j = sum_q w_q (A_q r) .
      (J_j r) (``_AnsatzMatrix.turns``), only for a caller that needs the
      input gradient.  Every row of a circuit shares its ansatz angles, so
      :meth:`param_grads` makes one adjoint sweep over Y instead of over the
      rows: the overlap just after block b's rotations is V_b Y V_b^dagger
      = U_b C0 U_b^dagger with its CNOT layer undone, V_b = W_b ... W_1 D
      the products the build kept.  It makes them for every block at once,
      reads Im Tr(sigma C_b) for the three Paulis sigma on every qubit
      (:class:`_AnsatzMatrix`), and :func:`_member_grads` turns the readings
      into angle derivatives, as in the plan's sweep.  A forward-only stack
      keeps only the forms.
    * Plan: every run goes through the fused plan.  :meth:`pull_back`
      makes one adjoint sweep over its rows and adds the parameter
      gradients to ``grads`` [..., K, P]; :meth:`embedding_grads` takes
      the sweep's angle derivatives to the inputs.

    For the ansatz matrix and the plan, ``backward`` is :meth:`pull_back`
    then :meth:`embedding_grads`.
    """

    def __init__(
        self,
        template: CircuitTemplate,
        params: np.ndarray,
        forward_only: bool = False,
        readout: Optional[Sequence[int]] = None,
    ):
        self.template = template
        self.params = params
        self.lowering = lowering(template)
        self.seeds = None
        n = template.n_qubits
        self.readout = tuple(range(n) if readout is None else readout)
        if self.lowering == "phase":
            if readout is not None:
                raise ConfigurationError("a phase-lowered circuit stack reads every qubit")
            self.frequencies = table = _frequencies(template)
            dp = params @ table.params  # [..., K, n 2**(n-1)]
            cos, sin = np.cos(dp), np.sin(dp)
            terms = np.concatenate([cos, sin * -table.signs, np.zeros(dp.shape[:-1] + (1,))], -1)
            z = np.add.reduceat(terms, table.starts, axis=-1).take(table.spread, axis=-1)
            z *= 2.0 ** (1 - n)
            self.coefficients = z.reshape(dp.shape[:-1] + (n, -1))
            if not forward_only:
                self.pairs = cos, sin
        elif self.lowering == "matrix":
            self.layout = _ansatz_matrix(template)
            angles = params.reshape(-1, params.shape[-1]).T.take(self.layout.plan.order, axis=0)
            turns = angles * _HALF_AND_WHOLE  # [2, n_angles, circuits]
            cos, sin = np.cos(turns), np.sin(turns, out=turns)
            products = _ansatz_products(self.layout, cos[0], sin[0], not forward_only)
            if template.segments[0].axis == "X":
                products *= self.layout.phases  # V_b = U_b D
            final = products[:, -1]  # V [circuits, 2**n, 2**n]
            # M_q = (V^dagger Z_q) V [circuits, m, 2**n, 2**n] of the read
            # qubits, and A_q = Re M_q
            signed = final.swapaxes(-1, -2)[:, None] * _readout_signs(n, self.readout)[:, None]
            observables = np.conjugate(signed, out=signed) @ final[:, None]
            del signed  # before the forms' copy, at 2**n x 2**n per read qubit
            lead = params.shape[:-1]
            forms = np.ascontiguousarray(observables.real)
            self.forms = forms.reshape(lead + observables.shape[1:])
            if not forward_only:
                self.products, self.turns = products, (cos[1], sin[1])
                # M_q's floats (re, im) interleaved, the read qubits' stacked
                # [..., K, m 2**n, 2**(n+1)], as pull_back takes them
                self.observables = observables.view(np.float64).reshape(lead + (-1, 2 << n))
        else:
            self.grads = np.zeros(params.shape)

    def run(
        self, circuits: slice, inputs: np.ndarray, out: Optional[tuple] = None
    ) -> tuple[np.ndarray, object]:
        """<Z> [..., k, B, m] of the given circuits on the inputs [..., B,
        input_dim], on the read qubits, and the record :meth:`backward`
        differentiates them from.  For the ansatz matrix, ``out`` may hold
        arrays [..., 2**n, B] and [..., k, m 2**n, B] to write the product
        states and their products with the forms into."""
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
            return exps.take(self.readout, axis=-1).reshape(rows + (-1,)), (angles, states)
        states, products = (None, None) if out is None else out
        states = _product_states(template, inputs, states)
        products = self._form_products(circuits, states, products)
        products *= states[..., None, None, :, :]
        return products.sum(axis=-2).swapaxes(-1, -2), states

    def _form_products(
        self, circuits: slice, states: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """A_q r [..., k, m, 2**n, B] of the given circuits' forms and the
        product states r [..., 2**n, B], each circuit's forms against every
        row in one product, written into ``out`` [..., k, m 2**n, B] when
        given."""
        forms = self.forms[..., circuits, :, :, :]
        stacked = forms.reshape(forms.shape[:-3] + (-1, forms.shape[-1]))  # [..., k, m 2**n, 2**n]
        products = np.matmul(stacked, states[..., None, :, :], out=out)
        return products.reshape(forms.shape[:-1] + states.shape[-1:])

    def features(self, inputs: np.ndarray) -> np.ndarray:
        """The phase lowering's Fourier features t = (cos x, sin x) [..., B,
        2m] of the inputs [..., B, input_dim], x their m input frequencies:
        circuit k's <Z> is t times its ``coefficients[..., k, :, :]``
        transposed."""
        source = np.concatenate([inputs, np.arctan(inputs)], axis=-1)
        return fourier_features(source @ self.frequencies.inputs)

    def feature_grads(self, t: np.ndarray, dt: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """The input gradient [..., B, input_dim] of the inputs whose
        :meth:`features` are t, for the gradient dt [..., B, 2m] at t: the
        gradient at their frequency angles is the sum of the halves of t *
        :func:`turned` (dt)."""
        halves, m = t * turned(dt), t.shape[-1] // 2
        dx = halves[..., :m] + halves[..., m:]
        return _input_grads(dx @ self.frequencies.inputs.T, inputs)

    def add_seeds(self, circuits: slice, seeds: np.ndarray) -> None:
        """Add seeds [..., k, ...] to the given circuits' seeds, from which
        :meth:`param_grads` makes the parameter gradients: for the phase
        lowering sum_b w t [..., k, n, 2m] (w the weights of <Z>), for the
        ansatz matrix the overlaps Y [..., k, 2**n, 2**n]."""
        if self.seeds is None:
            self.seeds = np.zeros(self.params.shape[:-1] + seeds.shape[-2:], dtype=seeds.dtype)
        self.seeds[..., circuits, :, :] += seeds

    def backward(
        self, circuits: slice, record, weights: np.ndarray, inputs: np.ndarray
    ) -> np.ndarray:
        """Differentiate sum weights * <Z> of a :meth:`run`, weights [...,
        k, B, m]: adds the parameter gradient to the stack's and returns the
        input gradient [..., B, input_dim], summed over the circuits."""
        if self.lowering == "phase":
            t = record
            self.add_seeds(circuits, weights.swapaxes(-1, -2) @ t[..., None, :, :])
            dt = (weights @ self.coefficients[..., circuits, :, :]).sum(axis=-3)  # [..., B, 2m]
            return self.feature_grads(t, dt, inputs)
        return self.embedding_grads(record, self.pull_back(circuits, record, weights), inputs)

    def pull_back(self, circuits: slice, record, weights: np.ndarray):
        """The parameter part of :meth:`backward` for the ansatz matrix and
        the plan: differentiates f = sum weights * <Z> over the rows of a
        :meth:`run` of the given circuits, weights [..., k, B, m], and adds
        the parameter gradient to the stack's.  Returns what
        :meth:`embedding_grads` takes to the inputs: the circuits and the
        weights for the ansatz matrix, the angle derivatives [..., k, B,
        n_angles] for the plan."""
        if self.lowering == "matrix":
            states = record  # [..., 2**n, B]
            weighted = weights.swapaxes(-1, -2)[..., None, :] * states[..., None, None, :, :]
            # the S_q = r (w_q r)^T side by side [..., k, 2**n, m 2**n], then
            # Y = sum_q S_q M_q
            weighted = weighted.reshape(weighted.shape[:-3] + (-1, weighted.shape[-1]))
            sums = states[..., None, :, :] @ weighted.swapaxes(-1, -2)
            # the real S_q take M_q's floats in one real product whose floats are Y's
            seeds = sums @ self.observables[..., circuits, :, :]
            self.add_seeds(circuits, seeds.view(np.complex128))
            return circuits, weights
        template, (angles, states) = self.template, record
        observable = weights @ _readout_signs(template.n_qubits, self.readout)
        dangles = _adjoint_rows(template, angles, states, observable.reshape(states.shape) * states)
        dangles = dangles.reshape(weights.shape[:-1] + (-1,))
        params = _lowered(template).scatter[:, : template.total_params]
        self.grads[..., circuits, :] += (dangles @ params).sum(axis=-2)
        return dangles

    def embedding_grads(self, record, pulled, inputs: np.ndarray) -> np.ndarray:
        """The input gradient [..., B, input_dim], summed over the
        circuits, from what :meth:`pull_back` returned for the same
        record."""
        template = self.template
        if self.lowering == "plan":
            dsource = pulled @ _lowered(template).scatter[:, template.total_params :]
            return _input_grads(dsource, inputs[..., None, :, :]).sum(axis=-3)
        layout, states = self.layout, record
        if not len(layout.embedding):  # an embedding of no features: no input enters
            return np.zeros(inputs.shape)
        circuits, weights = pulled
        # sum_q w_q A_q r per row, summed over the circuits [..., 2**n, B]
        slopes = self._form_products(circuits, states)
        slopes *= weights.swapaxes(-1, -2)[..., None, :]
        slopes = slopes.sum(axis=(-4, -3))
        # d f / d theta_j = (sum_q w_q A_q r) . (J_j r) [..., count, B]
        flipped = states.take(layout.flips, axis=-2) * layout.turns[:, :, None]
        dangles = (flipped * slopes[..., None, :, :]).sum(axis=-2)
        return _input_grads(dangles.swapaxes(-1, -2) @ layout.embedding, inputs)

    def param_grads(self) -> np.ndarray:
        """The parameter gradients [..., K, P] of every :meth:`backward` or
        :meth:`pull_back` so far, and of the seeds added."""
        if self.lowering == "plan":
            return self.grads
        if self.seeds is None:
            return np.zeros(self.params.shape)
        if self.lowering == "matrix":
            return self._overlap_sweep()
        # seeds hold sum_b w (cos x, sin x) per qubit and frequency; each
        # pair j takes its own: d/d(dp_j) = -2**(1-n) sum_b w sin(dp_j + s_j x)
        table, (cos, sin), m = self.frequencies, self.pairs, self.seeds.shape[-1] // 2
        seeds = self.seeds.reshape(self.seeds.shape[:-2] + (-1,))  # [..., K, n 2m]
        d_pairs = sin * seeds.take(table.slots, axis=-1)
        d_pairs += cos * table.signs * seeds.take(table.slots + m, axis=-1)
        d_pairs *= -(2.0 ** (1 - self.template.n_qubits))
        return d_pairs @ table.params.T

    def _overlap_sweep(self) -> np.ndarray:
        """The parameter gradients [..., K, P] from the overlaps Y in the
        seeds: every block's overlap C_b at once, then one reading of the
        three Paulis on every qubit of every block."""
        layout, products = self.layout, self.products
        circuits, dim = len(products), products.shape[-1]
        overlaps = products.reshape(circuits, -1, dim) @ self.seeds.reshape(circuits, dim, dim)
        # [circuits, L, dim, dim]
        overlaps = overlaps.reshape(products.shape) @ products.conj().swapaxes(-1, -2)
        read = overlaps.reshape(circuits, -1).take(layout.reads, axis=1) @ layout.sums
        # Im Tr(sigma C_b) [3, L n, circuits]; the plan's groups are (L, n)
        pauli = read.reshape(circuits, -1).T.take(layout.picks, axis=0).imag.reshape(3, -1, circuits)
        grads = _member_grads(layout.plan, pauli, *self.turns)
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

