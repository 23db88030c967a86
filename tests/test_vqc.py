"""Circuit templates against a dense-matrix oracle, and parameter-shift
gradients against finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracle
from qscale.errors import ConfigurationError
from qscale import sim, vqc
from qscale.sim import GateSpec
from qscale.vqc import (
    Ansatz,
    CircuitTemplate,
    Embedding,
    evaluate,
    init_params,
    linear_vqr_template,
    nonlinear_vqr_template,
    adjoint_grad_batch,
    parameter_shift_grad,
    parameter_shift_grad_batch,
    ring_rx_template,
)


def random_template(rng, max_qubits=4, max_layers=3):
    n = int(rng.integers(1, max_qubits + 1))
    layers = int(rng.integers(1, max_layers + 1))
    family = rng.integers(3)
    if family == 0:
        return linear_vqr_template(n, layers, transform="arctan")
    if family == 1:
        return nonlinear_vqr_template(n, layers, transform="arctan")
    return ring_rx_template(n, layers)


def reference_gates(template, params, inputs):
    """The template's gate sequence written out from the ansatz definitions
    in the ``vqc`` module docstring, without the package's op table.  The
    ansatz segments take the params in segment order."""
    n = template.n_qubits
    gates = []
    theta = iter(params)
    for seg in template.segments:
        if isinstance(seg, Embedding):
            x = np.arctan(inputs) if seg.transform == "arctan" else inputs
            for q, slot in enumerate(seg.feature_slots):
                gates.append(GateSpec("R" + seg.axis, q, angle=x[slot]))
            continue
        entangling = seg.kind == "strongly_entangling"
        for layer in range(seg.n_layers):
            for q in range(n):
                for kind in ("RZ", "RY", "RZ") if entangling else ("RX",):
                    gates.append(GateSpec(kind, q, angle=next(theta)))
            if n >= 2:
                reach = layer % (n - 1) + 1 if entangling else 1
                gates += [GateSpec("CNOT", (q + reach) % n, control=q) for q in range(n)]
    return gates


def ansatz_ops(kind, n_qubits, n_layers):
    """The lowered ops of a template holding one ansatz and nothing else."""
    template = CircuitTemplate(n_qubits, 0, (Ansatz(kind, n_layers),))
    return vqc._lowered(template).ops


def cnot_pairs(ops):
    return [(a, b) for kind, a, b in ops if kind == "CNOT"]


class TestBuilders:
    """The structure of the lowered op table, per segment kind."""

    def test_embedding_angles(self):
        t = CircuitTemplate(2, 2, (Embedding("Y", (0, 1), "identity"),))
        assert vqc._lowered(t).ops == (("RY", 0, 0), ("RY", 1, 1))
        angles = vqc._angle_table(t, np.zeros(0), np.array([0.1, -0.4]))
        np.testing.assert_array_equal(angles, [0.1, -0.4])

    def test_embedding_arctan(self):
        t = CircuitTemplate(1, 1, (Embedding("X", (0,), "arctan"),))
        assert vqc._lowered(t).ops == (("RX", 0, 0),)
        angles = vqc._angle_table(t, np.zeros(0), np.array([1.0]))
        assert angles[0] == pytest.approx(math.pi / 4)

    def test_template_without_rotations(self):
        """An embedding of no features is the whole circuit: |00> stays,
        and nothing has a gradient."""
        t = CircuitTemplate(2, 2, (Embedding("Y", ()),))
        np.testing.assert_array_equal(evaluate(t, np.zeros(0), [0.3, -0.2]), [1.0, 1.0])
        inputs, weights = np.ones((3, 2)), np.ones((3, 2))
        for grads in (adjoint_grad_batch, parameter_shift_grad_batch):
            grad_params, grad_inputs = grads(t, np.zeros(0), inputs, weights)
            assert grad_params.shape == (3, 0)
            np.testing.assert_array_equal(grad_inputs, np.zeros((3, 2)))

    def test_embedding_too_many_features(self):
        segments = (
            Embedding("Y", (0, 1, 1), "arctan"),
            Ansatz("strongly_entangling", 1),
        )
        with pytest.raises(ConfigurationError):
            CircuitTemplate(2, 2, segments)

    def test_strongly_entangling_counts(self):
        ops = ansatz_ops("strongly_entangling", 4, 2)
        rotations = [op for op in ops if op[0] != "CNOT"]
        assert len(rotations) == 24
        assert len(cnot_pairs(ops)) == 8
        assert [op[0] for op in rotations[:3]] == ["RZ", "RY", "RZ"]
        # per layer, each qubit's triple in turn, reading the params in order
        assert [op[1] for op in rotations] == 2 * [q for q in range(4) for _ in range(3)]
        assert [op[2] for op in rotations] == list(range(24))

    def test_strongly_entangling_reach_grows_with_layer(self):
        pairs = cnot_pairs(ansatz_ops("strongly_entangling", 4, 3))
        # layer l uses reach (l mod 3) + 1 on 4 qubits
        reaches = [(target - control) % 4 for control, target in pairs]
        assert reaches == [1] * 4 + [2] * 4 + [3] * 4

    def test_strongly_entangling_single_qubit_has_no_cnots(self):
        ops = ansatz_ops("strongly_entangling", 1, 1)
        assert [op[0] for op in ops] == ["RZ", "RY", "RZ"]

    def test_strongly_entangling_zero_params_is_cnot_pair(self):
        assert cnot_pairs(ansatz_ops("strongly_entangling", 2, 1)) == [(0, 1), (1, 0)]
        # rotations at angle zero: after the embedding, the circuit acts as
        # the CNOT pair alone
        t = linear_vqr_template(2, 1, transform="identity")
        inputs = np.array([0.7, -1.1])
        state = np.zeros(4, dtype=complex)
        state[0] = 1.0
        for q, x in enumerate(inputs):
            state = oracle.single_qubit_operator(2, q, oracle.ry_matrix(x)) @ state
        state = oracle.cnot_operator(2, 1, 0) @ (oracle.cnot_operator(2, 0, 1) @ state)
        want = [oracle.dense_expectation_z(state, 2, q) for q in range(2)]
        np.testing.assert_allclose(evaluate(t, np.zeros(6), inputs), want, atol=1e-12)

    def test_ring_rx_counts(self):
        ops = ansatz_ops("ring_rx", 5, 7)
        assert sum(op[0] == "RX" for op in ops) == 35
        assert len(cnot_pairs(ops)) == 35

    def test_ring_rx_two_qubit_ring(self):
        assert cnot_pairs(ansatz_ops("ring_rx", 2, 1)) == [(0, 1), (1, 0)]


class TestTemplateValidation:
    def test_total_params(self):
        assert linear_vqr_template(4, 4).total_params == 48
        assert ring_rx_template(5, 7).total_params == 35

    def test_feature_slot_out_of_range(self):
        with pytest.raises(ConfigurationError):
            CircuitTemplate(2, 1, (Embedding("Y", (1,), "identity"),))

    def test_feature_count_exceeds_qubits(self):
        with pytest.raises(ConfigurationError):
            CircuitTemplate(1, 2, (Embedding("Y", (0, 1), "identity"),))

    @pytest.mark.parametrize("n, layers", [(1, 1), (2, 3), (4, 2)])
    def test_nonlinear_is_repeated_pairs(self, n, layers):
        embedding = Embedding("Y", tuple(range(n)), "arctan")
        segments = []
        for _ in range(layers):
            segments += [embedding, Ansatz("strongly_entangling", 1)]
        assert nonlinear_vqr_template(n, layers) == CircuitTemplate(n, n, tuple(segments))

    def test_nonlinear_single_layer_matches_linear(self):
        a = nonlinear_vqr_template(3, 1)
        b = linear_vqr_template(3, 1)
        params = np.linspace(0.1, 0.9, 9)
        inputs = np.array([0.2, -0.5, 0.8])
        assert vqc._lowered(a).ops == vqc._lowered(b).ops
        np.testing.assert_array_equal(
            vqc._angle_table(a, params, inputs), vqc._angle_table(b, params, inputs)
        )


class TestEvaluate:
    def test_zero_everything_gives_all_ones(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = random_template(rng)
            out = evaluate(t, np.zeros(t.total_params), np.zeros(t.input_dim))
            np.testing.assert_allclose(out, np.ones(t.n_qubits), atol=1e-12)

    def test_single_qubit_rx_embedding(self):
        t = ring_rx_template(1, 1)
        out = evaluate(t, np.zeros(1), np.array([np.pi / 3]))
        assert out[0] == pytest.approx(0.5, abs=1e-12)

    def test_param_length_checked(self):
        t = linear_vqr_template(2, 1)
        with pytest.raises(ConfigurationError):
            evaluate(t, np.zeros(5), np.zeros(2))

    def test_input_length_checked(self):
        t = linear_vqr_template(2, 1)
        with pytest.raises(ConfigurationError):
            evaluate(t, np.zeros(6), np.zeros(3))

    def test_deterministic(self):
        t = nonlinear_vqr_template(3, 2)
        rng = np.random.default_rng(1)
        params = init_params(t, rng)
        inputs = rng.uniform(-1, 1, 3)
        a = evaluate(t, params, inputs)
        b = evaluate(t, params, inputs)
        np.testing.assert_array_equal(a, b)

    def test_matches_dense_oracle(self):
        """evaluate against dense matrices applied to the gate sequence the
        ansatz definitions give."""
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(40):
            n = int(rng.integers(1, 5))
            layers = int(rng.integers(1, 4))
            axis = str(rng.choice(["X", "Y"]))
            transform = str(rng.choice(["identity", "arctan"]))
            t = [
                linear_vqr_template(n, layers, axis, transform),
                nonlinear_vqr_template(n, layers, axis, transform),
                ring_rx_template(n, layers, transform),
            ][rng.integers(3)]
            params = init_params(t, rng)
            inputs = rng.uniform(-2, 2, t.input_dim)
            state = oracle.dense_run(n, reference_gates(t, params, inputs))
            want = [oracle.dense_expectation_z(state, n, q) for q in range(n)]
            worst = max(worst, float(np.max(np.abs(evaluate(t, params, inputs) - want))))
        assert worst <= 1e-10

    def test_angle_table_rows_match_single_rows(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            t = random_template(rng)
            params = init_params(t, rng)
            inputs = rng.uniform(-2, 2, (5, t.input_dim))
            per_row_params = np.stack([init_params(t, rng) for _ in range(5)])
            shared = vqc._angle_table(t, params, inputs)
            own = vqc._angle_table(t, per_row_params, inputs)
            for b in range(5):
                np.testing.assert_array_equal(shared[b], vqc._angle_table(t, params, inputs[b]))
                np.testing.assert_array_equal(
                    own[b], vqc._angle_table(t, per_row_params[b], inputs[b])
                )


class TestParameterShift:
    def test_zero_angle_gradient(self):
        t = ring_rx_template(1, 1)
        gp, gx = parameter_shift_grad(t, np.zeros(1), np.zeros(1))
        assert gp[0] == pytest.approx(0.0, abs=1e-12)
        assert gx[0] == pytest.approx(0.0, abs=1e-12)

    def test_half_pi_gradient(self):
        # f(theta) = <Z> = cos(theta) for a single RX, so f'(pi/2) = -1
        t = ring_rx_template(1, 1)
        gp, _ = parameter_shift_grad(t, np.array([np.pi / 2]), np.zeros(1))
        assert gp[0] == pytest.approx(-1.0, abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(50):
            t = random_template(rng)
            params = init_params(t, rng)
            inputs = rng.uniform(-1.5, 1.5, t.input_dim)
            weights = rng.uniform(-1, 1, t.n_qubits)

            gp, gx = parameter_shift_grad(t, params, inputs, weights)
            fd_p = oracle.central_difference(
                lambda p: float(weights @ evaluate(t, p, inputs)), params
            )
            fd_x = oracle.central_difference(
                lambda x: float(weights @ evaluate(t, params, x)), inputs
            )
            worst = max(
                worst,
                float(np.max(np.abs(gp - fd_p), initial=0.0)),
                float(np.max(np.abs(gx - fd_x), initial=0.0)),
            )
        assert worst < 1e-5

    def test_input_gradient_accumulates_over_reuploads(self):
        # the same input feeds every embedding segment of a re-uploading circuit
        t = nonlinear_vqr_template(2, 3)
        rng = np.random.default_rng(4)
        params = init_params(t, rng)
        inputs = np.array([0.3, -0.8])
        weights = np.array([1.0, -0.5])
        _, gx = parameter_shift_grad(t, params, inputs, weights)
        fd_x = oracle.central_difference(
            lambda x: float(weights @ evaluate(t, params, x)), inputs
        )
        np.testing.assert_allclose(gx, fd_x, atol=1e-7)

    def test_default_output_weights_read_qubit_zero(self):
        t = linear_vqr_template(2, 1)
        rng = np.random.default_rng(5)
        params = init_params(t, rng)
        inputs = np.array([0.4, 0.1])
        gp_default, _ = parameter_shift_grad(t, params, inputs)
        gp_explicit, _ = parameter_shift_grad(t, params, inputs, np.array([1.0, 0.0]))
        np.testing.assert_array_equal(gp_default, gp_explicit)

    def test_zero_weights_fast_path(self):
        t = linear_vqr_template(3, 2)
        rng = np.random.default_rng(6)
        params = init_params(t, rng)
        gp, gx = parameter_shift_grad(t, params, np.zeros(3), np.zeros(3))
        assert not gp.any() and not gx.any()

    def test_batch_matches_per_sample(self):
        t = linear_vqr_template(3, 2)
        rng = np.random.default_rng(7)
        params = init_params(t, rng)
        inputs = rng.uniform(-1, 1, (5, 3))
        weights = rng.uniform(-1, 1, (5, 3))
        gp_b, gx_b = parameter_shift_grad_batch(t, params, inputs, weights)
        for b in range(5):
            gp, gx = parameter_shift_grad(t, params, inputs[b], weights[b])
            np.testing.assert_array_equal(gp_b[b], gp)
            np.testing.assert_array_equal(gx_b[b], gx)

    def test_bad_weight_length(self):
        t = linear_vqr_template(2, 1)
        with pytest.raises(ConfigurationError):
            parameter_shift_grad(t, np.zeros(6), np.zeros(2), np.array([1.0]))


class TestAdjoint:
    """The adjoint sweep against parameter shift, its test oracle."""

    def test_matches_parameter_shift(self):
        rng = np.random.default_rng(20240303)
        worst = 0.0
        for _ in range(60):
            t = random_template(rng, max_qubits=5)
            params = init_params(t, rng)
            batch = int(rng.integers(1, 6))
            inputs = rng.uniform(-2.0, 2.0, (batch, t.input_dim))
            weights = rng.uniform(-1.0, 1.0, (batch, t.n_qubits))
            shift = parameter_shift_grad_batch(t, params, inputs, weights)
            adjoint = adjoint_grad_batch(t, params, inputs, weights)
            for a, b in zip(adjoint, shift):
                worst = max(worst, float(np.max(np.abs(a - b), initial=0.0)))
        assert worst <= 1e-10

    def test_reuploaded_arctan_inputs(self):
        # every embedding of the re-uploading circuit encodes the same inputs
        # through arctan, so each input gradient sums several chain-rule terms
        t = nonlinear_vqr_template(3, 4, transform="arctan")
        rng = np.random.default_rng(9)
        params = init_params(t, rng)
        inputs = rng.uniform(-3.0, 3.0, (4, 3))
        weights = rng.uniform(-1.0, 1.0, (4, 3))
        _, gx = adjoint_grad_batch(t, params, inputs, weights)
        _, sx = parameter_shift_grad_batch(t, params, inputs, weights)
        np.testing.assert_allclose(gx, sx, rtol=0.0, atol=1e-10)
        fd = oracle.central_difference(
            lambda x: float(weights[0] @ evaluate(t, params, x)), inputs[0]
        )
        np.testing.assert_allclose(gx[0], fd, atol=1e-7)

    def test_per_row_params_match_shift(self):
        # rows of one stack may carry different params, as QLSTM's do
        t = ring_rx_template(4, 3)
        rng = np.random.default_rng(10)
        params = np.stack([init_params(t, rng) for _ in range(5)])
        inputs = rng.uniform(-1.0, 1.0, (5, 4))
        weights = rng.uniform(-1.0, 1.0, (5, 4))
        angles = vqc._angle_table(t, params, inputs)
        _, states = vqc._run_rows(t, angles)
        dangles = vqc._adjoint_rows(t, angles, states, (weights @ sim._z_signs(4)) * states)
        gp, gx = vqc._angle_grads_to_args(t, dangles, inputs)
        for r in range(5):
            sp, sx = parameter_shift_grad(t, params[r], inputs[r], weights[r])
            np.testing.assert_allclose(gp[r], sp, rtol=0.0, atol=1e-10)
            np.testing.assert_allclose(gx[r], sx, rtol=0.0, atol=1e-10)

    def test_batch_matches_single_rows(self):
        t = linear_vqr_template(4, 3)
        rng = np.random.default_rng(11)
        params = init_params(t, rng)
        inputs = rng.uniform(-1.0, 1.0, (6, 4))
        weights = rng.uniform(-1.0, 1.0, (6, 4))
        gp_b, gx_b = adjoint_grad_batch(t, params, inputs, weights)
        for b in range(6):
            gp, gx = adjoint_grad_batch(t, params, inputs[b], weights[b])
            np.testing.assert_allclose(gp_b[b], gp[0], rtol=0.0, atol=1e-14)
            np.testing.assert_allclose(gx_b[b], gx[0], rtol=0.0, atol=1e-14)

    def test_leaves_forward_states_unchanged(self):
        t = linear_vqr_template(3, 2)
        rng = np.random.default_rng(12)
        angles = vqc._angle_table(t, init_params(t, rng), rng.uniform(-1, 1, (2, 3)))
        _, states = vqc._run_rows(t, angles)
        before = states.copy()
        vqc._adjoint_rows(t, angles, states, (np.ones((2, 3)) @ sim._z_signs(3)) * states)
        np.testing.assert_array_equal(states, before)


def stack_case(draw, template, max_rows_per_dim):
    """K params rows for ``template``, 1 to max_rows_per_dim x 2**n input
    rows, and <Z> weights per circuit."""
    n = template.n_qubits
    rows = draw(st.integers(1, max_rows_per_dim << n))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = rng.uniform(0.0, 2.0 * math.pi, (k, template.total_params))
    inputs = rng.uniform(-2.0, 2.0, (rows, template.input_dim))
    weights = rng.uniform(-1.0, 1.0, (k, rows, n))
    return template, params, inputs, weights


def some_features(draw, n):
    """Some of n feature slots, in any qubit order."""
    order = draw(st.permutations(range(n)))
    return tuple(order[: draw(st.integers(1, n))])


@st.composite
def embed_first_stacks(draw):
    """An embed-first template that still takes the ansatz matrix (RX or RY
    embedding of some features in any qubit order, identity or arctan, then
    one ansatz of 1-4 layers on 1-6 qubits; a ring-RX ansatz only after an
    RY embedding, since with RX the circuit is a phase polynomial), K
    params rows and input rows on both sides of 2**n."""
    n = draw(st.integers(1, 6))
    layers = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(vqc.ANSATZ_KINDS))
    axis = draw(st.sampled_from(("Y",) if kind == "ring_rx" else vqc.AXES))
    embedding = Embedding(axis, some_features(draw, n), draw(st.sampled_from(vqc.TRANSFORMS)))
    template = CircuitTemplate(n, n, (embedding, Ansatz(kind, layers)))
    return stack_case(draw, template, 2)[:3]


@st.composite
def reuploading_stacks(draw):
    """A re-uploading vqr template (1-4 qubits, 2-3 layers), which takes
    the plan, K params rows and input rows on both sides of 2**n."""
    template = nonlinear_vqr_template(draw(st.integers(1, 4)), draw(st.integers(2, 3)))
    return stack_case(draw, template, 2)[:3]


@st.composite
def ring_rx_stacks(draw, max_rows_per_dim=2):
    """An RX/CNOT template on 1-8 qubits (an RX embedding of some features
    in any qubit order, identity or arctan, then a ring-RX ansatz of 1-3
    layers, and perhaps a second RX embedding and ansatz that re-upload
    the inputs), and a stack case."""
    n = draw(st.sampled_from(range(1, 9)))
    segments = []
    for _ in range(draw(st.integers(1, 2))):
        transform = draw(st.sampled_from(vqc.TRANSFORMS))
        segments.append(Embedding("X", some_features(draw, n), transform))
        segments.append(Ansatz("ring_rx", draw(st.integers(1, 3))))
    return stack_case(draw, CircuitTemplate(n, n, tuple(segments)), max_rows_per_dim)


def plan_oracle(template, params, inputs, weights):
    """<Z> [k, B, n], the input gradient [B, input_dim] summed over the
    circuits and the parameter gradients [k, P] summed over the rows, from
    the plan's run and adjoint sweep of every (circuit, row) pair."""
    k, batch, n = weights.shape
    angles = vqc._angle_table(template, params[:, None], inputs[None]).reshape(k * batch, -1)
    exps, states = vqc._run_rows(template, angles)
    cotangent = (weights.reshape(k * batch, n) @ sim._z_signs(n)) * states
    dangles = vqc._adjoint_rows(template, angles, states, cotangent)
    gp, gx = vqc._angle_grads_to_args(template, dangles, np.tile(inputs, (k, 1)))
    return (
        exps.reshape(k, batch, n),
        gx.reshape(k, batch, -1).sum(axis=0),
        gp.reshape(k, batch, -1).sum(axis=1),
    )


class TestParamOrder:
    """The ansatz segments take the params in segment order."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.one_of(embed_first_stacks(), ring_rx_stacks()))
    def test_columns_tile_params(self, case):
        """In circuit order, the param columns of the op table are 0 ...
        total_params - 1, each once, for one or two ansatz segments."""
        template = case[0]
        columns = vqc._lowered(template).columns
        params = columns[columns < template.total_params]
        np.testing.assert_array_equal(params, np.arange(template.total_params))


class TestPhasePolynomial:
    """The phase-polynomial lowering of ``vqc.CircuitStack`` against the
    plan's run and adjoint sweep and against parameter shift."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ring_rx_stacks())
    def test_agrees_with_plan(self, case):
        """<Z>, then two backward calls (all circuits, then the last one on
        other inputs, as the steps of a recurrent cell make them): the
        input gradients of each and the summed parameter gradients."""
        template, params, inputs, weights = case
        k = len(params)
        stack = vqc.CircuitStack(template, params)
        assert stack.lowering == "phase"
        calls = [(slice(0, k), inputs, weights), (slice(k - 1, k), inputs[::-1] * 0.5, weights[:1])]
        grad_params = np.zeros_like(params)
        for circuits, x, w in calls:
            exps, grad_inputs, gp = plan_oracle(template, params[circuits], x, w)
            e_phase, run = stack.run(circuits, x)
            np.testing.assert_allclose(e_phase, exps, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(
                stack.backward(circuits, run, w, x), grad_inputs, rtol=1e-10, atol=1e-10
            )
            grad_params[circuits] += gp
        np.testing.assert_allclose(stack.param_grads(), grad_params, rtol=1e-10, atol=1e-10)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(ring_rx_stacks(max_rows_per_dim=1))
    def test_matches_parameter_shift(self, case):
        template, params, inputs, weights = case
        inputs, weights = inputs[:6], weights[:, :6]
        stack = vqc.CircuitStack(template, params)
        _, run = stack.run(slice(None), inputs)
        grad_inputs = stack.backward(slice(None), run, weights, inputs)
        shift_inputs = np.zeros_like(inputs)
        for k, grad_params in enumerate(stack.param_grads()):
            gp, gx = parameter_shift_grad_batch(template, params[k], inputs, weights[k])
            np.testing.assert_allclose(grad_params, gp.sum(axis=0), rtol=0.0, atol=1e-10)
            shift_inputs += gx
        np.testing.assert_allclose(grad_inputs, shift_inputs, rtol=0.0, atol=1e-10)


def x_basis_patterns(template):
    """Every pair's phase difference phi_(j ^ 2**q) - phi_j as its pattern
    over the sources ``[params | inputs | arctan(inputs)]``, [n, 2**(n-1),
    n_sources] by qubit q and by j with bit q 0, read off the plan's final
    amplitudes in the X basis.  With every angle at 0 the difference is 0;
    it is p theta for a param theta alone, and p_id x + p_arctan arctan(x)
    for an input x alone, so one value of each param and two of each input
    give every entry."""
    n, dim = template.n_qubits, 1 << template.n_qubits
    n_params, n_inputs = template.total_params, template.input_dim
    values = np.array([0.25, 0.5])
    params = np.zeros((n_params + 2 * n_inputs, n_params))
    params[np.arange(n_params), np.arange(n_params)] = values[1]
    inputs = np.zeros((n_params + 2 * n_inputs, n_inputs))
    for k in range(n_inputs):
        inputs[n_params + 2 * k : n_params + 2 * k + 2, k] = values
    _, amps = vqc._run_rows(template, vqc._angle_table(template, params, inputs))
    hadamard = np.ones((1, 1))
    for _ in range(n):
        hadamard = np.kron(hadamard, [[1.0, 1.0], [1.0, -1.0]])
    x_amps = amps @ hadamard  # unnormalised: only the phases are read
    index = np.arange(dim)
    low = np.concatenate([index[(index >> q) & 1 == 0] for q in range(n)])
    high = low | np.repeat(1 << np.arange(n), dim >> 1)
    differences = -np.angle(x_amps[:, high] * x_amps[:, low].conj())  # [rows, pairs]
    by_param = differences[:n_params] / values[1]
    solve = np.linalg.inv(np.stack([values, np.arctan(values)], axis=1))
    by_input = solve @ differences[n_params:].reshape(n_inputs, 2, -1)  # [input, 2, pairs]
    patterns = np.concatenate([by_param, by_input[:, 0], by_input[:, 1]]).T
    np.testing.assert_allclose(patterns, np.round(patterns), rtol=0.0, atol=1e-9)
    return np.round(patterns).reshape(n, dim >> 1, -1)


def sorted_rows(rows):
    return rows[np.lexsort(rows.T[::-1])]


class TestFrequencies:
    """The frequency table of the phase lowering (``vqc._frequencies``):
    each pair's inputs part is one frequency times a sign."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ring_rx_stacks())
    def test_each_pair_is_a_signed_frequency(self, case):
        """Every pair maps to exactly one frequency, with sign +1 or -1, of
        its qubit; with its params part, that signed frequency is the
        pattern of one of the qubit's pairs read off the X-basis
        amplitudes, and each pair of every qubit is read once.  Each
        frequency's first non-zero entry is positive, so no frequency is
        another's negation, and none repeats.  The pairs of one coefficient
        are one run."""
        template = case[0]
        table = vqc._frequencies(template)
        n, m = template.n_qubits, table.inputs.shape[1]
        assert table.slots.shape == table.signs.shape == (n << (n - 1),)
        np.testing.assert_array_equal(np.abs(table.signs), 1.0)
        qubit, column = np.divmod(table.slots, 2 * m)
        assert np.all(column < m)
        assert np.all(np.diff(table.slots) >= 0)
        # the runs over the terms [cos | sin | 0] of the pairs
        runs, size = np.unique(table.slots, return_index=True)[1], table.slots.size
        np.testing.assert_array_equal(table.starts, np.concatenate([runs, runs + size, [2 * size]]))
        frequencies = table.inputs.T
        for u in frequencies:
            assert not u.any() or u[np.flatnonzero(u)[0]] > 0
        assert len(np.unique(frequencies, axis=0)) == m
        patterns = np.hstack([table.params.T, table.signs[:, None] * frequencies[column]])
        for q, want in enumerate(x_basis_patterns(template)):
            np.testing.assert_array_equal(sorted_rows(patterns[qubit == q]), sorted_rows(want))

    @pytest.mark.parametrize(
        "n, layers, count", [(5, 7, 12), (4, 2, 12), (6, 3, 28), (8, 7, 15), (9, 7, 20)]
    )
    def test_frequency_counts(self, n, layers, count):
        """The default qlstm circuit (5 qubits, 7 layers) has 80 pairs on 12
        frequencies; at 9 qubits, 2,304 pairs lie on 20."""
        table = vqc._frequencies(ring_rx_template(n, layers))
        assert table.inputs.shape == (2 * n, count)
        assert table.slots.shape == (n << (n - 1),)

    def test_nine_qubits_agree_with_plan(self):
        """The Hypothesis strategy stops at 8 qubits: one fixed 9-qubit,
        7-layer stack against the plan's run and adjoint sweep."""
        template = ring_rx_template(9, 7)
        rng = np.random.default_rng(25)
        params = rng.uniform(0.0, 2.0 * math.pi, (2, template.total_params))
        inputs = rng.uniform(-2.0, 2.0, (5, 9))
        weights = rng.uniform(-1.0, 1.0, (2, 5, 9))
        exps, grad_inputs, grad_params = plan_oracle(template, params, inputs, weights)
        stack = vqc.CircuitStack(template, params)
        e_phase, run = stack.run(slice(None), inputs)
        np.testing.assert_allclose(e_phase, exps, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(
            stack.backward(slice(None), run, weights, inputs), grad_inputs, rtol=0.0, atol=1e-12
        )
        np.testing.assert_allclose(stack.param_grads(), grad_params, rtol=0.0, atol=1e-12)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(ring_rx_stacks())
    def test_forward_only_runs_the_same_bits(self, case):
        """A forward-only phase stack keeps only the coefficients and runs
        the same bits as one that will be differentiated."""
        template, params, inputs, _ = case
        k = len(params)
        stack = vqc.CircuitStack(template, params)
        forward = vqc.CircuitStack(template, params, forward_only=True)
        assert forward.lowering == "phase"
        for circuits in (slice(0, k), slice(k - 1, k)):
            np.testing.assert_array_equal(
                forward.run(circuits, inputs)[0], stack.run(circuits, inputs)[0]
            )


class TestAnsatzMatrix:
    """The ansatz-matrix lowering of ``vqc.CircuitStack`` against the plan's
    run and adjoint sweep and against parameter shift: product states times
    U forward, and one adjoint sweep over each circuit's overlap matrix
    backward."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(embed_first_stacks())
    def test_agrees_with_plan(self, case):
        """<Z> of all circuits, then of the last one on other inputs, then
        of all circuits on 1 and on 2**n - 1 rows, fewer than U has; a
        forward-only stack runs the same bits as one that will be
        differentiated."""
        template, params, inputs = case
        k = len(params)
        stack = vqc.CircuitStack(template, params)
        forward = vqc.CircuitStack(template, params, forward_only=True)
        assert stack.lowering == forward.lowering == "matrix"
        below_dim = np.resize(inputs, ((1 << template.n_qubits) - 1, inputs.shape[1]))
        calls = [
            (slice(0, k), inputs),
            (slice(k - 1, k), inputs[::-1] * 0.5),
            (slice(0, k), inputs[:1]),
            (slice(0, k), below_dim),
        ]
        for circuits, x in calls:
            weights = np.ones((len(params[circuits]), len(x), template.n_qubits))
            exps = plan_oracle(template, params[circuits], x, weights)[0]
            np.testing.assert_allclose(stack.run(circuits, x)[0], exps, rtol=0.0, atol=1e-12)
            np.testing.assert_array_equal(forward.run(circuits, x)[0], stack.run(circuits, x)[0])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(embed_first_stacks(), st.integers(1, 3))
    def test_gradients_agree_with_plan(self, case, models):
        """A stack of M models' circuits, params [M, K, P] and inputs [M,
        B, input_dim], through two backward calls (all circuits, then the
        last one on other inputs), against the plan per model: <Z> to
        1e-12, each call's input gradients and the accumulated parameter
        gradients to 1e-10."""
        template, params, inputs = case
        k = len(params)
        rng = np.random.default_rng(len(inputs))
        others = range(models - 1)
        params = np.stack([params] + [rng.uniform(0.0, 6.0, params.shape) for _ in others])
        inputs = np.stack([inputs] + [rng.uniform(-2.0, 2.0, inputs.shape) for _ in others])
        stack = vqc.CircuitStack(template, params)
        assert stack.lowering == "matrix"
        calls = [(slice(0, k), inputs), (slice(k - 1, k), inputs[:, ::-1] * 0.5)]
        grad_params = np.zeros_like(params)
        for circuits, x in calls:
            shape = (models, len(params[0, circuits]), x.shape[1], template.n_qubits)
            weights = rng.uniform(-1.0, 1.0, shape)
            exps, record = stack.run(circuits, x)
            grad_inputs = stack.backward(circuits, record, weights, x)
            for m in range(models):
                want, want_inputs, want_params = plan_oracle(
                    template, params[m, circuits], x[m], weights[m]
                )
                np.testing.assert_allclose(exps[m], want, rtol=0.0, atol=1e-12)
                np.testing.assert_allclose(grad_inputs[m], want_inputs, rtol=1e-10, atol=1e-10)
                grad_params[m, circuits] += want_params
        np.testing.assert_allclose(stack.param_grads(), grad_params, rtol=1e-10, atol=1e-10)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.one_of(embed_first_stacks(), reuploading_stacks()), st.integers(1, 3))
    def test_backward_is_its_parts(self, case, models):
        """``backward`` is ``pull_back`` then ``embedding_grads``, as the
        phase lowering's is its seeds and its feature gradients: for M
        models, a stack differentiated by ``pull_back`` alone, on the
        Z-weights w, has exactly the parameter gradients of one
        differentiated by ``backward``, for the ansatz matrix and for the
        plan; and ``backward``'s input gradients match the plan oracle."""
        template, params, inputs = case
        n = template.n_qubits
        rng = np.random.default_rng(len(inputs) + models)
        others = range(models - 1)
        params = np.stack([params] + [rng.uniform(0.0, 6.0, params.shape) for _ in others])
        inputs = np.stack([inputs] + [rng.uniform(-2.0, 2.0, inputs.shape) for _ in others])
        weights = rng.uniform(-1.0, 1.0, params.shape[:2] + (inputs.shape[1], n))
        by_run, by_parts = vqc.CircuitStack(template, params), vqc.CircuitStack(template, params)
        assert by_run.lowering in ("matrix", "plan")
        every = slice(None)
        grad_inputs = by_run.backward(every, by_run.run(every, inputs)[1], weights, inputs)
        by_parts.pull_back(every, by_parts.run(every, inputs)[1], weights)
        np.testing.assert_array_equal(by_run.param_grads(), by_parts.param_grads())
        for m in range(models):
            want_inputs = plan_oracle(template, params[m], inputs[m], weights[m])[1]
            np.testing.assert_allclose(grad_inputs[m], want_inputs, rtol=1e-10, atol=1e-10)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(embed_first_stacks())
    def test_matches_parameter_shift(self, case):
        template, params, inputs = case
        inputs = inputs[:6]
        weights = np.random.default_rng(len(params)).uniform(
            -1.0, 1.0, (len(params), len(inputs), template.n_qubits)
        )
        stack = vqc.CircuitStack(template, params)
        _, record = stack.run(slice(None), inputs)
        grad_inputs = stack.backward(slice(None), record, weights, inputs)
        shift_inputs = np.zeros_like(inputs)
        for k, grad_params in enumerate(stack.param_grads()):
            gp, gx = parameter_shift_grad_batch(template, params[k], inputs, weights[k])
            np.testing.assert_allclose(grad_params, gp.sum(axis=0), rtol=0.0, atol=1e-10)
            shift_inputs += gx
        np.testing.assert_allclose(grad_inputs, shift_inputs, rtol=0.0, atol=1e-10)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.one_of(embed_first_stacks(), reuploading_stacks()), st.integers(1, 2), st.data())
    def test_readout_reads_the_named_qubits(self, case, models, data):
        """A stack of M models that reads some qubits, in any order, runs
        their <Z> and differentiates their weights as a stack that reads
        every qubit does with zero weights on the others, for the ansatz
        matrix and the plan: <Z> to 1e-12, gradients to 1e-10; a
        forward-only stack runs the same bits."""
        template, params, inputs = case
        n = template.n_qubits
        readout = tuple(data.draw(st.permutations(range(n)))[: data.draw(st.integers(1, n))])
        rng = np.random.default_rng(len(inputs) + 7 * models)
        params = np.stack([params] + [rng.uniform(0.0, 6.0, params.shape)] * (models - 1))
        inputs = np.stack([inputs] + [rng.uniform(-2.0, 2.0, inputs.shape)] * (models - 1))
        every = slice(None)
        full = vqc.CircuitStack(template, params)
        part = vqc.CircuitStack(template, params, readout=readout)
        forward = vqc.CircuitStack(template, params, forward_only=True, readout=readout)
        exps, record = full.run(every, inputs)
        got, part_record = part.run(every, inputs)
        assert got.shape == exps.shape[:-1] + (len(readout),)
        np.testing.assert_allclose(got, exps[..., list(readout)], rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(forward.run(every, inputs)[0], got)
        weights = rng.uniform(-1.0, 1.0, got.shape)
        padded = np.zeros(exps.shape)
        padded[..., list(readout)] = weights
        np.testing.assert_allclose(
            part.backward(every, part_record, weights, inputs),
            full.backward(every, record, padded, inputs),
            rtol=1e-10,
            atol=1e-10,
        )
        np.testing.assert_allclose(part.param_grads(), full.param_grads(), rtol=1e-10, atol=1e-10)

    def test_phase_lowering_reads_every_qubit(self):
        template = ring_rx_template(3, 1)
        with pytest.raises(ConfigurationError, match="every qubit"):
            vqc.CircuitStack(template, np.zeros((1, template.total_params)), readout=(0,))

    @pytest.mark.parametrize("n", [1, 3])
    def test_embedding_of_no_features(self, n):
        """An embedding of no features before the ansatz: the circuit takes
        the matrix, no input gradient, and the plan's <Z> and parameter
        gradients."""
        template = CircuitTemplate(n, 2, (Embedding("Y", ()), Ansatz("strongly_entangling", 2)))
        rng = np.random.default_rng(n)
        params = rng.uniform(0.0, 2.0 * math.pi, (2, template.total_params))
        inputs = rng.uniform(-2.0, 2.0, (5, 2))
        weights = rng.uniform(-1.0, 1.0, (2, 5, n))
        stack = vqc.CircuitStack(template, params)
        assert stack.lowering == "matrix"
        exps, record = stack.run(slice(None), inputs)
        grad_inputs = stack.backward(slice(None), record, weights, inputs)
        want, want_inputs, want_params = plan_oracle(template, params, inputs, weights)
        np.testing.assert_allclose(exps, want, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(grad_inputs, np.zeros_like(inputs))
        np.testing.assert_array_equal(want_inputs, np.zeros_like(inputs))
        np.testing.assert_allclose(stack.param_grads(), want_params, rtol=0.0, atol=1e-10)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 6), st.integers(1, 4))
    def test_path_choice(self, n, layers):
        """``vqc.lowering`` is the one choice, made from the template alone:
        no row count and no use of the stack enters it.  Every RX/CNOT
        template is a phase polynomial, whatever its segment order; other
        embed-first templates take the matrix; the vqr that re-uploads its
        inputs (two or more layers) takes the plan, as does a template that
        starts with its ansatz.  A stack, forward-only or not, takes its
        template's lowering."""
        ring_after_ry = CircuitTemplate(
            n, n, (Embedding("Y", tuple(range(n))), Ansatz("ring_rx", layers))
        )
        ansatz_first = CircuitTemplate(
            n, n, (Ansatz("ring_rx", layers), Embedding("X", tuple(range(n))))
        )
        entangling_first = CircuitTemplate(
            n, n, (Ansatz("strongly_entangling", layers), Embedding("Y", tuple(range(n))))
        )
        choices = {
            "matrix": [
                linear_vqr_template(n, layers),
                linear_vqr_template(n, layers, axis="X"),
                nonlinear_vqr_template(n, 1),
                ring_after_ry,
            ],
            "phase": [ring_rx_template(n, layers), ansatz_first],
            "plan": [nonlinear_vqr_template(n, layers + 1), entangling_first],
        }
        for choice, templates in choices.items():
            for template in templates:
                assert vqc.lowering(template) == choice
                params = np.zeros((2, template.total_params))
                for forward_only in (False, True):
                    assert vqc.CircuitStack(template, params, forward_only).lowering == choice


@st.composite
def plan_templates(draw):
    """A template whose fused plan has groups of 1-4 members: an RY or RX
    embedding of some features (or none) on 1-5 qubits, then a strongly
    entangling (RZ RY RZ) or ring-RX ansatz, perhaps twice, as the
    re-uploading vqr's (1, 2, 1, 2) groups are."""
    n = draw(st.integers(1, 5))
    segments = []
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            axis, transform = draw(st.sampled_from(vqc.AXES)), draw(st.sampled_from(vqc.TRANSFORMS))
            segments.append(Embedding(axis, some_features(draw, n), transform))
        kind = draw(st.sampled_from(vqc.ANSATZ_KINDS))
        segments.append(Ansatz(kind, draw(st.integers(1, 3))))
    return CircuitTemplate(n, n, tuple(segments))


class TestGatherForms:
    """The vqr step's pieces whose gathers go through ``take`` against
    their fancy-indexed forms and a per-row Kronecker product, at 1e-12."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.one_of(
            plan_templates().map(lambda template: (template, False)),
            st.builds(nonlinear_vqr_template, st.integers(2, 4), st.integers(2, 3)).map(
                lambda template: (template, True)
            ),
        ),
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
    )
    def test_member_grads_match_turn_loop(self, case, rows, seed):
        """Every plan's angle derivatives from random readings and angles;
        the re-uploading vqr's groups have 4 members."""
        template, reuploading = case
        plan = vqc._plan(template)
        if reuploading:
            assert (1, 2, 1, 2) in {cls.axes for cls in plan.classes}
        rng = np.random.default_rng(seed)
        angles = rng.uniform(0.0, 2.0 * math.pi, (plan.order.size, rows))
        pauli = rng.uniform(-1.0, 1.0, (3, plan.n_groups, rows))
        want = oracle.member_grads_loop(plan, pauli.copy(), np.cos(angles), np.sin(angles))
        got = vqc._member_grads(plan, pauli, np.cos(angles), np.sin(angles))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.integers(1, 6),
        st.sampled_from(vqc.AXES),
        st.sampled_from(vqc.TRANSFORMS),
        st.sampled_from([(7,), (1,), (3, 5), (2, 1)]),
        st.data(),
    )
    def test_product_states_match_kron(self, n, axis, transform, lead, data):
        """The embedding's real product states r, times the phases D of an
        RX embedding, for inputs [B, d] and [M, B, d], RX and RY, identity
        and arctan, with fewer features than qubits and more inputs than
        features."""
        slots = some_features(data.draw, n)
        template = CircuitTemplate(
            n, n + 1, (Embedding(axis, slots, transform), Ansatz("strongly_entangling", 1))
        )
        inputs = np.random.default_rng(n + len(lead)).uniform(-3.0, 3.0, lead + (n + 1,))
        want = oracle.product_states(oracle.embedding_factors(template, inputs))
        states = vqc._product_states(template, inputs)
        assert states.dtype == np.float64
        phases = vqc._ansatz_matrix(template).phases
        np.testing.assert_allclose(states.swapaxes(-1, -2) * phases, want, rtol=0.0, atol=1e-12)


class TestInitParams:
    def test_range_and_determinism(self):
        t = linear_vqr_template(4, 4)
        a = init_params(t, np.random.default_rng(42))
        b = init_params(t, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)
        assert a.shape == (48,)
        assert np.all(a >= 0.0) and np.all(a < 2 * np.pi)

