"""Circuit templates and parameter-shift gradients against finite differences."""

import math

import numpy as np
import pytest

import _oracles as oracle
from qscale.errors import ConfigurationError
from qscale import vqc
from qscale.vqc import (
    Ansatz,
    CircuitTemplate,
    Embedding,
    build_angle_embedding,
    build_ring_rx_ansatz,
    build_strongly_entangling,
    evaluate,
    init_params,
    linear_vqr_template,
    nonlinear_vqr_template,
    adjoint_grad_batch,
    parameter_shift_grad,
    parameter_shift_grad_batch,
    ring_rx_template,
    template_from_dict,
    template_gates,
    template_to_dict,
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


class TestBuilders:
    def test_embedding_angles(self):
        gates = build_angle_embedding([0.1, -0.4], axis="Y")
        assert [g.kind for g in gates] == ["RY", "RY"]
        assert [g.target for g in gates] == [0, 1]
        assert gates[0].angle == pytest.approx(0.1)

    def test_embedding_arctan(self):
        gates = build_angle_embedding([1.0], axis="X", transform="arctan")
        assert gates[0].angle == pytest.approx(math.pi / 4)

    def test_embedding_too_many_features(self):
        with pytest.raises(ConfigurationError):
            build_angle_embedding([0.1, 0.2, 0.3], n_qubits=2)

    def test_strongly_entangling_counts(self):
        gates = build_strongly_entangling(4, 2, np.zeros(24))
        rotations = [g for g in gates if g.kind != "CNOT"]
        cnots = [g for g in gates if g.kind == "CNOT"]
        assert len(rotations) == 24
        assert len(cnots) == 8
        assert [g.kind for g in rotations[:3]] == ["RZ", "RY", "RZ"]

    def test_strongly_entangling_reach_grows_with_layer(self):
        gates = build_strongly_entangling(4, 3, np.zeros(36))
        cnots = [g for g in gates if g.kind == "CNOT"]
        # layer l uses reach (l mod 3) + 1 on 4 qubits
        reaches = [(g.target - g.control) % 4 for g in cnots]
        assert reaches == [1] * 4 + [2] * 4 + [3] * 4

    def test_strongly_entangling_single_qubit_has_no_cnots(self):
        gates = build_strongly_entangling(1, 1, np.zeros(3))
        assert [g.kind for g in gates] == ["RZ", "RY", "RZ"]

    def test_strongly_entangling_zero_params_is_cnot_pair(self):
        gates = build_strongly_entangling(2, 1, np.zeros(6))
        cnots = [g for g in gates if g.kind == "CNOT"]
        assert [(g.control, g.target) for g in cnots] == [(0, 1), (1, 0)]
        # rotations at angle zero: the circuit acts as the CNOT pair alone
        state = np.array([0.5, 0.5, 0.5, 0.5])  # uniform probe, q0+q1 basis
        from qscale.sim import StateVector, apply_circuit

        probe = StateVector(2, np.array([0.5, 0.5, 0.5, 0.5], dtype=complex))
        got = apply_circuit(probe, gates).amplitudes
        want = oracle.cnot_operator(2, 1, 0) @ (
            oracle.cnot_operator(2, 0, 1) @ probe.amplitudes
        )
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_ring_rx_counts(self):
        gates = build_ring_rx_ansatz(5, 7, np.zeros(35))
        assert sum(g.kind == "RX" for g in gates) == 35
        assert sum(g.kind == "CNOT" for g in gates) == 35

    def test_ring_rx_two_qubit_ring(self):
        gates = build_ring_rx_ansatz(2, 1, np.zeros(2))
        cnots = [g for g in gates if g.kind == "CNOT"]
        assert [(g.control, g.target) for g in cnots] == [(0, 1), (1, 0)]

    def test_ring_rx_param_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            build_ring_rx_ansatz(3, 2, np.zeros(5))

    def test_strongly_entangling_param_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            build_strongly_entangling(3, 1, np.zeros(8))


class TestTemplateValidation:
    def test_total_params(self):
        assert linear_vqr_template(4, 4).total_params == 48
        assert ring_rx_template(5, 7).total_params == 35

    def test_slots_must_tile(self):
        with pytest.raises(ConfigurationError):
            CircuitTemplate(
                2,
                2,
                (
                    Ansatz("ring_rx", 1, (0, 2)),
                    Ansatz("ring_rx", 1, (3, 5)),  # gap at index 2
                ),
            )

    def test_slot_width_must_match_ansatz(self):
        with pytest.raises(ConfigurationError):
            CircuitTemplate(2, 2, (Ansatz("ring_rx", 2, (0, 3)),))

    def test_feature_slot_out_of_range(self):
        with pytest.raises(ConfigurationError):
            CircuitTemplate(2, 1, (Embedding("Y", (1,), "identity"),))

    def test_feature_count_exceeds_qubits(self):
        with pytest.raises(ConfigurationError):
            CircuitTemplate(1, 2, (Embedding("Y", (0, 1), "identity"),))

    def test_nonlinear_single_layer_matches_linear(self):
        a = nonlinear_vqr_template(3, 1)
        b = linear_vqr_template(3, 1)
        params = np.linspace(0.1, 0.9, 9)
        inputs = np.array([0.2, -0.5, 0.8])
        assert template_gates(a, params, inputs) == template_gates(b, params, inputs)


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

    def test_batched_rows_match_single_evaluation(self):
        """The internal batched evaluator must agree with the public path."""
        rng = np.random.default_rng(2)
        for _ in range(20):
            t = random_template(rng)
            params = init_params(t, rng)
            inputs = rng.uniform(-2, 2, t.input_dim)
            single = evaluate(t, params, inputs)
            rows, _ = vqc._run_rows(t, vqc._angle_table(t, params, inputs)[None, :])
            np.testing.assert_array_equal(rows[0], single)


    def test_lowered_gates_match_builders(self):
        t = nonlinear_vqr_template(3, 2, axis="X", transform="arctan")
        rng = np.random.default_rng(13)
        params = init_params(t, rng)
        inputs = rng.uniform(-2, 2, 3)
        per = params.size // 2
        expected = []
        for layer in range(2):
            expected += build_angle_embedding(inputs, "X", "arctan")
            expected += build_strongly_entangling(3, 1, params[layer * per : (layer + 1) * per])
        assert template_gates(t, params, inputs) == expected

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
        dangles = vqc._adjoint_rows(t, angles, states, weights)
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
        vqc._adjoint_rows(t, angles, states, np.ones((2, 3)))
        np.testing.assert_array_equal(states, before)


class TestInitParams:
    def test_range_and_determinism(self):
        t = linear_vqr_template(4, 4)
        a = init_params(t, np.random.default_rng(42))
        b = init_params(t, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)
        assert a.shape == (48,)
        assert np.all(a >= 0.0) and np.all(a < 2 * np.pi)


class TestSerialization:
    def test_round_trip_gate_lists(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            t = random_template(rng)
            clone = template_from_dict(template_to_dict(t))
            assert clone == t
            params = init_params(t, np.random.default_rng(0))
            inputs = np.zeros(t.input_dim)
            assert template_gates(clone, params, inputs) == template_gates(
                t, params, inputs
            )

    def test_json_serialisable(self):
        import json

        payload = json.dumps(template_to_dict(nonlinear_vqr_template(3, 2)))
        t = template_from_dict(json.loads(payload))
        assert t.total_params == 18
