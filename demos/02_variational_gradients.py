"""Variational circuits and exact gradients.

Builds a small data-embedding circuit and differentiates it four ways:
the shift rule against central finite differences, the adjoint sweep over
the rows against the shift rule, and, as a vqr trains it, a CircuitStack
that reads the circuit through one ansatz matrix, as real quadratic forms in
the rows' product states, and sweeps one overlap matrix instead of the
rows, against both.  It then trains the circuit by plain
gradient descent to pin the qubit-0 readout at a target value.  Last, it
runs a ring-RX circuit (the kind a qlstm uses) three ways: as the phase
polynomial that a CircuitStack makes of it, a Fourier series over a few
input frequencies, through the statevector plan, and by parameter shift,
and prints the largest gap between them.

Run with: python demos/02_variational_gradients.py
"""

import numpy as np

from qscale.vqc import (
    CircuitStack,
    adjoint_grad_batch,
    evaluate,
    init_params,
    linear_vqr_template,
    parameter_shift_grad,
    parameter_shift_grad_batch,
    ring_rx_template,
)


def main() -> None:
    template = linear_vqr_template(n_qubits=3, n_layers=2)
    rng = np.random.default_rng(7)
    params = init_params(template, rng)
    inputs = np.array([0.4, -0.2, 0.9])

    print(f"circuit: {template.n_qubits} qubits, {template.total_params} "
          f"trainable angles, {template.input_dim} inputs")
    print(f"qubit-0 readout: {evaluate(template, params, inputs)[0]:+.6f}")

    print()
    print("== shift rule vs finite differences ==")
    grad_params, grad_inputs = parameter_shift_grad(template, params, inputs)

    def f(p):
        return evaluate(template, p, inputs)[0]

    h = 1e-6
    fd = np.empty_like(params)
    for k in range(params.size):
        hi, lo = params.copy(), params.copy()
        hi[k] += h
        lo[k] -= h
        fd[k] = (f(hi) - f(lo)) / (2.0 * h)
    print(f"max |shift - fd| over {params.size} angles: "
          f"{np.max(np.abs(grad_params - fd)):.2e}")
    print(f"input gradient (chain rule through the arctan embedding): "
          f"{np.round(grad_inputs, 6)}")

    print()
    print("== adjoint sweep vs shift rule ==")
    # training differentiates by one forward and one backward pass over a
    # batch of rows; the shift rule runs 2 circuits per angle and per row
    batch = rng.uniform(-1.0, 1.0, (8, template.input_dim))
    weights = rng.uniform(-1.0, 1.0, (8, template.n_qubits))
    shift_p, shift_x = parameter_shift_grad_batch(template, params, batch, weights)
    adj_p, adj_x = adjoint_grad_batch(template, params, batch, weights)
    n_angles = template.total_params + template.input_dim
    print(f"8 rows, {n_angles} angles: shift rule runs {8 * 2 * n_angles} circuits, "
          f"adjoint one forward and one backward pass over the 8 rows")
    print(f"max |adjoint - shift|: params {np.max(np.abs(adj_p - shift_p)):.2e}, "
          f"inputs {np.max(np.abs(adj_x - shift_x)):.2e}")

    print()
    print("== the same batch as a vqr trains it: one ansatz matrix ==")
    # the data enter only through the first embedding, so everything after it
    # is one 8x8 unitary U shared by all rows, and each <Z_q> is a fixed real
    # quadratic form in the rows' product states; the backward pass sums the
    # rows into one overlap matrix and sweeps that through the ansatz's blocks
    stack = CircuitStack(template, params[None])
    exps, record = stack.run(slice(None), batch)
    matrix_x = stack.backward(slice(None), record, weights[None], batch)
    matrix_p = stack.param_grads()[0]
    plan_exps = np.array([evaluate(template, params, row) for row in batch])
    print(f"CircuitStack lowering: {stack.lowering}, one real form A_q of shape "
          f"{stack.forms.shape[-2:]} per qubit")
    gaps = {
        "<Z>, matrix vs plan": np.abs(exps[0] - plan_exps).max(),
        "param grads, matrix vs adjoint": np.abs(matrix_p - adj_p.sum(axis=0)).max(),
        "input grads, matrix vs adjoint": np.abs(matrix_x - adj_x).max(),
        "param grads, matrix vs shift": np.abs(matrix_p - shift_p.sum(axis=0)).max(),
        "input grads, matrix vs shift": np.abs(matrix_x - shift_x).max(),
    }
    for name, gap in gaps.items():
        print(f"max |{name}|: {gap:.2e}")
    print(f"largest gap: {max(gaps.values()):.2e}")

    print()
    print("== training the readout to a target ==")
    target = 0.5
    theta = params.copy()
    for step in range(60):
        value = evaluate(template, theta, inputs)[0]
        gp, _ = parameter_shift_grad(template, theta, inputs)
        theta = theta - 0.3 * 2.0 * (value - target) * gp
        if step % 15 == 0:
            print(f"step {step:2d}: readout {value:+.5f} (target {target:+.2f})")
    final = evaluate(template, theta, inputs)[0]
    print(f"final readout {final:+.6f}, error {abs(final - target):.2e}")

    print()
    print("== a ring-RX circuit three ways ==")
    # every gate is an RX or a CNOT, so in the X basis the circuit only
    # multiplies each basis state by a phase; the inputs part of every phase
    # difference is, up to its sign, one of a few input frequencies, so <Z>
    # is a Fourier series in the inputs whose coefficients the params set
    # once per stack: <Z> and its gradients follow without a statevector
    ring = ring_rx_template(n_qubits=4, n_layers=3)
    ring_params = init_params(ring, rng)
    batch = rng.uniform(-1.0, 1.0, (6, ring.input_dim))
    weights = rng.uniform(-1.0, 1.0, (6, ring.n_qubits))
    stack = CircuitStack(ring, ring_params[None])
    exps, record = stack.run(slice(None), batch)
    phase_x = stack.backward(slice(None), record, weights[None], batch)
    phase_p = stack.param_grads()[0]
    plan_exps = np.array([evaluate(ring, ring_params, row) for row in batch])
    plan_p, plan_x = adjoint_grad_batch(ring, ring_params, batch, weights)
    shift_p, shift_x = parameter_shift_grad_batch(ring, ring_params, batch, weights)
    print(f"CircuitStack lowering: {stack.lowering}, "
          f"{stack.coefficients.shape[-1] // 2} input frequencies for "
          f"{ring.n_qubits << (ring.n_qubits - 1)} pairs of X-basis states")
    print(f"<Z> of row 0: phase polynomial {np.round(exps[0, 0], 6)}")
    print(f"              statevector plan {np.round(plan_exps[0], 6)}")
    gaps = {
        "<Z>, phase vs plan": np.abs(exps[0] - plan_exps).max(),
        "param grads, phase vs plan": np.abs(phase_p - plan_p.sum(axis=0)).max(),
        "input grads, phase vs plan": np.abs(phase_x - plan_x).max(),
        "param grads, phase vs shift": np.abs(phase_p - shift_p.sum(axis=0)).max(),
        "input grads, phase vs shift": np.abs(phase_x - shift_x).max(),
    }
    for name, gap in gaps.items():
        print(f"max |{name}|: {gap:.2e}")
    print(f"largest gap: {max(gaps.values()):.2e}")


if __name__ == "__main__":
    main()
