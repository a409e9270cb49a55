"""Tour of the tensor core: tape-based gradients and central-difference checks.

Run from the repository root:  python demos/01_autodiff_and_gradcheck.py
"""

import numpy as np

from harmlab import Graph, Tensor, grad_check
from harmlab import tensor as tc

# Every operation is a plain function over Tensors. Recording happens only
# inside a Graph context, and only for tensors that ask for gradients.
x = Tensor(np.array([[[1.0, -2.0], [0.5, 3.0]],
                    [[-0.5, 1.0], [-0.25, -1.5]]]), requires_grad=True)  # [C_in, H, W] = [2, 2, 2]
w = Tensor(np.array([[2.0, 0.0], [1.0, 1.0]]), requires_grad=True)  # [C_out, C_in]
b = Tensor(np.array([0.1, -0.2]), requires_grad=True)
weights = np.array([[[1.0, -1.0], [0.5, 2.0]],
                    [[0.0, 1.0], [-2.0, 1.0]]])  # one weight per output element

with Graph() as graph:
    y = tc.conv1x1(x, w, b)      # per-pixel w @ x[:, h, w] + b
    z = tc.relu(y)               # kink at 0, subgradient 0 there
    # Seeding the backward with weights gives every input the gradient of
    # sum(weights * z), a vector-Jacobian product; a scalar root needs no seed.
    graph.backward(z, weights)

print("sum(weights * z):", float(np.sum(weights * z.data)))
print("d/dx         :\n", x.grad)
print("d/dw         :\n", w.grad)
print("d/db         :", b.grad)

# The same expression, verified against central differences. grad_check
# seeds the backward with the same weights and re-evaluates the function with
# nudged coordinates, so it must be pure.
def fn(ts):
    return tc.relu(tc.conv1x1(ts[0], ts[1], ts[2]))

report = grad_check(fn, [Tensor(t.data.copy()) for t in (x, w, b)], name="relu_conv1x1", weights=weights)
print(report.line())

# The adaptive-moment optimizer drives every training loop in the package.
# It steps one tensor from its .grad; training steps the model's flat buffer.
from harmlab import AdamState, adam_step

p = Tensor(np.zeros(3))
state = AdamState(lr=0.05)
for step in range(200):
    p.grad = 2.0 * (p.data - np.array([1.0, -2.0, 0.5]))  # d/dp ||p - target||^2
    adam_step(p, state)
print("adam converged to:", np.round(p.data, 4), "(target [1, -2, 0.5])")
