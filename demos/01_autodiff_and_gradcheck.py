"""Tour of the tensor core: tape-based gradients and central-difference checks.

Run from the repository root:  python demos/01_autodiff_and_gradcheck.py
"""

import numpy as np

from harmlab import Graph, Tensor, grad_check
from harmlab import tensor as tc

# Every operation is a plain function over Tensors. Recording happens only
# inside a Graph context, and only for tensors that ask for gradients.
# down_conv3x3 is one U-Net encoder stage: relu of a stride-2 3x3 conv.
rng = np.random.default_rng(0)
x = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)  # [C_in, H, W]
w = Tensor(0.5 * rng.normal(size=(3, 2, 3, 3)), requires_grad=True)  # [C_out, C_in, 3, 3]
b = Tensor(np.array([0.1, -0.2, 0.3]), requires_grad=True)
weights = rng.normal(size=(3, 2, 2))  # one weight per output element

with Graph() as graph:
    z = tc.down_conv3x3(x, w, b)  # [C_out, 2, 2]; the relu's kink is at 0, subgradient 0 there
print("tape         :", [rec.op for rec in graph.records])
# Seeding the backward with weights gives every input the gradient of
# sum(weights * z), a vector-Jacobian product; a scalar root needs no seed.
graph.backward(z, weights)

print("sum(weights * z):", float(np.sum(weights * z.data)))
print("d/dx[0]      :\n", x.grad[0].round(4))
print("d/db         :", b.grad)

# The same expression, verified against central differences. grad_check
# seeds the backward with the same weights and re-evaluates the function with
# nudged coordinates, so it must be pure.
report = grad_check(lambda ts: tc.down_conv3x3(*ts), [Tensor(t.data.copy()) for t in (x, w, b)],
                    name="down_conv3x3", weights=weights)
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
