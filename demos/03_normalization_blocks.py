"""The three bottleneck blocks side by side on one feature map.

Run from the repository root:  python demos/03_normalization_blocks.py
"""

import numpy as np

from harmlab import SrinParams, Tensor, rain_forward, region_instance_norm, srin_forward

rng = np.random.default_rng(3)

# A toy feature map whose foreground statistics are far from the background's.
feat = rng.normal(size=(4, 6, 6))
mask = np.zeros((6, 6))
mask[1:3, 1:4] = 1.0
feat[:, mask.astype(bool)] += 3.0  # shift the foreground distribution

fg = mask.astype(bool)
print("fg mean before      :", feat[:, fg].mean().round(3), " bg mean:", feat[:, ~fg].mean().round(3))

# 1. Region-restricted instance norm: statistics from the foreground only,
#    applied to the whole map.
normed = region_instance_norm(Tensor(feat), mask)
print("fg mean normalized  :", normed.data[:, fg].mean().round(6))

# 2. Background-statistics transfer: the foreground is re-dressed with the
#    background's global mean/std; background sites pass through exactly.
rained = rain_forward(Tensor(feat), mask)
print("fg mean after rain  :", rained.data[:, fg].mean().round(3))
print("bg untouched        :", np.array_equal(rained.data[:, ~fg], feat[:, ~fg]))

# 3. Semantic-attention modulation: a color-coded semantic map provides
#    queries; attention over background keys yields per-site scale/shift.
sem = rng.uniform(0.0, 1.0, size=(3, 6, 6))
params = SrinParams.create(4, rng)
res = srin_forward(Tensor(feat), mask, sem, params)
attn = res.attention.data
print("attention rows sum  :", attn.sum(axis=1).round(9).min(), "to", attn.sum(axis=1).round(9).max())
print("fg key columns zero :", bool(np.all(attn[:, mask.reshape(-1).astype(bool)] == 0.0)))
print("gamma range         :", res.modulation.gamma.data.min().round(4), "to",
      res.modulation.gamma.data.max().round(4), "(nonnegative, zero on background)")
print("bg untouched        :", np.array_equal(res.output.data[:, ~fg], feat[:, ~fg]))
