"""Exact manifold invariance vs ambient drift, before any training.

The geometric net's outputs sit on the manifold by construction, at any
depth and for any parameter draw.  The classical residual net updates in
ambient coordinates, so its outputs leave the manifold immediately; this
is a structural property, visible with random weights.
"""

import numpy as np

from georesnet import manifolds, network

rng = np.random.default_rng(7)

for kind in manifolds.KINDS:
    print(f"--- {kind} ---")
    x0 = manifolds.sample_uniform(kind, rng, 64)
    for layers in (1, 4, 16, 64):
        geo = network.NetworkConfig(network.MANIFOLD, kind, layers)
        cla = network.NetworkConfig(network.CLASSICAL, kind, layers)
        out_g = network.network_forward(x0, network.init_params(geo, rng), geo)[0]
        out_c = network.network_forward(x0, network.init_params(cla, rng), cla)[0]
        d_g = float(np.max(manifolds.defect(kind, out_g)))
        d_c = float(np.max(manifolds.defect(kind, out_c)))
        print(f"  M = {layers:3d}: geometric defect {d_g:.2e}   "
              f"classical defect {d_c:.2e}")
    print()

print("the gap is qualitative: machine precision against order-one drift.")
print("training shrinks the classical drift only as far as the data term")
print("pushes it; the geometric net never pays for the constraint at all.")
