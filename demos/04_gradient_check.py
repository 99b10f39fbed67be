"""Exact reverse-mode gradients, audited by finite differences.

The backward pass differentiates through the matrix exponential in
closed form (including the small-angle series branch), so the only
truth test that does not reuse its own code is a central-difference
probe of the loss.  This script runs that probe over a spread of
configurations and prints the worst relative error per case.
"""

import numpy as np

from georesnet import grad, manifolds, network

rng = np.random.default_rng(1)

print(f"{'space':8s} {'model':10s} {'M':>2s} {'params':>7s} {'rel error':>10s}")
for kind in manifolds.KINDS:
    for model in network.MODELS:
        for layers in (1, 2, 4, 8):
            cfg = network.NetworkConfig(model, kind, layers)
            params = network.init_params(cfg, rng)
            x = manifolds.sample_uniform(kind, rng, 4)
            y = manifolds.sample_uniform(kind, rng, 4)
            err = grad.finite_diff_check(params, cfg, x, y, lam=1e-3)
            print(f"{kind:8s} {model:10s} {layers:2d} "
                  f"{network.param_count(cfg):7d} {err:10.2e}")

print("\nevery comparison is against an independent two-sided difference of")
print("the full objective; errors near 1e-8 are the probe's own noise floor.")
