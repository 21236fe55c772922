"""Estimating sigma*, the largest sigma for which the segment inequality
holds on the examined domain.

The estimator takes the minimum over sampled pairs and a dyadic lambda
grid of  2 * (max{f(x), f(y)} - f(segment)) / (lam*(1-lam)*||x-y||^2).
It is an upper bound for the true sigma*; a negative estimate means the
function is not even quasiconvex on the sampled pairs.

Run: python3 demos/sigma_star.py
"""

import numpy as np

from quasicheck.conditions import CheckConfig, sigma_star_estimate
from quasicheck.field import catalog_field
from quasicheck.search import Sampler, sample_pairs

cfg = CheckConfig()

for name, n, note in [
    ("sqnorm", 2, "true value 2"),
    ("const", 2, "true value 0, hit exactly"),
    ("sin", 1, "negative: not quasiconvex"),
]:
    f = catalog_field(name, n)
    est = sigma_star_estimate(f, Sampler("uniform_box", 7, 10_000, f.domain), cfg)
    print(f"{name:8s} sigma* ~ {est:+.6f}   ({note})")

# the affine infimum 0 is only approached along level-set directions of
# <c, x>; uniform pairs alone leave the estimate far from 0
aff = catalog_field("affine", 2)
uniform = sample_pairs(Sampler("uniform_box", 7, 10_000, aff.domain))
est_u = sigma_star_estimate(aff, uniform, cfg)

rng = np.random.default_rng(0)
base = rng.uniform(-0.5, 0.5, size=(200, 2))
level_dir = np.array([2.0, -1.0]) / np.sqrt(5.0)  # orthogonal to c = (1, 2)
level_pairs = np.stack([base + 0.4 * level_dir, base - 0.4 * level_dir], axis=1)
est_l = sigma_star_estimate(aff, np.vstack([uniform, level_pairs]), cfg)

print(f"affine   sigma* ~ {est_u:+.6f}   (uniform pairs only)")
print(f"affine   sigma* ~ {est_l:+.2e}   (with level-set pairs: reaches 0)")
