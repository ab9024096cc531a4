"""
Two routes to the free resolvent of the elastic operator
========================================================

"""

import numpy as np

from lamespectra.lame import (
    LameParams,
    apply_lame,
    resolvent_direct,
    resolvent_split,
    split_resolvent,
)
from lamespectra.lattice import Lattice, random_vector_field, vector_lp_norm
from lamespectra.spectra import resolvent_norm_estimate

# Lame coefficients: mu = 1 shear, lambda = 0.5, so the two wave speeds
# (squared) are mu = 1 and lambda + 2 mu = 2.5
params = LameParams(0.5, 1.0)
lat = Lattice(2, 32)
rng = np.random.default_rng(1)
g = random_vector_field(lat, rng)

# route one solves the d x d symbol system frequency by frequency; route two
# splits g into wave components first and divides by scalar symbols
z = -2.0 + 1.5j
u_direct = resolvent_direct(params, z, g)
u_split = resolvent_split(params, z, g)
print("route gap   ", vector_lp_norm(u_direct - u_split, 2.0) / vector_lp_norm(u_direct, 2.0))

# either output inverts the operator: (-Delta* - z) u == g
check = apply_lame(params, u_split) - z * u_split
print("residual    ", vector_lp_norm(check - g, 2.0) / vector_lp_norm(g, 2.0))

# an iteration that applies one z to many fields builds the split route once:
# split_resolvent forms its two scalar multipliers a single time, and each
# application gives the bits of the one-shot call
R = split_resolvent(params, z, lat)
h = random_vector_field(lat, rng)
for name, field in (("g", g), ("h", h)):
    same = np.array_equal(R(field).values, resolvent_split(params, z, field).values)
    print(f"built on {name}  ", "same bits as one-shot" if same else "bits differ")

# points on the essential spectrum [0, infinity) are rejected
try:
    resolvent_split(params, 2.5, g)
except ValueError as err:
    print("on the ray  :", err)

# away from the ray the resolvent norm is 1 / distance; the estimator
# recovers it from below via the nonlinear power method
z = -4.0
est = resolvent_norm_estimate(params, z, ("lp_dual", 2.0), lat, samples=2)
print("||R(-4)||_2 ", est, " exact", 1.0 / 4.0)
