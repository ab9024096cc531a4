"""
Discrete eigenvalues of the operator with a complex potential
=============================================================

"""

import numpy as np

from lamespectra.lame import LameParams
from lamespectra.lattice import Lattice
from lamespectra.potentials import gaussian_bump, square_well
from lamespectra.spectra import discrete_eigenvalues

# a real square well on a long 1d box first: textbook bound states
lat = Lattice(1, 256, 30.0)
params = LameParams(-1.0, 1.0)  # lam + 2 mu = 1, so the 1d operator is -d^2/dx^2
well = square_well(lat, 5.0, 1.0)

# tau_filter drops the discretized continuum cluster near the essential ray,
# leaving the bound states; a real potential keeps them on the real axis
res = discrete_eigenvalues(params, well, tau_filter=0.5)
print("square well bound states:", np.sort(res.eigenvalues.real))
print("largest residual        :", res.residuals.max())

# make the potential complex and the eigenvalues wander into the plane
bump = gaussian_bump(lat, -4.0 - 2.0j, 1.5)
res = discrete_eigenvalues(params, bump, tau_filter=0.6)
for z, dist in zip(res.eigenvalues, res.distances):
    print(f"  z = {z.real:+8.4f} {z.imag:+8.4f}i   distance to ray {dist:6.3f}")
