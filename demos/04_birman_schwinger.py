"""
The Birman-Schwinger operator detects eigenvalues
=================================================

"""

import numpy as np

from lamespectra.lame import LameParams
from lamespectra.lattice import Lattice
from lamespectra.potentials import gaussian_bump
from lamespectra.spectra import bs_check, bs_kernel, bs_norm, discrete_eigenvalues

# z is a discrete eigenvalue of -Delta* + V exactly when
# K(z) = V_{1/2} (-Delta* - z)^{-1} |V|^{1/2} has eigenvalue -1; bs_kernel
# assembles K(z) densely on the support of V, where all of it lives
lat = Lattice(1, 64, 16.0)
params = LameParams(0.0, 1.0)
V = gaussian_bump(lat, -30.0 - 10.0j, 1.1)
res = discrete_eigenvalues(params, V, tau_filter=3.0)

print("z (eigenvalue)              min |sigma + 1|    ||K(z)||")
for z in res.eigenvalues:
    z = complex(z)
    K = bs_kernel(params, V, z)
    print(f"{z:+24.4f}    {bs_check(K):12.3e}    {bs_norm(K):8.4f}")

# off the spectrum nothing crosses -1 and the norm may dip below 1
z_off = -60.0 + 0.0j
print("\noff the spectrum at", z_off)
K_off = bs_kernel(params, V, z_off)
print("min |sigma + 1| ", bs_check(K_off))
print("||K||           ", bs_norm(K_off))

# the kernel's eigenvalues are the nonzero BS spectrum
sigma = np.linalg.eigvals(bs_kernel(params, V, complex(res.eigenvalues[0])))
closest = sigma[np.argmin(np.abs(sigma + 1.0))]
print("\nBS eigenvalue closest to -1:", closest)
