"""
Eigenvalue enclosures and their scaling covariance
==================================================

"""

import numpy as np

from lamespectra.enclosure import (
    BoundSpec,
    bound_rhs,
    enclosure_report,
    scaling_exponent_test,
)
from lamespectra.lame import LameParams
from lamespectra.lattice import Lattice
from lamespectra.potentials import gaussian_bump
from lamespectra.spectra import discrete_eigenvalues

# in 1d the enclosure is fully explicit: every eigenvalue z satisfies
# |z|^(1/2) <= ||V||_1 / (2 sqrt(lam + 2 mu))
lat = Lattice(1, 192, 30.0)
params = LameParams(0.0, 1.0)
V = gaussian_bump(lat, -6.0 - 3.0j, 1.2)
res = discrete_eigenvalues(params, V, tau_filter=1.5)

spec = BoundSpec("T1d", 0.5)
report = enclosure_report(spec, params, V, res)
print("disc radius", bound_rhs(spec, params, V) ** 2)
for z, ratio, verdict in zip(report.eigenvalues_tested, report.ratios, report.verdicts):
    print(f"  z = {z:+10.4f}  ratio {ratio:.3f}  {verdict}")

# the family V_a(x) = a^2 V(a x) moves every eigenvalue to a^2 z, and the
# ratio |z|^gamma / rhs is invariant when the norm matches the bound
rep = scaling_exponent_test(params, V, spec, scales=(0.5, 2.0), tau_filter=1.5)
print("\neigenvalue tracking error", rep.max_eigenvalue_error())
print("ratio drift              ", rep.max_ratio_deviation())

# with a deliberately wrong exponent the drift reappears at the predicted
# rate a^(2 gamma + d - 2 p): the protocol detects miscalibrated norms
ctrl = scaling_exponent_test(
    params, V, spec, scales=(0.5, 2.0), tau_filter=1.5, exponent_override=2.0
)
for entry in ctrl.entries:
    print(
        f"a = {entry['scale']}: ratio/base = "
        f"{entry['ratio'] / ctrl.base_ratio:.4f}, predicted {entry['predicted_factor']}"
    )
