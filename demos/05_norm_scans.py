"""
Scanning potentials with Morrey-Campanato, Kerman-Sawyer and A_p norms
======================================================================

"""

import numpy as np

from lamespectra import trace
from lamespectra.lame import Potential
from lamespectra.lattice import Lattice, ScalarField
from lamespectra.norms import (
    kerman_sayer_norm,
    lp_norm,
    morrey_campanato_norm,
    muckenhoupt_constant,
    norm_result,
)
from lamespectra.potentials import gaussian_bump, inverse_power
from lamespectra.serialize import plain

lat = Lattice(2, 16)
V = gaussian_bump(lat, -8.0, 0.9)

# every scan returns a NormResult: the value, the witness naming the winning
# ball or cube, and the parameters; inside a trace record each scan also logs
# its seconds and what it computed
with trace.record() as stages:
    r = morrey_campanato_norm(V, 1.0, 1.2)
    print("Morrey-Campanato  ", r.value, r.witness)
    r = kerman_sayer_norm(V, 0.5)
    print("Kerman-Sawyer     ", r.value, r.witness)
for s in stages:
    print("  trace:", {k: v for k, v in s.items() if k != "seconds"})

w = ScalarField(lat, np.abs(V.values) + 0.05)
r = muckenhoupt_constant(w, 2.0)
print("A_2 constant      ", r.value, r.witness)

# a singular profile |x|^{-1} spreads mass across scales; compare how the
# norms see it against the smooth bump with matching L^2 size
spike = inverse_power(lat, 3.0, 1.0)
scale = lp_norm(V, 2.0) / lp_norm(spike, 2.0)
spike = Potential(lat, scale * spike.values)
for name, pot in (("bump ", V), ("spike", spike)):
    print(
        f"{name}: L2 {lp_norm(pot, 2.0):6.3f}  "
        f"MC {morrey_campanato_norm(pot, 1.0, 1.2).value:6.3f}  "
        f"KS {kerman_sayer_norm(pot, 0.5).value:6.3f}"
    )

# the uniform interface used by the command line passes a scan's result
# through
result = norm_result("morrey_campanato", V, alpha=1.0, p=1.2)
print("\nas a record:", plain(result))
