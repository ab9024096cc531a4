"""The stage log: kept only inside a record, scoped to it, and invisible to results."""

import numpy as np
import pytest

from lamespectra import trace
from lamespectra.lame import LameParams
from lamespectra.lattice import Lattice, ScalarField
from lamespectra.norms import (
    kerman_sayer_norm,
    lp_norm,
    morrey_campanato_norm,
    muckenhoupt_constant,
    weighted_lq_norm,
)
from lamespectra.potentials import gaussian_bump
from lamespectra.spectra import discrete_eigenvalues


def test_calls_outside_a_record_keep_nothing():
    V = gaussian_bump(Lattice(1, 32, 8.0), -4.0, 0.7)
    lp_norm(V, 2.0)
    with trace.stage("outside") as counts:
        counts["n"] = 1
    assert trace._log.get() is None
    with trace.record() as stages:
        pass
    assert stages == []


def test_nested_record_restores_the_outer_one():
    with trace.record() as outer:
        with trace.stage("a"):
            pass
        with pytest.raises(RuntimeError):
            with trace.record() as inner:
                with trace.stage("b") as counts:
                    counts["n"] = 2
                raise RuntimeError
        with pytest.raises(ValueError):
            with trace.stage("raises"):
                raise ValueError
        with trace.stage("c"):
            pass
    assert [s["stage"] for s in outer] == ["a", "c"]
    assert [(s["stage"], s["n"]) for s in inner] == [("b", 2)]
    assert trace._log.get() is None


def test_results_are_the_same_bits_inside_a_record():
    lat = Lattice(2, 8)
    params = LameParams(0.5, 1.0)
    V = gaussian_bump(lat, -20.0 - 5.0j, 0.8)

    def run():
        res = discrete_eigenvalues(params, V, tau_filter=1.0)
        return res, [lp_norm(V, 2.0), weighted_lq_norm(V, 2.0, 0.5),
                     morrey_campanato_norm(V, 1.0, 1.5), kerman_sayer_norm(V, 0.5),
                     muckenhoupt_constant(ScalarField(lat, np.abs(V.values) + 0.05), 2.0)]

    plain, plain_norms = run()
    with trace.record() as stages:
        traced, traced_norms = run()
    # the nested stages finish, and so are logged, before the solve that holds them
    assert [s["stage"] for s in stages] == ["dense.assemble", "filter.residual", "dense.eig",
                                            "norm.lp", "norm.weighted_lq",
                                            "norm.morrey_campanato", "norm.kerman_sayer",
                                            "norm.muckenhoupt"]
    assert stages[0]["matrix_order"] == 128
    assert stages[1]["checked"] == len(traced) + stages[1]["rejected"]
    assert stages[2]["route"] == "inverse_iteration" and len(traced) > 0
    for name in ("eigenvalues", "residuals", "distances"):
        assert getattr(plain, name).tobytes() == getattr(traced, name).tobytes()
    assert plain.solver_info == traced.solver_info
    assert plain_norms == traced_norms
