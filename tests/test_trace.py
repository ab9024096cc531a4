"""The stage log: kept only inside a record, scoped to it, and invisible to results."""

import numpy as np
import pytest

from lamespectra import trace
from lamespectra.lame import LameParams, split_resolvent
from lamespectra.lattice import Lattice, ScalarField, random_vector_field
from lamespectra.norms import (
    kerman_sayer_norm,
    lp_norm,
    morrey_campanato_norm,
    muckenhoupt_constant,
    weighted_lq_norm,
)
from lamespectra.operator_norms import ConvergenceError, lp_operator_norm, singular_norm
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


def test_estimators_log_one_stage_per_call():
    lat = Lattice(2, 8)
    params = LameParams(0.5, 1.0)
    op, op_adj = split_resolvent(params, -1.0 + 0.5j, lat), split_resolvent(params, -1.0 - 0.5j, lat)
    start = random_vector_field(lat, np.random.default_rng(2))
    calls = {"iter.singular": 0, "iter.lp": 0}

    def counted(name):
        def adjoint(g):
            calls[name] += 1
            return op_adj(g)
        return adjoint

    def run(singular_adj, lp_adj):
        return (singular_norm(op, singular_adj, start),
                lp_operator_norm(op, lp_adj, start, 1.5, 3.0, n_iter=3))

    plain = run(op_adj, op_adj)
    with trace.record() as stages:
        traced = run(counted("iter.singular"), counted("iter.lp"))
    assert traced == plain
    # one stage per call, none per step; iterations count the adjoint applications
    assert [s["stage"] for s in stages] == ["iter.singular", "iter.lp"]
    for s in stages:
        assert set(s) == {"stage", "seconds", "iterations", "converged"}
        assert s["iterations"] == calls[s["stage"]]
    assert stages[0]["iterations"] >= 10 and stages[0]["converged"] is True
    # three Boyd steps do not reach tol
    assert stages[1]["iterations"] == 3 and stages[1]["converged"] is False


def test_singular_norm_logs_the_steps_of_a_failed_run():
    lat = Lattice(2, 8)
    op = split_resolvent(LameParams(0.5, 1.0), -1.0 + 0.5j, lat)
    op_adj = split_resolvent(LameParams(0.5, 1.0), -1.0 - 0.5j, lat)
    with trace.record() as stages:
        with pytest.raises(ConvergenceError):
            singular_norm(op, op_adj, random_vector_field(lat, np.random.default_rng(2)),
                          max_iter=4)
    assert [(s["stage"], s["iterations"], s["converged"]) for s in stages] == [
        ("iter.singular", 4, False)]
