"""Spans around the public functions of each lamespectra module.

The wrappers are installed from outside the program.  Modules import each
other's functions by name (``spectra`` holds its own reference to
``lame.apply_perturbed``, ``cli`` to ``spectra.bs_check``), so every
lamespectra namespace that holds a traced function gets the wrapper.

Span names are the stage names of the roadmap (``fft``, ``resolvent``,
``dense.assemble``, ``dense.eig``, ``filter.residual``, ``norm.<name>``,
``iter.<estimator>``) plus one name per remaining module boundary, so a
later in-program trace can time the same intervals.  A call into a stage
that is already the innermost open span (``apply_perturbed`` calling
``apply_lame``, ``random_ensemble`` calling ``gaussian_bump``) stays inside
that span instead of opening a nested one.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

PACKAGE = "lamespectra"

# (module, function, stage); the module is relative to the lamespectra package
SPANS = (
    ("lattice", "forward_transform", "fft"),
    ("lattice", "inverse_transform", "fft"),
    ("helmholtz", "helmholtz_decompose", "leray"),
    ("helmholtz", "leray_project", "leray"),
    ("lame", "resolvent_split", "resolvent"),
    ("lame", "resolvent_direct", "resolvent"),
    ("lame", "apply_perturbed", "apply"),
    ("lame", "apply_lame", "apply"),
    ("operator_norms", "singular_norm", "iter.singular"),
    ("operator_norms", "lp_operator_norm", "iter.lp"),
    ("norms", "lp_norm", "norm.lp"),
    ("norms", "weighted_lq_norm", "norm.weighted_lq"),
    ("norms", "morrey_campanato_norm", "norm.morrey_campanato"),
    ("norms", "kerman_sayer_norm", "norm.kerman_sayer"),
    ("norms", "muckenhoupt_constant", "norm.muckenhoupt"),
    ("potentials", "random_ensemble", "potentials.build"),
    ("potentials", "gaussian_bump", "potentials.build"),
    ("potentials", "square_well", "potentials.build"),
    ("potentials", "inverse_power", "potentials.build"),
    ("spectra", "dense_operator_matrix", "dense.assemble"),
    ("spectra", "dense_lame_matrix", "dense.assemble"),
    ("spectra", "discrete_eigenvalues", "dense.eig"),
    ("spectra", "_operator_residual", "filter.residual"),
    ("spectra", "bs_check", "bs.check"),
    ("spectra", "bs_norm", "bs.norm"),
    ("spectra", "resolvent_norm_estimate", "resolvent_estimate"),
    ("enclosure", "bound_rhs", "enclosure.rhs"),
    ("enclosure", "enclosure_report", "enclosure.report"),
    ("enclosure", "calibrate_constant", "enclosure.calibrate"),
    ("serialize", "write_report", "serialize.write"),
    ("serialize", "write_metadata", "serialize.write"),
    ("serialize", "scalar_to_csv", "serialize.write"),
    ("serialize", "vector_to_csv", "serialize.write"),
    ("config", "load_config", "config.load"),
    ("cli", "main", "cli"),
)

# metric prefix of each stage: <module>.<what>
STAGE_KEYS = {
    "fft": "lattice.fft",
    "leray": "helmholtz.leray",
    "resolvent": "lame.resolvent",
    "apply": "lame.apply",
    "iter.singular": "operator_norms.singular",
    "iter.lp": "operator_norms.lp",
    "norm.lp": "norms.lp",
    "norm.weighted_lq": "norms.weighted_lq",
    "norm.morrey_campanato": "norms.morrey_campanato",
    "norm.kerman_sayer": "norms.kerman_sayer",
    "norm.muckenhoupt": "norms.muckenhoupt",
    "potentials.build": "potentials.build",
    "dense.assemble": "spectra.dense.assemble",
    "dense.eig": "spectra.dense.eig",
    "filter.residual": "spectra.filter.residual",
    "bs.check": "spectra.bs.check",
    "bs.norm": "spectra.bs.norm",
    "resolvent_estimate": "spectra.resolvent_estimate",
    "enclosure.rhs": "enclosure.rhs",
    "enclosure.report": "enclosure.report",
    "enclosure.calibrate": "enclosure.calibrate",
    "serialize.write": "serialize.write",
    "config.load": "config.load",
    "cli": "cli",
}


class Tracer:
    """Spans kept in memory as [stage, start, end, parent index] lists.

    ``counters`` holds the work counts taken at the same boundaries:
    transform bytes, estimator iterations and failures, dense matrix orders,
    kept eigenvalues and bytes written.
    """

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self._patched = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module_name, func, stage in SPANS:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], func)
            wrapped = self._wrap(original, stage)
            for module in modules:
                names = [attr for attr, value in vars(module).items() if value is original]
                for attr in names:
                    setattr(module, attr, wrapped)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, stage: str):
        hook = _HOOKS.get(stage)

        def traced(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] == stage:
                return fn(*args, **kwargs)
            if hook is not None:
                args, kwargs = hook.before(self, args, kwargs)
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = [stage, time.perf_counter(), 0.0, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counters[f"{stage}.failures"] += 1
                self.counters[f"{stage}.failures.{type(exc).__name__}"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook.after(self, args, kwargs, result)
            return result

        return traced

    # -- summaries ----------------------------------------------------------

    def summarize(self) -> dict:
        """Calls and self time per stage, and the time covered by root spans.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        child = defaultdict(float)
        for stage, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        roots = 0.0
        for index, (stage, start, end, parent) in enumerate(self.spans):
            calls[stage] += 1
            self_s[stage] += end - start - child[index]
            if parent is None:
                roots += end - start
        return {"calls": dict(calls), "self_s": dict(self_s), "root_s": roots}


class _Hook:
    def before(self, tracer, args, kwargs):
        return args, kwargs

    def after(self, tracer, args, kwargs, result) -> None:
        pass


class _FieldBytes(_Hook):
    """Bytes of the field arrays a transform reads and writes (computed)."""

    def after(self, tracer, args, kwargs, result):
        field = args[0] if args else kwargs["field"]
        tracer.counters["fft.bytes"] += field.values.nbytes + result.values.nbytes


class _Iterations(_Hook):
    """Estimator iterations, counted as applications of the adjoint.

    Both estimators apply the adjoint exactly once per completed step.
    """

    def __init__(self, stage: str):
        self.stage = stage

    def before(self, tracer, args, kwargs):
        key = f"{self.stage}.iters"

        def counted(adjoint):
            def apply_adjoint(g):
                tracer.counters[key] += 1
                return adjoint(g)
            return apply_adjoint

        if len(args) > 1:
            args = (args[0], counted(args[1])) + tuple(args[2:])
        else:
            kwargs = dict(kwargs, apply_adjoint=counted(kwargs["apply_adjoint"]))
        return args, kwargs


class _DenseOrder(_Hook):
    """Order of each assembled operator matrix and its 16 order^2 bytes."""

    def after(self, tracer, args, kwargs, result):
        order = result.shape[0]
        tracer.counters["dense.order_max"] = max(tracer.counters["dense.order_max"], order)
        tracer.counters["dense.bytes"] += 16 * order * order


class _Kept(_Hook):
    """Eigenvalues that survive both filters."""

    def after(self, tracer, args, kwargs, result):
        tracer.counters["dense.kept"] += len(result)


class _BytesWritten(_Hook):
    """Size of the file each writer leaves behind (the sidecar for metadata)."""

    def after(self, tracer, args, kwargs, result):
        path = result if result is not None else (args[-1] if args else kwargs["path"])
        tracer.counters["serialize.bytes"] += os.path.getsize(path)


_HOOKS = {
    "fft": _FieldBytes(),
    "iter.singular": _Iterations("iter.singular"),
    "iter.lp": _Iterations("iter.lp"),
    "dense.assemble": _DenseOrder(),
    "dense.eig": _Kept(),
    "serialize.write": _BytesWritten(),
}
