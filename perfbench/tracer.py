"""Per-layer tracing for the benchmark, installed from outside the library.

The tracer replaces public functions and methods of each ``kcontact``
module with thin wrappers for the duration of a traced pass.  Nothing
under ``src/`` is edited: functions are swapped in every ``kcontact``
module that holds them (so ``from .x import f`` references are covered
too), methods are swapped on their classes, and everything is restored
by :meth:`Tracer.uninstall`.

Each wrapper opens a span on a stack.  A span's self time is its
duration minus the time covered by its child spans, and is added to its
layer (the module name).  A call into the layer that is already on top
of the stack opens no new span, since the time lands in the same layer
either way.  Spans are folded into per-layer totals as they close rather
than kept in memory: a complete-family pass opens about a million of
them.  Counters are bumped at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute path, counter key or None).  Attribute paths with a
# dot name a method on a class of that module.  Functions not listed
# here (the dual math helpers, small predicates) run inside a listed span
# and are timed as part of it.
WRAPPED = (
    ("dual", "derive1", "dual.derive1"),
    ("dual", "jacobian", "dual.jacobian"),
    ("dual", "derive2", "dual.derive2"),
    ("geometry", "DarbouxPoint.__init__", "geometry.points_built"),
    ("geometry", "DarbouxPoint.from_flat", None),
    ("geometry", "Tangent.__init__", None),
    ("geometry", "KTangent.__init__", None),
    ("geometry", "eval_eta", None),
    ("geometry", "reeb_fields", None),
    ("geometry", "chi", None),
    ("geometry", "chi_matrix", None),
    ("geometry", "kernel_deficiency", None),
    ("fields", "grad", "fields.grad_calls"),
    ("fields", "fd_grad", None),
    ("fields", "p_hessian", None),
    ("fields", "check_regularity", None),
    ("fields", "invert_fibre_derivative", "fields.invert_calls"),
    ("fields", "ScalarField.__call__", None),
    ("sections", "SectionZInd.p_at", "sections.coeff_evals"),
    ("sections", "SectionZDep.p_at", "sections.coeff_evals"),
    ("sections", "SectionZInd.at", None),
    ("sections", "SectionZDep.at", None),
    ("sections", "from_potentials", None),
    ("sections", "check_holonomic", None),
    ("sections", "check_max_coisotropic", None),
    ("sections", "check_isotropic_slices", None),
    ("sections", "sample_box", None),
    ("hj", "GaugeMatrix.__call__", "hj.gauge_evals"),
    ("hj", "CompleteSolutionFamily.section_of", None),
    ("hj", "project_Q", None),
    ("hj", "project_zdep", None),
    ("hj", "hj_classical_zind", None),
    ("hj", "hj_evolution_zind", None),
    ("hj", "hj_zdep_residual", None),
    ("hj", "gamma_beta", None),
    ("hj", "solve_diagonal_C", None),
    ("hj", "diagonal_gauge_matrix", None),
    ("hj", "verify_complete", None),
    ("hdw", "canonical_kvf", None),
    ("hdw", "kvf_residual", None),
    ("hdw", "gauge_basis", None),
    ("hdw", "map_residual", None),
    ("hdw", "evolution_lift", None),
    ("hdw", "second_order_residual", None),
    ("grids", "GridSpec.__init__", None),
    ("grids", "BaseField.eval", "grids.field_evals"),
    ("grids", "BaseMap.from_function", None),
    ("grids", "SolutionMap.from_function", None),
    ("grids", "SolutionMap.point", None),
    ("grids", "SolutionMap.derivatives", None),
    ("grids", "grid_derivative", None),
    ("grids", "grid_second_derivative", None),
    ("integrate", "commutator_defect", None),
    ("integrate", "integral_section", None),
    ("integrate", "lift", None),
    ("integrate", "end_to_end", None),
    ("corpus", "load", None),
    ("corpus", "analytic", None),
    ("corpus", "solution_modes", None),
    ("corpus", "closed_solution_map", None),
    ("corpus", "closed_base_map", None),
    ("corpus", "telegrapher_quadratic_roots", None),
    ("corpus", "ExampleSystem.hamiltonian", None),
    ("cli", "main", None),
)

# Functions whose inclusive time feeds a per-unit metric.
INCLUSIVE = {"hj_classical_zind": "hj.sweep", "hj_evolution_zind": "hj.sweep",
             "hj_zdep_residual": "hj.sweep", "integral_section": "integrate.section",
             "lift": "integrate.lift", "map_residual": "hdw.map_residual",
             "invert_fibre_derivative": "fields.newton"}

HJ_SWEEPS = ("hj_classical_zind", "hj_evolution_zind", "hj_zdep_residual")

# Calls that must know which of these functions are active on the stack.
ACTIVE = ("integral_section", "invert_fibre_derivative", "derive2")


class Tracer:
    """Install wrappers, accumulate spans and counters, derive metrics."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.inclusive = defaultdict(float)
        self.counts = Counter()
        self.active = Counter()
        self._stack = []  # [layer, child seconds] per open span
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def span(self, layer, fn, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer`` (for the benchmark's own calls)."""
        return self._call(layer, None, fn, args, kwargs)

    def _call(self, layer, incl, fn, args, kwargs):
        stack = self._stack
        frame = [layer, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            self.self_s[layer] += dt - frame[1]
            if stack:
                stack[-1][1] += dt
            if incl:
                self.inclusive[incl] += dt

    def _wrap(self, layer, name, fn, counter):
        incl = INCLUSIVE.get(name)
        track = name in ACTIVE
        post = getattr(self, "_post_" + name, None)
        if name in HJ_SWEEPS:
            post = functools.partial(self._hj_samples, fn=fn)
        pre = getattr(self, "_pre_" + name, None)
        counts, active, stack = self.counts, self.active, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            if pre is not None:
                pre()
            if not (incl or track) and stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            if track:
                active[name] += 1
            try:
                out = self._call(layer, incl, fn, args, kwargs)
            finally:
                if track:
                    active[name] -= 1
            if post is not None:
                post(out, args, kwargs)
            return out

        return wrapper

    # -- counters that need arguments or results -----------------------------

    def _pre_derive1(self):
        if self.active["invert_fibre_derivative"] and not self.active["derive2"]:
            self.counts["fields.newton_residual_evals"] += 1

    def _pre_derive2(self):
        if self.active["invert_fibre_derivative"]:
            self.counts["fields.newton_steps"] += 1

    def _pre_eval(self):
        if self.active["integral_section"]:
            self.counts["integrate.section_field_evals"] += 1

    def _post_lift(self, out, args, kwargs):
        self.counts["integrate.lift_nodes"] += out.z[..., 0].size

    def _post_map_residual(self, out, args, kwargs):
        self.counts["hdw.residual_nodes"] += out.r_q.size

    def _hj_samples(self, rep, args, kwargs, fn):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        samples = bound.arguments["samples"]
        tried = bound.arguments["count"] if samples is None else np.atleast_2d(samples).shape[0]
        self.counts["hj.samples_admitted"] += rep.sample_count
        self.counts["hj.samples_rejected"] += tried - rep.sample_count

    # -- install / uninstall -------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "kcontact" or name.startswith("kcontact.")]
        for modname, path, counter in WRAPPED:
            owner = sys.modules[f"kcontact.{modname}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                name = cls_name if attr == "__init__" else attr
                wrapped = self._wrap(modname, name, fn, counter)
                setattr(cls, attr, staticmethod(wrapped) if is_static else wrapped)
                self._undo.append((cls, attr, raw))
                continue
            fn = getattr(owner, path)
            wrapped = self._wrap(modname, path, fn, counter)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapped)
                        self._undo.append((mod, attr, fn))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- metrics -------------------------------------------------------------

    def metrics(self, overhead_ratio: float, cli_bytes: int, cli_changes: int) -> dict:
        c, s, inc = self.counts, self.self_s, self.inclusive

        def per(num, den, scale=1e6):
            return num / den * scale if den else 0.0

        passes = c["dual.derive1"] + c["dual.jacobian"] + c["dual.derive2"]
        admitted, rejected = c["hj.samples_admitted"], c["hj.samples_rejected"]
        rk4 = c["integrate.section_field_evals"] // 4
        steps = c["fields.newton_steps"]
        trials = c["fields.newton_residual_evals"] - c["fields.invert_calls"]
        out = {
            "dual.passes": (passes, "count"),
            "dual.self_s": (s["dual"], "s"),
            "dual.us_per_pass": (per(s["dual"], passes), "us"),
            "geometry.points_built": (c["geometry.points_built"], "count"),
            "geometry.self_s": (s["geometry"], "s"),
            "geometry.us_per_point": (per(s["geometry"], c["geometry.points_built"]), "us"),
            "sections.coeff_evals": (c["sections.coeff_evals"], "count"),
            "sections.self_s": (s["sections"], "s"),
            "hj.samples_admitted": (admitted, "count"),
            "hj.samples_rejected": (rejected, "count"),
            "hj.admitted_ratio": (per(admitted, admitted + rejected, 1.0), "ratio"),
            "hj.gauge_evals": (c["hj.gauge_evals"], "count"),
            "hj.self_s": (s["hj"], "s"),
            "hj.us_per_sample": (per(inc["hj.sweep"], admitted + rejected), "us"),
            "grids.field_evals": (c["grids.field_evals"], "count"),
            "grids.self_s": (s["grids"], "s"),
            "integrate.rk4_steps": (rk4, "count"),
            "integrate.us_per_rk4_step": (per(inc["integrate.section"], rk4), "us"),
            "integrate.lift_nodes": (c["integrate.lift_nodes"], "count"),
            "integrate.us_per_lift_node": (per(inc["integrate.lift"], c["integrate.lift_nodes"]), "us"),
            "integrate.self_s": (s["integrate"], "s"),
            "hdw.residual_nodes": (c["hdw.residual_nodes"], "count"),
            "hdw.us_per_residual_node": (per(inc["hdw.map_residual"], c["hdw.residual_nodes"]), "us"),
            "hdw.self_s": (s["hdw"], "s"),
            "fields.grad_calls": (c["fields.grad_calls"], "count"),
            "fields.newton_steps": (steps, "count"),
            "fields.newton_residual_evals": (c["fields.newton_residual_evals"], "count"),
            "fields.newton_accept_ratio": (per(steps, trials, 1.0), "ratio"),
            "fields.us_per_newton_step": (per(inc["fields.newton"], steps), "us"),
            "fields.self_s": (s["fields"], "s"),
            "corpus.self_s": (s["corpus"], "s"),
            "cli.self_s": (s["cli"], "s"),
            "cli.bytes_written": (cli_bytes, "bytes"),
            "cli.report_changes": (cli_changes, "count"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
