"""Spans around calls into semilab, recorded from outside the library.

Only the traced run installs a Tracer. Installing rebinds each traced
function everywhere it is looked up: the module that defines it, every
semilab module that imported it by name (``from .phi import phi_scalar``
binds ``semilab.cauchy.phi_scalar``) and the package namespace. Methods and
lazy properties are rebound on their class. ``uninstall`` puts every
original back.

A span is (id, name, start, end, parent id, error, extra). Spans stay in
memory and are written to one trace file when the run ends. A span's self
time is its duration minus the part covered by its child spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time


class Tracer:
    """Records spans while ``enabled``; the bench enables it only inside
    the timed windows, so every span belongs to a measured unit or to the
    traced set-up."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.enabled = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn, extra=None):
        """fn wrapped so that each call records a span named ``name``.
        ``extra(args, kwargs, result)`` may attach a count to the span."""
        spans = self.spans
        ids = self._ids
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            span = [sid, name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(sid)
            span[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                spans.append(span)
            if extra is not None:
                span[6] = extra(args, kwargs, out)
            return out

        return traced

    # -- installing --------------------------------------------------------

    def patch_function(self, module, attr, name, extra=None):
        """Rebind module.attr, and every semilab module attribute bound to
        the same object, to a traced wrapper."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, extra)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "semilab" or mod_name.startswith("semilab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr, name, extra=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        if isinstance(original, functools.cached_property):
            prop = functools.cached_property(self.wrap(name, original.func, extra))
            prop.__set_name__(cls, attr)
            setattr(cls, attr, prop)
        else:
            setattr(cls, attr, self.wrap(name, original, extra))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def write(self, path, meta):
        """One JSON file: run metadata, span names, and one row per span."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[s[0], index[s[1]], round(s[2], 7), round(s[3], 7), s[4], s[5], s[6]]
                for s in sorted(self.spans, key=lambda s: s[0])]
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, **meta, "names": names,
                       "columns": ["id", "name", "start", "end", "parent", "error", "extra"],
                       "spans": rows}, fh, separators=(",", ":"))
            fh.write("\n")


def install(tracer):
    """Trace every layer the per-layer metrics name. Each entry names the
    span; calls into several functions may share one span name."""
    from semilab import cauchy, cli, contour, forcing, operators, phi, theorem, timegrid, weighted

    def z_evals(args, kwargs, out):
        return int(out.size)  # (kmax+1) * z.size values

    def expm_n3(args, kwargs, out):
        n = len(out) * out[0].shape[0]  # (kmax+1) * d
        return n ** 3

    def probes(args, kwargs, out):
        return int(out.probe_count)

    def panels(args, kwargs, out):
        # [panels requested, panels the returned solver propagates]
        return [int(args[0].grid.panels), int(out.grid.panels)]

    def neumann_terms(args, kwargs, out):
        sdata = kwargs.get("sdata", args[3] if len(args) > 3 else None)
        return int(sdata.neumann_terms) if sdata is not None else None

    def svd_n3(args, kwargs, out):
        op = args[0]
        if op.structure != "diagonal" and op.e0_norm == "euclidean":
            return op.dim ** 3
        return 0

    def experiment(args, kwargs, out):
        argv = args[0] if args else kwargs.get("argv")
        return argv[0]

    tracer.patch_function(phi, "phi_scalar", "phi.phi_scalar", z_evals)
    tracer.patch_function(phi, "phi_matrices", "phi.phi_matrices", expm_n3)
    for cls in vars(forcing).values():
        if isinstance(cls, type) and issubclass(cls, forcing.Forcing) and "eval" in cls.__dict__:
            tracer.patch_method(cls, "eval", "forcing.eval")
    tracer.patch_function(timegrid, "e0_norm_J", "timegrid.norms")
    tracer.patch_function(timegrid, "e1_norm_J", "timegrid.norms")
    tracer.patch_method(cauchy.CauchySolver, "solve", "cauchy.solve")
    tracer.patch_method(cauchy.CauchySolver, "exp_functionals", "cauchy.exp_functionals")
    tracer.patch_method(cauchy.CauchySolver, "refined_for", "cauchy.refined_for", panels)
    tracer.patch_function(cauchy, "estimate_M", "cauchy.estimate_M", probes)
    tracer.patch_function(theorem, "assemble_U_V", "theorem.assemble_U_V")
    tracer.patch_function(theorem, "surjectivity_identity_check",
                          "theorem.surjectivity_identity_check")
    tracer.patch_function(theorem, "omega2_search", "theorem.omega2_search")
    tracer.patch_function(theorem, "resolvent_from_solver", "theorem.resolvent_from_solver",
                          neumann_terms)
    tracer.patch_function(theorem, "halfplane_scan", "theorem.halfplane_scan")
    tracer.patch_function(theorem, "rplus_verdict", "theorem.rplus_verdict")
    pair = operators.OperatorPair
    tracer.patch_method(pair, "resolvent_norm", "operators.resolvent_norm", svd_n3)
    tracer.patch_method(pair, "resolvent_solve", "operators.resolvent_solve")
    tracer.patch_method(pair, "semigroup_apply_oracle", "operators.semigroup_oracle")
    tracer.patch_method(pair, "__init__", "operators.build")
    for attr in ("eigenvalues", "matrix_norm", "diagonalization"):
        tracer.patch_method(pair, attr, "operators.lazy")
    for attr in ("laplacian_1d", "diagonal_operator", "jordan_block", "random_normal_operator",
                 "parse_operator_text"):
        tracer.patch_function(operators, attr, "operators.build")
    tracer.patch_function(contour, "build_contour", "contour.build")
    tracer.patch_function(contour, "semigroup_apply_contour", "contour.apply")
    tracer.patch_function(weighted, "trace_norm_upper", "weighted.trace_norm_upper")
    tracer.patch_function(weighted, "theta_sweep", "weighted.theta_sweep")
    tracer.patch_function(cli, "main", "cli.main", experiment)


# -- reduction -----------------------------------------------------------

# per-layer counts computed from array shapes, not measured
COMPUTED = ("phi.phi_scalar.z_evals", "phi.phi_matrices.expm_n3",
            "operators.resolvent_norm.svd_n3")


def self_times(spans):
    """{span id: self time}: duration minus the union of child intervals."""
    children = {}
    for s in spans:
        if s[4] >= 0:
            children.setdefault(s[4], []).append((s[2], s[3]))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s[0], ())):
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s[0]] = max(0.0, (s[3] - s[2]) - covered)
    return out


def layer_metrics(setup_spans, batch_spans, traced_wall, untraced_wall, experiments):
    """Per-layer metrics of one traced batch.

    ``calls`` counts outermost calls: a span whose parent has the same name
    (the refined-grid re-entry of solve / exp_functionals, a constructor
    calling OperatorPair.__init__) is not counted again. ``operators.setup_s``
    also includes the traced set-up, where the operators are built.
    """
    by_id = {s[0]: s for s in batch_spans}
    self_s = self_times(batch_spans)
    per_name_self = {}
    per_name_calls = {}
    per_name_extra = {}
    for s in batch_spans:
        name = s[1]
        per_name_self[name] = per_name_self.get(name, 0.0) + self_s[s[0]]
        parent = by_id.get(s[4])
        if parent is None or parent[1] != name:
            per_name_calls[name] = per_name_calls.get(name, 0) + 1
        if isinstance(s[6], (int, float)):
            per_name_extra[name] = per_name_extra.get(name, 0) + s[6]

    def calls(name):
        return per_name_calls.get(name, 0)

    def selft(name):
        return per_name_self.get(name, 0.0)

    def children_named(parent_name, child_name):
        return sum(1 for s in batch_spans
                   if s[1] == child_name and s[4] in by_id and by_id[s[4]][1] == parent_name)

    requested = sum(s[6][0] for s in batch_spans if s[1] == "cauchy.refined_for")
    propagated = sum(s[6][1] for s in batch_spans if s[1] == "cauchy.refined_for")
    setup_self = self_times(setup_spans)
    op_setup = sum(setup_self[s[0]] for s in setup_spans
                   if s[1] in ("operators.build", "operators.lazy"))
    op_setup += selft("operators.build") + selft("operators.lazy")
    roots = sum(s[3] - s[2] for s in batch_spans if s[4] < 0)

    m = {}
    for name in ("phi.phi_scalar", "phi.phi_matrices", "forcing.eval", "timegrid.norms",
                 "cauchy.exp_functionals", "cauchy.solve", "theorem.assemble_U_V",
                 "operators.resolvent_norm", "operators.resolvent_solve",
                 "operators.semigroup_oracle", "contour.apply"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (selft(name), "s")
    m["phi.phi_scalar.z_evals"] = (int(per_name_extra.get("phi.phi_scalar", 0)), "count")
    m["phi.phi_matrices.expm_n3"] = (int(per_name_extra.get("phi.phi_matrices", 0)), "count")
    m["cauchy.panels_requested"] = (int(requested), "count")
    m["cauchy.refine_ratio"] = (propagated / requested if requested else 0.0, "ratio")
    m["cauchy.estimate_M.self_s"] = (selft("cauchy.estimate_M"), "s")
    m["cauchy.estimate_M.probes"] = (int(per_name_extra.get("cauchy.estimate_M", 0)), "count")
    m["theorem.omega2_search.calls"] = (calls("theorem.omega2_search"), "count")
    m["theorem.omega2_search.steps"] = (
        children_named("theorem.omega2_search", "theorem.assemble_U_V"), "count")
    m["theorem.neumann_terms"] = (int(per_name_extra.get("theorem.resolvent_from_solver", 0)),
                                  "count")
    m["theorem.halfplane_scan.self_s"] = (selft("theorem.halfplane_scan"), "s")
    m["theorem.rplus_verdict.self_s"] = (selft("theorem.rplus_verdict"), "s")
    m["operators.setup_s"] = (op_setup, "s")
    m["operators.resolvent_norm.svd_n3"] = (int(per_name_extra.get("operators.resolvent_norm", 0)),
                                            "count")
    m["operators.singular.count"] = (
        sum(1 for s in batch_spans if s[5] == "SingularResolvent"), "count")
    m["contour.nodes"] = (children_named("contour.apply", "operators.resolvent_solve"), "count")
    m["weighted.trace_norm_upper.self_s"] = (selft("weighted.trace_norm_upper"), "s")
    m["weighted.theta_sweep.self_s"] = (selft("weighted.theta_sweep"), "s")
    for exp in experiments:
        m[f"cli.{exp}.wall_s"] = (sum(s[3] - s[2] for s in batch_spans
                                      if s[1] == "cli.main" and s[6] == exp), "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.span_coverage"] = (roots / traced_wall if traced_wall > 0 else 0.0, "ratio")
    m["trace.self_s_total"] = (sum(self_s.values()), "s")
    m["trace.spans"] = (len(batch_spans), "count")
    return m
