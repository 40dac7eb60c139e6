"""Span recorder for the traced benchmark run.

The benchmark traces solgeo from outside: it replaces the public functions
of each module with wrappers that record a span (name, start, end, parent
span, task id) in memory.  Names that a module bound by ``from ... import``
are found by identity and rebound too, so ``zerocurv.commutator`` is traced
along with ``liealg.commutator``.  ``scipy.linalg.expm`` is wrapped as a
counter only, so the time of the non-skew fallback stays inside the
``liealg.expm`` span that called it.

A layer's self time is the duration of its spans minus the time their
child spans cover.  Per-layer metrics are totals over the traced tasks
divided by the number of traced tasks.
"""

from __future__ import annotations

import functools
import sys
import time

# per-layer metrics in the order BENCHMARK.json lists them: (name, unit)
LAYER_METRICS = (
    ("cli.import_s", "s"),
    ("cli.command_s", "s"),
    ("cli.other_s", "s"),
    ("cases.calls", "count"),
    ("cases.s", "s"),
    ("grid.diff_axis.calls", "count"),
    ("grid.diff_axis.s", "s"),
    ("grid.diff_axis.bytes", "B_computed"),
    ("grid.meshes.calls", "count"),
    ("grid.meshes.s", "s"),
    ("grid.antider_x.s", "s"),
    ("grid.save_field.s", "s"),
    ("grid.save_field.bytes", "B_computed"),
    ("grid.save_field_csv.s", "s"),
    ("frames.export_obj.s", "s"),
    ("liealg.expm.calls", "count"),
    ("liealg.expm.s", "s"),
    ("liealg.expm.nonskew_calls", "count"),
    ("liealg.expm.nonskew_frac", "frac"),
    ("liealg.commutator.calls", "count"),
    ("liealg.commutator.s", "s"),
    ("liealg.commutator.bytes", "B_computed"),
    ("frames.propagate_frenet.s", "s"),
    ("frames.reconstruct_surface.s", "s"),
    ("frames.commutation_defect_2d.s", "s"),
    ("frames.gwe_matrices.s", "s"),
    ("zerocurv.zc_residual.s", "s"),
    ("zerocurv.lambda_field.s", "s"),
    ("zerocurv.lambda_residual.s", "s"),
    ("zerocurv.embedding_identity_defect.s", "s"),
    ("solitons.pde_residual.fd.s", "s"),
    ("solitons.pde_residual.analytic.s", "s"),
    ("solitons.lax_commutation_defect.calls", "count"),
    ("solitons.lax_commutation_defect.s", "s"),
    ("waves.Wave.sample.calls", "count"),
    ("waves.Wave.sample.s", "s"),
    ("trace.task_s", "s"),
    ("trace.overhead_frac", "frac"),
)

# the case builders of solgeo.cases, all recorded as one "cases" layer
CASE_BUILDERS = ("planewave", "uniform_spin", "pure_gauge_connection",
                 "rational_lambda", "sphere_patch", "cylinder", "plane",
                 "random_smooth", "random_connection")


def _in_out_bytes(args, kwargs, out):
    return args[0].nbytes + out.nbytes


def _commutator_bytes(args, kwargs, out):
    return args[0].nbytes + args[1].nbytes + out.nbytes


def _field_bytes(args, kwargs, out):
    # save_field writes complex data as interleaved float64 pairs
    data = args[1].data
    return data.size * 8 * (2 if data.dtype.kind == "c" else 1)


def _pde_span(args, kwargs):
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "fd")
    return f"solitons.pde_residual.{mode}"


def _targets():
    """(owner, attribute, span name or name function, bytes function)."""
    from solgeo import cases, frames, liealg, solitons, waves, zerocurv
    from solgeo import grid as sg

    out = [
        (sg, "diff_axis", "grid.diff_axis", _in_out_bytes),
        (sg.GridSpec, "meshes", "grid.meshes", None),
        (sg, "antider_x", "grid.antider_x", None),
        (sg, "antider_x_data", "grid.antider_x", None),
        (sg, "save_field", "grid.save_field", _field_bytes),
        (sg, "save_field_csv", "grid.save_field_csv", None),
        (liealg, "expm", "liealg.expm", None),
        (liealg, "commutator", "liealg.commutator", _commutator_bytes),
        (solitons, "pde_residual", _pde_span, None),
        (solitons, "lax_commutation_defect", "solitons.lax_commutation_defect",
         None),
        (waves.Wave, "sample", "waves.Wave.sample", None),
    ]
    for name in ("propagate_frenet", "reconstruct_surface",
                 "commutation_defect_2d", "gwe_matrices", "export_obj"):
        out.append((frames, name, f"frames.{name}", None))
    for name in ("zc_residual", "lambda_field", "lambda_residual",
                 "embedding_identity_defect"):
        out.append((zerocurv, name, f"zerocurv.{name}", None))
    for name in CASE_BUILDERS:
        out.append((cases, name, "cases", None))
    return out


class Tracer:
    """In-memory span recorder over the solgeo modules.

    ``install`` patches every target and every other solgeo binding of the
    same object; ``uninstall`` restores them.  ``task`` is the id stamped on
    new spans.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, task, bytes]
        self.counts = {}
        self.task = 0
        self._stack = []
        self._patches = []  # (container, key, original, is_mapping)

    def _span(self, name, fn, nbytes):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, self.task, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if nbytes is not None:
                rec[5] = nbytes(args, kwargs, out)
            return out

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, container, key, new, is_mapping=False):
        if is_mapping:
            self._patches.append((container, key, container[key], True))
            container[key] = new
        else:
            self._patches.append((container, key, getattr(container, key),
                                  False))
            setattr(container, key, new)

    def install(self):
        if self._patches:
            return
        import scipy.linalg

        self._patch(scipy.linalg, "expm",
                    self._counter("liealg.expm.nonskew_calls",
                                  scipy.linalg.expm))
        modules = [m for n, m in sys.modules.items()
                   if n == "solgeo" or n.startswith("solgeo.")]
        for owner, attr, name, nbytes in _targets():
            orig = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            new = self._span(name, orig, nbytes)
            if isinstance(owner, type):
                self._patch(owner, attr, new)
                continue
            # rebind every module-level name and dict entry holding orig
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, new)
                    elif isinstance(val, dict):
                        for dkey, dval in list(val.items()):
                            if dval is orig:
                                self._patch(val, dkey, new, True)

    def uninstall(self):
        for container, key, orig, is_mapping in reversed(self._patches):
            if is_mapping:
                container[key] = orig
            else:
                setattr(container, key, orig)
        self._patches = []

    def layer_totals(self):
        """{span name: [calls, self seconds, bytes]} over all spans."""
        covered = [0.0] * len(self.spans)
        for name, t0, t1, parent, task, nb in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        totals = {}
        for i, (name, t0, t1, parent, task, nb) in enumerate(self.spans):
            agg = totals.setdefault(name, [0, 0.0, 0])
            agg[0] += 1
            agg[1] += (t1 - t0) - covered[i]
            agg[2] += nb
        return totals

    def dump(self):
        """JSON-ready form of the recorded spans and counters."""
        return {"spans": self.spans, "counts": self.counts}


def merge_dumps(dumps):
    """Layer totals and counters summed over several Tracer dumps (one per
    traced CLI process)."""
    totals, counts = {}, {}
    for d in dumps:
        t = Tracer()
        t.spans = d["spans"]
        for name, (calls, self_s, nb) in t.layer_totals().items():
            agg = totals.setdefault(name, [0, 0.0, 0])
            agg[0] += calls
            agg[1] += self_s
            agg[2] += nb
        for name, n in d["counts"].items():
            counts[name] = counts.get(name, 0) + n
    return totals, counts


def layer_metrics(totals, counts, ntasks, extra):
    """Per-task layer metrics in LAYER_METRICS order.

    ``totals`` come from ``layer_totals``; ``extra`` supplies the metrics
    measured outside the spans (cli.*, trace.*).  A layer the workload
    never entered reads 0.
    """
    per = 1.0 / max(ntasks, 1)
    values = dict(extra)
    for name, (calls, self_s, nb) in totals.items():
        values[f"{name}.calls"] = calls * per
        values[f"{name}.s"] = self_s * per
        values[f"{name}.bytes"] = nb * per
    expm_calls = totals.get("liealg.expm", [0])[0]
    nonskew = counts.get("liealg.expm.nonskew_calls", 0)
    values["liealg.expm.nonskew_calls"] = nonskew * per
    values["liealg.expm.nonskew_frac"] = nonskew / expm_calls if expm_calls \
        else 0.0
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in LAYER_METRICS}
