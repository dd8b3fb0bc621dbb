"""Spans around the program's public functions, recorded from the benchmark.

`install` replaces each traced function by a wrapper in every nervecheck
module namespace that binds it (the modules import each other's functions by
name), and wraps the forms that the form builders return so that their
evaluations are spans too.  Spans stay in memory as parallel arrays of name,
parent, start and end; `pass_spans` and `layer_metrics` turn the spans of
one pass into the per-layer numbers, and `write` saves them all when the run
ends.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from array import array

import numpy as np

# Functions whose calls are spans: (module, function name, span name).
CALLS = [
    ("matrixgroup", "exp_matrix", "matrixgroup.exp_matrix"),
    ("eulercocycle", "eval_E13", "eulercocycle.eval_E13"),
    ("eulercocycle", "eval_E22", "eulercocycle.eval_E22"),
    ("eulercocycle", "eval_mu", "eulercocycle.eval_mu"),
    ("eulercocycle", "eval_alpha", "eulercocycle.eval_alpha"),
    ("cartanmodel", "equivariant_total_check",
     "cartanmodel.equivariant_total_check"),
    ("formdsl", "parse", "formdsl.parse"),
    ("cli", "main", "cli.main"),
] + [("nerve", f, f"nerve.{f}") for f in (
    "face_ng", "face_ng_diff", "degeneracy_ng", "face_pg", "gamma",
    "horizontal_face", "horizontal_face_diff", "vertical_face",
    "vertical_face_diff")] + [("harness", f, "harness.sample") for f in (
        "sample_point", "sample_tangent", "sample_tangents", "sample_algebra",
        "sample_bi_point", "sample_bi_tangent")]

# Builders whose returned forms are wrapped: each evaluation is a span.
BUILDERS = [
    ("formcalc", "exterior_d", "formcalc.exterior_d"),
    ("formcalc", "entry", "formcalc.forms"),
    ("formcalc", "wedge", "formcalc.forms"),
    ("formcalc", "contract", "formcalc.forms"),
    ("formcalc", "pullback", "formcalc.forms"),
    ("formcalc", "matrix_wedge_square", "formcalc.forms"),
    ("nerve", "d_triple_complex", "nerve.bi_forms"),
    ("nerve", "bi_form_from_flat", "nerve.bi_forms"),
]

MODULES = ("matrixgroup", "formcalc", "nerve", "cartanmodel", "eulercocycle",
           "formdsl", "harness", "cli")


class SpanLog:
    """Spans as parallel arrays; a span's parent is the span open at its
    start, or -1."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def traced(self, name: str, fn):
        nid = self.name_id(name)
        names, parents, starts, ends = (self.name, self.parent, self.start,
                                        self.end)
        stack = self._open
        clock = time.perf_counter

        def call(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return call

    def write(self, path: str) -> None:
        """Save every span: the name table as JSON in the same archive."""
        np.savez_compressed(
            path, names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def _rebind(old, new) -> None:
    """Point every nervecheck namespace binding `old` at `new`."""
    for mod in [sys.modules["nervecheck"]] + [
            sys.modules[f"nervecheck.{m}"] for m in MODULES]:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(log: SpanLog) -> None:
    """Trace the functions in CALLS and BUILDERS, and run_check per id."""
    mods = {m: sys.modules[f"nervecheck.{m}"] for m in MODULES}
    for mod, fn, span in CALLS:
        old = getattr(mods[mod], fn)
        _rebind(old, log.traced(span, old))

    for mod, fn, span in BUILDERS:
        old = getattr(mods[mod], fn)

        def build(*args, _old=old, _span=span, **kwargs):
            form = _old(*args, **kwargs)
            return dataclasses.replace(form, fn=log.traced(_span, form.fn))

        _rebind(old, build)

    # interpret lowers an expression with X only once X is given: the
    # returned EquivariantForm's eval is interpret's work too.
    interp = mods["formdsl"].interpret
    traced_interp = log.traced("formdsl.interpret", interp)
    equivariant = mods["cartanmodel"].EquivariantForm

    def interpret(*args, **kwargs):
        form = traced_interp(*args, **kwargs)
        if isinstance(form, equivariant):
            form = dataclasses.replace(
                form, eval=log.traced("formdsl.interpret", form.eval))
        return form

    _rebind(interp, interpret)

    harness = mods["harness"]
    old_run = harness.run_check
    per_id = {cid: log.traced(f"harness.run_check.{cid}", old_run)
              for cid in harness.CHECK_IDS}
    _rebind(old_run, lambda cfg: per_id[cfg.check_id](cfg))


# ---------------------------------------------------------------------------
# per-layer numbers of one pass


def pass_spans(log: SpanLog, lo: int, hi: int) -> dict[str, tuple]:
    """Per span name: (count, total seconds, self seconds) over spans lo..hi.

    Self time is a span's duration minus the durations of its children.
    """
    name = np.frombuffer(log.name, dtype=np.int32)[lo:hi]
    parent = np.frombuffer(log.parent, dtype=np.int32)[lo:hi]
    dur = np.frombuffer(log.end)[lo:hi] - np.frombuffer(log.start)[lo:hi]
    inner = parent >= lo
    child = np.bincount(parent[inner] - lo, weights=dur[inner],
                        minlength=hi - lo)
    own = dur - child
    out = {}
    for nid, label in enumerate(log.names):
        sel = name == nid
        if sel.any():
            out[label] = (int(sel.sum()), float(dur[sel].sum()),
                          float(own[sel].sum()))
    return out


def layer_metrics(spans: dict[str, tuple], trials: int,
                  check_ids) -> dict[str, float]:
    """The per-layer metrics of one pass, from pass_spans."""

    def count(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[0] for n in names)

    def self_ms(prefix):
        return 1e3 * sum(v[2] for k, v in spans.items()
                         if k == prefix or k.startswith(prefix + "."))

    forms = count("formcalc.exterior_d", "formcalc.forms")
    out = {
        "matrixgroup.exp_matrix.calls": count("matrixgroup.exp_matrix"),
        "matrixgroup.exp_matrix.self_ms": self_ms("matrixgroup.exp_matrix"),
        "matrixgroup.exp_matrix.per_trial":
            count("matrixgroup.exp_matrix") / trials,
        "formcalc.exterior_d.evals": count("formcalc.exterior_d"),
        "formcalc.exterior_d.self_ms": self_ms("formcalc.exterior_d"),
        "formcalc.forms.evals": count("formcalc.forms"),
        "formcalc.forms.self_ms": self_ms("formcalc.forms"),
        "formcalc.evals.per_trial": forms / trials,
        "nerve.face_ng.calls": count("nerve.face_ng"),
        "nerve.self_ms": self_ms("nerve"),
        "cartanmodel.equivariant_total_check.self_ms":
            self_ms("cartanmodel.equivariant_total_check"),
    }
    for f in ("eval_E13", "eval_E22", "eval_mu", "eval_alpha"):
        out[f"eulercocycle.{f}.calls"] = count(f"eulercocycle.{f}")
    out["eulercocycle.self_ms"] = self_ms("eulercocycle")
    out["formdsl.parse.self_ms"] = self_ms("formdsl.parse")
    out["formdsl.interpret.self_ms"] = self_ms("formdsl.interpret")
    out["harness.sample.self_ms"] = self_ms("harness.sample")
    for cid in check_ids:
        name = f"harness.run_check.{cid}"
        out[f"{name}.ms"] = 1e3 * spans.get(name, (0, 0.0, 0.0))[1]
    out["cli.main.self_ms"] = self_ms("cli.main")
    return out
