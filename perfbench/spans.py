"""Spans around calls into exalg, recorded from outside the program.

``Tracer.install()`` rebinds every public function of the traced exalg
modules in every exalg namespace that holds it (the modules import each
other's functions with ``from .linalg import rref``), replaces them in
module-level tables such as ``verify.SUITES``, and wraps
``GradedModule.__init__`` and ``ModuleMap.__post_init__`` on the classes.
``uninstall()`` puts the originals back.

A span is ``[id, parent, job, name, start, end, attrs]``; spans stay in
memory and are written once, at the end of the run.  A span's self time is
its duration minus the durations of its direct children.

Functions of ``exterior`` and the leaf helpers in ``_UNTRACED`` are not
wrapped: they are called per matrix entry or per pivot, a span would cost
more than the call, and their time counts toward their caller.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("linalg", "gmod", "homology", "homalg", "constructions", "modfile", "cli", "verify")
_UNTRACED = {"linalg.zeros", "linalg.identity", "linalg.inv_mod"}


def _module_key(m) -> tuple:
    """Structural fingerprint of a module: equal modules give equal keys."""
    h = hashlib.sha1()
    for block in m.actions:
        for d in sorted(block):
            h.update(str(d).encode())
            h.update(block[d].tobytes())
    return (m.n_plus_1, m.p, tuple(sorted(m.dims.items())), h.hexdigest())


class Tracer:
    def __init__(self, large_rref_entries: int):
        self.large = large_rref_entries
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.job = -1
        self._resolved: dict[tuple, int] = {}
        self._default_depth = 0

    # -- spans ---------------------------------------------------------

    def begin_job(self, job_index: int) -> None:
        self.job = job_index
        self._resolved = {}

    def span(self, name: str, fn, *args, **kwargs):
        rec = [len(self.spans), self._stack[-1] if self._stack else -1, self.job, name,
               time.perf_counter(), 0.0, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            out = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            rec[5] = time.perf_counter()
        attrs = self._attrs(name, args, kwargs, out)
        if attrs:
            rec[6] = attrs
        return out

    def _attrs(self, name, args, kwargs, out):
        if name == "linalg.rref":
            rows, cols = out[1].shape  # the reduced matrix keeps the input's shape
            return {"rows": rows, "cols": cols, "rank": out[0]}
        if name == "linalg.matmul_mod":
            (m, k), n = args[0].shape, args[1].shape[1]
            return {"flops": 2 * m * k * n}
        if name == "homology.syzygy_step":
            return {"out_dim": out[0].total_dim}
        if name == "homology.regular_element_test":
            return {"hit": bool(out)}
        if name == "homology.minimal_resolution":
            depth = args[1] if len(args) > 1 else kwargs.get("depth", self._default_depth)
            key = _module_key(args[0])
            repeat = self._resolved.get(key, -1) >= depth
            self._resolved[key] = max(depth, self._resolved.get(key, -1))
            return {"repeat": repeat}
        if name == "modfile.parse":
            return {"bytes": len(args[0].encode())}
        if name == "modfile.serialize":
            return {"bytes": len(out.encode())}
        return None

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.span(name, fn, *args, **kwargs)

        return traced

    # -- installing the wrappers ---------------------------------------

    def install(self) -> None:
        import exalg

        mods = {name: importlib.import_module(f"exalg.{name}") for name in LAYERS}
        self._default_depth = mods["homology"].DEFAULT_DEPTH
        namespaces = [exalg, *mods.values(), importlib.import_module("exalg.exterior")]
        wrapped: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or name in _UNTRACED):
                    continue
                wrapped[id(obj)] = self._wrap(name, obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(ns, attr, wrapped[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and id(val) in wrapped:
                            self._saved.append((obj, key, val))
                            obj[key] = wrapped[id(val)]
        gmod = mods["gmod"]
        self._set(gmod.GradedModule, "__init__",
                  self._wrap("gmod.GradedModule", gmod.GradedModule.__init__))
        self._set(gmod.ModuleMap, "__post_init__",
                  self._wrap("gmod.ModuleMap", gmod.ModuleMap.__post_init__))

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._saved.clear()

    # -- results -------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [s[5] - s[4] - child[s[0]] for s in self.spans]

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        selfs = self.self_times()
        with path.open("w", encoding="utf-8") as fh:
            json.dump(meta, fh, sort_keys=True)
            fh.write("\n")
            for rec, s in zip(self.spans, selfs):
                sid, parent, job, name, t0, t1, attrs = rec
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job, "name": name,
                                     "start": t0, "end": t1, "self": s, "attrs": attrs},
                                    sort_keys=True))
                fh.write("\n")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics derived from the spans of the traced pass."""
    selfs = tracer.self_times()
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    rref = {"entries": 0, "rows": 0, "rank": 0, "large_calls": 0, "large_self": 0.0,
            "large_total": 0.0}
    flops = out_dim = repeats = hits = 0
    for rec, s in zip(tracer.spans, selfs):
        name, attrs = rec[3], rec[6]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s
        total_s[name] = total_s.get(name, 0.0) + rec[5] - rec[4]
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += s
        if attrs is None:
            continue
        if name == "linalg.rref":
            entries = attrs["rows"] * attrs["cols"]
            rref["entries"] += entries
            rref["rows"] += attrs["rows"]
            rref["rank"] += attrs["rank"]
            if entries > tracer.large:
                rref["large_calls"] += 1
                rref["large_self"] += s
                rref["large_total"] += rec[5] - rec[4]
        elif name == "linalg.matmul_mod":
            flops += attrs["flops"]
        elif name == "homology.syzygy_step":
            out_dim += attrs["out_dim"]
        elif name == "homology.minimal_resolution":
            repeats += attrs["repeat"]
        elif name == "homology.regular_element_test":
            hits += attrs["hit"]

    def c(name):
        return float(calls.get(name, 0)), "count"

    def t(name):
        return self_s.get(name, 0.0), "s"

    def total(name):
        return total_s.get(name, 0.0), "s"

    def ratio(num, den):
        return (num / den if den else 0.0), "ratio"

    out = {
        "linalg.rref.calls": c("linalg.rref"),
        "linalg.rref.self_s": t("linalg.rref"),
        "linalg.rref.entries": (float(rref["entries"]), "count"),
        "linalg.rref_large.calls": (float(rref["large_calls"]), "count"),
        "linalg.rref_large.self_s": (rref["large_self"], "s"),
        "linalg.rref_large.total_s": (rref["large_total"], "s"),
        "linalg.rref.rank_ratio": ratio(rref["rank"], rref["rows"]),
        "linalg.matmul_mod.calls": c("linalg.matmul_mod"),
        "linalg.matmul_mod.self_s": t("linalg.matmul_mod"),
        "linalg.matmul_mod.flops_computed": (float(flops), "count"),
        "linalg.kernel_basis.calls": c("linalg.kernel_basis"),
        "linalg.kernel_basis.self_s": t("linalg.kernel_basis"),
        "gmod.socle_radical.calls": c("gmod.socle_radical"),
        "gmod.socle_radical.self_s": t("gmod.socle_radical"),
        "gmod.socle_radical.total_s": total("gmod.socle_radical"),
        "gmod.GradedModule.calls": c("gmod.GradedModule"),
        "gmod.GradedModule.self_s": t("gmod.GradedModule"),
        "gmod.ModuleMap.self_s": t("gmod.ModuleMap"),
        "gmod.hom_space_maps.calls": c("gmod.hom_space_maps"),
        "gmod.hom_space_maps.self_s": t("gmod.hom_space_maps"),
        "gmod.hom_space_maps.total_s": total("gmod.hom_space_maps"),
        "gmod.iso_probable.self_s": t("gmod.iso_probable"),
        "homology.syzygy_step.calls": c("homology.syzygy_step"),
        "homology.syzygy_step.self_s": t("homology.syzygy_step"),
        "homology.syzygy_step.out_dim": (float(out_dim), "count"),
        "homology.syzygy_step.total_s": total("homology.syzygy_step"),
        "homology.minimal_resolution.calls": c("homology.minimal_resolution"),
        "homology.minimal_resolution.total_s": total("homology.minimal_resolution"),
        "homology.minimal_resolution.repeat_ratio":
            ratio(repeats, calls.get("homology.minimal_resolution", 0)),
        "homology.regular_element_test.calls": c("homology.regular_element_test"),
        "homology.regular_element_test.hit_ratio":
            ratio(hits, calls.get("homology.regular_element_test", 0)),
        "homalg.hom_basis.self_s": t("homalg.hom_basis"),
        "homalg.factor_through_projectives.self_s": t("homalg.factor_through_projectives"),
        "homalg.ext_dim.self_s": t("homalg.ext_dim"),
        "homalg.end_algebra.self_s": t("homalg.end_algebra"),
        "modfile.parse.calls": c("modfile.parse"),
        "modfile.parse.self_s": t("modfile.parse"),
        "modfile.parse.bytes": (float(sum(r[6]["bytes"] for r in tracer.spans
                                          if r[3] == "modfile.parse")), "bytes"),
        "modfile.serialize.calls": c("modfile.serialize"),
        "modfile.serialize.self_s": t("modfile.serialize"),
        "modfile.serialize.bytes": (float(sum(r[6]["bytes"] for r in tracer.spans
                                              if r[3] == "modfile.serialize")), "bytes"),
        # cli and verify code is thin glue over the other layers, so their
        # whole layer's self time is the one number worth tracking
        "cli.command.self_s": (layer_self["cli"], "s"),
        "verify.run_suite.self_s": (layer_self["verify"], "s"),
    }
    for layer in ("linalg", "gmod", "homology", "homalg", "constructions", "modfile"):
        out[f"layer.{layer}.self_s"] = (layer_self[layer], "s")
    return out


if __name__ == "__main__":  # pragma: no cover - summary of a written trace
    spans = [json.loads(line) for line in Path(sys.argv[1]).read_text().splitlines()[1:]]
    totals: dict[str, list[float]] = {}
    for s in spans:
        row = totals.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s["self"]
        row[2] += s["end"] - s["start"]
    print(f"{'span':<45}{'calls':>8}{'self_s':>10}{'total_s':>10}")
    for name, (n, self_t, tot) in sorted(totals.items(), key=lambda kv: -kv[1][1])[:40]:
        print(f"{name:<45}{n:>8}{self_t:>10.3f}{tot:>10.3f}")
