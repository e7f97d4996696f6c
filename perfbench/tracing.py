"""Tracing from outside the program: wrappers around qell's public functions.

``Tracer.install`` replaces each target with a wrapper in every loaded qell
module namespace (and class) that binds it, and ``uninstall`` puts the
originals back.  Wrappers keep, per scope ("setup" or "timed"), call counts
and self time (duration minus the time covered by wrapped callees); "span"
targets also keep one record per call: (id, name, start, end, parent id,
operation id).  Everything stays in memory until ``write_spans``.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict

# kinds: "count" (calls only), "leaf" (calls and self time), "span" (also a
# span record per call)
TARGETS = [
    ("perm.mul", "qell.perm", "Permutation", "__mul__", "count"),
    ("perm.inverse", "qell.perm", "Permutation", "inverse", "count"),
    ("groups.FiniteGroup", "qell.groups", "FiniteGroup", "__init__", "span"),
    ("groups.conjugacy", "qell.groups", "FiniteGroup", "conjugacy", "span"),
    ("groups.centralizer", "qell.groups", "FiniteGroup", "centralizer", "span"),
    ("groups.transporter", "qell.groups", None, "transporter", "span"),
    ("groups.GroupHom", "qell.groups", "GroupHom", "__init__", "span"),
    ("groups.all_subgroups", "qell.groups", None, "all_subgroups", "span"),
    ("gsets.inertia_skeleton", "qell.gsets", None, "inertia_skeleton", "span"),
    ("gsets.orbits_with_stabilizers", "qell.gsets", None, "orbits_with_stabilizers",
     "span"),
    ("gsets.induced_gset", "qell.gsets", None, "induced_gset", "span"),
    ("charmod.table", "qell.charmod", "ScalarContext", "table", "leaf"),
    ("charmod.character_table", "qell.charmod", None, "character_table", "span"),
    ("charmod.decompose", "qell.charmod", None, "decompose", "span"),
    ("charmod.restrict_cf", "qell.charmod", None, "restrict_cf", "leaf"),
    ("charmod.induce_cf", "qell.charmod", None, "induce_cf", "leaf"),
    ("charmod.inner_product", "qell.charmod", None, "inner_product", "leaf"),
    ("charmod.central_angle", "qell.charmod", None, "central_angle", "leaf"),
    ("qlaurent.QLaurent", "qell.qlaurent", "QLaurent", "__init__", "leaf"),
    ("qlaurent.mul", "qell.qlaurent", "QLaurent", "__mul__", "leaf"),
    ("qlaurent.add", "qell.qlaurent", "QLaurent", "__add__", "leaf"),
    ("qlaurent.sub", "qell.qlaurent", "QLaurent", "__sub__", "leaf"),
    ("qlaurent.neg", "qell.qlaurent", "QLaurent", "__neg__", "leaf"),
    ("qlaurent.pow", "qell.qlaurent", "QLaurent", "__pow__", "leaf"),
    ("qlaurent.rescale", "qell.qlaurent", "QLaurent", "rescale", "leaf"),
    ("qlaurent.shift", "qell.qlaurent", "QLaurent", "shift", "leaf"),
    ("qlaurent.divide_int_exact", "qell.qlaurent", "QLaurent", "divide_int_exact",
     "leaf"),
    ("qlaurent.serialize", "qell.qlaurent", None, "serialize", "leaf"),
    ("qlaurent.deserialize", "qell.qlaurent", None, "deserialize", "leaf"),
    ("rotrep.ctx_for", "qell.rotrep", None, "ctx_for", "span"),
    ("rotrep.LambdaCtx", "qell.rotrep", "LambdaCtx", "__init__", "span"),
    ("rotrep.LambdaElt.mul", "qell.rotrep", "LambdaElt", "__mul__", "leaf"),
    ("rotrep.restrict_along", "qell.rotrep", None, "restrict_along", "span"),
    ("rotrep.induce_to", "qell.rotrep", None, "induce_to", "span"),
    ("rotrep.conjugate", "qell.rotrep", None, "conjugate", "span"),
    ("rotrep.mu_transport", "qell.rotrep", None, "mu_transport", "span"),
    ("rotrep.adams", "qell.rotrep", None, "adams", "span"),
    ("rotrep.exterior_power", "qell.rotrep", None, "exterior_power", "span"),
    ("qell_core.structure", "qell.qell_core", None, "structure", "span"),
    ("qell_core.QEllStructure", "qell.qell_core", "QEllStructure", "__init__", "span"),
    ("qell_core.transfer", "qell.qell_core", None, "transfer", "span"),
    ("qell_core.change_of_group", "qell.qell_core", None, "change_of_group", "span"),
    ("qell_core.change_of_group_inverse", "qell.qell_core", None,
     "change_of_group_inverse", "span"),
    ("qell_core.pullback_hom", "qell.qell_core", None, "pullback_hom", "span"),
    ("qell_core.mu", "qell.qell_core", None, "mu", "span"),
    ("qell_core.kunneth", "qell.qell_core", None, "kunneth", "span"),
    ("qell_core.adams", "qell.qell_core", None, "adams", "span"),
    ("qell_core.exterior_power", "qell.qell_core", None, "exterior_power", "span"),
    ("qell_core.value_at_element", "qell.qell_core", None, "value_at_element", "span"),
    ("jsonio.structure_payload", "qell.jsonio", None, "structure_payload", "span"),
    ("jsonio.element_payload", "qell.jsonio", None, "element_payload", "span"),
    ("jsonio.element_from_payload", "qell.jsonio", None, "element_from_payload",
     "span"),
    ("jsonio.dumps", "qell.jsonio", None, "dumps", "span"),
    ("cli.point", "qell.cli", None, "cmd_point", "span"),
    ("cli.unit", "qell.cli", None, "cmd_unit", "span"),
    ("cli.op", "qell.cli", None, "cmd_op", "span"),
    ("cli.verify", "qell.cli", None, "cmd_verify", "span"),
] + [("modp." + fn, "qell.modp", None, fn, "leaf") for fn in (
    "is_prime", "prime_in_progression", "factorize", "primitive_root", "sqrt_mod",
    "mat_mul", "rref", "nullspace", "charpoly", "poly_trim", "poly_rem",
    "poly_mulmod", "poly_gcd", "poly_powmod", "poly_div_exact", "distinct_roots")]

ROTREP_MAPS = ("rotrep.restrict_along", "rotrep.induce_to", "rotrep.conjugate",
               "rotrep.mu_transport", "rotrep.adams", "rotrep.exterior_power")
# calls of a name made directly from one of the given wrapped callers
WATCH = {
    "charmod.character_table": ("charmod.table",),
    "rotrep.LambdaCtx": ("rotrep.ctx_for",),
    "qell_core.QEllStructure": ("qell_core.structure",),
    "charmod.decompose": ROTREP_MAPS,
}
LAYERS = ("groups", "gsets", "modp", "charmod", "qlaurent", "rotrep", "qell_core",
          "jsonio")


def _transfer_name(args, kwargs) -> str:
    algorithm = kwargs.get("algorithm", args[3] if len(args) > 3 else "A")
    return "qell_core.transfer_" + algorithm


class Stats:
    """Per-name counters of one scope."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.durations = defaultdict(list)      # span kinds only
        self.under = defaultdict(int)           # WATCH hits
        self.bytes_out = 0


class Tracer:
    def __init__(self):
        self.scopes: dict[str, Stats] = {}
        self.stats = self.scope("setup")
        self.op = None
        self.spans: list[tuple] = []
        self._stack: list[list] = []    # [name, child seconds, enclosing span id]
        self._next_id = 0
        self._patches: list[tuple] = []

    def scope(self, name: str) -> Stats:
        if name not in self.scopes:
            self.scopes[name] = Stats()
        self.stats = self.scopes[name]
        return self.stats

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name: str, kind: str):
        tracer = self
        if kind == "count":
            def counted(*args, **kwargs):
                tracer.stats.calls[name] += 1
                return fn(*args, **kwargs)
            return counted
        namer = _transfer_name if name == "qell_core.transfer" else None
        watch = WATCH.get(name)
        record = kind == "span"
        clock = time.perf_counter
        stack = self._stack

        def timed(*args, **kwargs):
            nm = namer(args, kwargs) if namer else name
            stats = tracer.stats
            parent = stack[-1] if stack else None
            if watch and parent is not None and parent[0] in watch:
                stats.under[nm] += 1
            # a leaf has no span record, so spans under it hang off its parent's
            enclosing = parent[2] if parent else None
            if record:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [nm, 0.0, span_id if record else enclosing]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stats.calls[nm] += 1
                stats.self_s[nm] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if record:
                    stats.durations[nm].append(dur)
                    tracer.spans.append((span_id, nm, t0, t1, enclosing, tracer.op))
            if nm == "jsonio.dumps":
                stats.bytes_out += len(result)
            return result
        return timed

    def install(self):
        """Wrap every target wherever a loaded qell module or class binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, modname, clsname, attr, kind in TARGETS:
            owner = importlib.import_module(modname)
            if clsname:
                owner = getattr(owner, clsname)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, kind)
            holders = [owner] if clsname else [
                mod for key, mod in list(sys.modules.items())
                if (key == "qell" or key.startswith("qell.")) and mod is not None]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches = []

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\top\n")
            for span_id, name, t0, t1, parent, op in self.spans:
                fh.write(f"{span_id}\t{name}\t{t0:.9f}\t{t1:.9f}\t"
                         f"{'' if parent is None else parent}\t"
                         f"{'' if op is None else op}\n")

    def dump(self) -> dict:
        """Counters of every scope in a JSON-friendly form (for child processes)."""
        return {scope: {"calls": dict(s.calls), "self_s": dict(s.self_s),
                        "durations": {k: list(v) for k, v in s.durations.items()},
                        "under": dict(s.under), "bytes_out": s.bytes_out}
                for scope, s in self.scopes.items()}


def merge(dumps) -> dict[str, Stats]:
    """Combine ``Tracer.dump`` results (e.g. one per child process)."""
    out: dict[str, Stats] = {}
    for dumped in dumps:
        for scope, d in dumped.items():
            s = out.setdefault(scope, Stats())
            for k, v in d["calls"].items():
                s.calls[k] += v
            for k, v in d["self_s"].items():
                s.self_s[k] += v
            for k, v in d["durations"].items():
                s.durations[k].extend(v)
            for k, v in d["under"].items():
                s.under[k] += v
            s.bytes_out += d["bytes_out"]
    return out


def self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children's
    intervals (clipped to the parent).  The wrappers compute the same figure
    on the fly; this is the reference used by the self-test."""
    children = defaultdict(list)
    for span_id, _, t0, t1, parent, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for span_id, _, t0, t1, _, _ in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children[span_id]):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[span_id] = (t1 - t0) - covered
    return out


def _p50_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: Stats, setup: Stats | None) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one scope's counters.

    Hit ratios and ``decompose_per_map`` are 0 when their denominator is 0.
    """
    c, s = stats.calls, stats.self_s
    m = {
        "perm.mul.calls": c["perm.mul"],
        "perm.inverse.calls": c["perm.inverse"],
        "groups.FiniteGroup.calls": c["groups.FiniteGroup"],
        "groups.FiniteGroup.self_s": s["groups.FiniteGroup"],
        "groups.conjugacy.self_s": s["groups.conjugacy"],
        "groups.centralizer.calls": c["groups.centralizer"],
        "groups.centralizer.self_s": s["groups.centralizer"],
        "groups.transporter.calls": c["groups.transporter"],
        "groups.transporter.self_s": s["groups.transporter"],
        "groups.GroupHom.calls": c["groups.GroupHom"],
        "groups.GroupHom.self_s": s["groups.GroupHom"],
        "groups.all_subgroups.self_s": s["groups.all_subgroups"],
        "gsets.inertia_skeleton.calls": c["gsets.inertia_skeleton"],
        "gsets.inertia_skeleton.self_s": s["gsets.inertia_skeleton"],
        "gsets.orbits_with_stabilizers.self_s": s["gsets.orbits_with_stabilizers"],
        "gsets.induced_gset.calls": c["gsets.induced_gset"],
        "gsets.induced_gset.self_s": s["gsets.induced_gset"],
        "modp.rref.calls": c["modp.rref"],
        "modp.charpoly.calls": c["modp.charpoly"],
        "modp.distinct_roots.calls": c["modp.distinct_roots"],
        "charmod.character_table.calls": c["charmod.character_table"],
        "charmod.character_table.self_s": s["charmod.character_table"],
        "charmod.table.hit_ratio": _ratio(
            c["charmod.table"] - stats.under["charmod.character_table"],
            c["charmod.table"]),
        "charmod.decompose.calls": c["charmod.decompose"],
        "charmod.decompose.self_s": s["charmod.decompose"],
        "charmod.restrict_cf.calls": c["charmod.restrict_cf"],
        "charmod.restrict_cf.self_s": s["charmod.restrict_cf"],
        "charmod.induce_cf.calls": c["charmod.induce_cf"],
        "charmod.induce_cf.self_s": s["charmod.induce_cf"],
        "charmod.inner_product.calls": c["charmod.inner_product"],
        "charmod.central_angle.calls": c["charmod.central_angle"],
        "charmod.central_angle.self_s": s["charmod.central_angle"],
        "qlaurent.QLaurent.calls": c["qlaurent.QLaurent"],
        "qlaurent.mul.calls": c["qlaurent.mul"],
        "rotrep.ctx_for.calls": c["rotrep.ctx_for"],
        "rotrep.ctx_for.hit_ratio": _ratio(
            c["rotrep.ctx_for"] - stats.under["rotrep.LambdaCtx"], c["rotrep.ctx_for"]),
        "rotrep.LambdaCtx.calls": c["rotrep.LambdaCtx"],
        "rotrep.LambdaCtx.self_s": s["rotrep.LambdaCtx"],
        "rotrep.LambdaElt.mul.calls": c["rotrep.LambdaElt.mul"],
        "rotrep.LambdaElt.mul.self_s": s["rotrep.LambdaElt.mul"],
        "rotrep.decompose_per_map": _ratio(stats.under["charmod.decompose"],
                                           sum(c[n] for n in ROTREP_MAPS)),
        "qell_core.structure.calls": c["qell_core.structure"],
        "qell_core.structure.hit_ratio": _ratio(
            c["qell_core.structure"] - stats.under["qell_core.QEllStructure"],
            c["qell_core.structure"]),
        "qell_core.QEllStructure.self_s": s["qell_core.QEllStructure"],
        "qell_core.value_at_element.calls": c["qell_core.value_at_element"],
        "qell_core.value_at_element.self_s": s["qell_core.value_at_element"],
        "jsonio.bytes_out": stats.bytes_out,
        "cli.point.p50_ms": _p50_ms(stats.durations["cli.point"]),
        "cli.unit.p50_ms": _p50_ms(stats.durations["cli.unit"]),
        "cli.op.p50_ms": _p50_ms(stats.durations["cli.op"]),
        "cli.verify.p50_ms": _p50_ms(stats.durations["cli.verify"]),
    }
    m["modp.self_s"] = sum(v for k, v in s.items() if k.startswith("modp."))
    m["qlaurent.self_s"] = sum(v for k, v in s.items() if k.startswith("qlaurent."))
    for fn in ROTREP_MAPS:
        m[fn + ".self_s"] = s[fn]
    for fn in ("transfer_A", "transfer_B", "change_of_group", "change_of_group_inverse",
               "pullback_hom", "mu", "kunneth", "exterior_power"):
        m[f"qell_core.{fn}.p50_ms"] = _p50_ms(stats.durations["qell_core." + fn])
    for fn in ("structure_payload", "element_payload", "element_from_payload", "dumps"):
        m[f"jsonio.{fn}.self_s"] = s["jsonio." + fn]
    for layer in LAYERS:
        m[f"setup.{layer}.self_s"] = sum(
            v for k, v in (setup.self_s.items() if setup else ())
            if k.startswith(layer + "."))
    return m
