"""One benchmark process: set up a workload, time it, check every output.

Run by run.py as ``python3 perfbench/worker.py --workload W --seed N
--seconds S --trace T --work DIR [--setup-only]`` from the checkout root.
Prints ``READY <probe_s> <factor>`` once set-up is done (run.py times set-up
up to that line; ``probe_s`` is the speed probe's own time in it, ``factor``
the speed factor sampled during it, 0 if set-up was too short to sample) and,
unless ``--setup-only``, a JSON result as its last line.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402

clock = time.perf_counter


class Op:
    """One timed operation: name, latency, and whether its checks passed."""

    __slots__ = ("name", "latency", "ok", "detail", "start")

    def __init__(self, name: str):
        self.name = name
        self.latency = 0.0
        self.start = 0.0
        self.ok = True
        self.detail = ""

    def fail(self, detail: str):
        self.ok = False
        self.detail = self.detail or detail


class Runner:
    """Times calls into the library; an exception counts as a failed op.

    ``busy`` sums the latencies: the timed phase, without the benchmark's own
    input building, checks and speed probes between operations.  Probe time
    inside an operation (from the timer) is taken off its latency.
    """

    def __init__(self, tracer=None, probe=None):
        self.tracer = tracer
        self.probe = probe
        self.ops: list[Op] = []
        self.tag = ""
        self.busy = 0.0

    def call(self, name: str, fn, *args, **kwargs):
        op = Op(name)
        self.ops.append(op)
        if self.tracer is not None:
            self.tracer.op = f"{self.tag}{len(self.ops) - 1}"
        t0 = op.start = clock()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is data, not a crash
            result = None
            op.fail(f"{type(exc).__name__}: {exc}")
        t1 = clock()
        op.latency = t1 - t0
        if self.probe is not None:
            op.latency -= self.probe.spent_between(t0, t1)  # timer samples inside fn
            self.probe.maybe()
        self.busy += op.latency
        return op, result


def _check(op: Op, ok: bool, detail: str):
    if not ok:
        op.fail(detail)


# ---------------------------------------------------------------------------
# point-cold

class PointCold:
    """Cold QEll_G(pt) builds plus their JSON payload, one ladder group per op.

    A pass builds the ladder and then the three small groups (D12, C2xS4, S5,
    about 0.1 s each) twice more, twelve builds in all.  With the ladder
    alone the median would fall in the gap between those three and C4xC4
    (0.5 s), halfway between two unrelated builds; this way it falls inside
    the small groups' cluster, and with four passes the tail (p80) inside
    C4xC4's.
    """

    min_passes = 4
    AGAIN = ("D12", "C2xS4", "S5")

    def __init__(self, seed: int, work: str):
        import qell.charmod
        import qell.groupspec
        import qell.gsets
        import qell.jsonio
        import qell.qell_core
        self.qell = qell
        self.specs = inputs.point_cold_specs(seed)
        self.plan = self.specs + [s for s in self.specs if s[0] in self.AGAIN] * 2
        self.oracle: dict = {}

    def build(self, spec: str):
        """What ``qell point --json`` does, on a fresh parse and scalar context."""
        q = self.qell
        G = q.groupspec.parse_group_spec(spec)
        st = q.qell_core.structure(G, q.gsets.point_set(G),
                                   q.charmod.ScalarContext.for_groups([G]))
        payload = q.jsonio.structure_payload(st, tables=True)
        q.jsonio.dumps(payload)
        return payload

    def run_pass(self, runner: Runner, index: int = 0, traced: bool = False):
        results = [runner.call(label, self.build, spec) for label, spec, _ in self.plan]
        for (label, spec, gens), (op, payload) in zip(self.plan, results):
            if payload is None:
                continue
            _check(op, checks.structure_signature(payload) == checks.PINNED[label],
                   "structure signature differs from the builtin spec")
            self.oracle.setdefault(label, {"op": label, "gens": gens,
                                           "classes": checks.class_data(payload)})


# ---------------------------------------------------------------------------
# maps-warm

class MapsWarm:
    """Structural maps in a warm process: every subgroup of a few small groups."""

    min_passes = 1
    GROUPS = ("S4", "D6", "C2xC4")

    def __init__(self, seed: int, work: str, groups=GROUPS):
        from qell import qell_core as qc
        from qell.charmod import ScalarContext
        from qell.groups import GroupHom, all_subgroups
        from qell.groupspec import parse_group_spec
        from qell.gsets import point_set, product_gset, regular_gset
        from qell.qlaurent import QLaurent
        self.qc = qc
        self.QLaurent = QLaurent
        self.seed = seed
        self.pairs = []
        for gname in groups:
            G = parse_group_spec(gname)
            sctx = ScalarContext.for_groups([G])
            subs = all_subgroups(G)
            sG = qc.structure(G, point_set(G), sctx)
            for hi, H in enumerate(subs):
                inside = [K for K in subs if H.is_subgroup(K)]
                K = inside[inputs.choice_index(seed, (gname, hi), len(inside))]
                self.pairs.append({
                    "tag": f"{gname}/{hi}", "G": G, "H": H,
                    "ptG": point_set(G), "ptH": point_set(H), "regH": regular_gset(H),
                    "sG": sG, "sH": qc.structure(H, point_set(H), sctx),
                    "sHr": qc.structure(H, regular_gset(H), sctx),
                    "HG": GroupHom.inclusion(H, G), "KH": GroupHom.inclusion(K, H),
                    "KG": GroupHom.inclusion(K, G)})
        S3, C2 = parse_group_spec("S3"), parse_group_spec("C2")
        P = parse_group_spec("S3xC2")
        sctx = ScalarContext.for_groups([P])
        self.kun = {"P": P, "XY": product_gset(point_set(S3), point_set(C2), P),
                    "sA": qc.structure(S3, point_set(S3), sctx),
                    "sB": qc.structure(C2, point_set(C2), sctx)}
        self.run_pass(Runner(), warm_up=True)

    def element(self, struct, tag, sparse: bool = False, dense: bool = False):
        """A seeded element of ``struct`` (coefficients from inputs.coefficients).

        ``sparse`` elements feed exterior powers, whose cost grows steeply with
        the number of terms; ``dense`` ones (every coefficient 1) touch every
        basis column and so fill every cache in the warm-up pass.
        """
        shape = [[ctx.rank for ctx in cb.ctxs] for cb in struct.classes]
        if dense:
            data = [[[[(0, 1, 1)]] * rank for rank in ranks] for ranks in shape]
        elif sparse:
            data = inputs.coefficients(self.seed, tag, shape, 0.25, 1)
        else:
            data = inputs.coefficients(self.seed, tag, shape)
        comps = [[ctx.from_coeffs([self.QLaurent([(Fraction(n, d), c) for n, d, c in t])
                                   for t in vec])
                  for ctx, vec in zip(cb.ctxs, row)]
                 for cb, row in zip(struct.classes, data)]
        return self.qc.QEllElt(struct, comps)

    def run_pass(self, runner: Runner, index: int = -1, traced: bool = False,
                 warm_up: bool = False):
        qc = self.qc
        order = inputs.shuffled(self.seed, ("maps", index), range(len(self.pairs)))
        args = []
        for i in order:
            pair = self.pairs[i]
            tag = (index, pair["tag"])
            args.append((pair, self.element(pair["sH"], tag + ("a",), dense=warm_up),
                         self.element(pair["sHr"], tag + ("r",), dense=warm_up),
                         self.element(pair["sG"], tag + ("c",), dense=warm_up),
                         self.element(pair["sG"], tag + ("d",), dense=warm_up),
                         self.element(pair["sG"], tag + ("e",), sparse=True,
                                      dense=warm_up)))
        kun_a = self.element(self.kun["sA"], (index, "kun", "a"), dense=warm_up)
        kun_b = self.element(self.kun["sB"], (index, "kun", "b"), dense=warm_up)

        done = []
        call = runner.call

        def after(prev, name, fn):
            """Call fn on an earlier op's result, unless that op failed."""
            return call(name, fn, prev[1]) if prev[1] is not None else prev

        for pair, a, r, c, d, e in args:
            G, H = pair["G"], pair["H"]
            res = {"tA": call("transfer_A", qc.transfer, G, a, pair["ptG"], algorithm="A"),
                   "tB": call("transfer_B", qc.transfer, G, a, algorithm="B")}
            for key, X, src in (("pt", pair["ptH"], a), ("reg", pair["regH"], r)):
                inv = call("cog_inverse", qc.change_of_group_inverse, G, H, X, src)
                res["cog_" + key] = after(inv, "cog", lambda z, X=X: qc.change_of_group(
                    G, H, X, z))
            pb = call("pullback", qc.pullback_hom, pair["HG"], c)
            res["pb_chain"] = after(pb, "pullback_chain",
                                    lambda v: qc.pullback_hom(pair["KH"], v))
            res["pb_direct"] = call("pullback_direct", qc.pullback_hom, pair["KG"], c)
            res["cd"] = call("product", operator.mul, c, d)
            for n in (2, 3):
                res[f"mu{n}c"] = call(f"mu{n}", qc.mu, c, n)
                res[f"mu{n}d"] = call(f"mu{n}", qc.mu, d, n)
                res[f"mu{n}cd"] = after(res["cd"], f"mu{n}", lambda v, n=n: qc.mu(v, n))
            res["psi2"] = call("adams2", qc.adams, c, 2)
            ext3 = call("ext3", qc.exterior_power, e, 3)
            mu2e = call("mu2", qc.mu, e, 2)
            if not warm_up:     # their caches are the ones filled just above
                res["mu_ext"] = after(ext3, "mu2", lambda v: qc.mu(v, 2))
                res["ext_mu"] = after(mu2e, "ext3", lambda v: qc.exterior_power(v, 3))
            done.append(((a, r, c, d), res))
        kun = call("kunneth", qc.kunneth, kun_a, kun_b, self.kun["P"], self.kun["XY"])
        if not warm_up:
            for inputs_, res in done:
                _check_maps(inputs_, res)
            op, v = kun
            if v is not None:
                _check(op, _total(v) == _total(kun_a) * _total(kun_b),
                       "Künneth total at q=1 is not the product of the inputs'")


def _check_maps(inputs_, res):
    """Check one (G, H) round; each identity marks the last op of its chain."""
    a, r, c, d = inputs_
    val = {key: v for key, (_, v) in res.items()}
    if None not in (val["tA"], val["tB"]):
        _check(res["tB"][0], val["tA"] == val["tB"], "transfer A differs from transfer B")
    for key, src in (("pt", a), ("reg", r)):
        if val["cog_" + key] is not None:
            _check(res["cog_" + key][0], val["cog_" + key] == src,
                   f"change of group round trip fails on {key}")
    if None not in (val["pb_chain"], val["pb_direct"]):
        _check(res["pb_direct"][0], val["pb_chain"] == val["pb_direct"],
               "pullback along K<H<G is not the composite")
    if val["cd"] is not None:
        _check(res["cd"][0], _augs(val["cd"]) == [x * y for x, y in zip(_augs(c), _augs(d))],
               "augmentation of a product is not the product")
    for n in (2, 3):
        mc, md, mcd = val[f"mu{n}c"], val[f"mu{n}d"], val[f"mu{n}cd"]
        if None not in (mc, md, mcd):
            _check(res[f"mu{n}cd"][0], mcd == mc * md, f"mu^{n} is not multiplicative")
    if val["psi2"] is not None:
        _check(res["psi2"][0], _augs(val["psi2"]) == _augs(c),
               "Adams psi^2 changed an augmentation")
    if None not in (val["mu_ext"], val["ext_mu"]):
        _check(res["ext_mu"][0], val["mu_ext"] == val["ext_mu"],
               "mu^2 does not commute with lambda^3")


def _augs(elt) -> list[int]:
    return [v.augmentation() for comp in elt.components for v in comp]


def _total(elt) -> int:
    return sum(f.at_one() for comp in elt.components for v in comp for f in v.coeffs)


# ---------------------------------------------------------------------------
# cli-cold

class CliCold:
    """A fixed sequence of ``qell`` commands, each a fresh interpreter.

    Six passes of eleven commands put the tail at p85, inside the cluster
    of the slowest ``op`` command (``kunneth``) rather than on the edge between
    two kinds of command, where it would jump with the number of passes.
    """

    min_passes = 6

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = os.path.join(work, "cli")
        os.makedirs(self.work, exist_ok=True)
        specs = inputs.cli_specs(seed)
        self.G, self.S5, self.S5_gens = specs["G"], specs["S5"], specs["S5_gens"]
        self.H = inputs.point_stabilizer_spec(specs["G_gens"],
                                              inputs.choice_index(seed, "cli-H", 4))
        root = os.getcwd()
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.dumps: list[dict] = []
        self.oracle: dict = {}
        self.cmd_index = 0

    def _run(self, runner: Runner, name: str, argv: list[str], traced: bool):
        if traced:
            dump = os.path.join(self.work, f"trace-{self.cmd_index}.json")
            cmd = [sys.executable, os.path.join(HERE, "launch.py"), dump] + argv
        else:
            cmd = [sys.executable, "-m", "qell.cli"] + argv
        env = dict(self.env, PERFBENCH_OP=f"{runner.tag}{len(runner.ops)}")
        self.cmd_index += 1

        def run():
            return subprocess.run(cmd, cwd=self.work, env=env, capture_output=True,
                                  text=True, timeout=120)
        # the probe may not run beside the child, so it samples just before and after it
        if runner.probe is not None:
            runner.probe.sample()
        op, proc = runner.call(name, run)
        if runner.probe is not None:
            runner.probe.sample()
        if proc is not None:
            _check(op, proc.returncode == 0,
                   f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
            if traced and proc.returncode == 0:
                with open(dump, encoding="utf-8") as fh:
                    self.dumps.append(json.load(fh))
        return op, proc

    def _path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def _read(self, name: str):
        with open(self._path(name), encoding="utf-8") as fh:
            return fh.read()

    def run_pass(self, runner: Runner, index: int = 0, traced: bool = False):
        G, H = self.G, self.H
        for stale in ("s5.json", "uG.json", "uGr.json", "aG.json", "bH.json",
                      "z.json", "back.json"):
            if os.path.exists(self._path(stale)):
                os.remove(self._path(stale))

        def step(name, argv, check):
            op, proc = self._run(runner, name, argv, traced)
            if op.ok:
                try:
                    check(op, proc.stdout)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    op.fail(f"output unreadable: {type(exc).__name__}: {exc}")
            return op.ok

        step("point", ["point", "--group", G], lambda op, out: _check(
            op, out.startswith("group ") and "order 24" in out.splitlines()[0]
            and "components: 5" in out, "unexpected point summary for S4"))

        def s5_check(op, out):
            payload = json.loads(self._read("s5.json"))
            _check(op, checks.structure_signature(payload) == checks.PINNED["S5"],
                   "S5 structure signature differs from the builtin spec")
            self.oracle.setdefault("S5", {"op": "point-json", "gens": self.S5_gens,
                                          "classes": checks.class_data(payload)})
        step("point-json", ["point", "--group", self.S5, "--json", "s5.json"], s5_check)
        step("unit", ["unit", "--group", G, "--space", "pt", "--json", "uG.json"],
             lambda op, out: _check(op, checks.is_unit(json.loads(self._read("uG.json"))),
                                    "unit on pt is not the unit"))

        def unit_reg_check(op, out):
            payload = json.loads(self._read("uGr.json"))
            n_orbits = sum(len(c["orbits"]) for c in payload["classes"])
            _check(op, checks.is_unit(payload) and n_orbits == 1,
                   "unit on the regular set is not one free orbit")
        step("unit", ["unit", "--group", G, "--space", "regular", "--json", "uGr.json"],
             unit_reg_check)
        if not os.path.exists(self._path("uG.json")):
            return
        template = json.loads(self._read("uG.json"))
        a = checks.fill_coefficients(template, inputs.coefficients(
            self.seed, ("cli", index), checks.shape(template)))
        with open(self._path("aG.json"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(a, indent=1) + "\n")
        aug_a = checks.augmentation(checks.identity_class(a))

        step("op", ["op", "mu", "--n", "2", "--input", "aG.json"], lambda op, out: _check(
            op, checks.augmentation(checks.identity_class(json.loads(out))) == aug_a,
            "mu^2 changed the augmentation at the identity"))
        ok = step("op", ["op", "pullback", "--group", G, "--subgroup", H,
                         "--input", "aG.json", "--json", "bH.json"],
                  lambda op, out: _check(op, checks.augmentation(checks.identity_class(
                      json.loads(self._read("bH.json")))) == aug_a,
                      "pullback changed the augmentation at the identity"))
        if not ok:
            return
        b = json.loads(self._read("bH.json"))
        step("op", ["op", "cog", "--group", G, "--subgroup", H, "--input", "bH.json",
                    "--inverse", "--json", "z.json"],
             lambda op, out: _check(op, json.loads(self._read("z.json"))["group"]["order"]
                                    == 24, "cog --inverse did not land on the group"))
        step("op", ["op", "cog", "--group", G, "--subgroup", H, "--input", "z.json",
                    "--json", "back.json"],
             lambda op, out: _check(op, self._read("back.json") == self._read("bH.json"),
                                    "cog round trip is not byte-identical"))
        aug_b = checks.augmentation(checks.identity_class(b))
        step("op", ["op", "transfer", "--group", G, "--subgroup", H, "--input", "bH.json"],
             lambda op, out: _check(
                 op, checks.augmentation(checks.identity_class(json.loads(out)))
                 == 4 * aug_b, "transfer from index 4 did not scale the augmentation"))
        step("op", ["op", "kunneth", "--left", "bH.json", "--right", "aG.json"],
             lambda op, out: _check(
                 op, checks.total_at_one(json.loads(out))
                 == checks.total_at_one(b) * checks.total_at_one(a),
                 "Künneth total at q=1 is not the product of the inputs'"))

        def verify_check(op, out):
            lines = [ln for ln in out.splitlines() if ln.strip()]
            body, summary = lines[:-1], lines[-1]
            n = len(body)
            _check(op, n > 0 and all(ln.startswith("PASS  ") for ln in body)
                   and summary.startswith(f"{n}/{n} checks passed"),
                   "verify printed a line other than PASS")
        step("verify", ["verify", "--suite", "all", "--seed", str(self.seed)],
             verify_check)


WORKLOADS = {"point-cold": PointCold, "maps-warm": MapsWarm, "cli-cold": CliCold}


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    cls = WORKLOADS[args.workload]
    probe = calib.Probe()
    tracer = None
    if args.trace:
        import tracing as trace_mod
        tracer = trace_mod.Tracer()
        tracer.install()
    else:
        probe.start_timer()         # set-up has no child processes to contend with
    wl = cls(args.seed, args.work)
    probe.stop_timer()
    print(f"READY {probe.spent!r} {probe.factor_since(0)!r}", flush=True)
    if args.setup_only:
        return 0

    runner = Runner(tracer, probe)
    passes, pass_ends, extra = 0, [], {}
    if tracer is None:
        # sample during long in-process operations too; never while a CLI
        # child runs, where the probe would measure its contention with the child
        if not isinstance(wl, CliCold):
            runner.probe.start_timer()
        while passes < wl.min_passes or runner.busy < args.seconds:
            runner.tag = f"{passes}-"
            wl.run_pass(runner, index=passes)
            passes += 1
            pass_ends.append(len(runner.ops))
        runner.probe.stop_timer()
    else:
        # one untraced pass as the reference, then one traced pass; one pass
        # each keeps the counts exact for a given seed
        tracer.uninstall()
        reference = Runner()
        wl.run_pass(reference, index=0)
        tracer.install()
        tracer.scope("timed")
        runner.tag = "traced-"
        wl.run_pass(runner, index=1, traced=True)
        tracer.uninstall()
        metrics, top = _trace_metrics(tracer, wl)
        metrics["trace.overhead_ratio"] = runner.busy / reference.busy
        tracer.write_spans(os.path.join(args.work, "spans.tsv"))
        runner.ops.extend(reference.ops)
        runner.busy += reference.busy
        passes = 2
        extra = {"trace": metrics, "top_self_s": top}
    who = resource.RUSAGE_CHILDREN if cls is CliCold else resource.RUSAGE_SELF
    result = {
        # per op: name, latency, ok, detail, and the host speed factor around it
        "ops": [[op.name, op.latency, op.ok, op.detail,
                 runner.probe.factor_around(op.start, op.start + op.latency)]
                for op in runner.ops],
        "passes": passes, "pass_ends": pass_ends, "timed_wall": runner.busy,
        "speed_factor": runner.probe.factor(),
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
        "oracle": getattr(wl, "oracle", {}),
    }
    result.update(extra)
    print(json.dumps(result))
    return 0


def _trace_metrics(tracer, wl) -> tuple[dict, list]:
    """Per-layer metrics of the traced pass, and its ten largest self times."""
    import tracing as trace_mod
    stats = tracer.scopes.get("timed", trace_mod.Stats())
    setup = tracer.scopes.get("setup")
    if isinstance(wl, CliCold):
        merged = trace_mod.merge(d["stats"] for d in wl.dumps)
        stats = merged.get("timed", trace_mod.Stats())
        metrics = trace_mod.layer_metrics(stats, setup)
        metrics["cli.import_s"] = statistics.median(d["import_s"] for d in wl.dumps)
        for d in wl.dumps:                  # span ids restart in every child
            base = tracer._next_id
            for span_id, name, t0, t1, parent, op in d["spans"]:
                tracer.spans.append((base + span_id, name, t0, t1,
                                     None if parent is None else base + parent, op))
                tracer._next_id = max(tracer._next_id, base + span_id + 1)
    else:
        metrics = trace_mod.layer_metrics(stats, setup)
        metrics["cli.import_s"] = 0.0
    for label, _, _ in inputs.LADDER:
        metrics[f"qell_core.structure.{label}.s"] = 0.0
    if isinstance(wl, PointCold):          # seconds per build of each group
        labels = {f"traced-{i}": label for i, (label, _, _) in enumerate(wl.plan)}
        builds = {label: sum(1 for lb, _, _ in wl.plan if lb == label)
                  for label, _, _ in wl.specs}
        for span_id, name, t0, t1, parent, op in tracer.spans:
            if name == "qell_core.structure" and parent is None and op in labels:
                metrics[f"qell_core.structure.{labels[op]}.s"] += (t1 - t0) / builds[labels[op]]
    top = sorted(stats.self_s.items(), key=lambda kv: -kv[1])[:10]
    return metrics, top


if __name__ == "__main__":
    sys.exit(main())
