"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py          # from the root of a checkout

Not collected by pytest (no test_ prefix) so the library's suite is unchanged;
takes about 20 s, most of it recomputing the pinned S6 signature.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import checks  # noqa: E402
import inputs  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from qell import jsonio  # noqa: E402
from qell import qell_core as qc  # noqa: E402
from qell.charmod import ScalarContext  # noqa: E402
from qell.groupspec import parse_group_spec  # noqa: E402
from qell.gsets import point_set  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=SRC)


def _point_json(spec: str) -> str:
    G = parse_group_spec(spec)
    st = qc.structure(G, point_set(G), ScalarContext.for_groups([G]))
    return jsonio.dumps(jsonio.structure_payload(st, tables=True))


class InputGenerator(unittest.TestCase):
    def _dump(self, seed: int, hashseed: str) -> bytes:
        code = f"import sys; sys.path.insert(0, {HERE!r}); import inputs; " \
               f"sys.stdout.write(inputs.dump({seed}))"
        return subprocess.run([sys.executable, "-c", code], capture_output=True,
                              check=True, env=dict(ENV, PYTHONHASHSEED=hashseed)).stdout

    def test_same_seed_gives_identical_bytes(self):
        self.assertEqual(self._dump(7, "1"), self._dump(7, "2"))

    def test_other_seed_gives_other_inputs(self):
        self.assertNotEqual(inputs.dump(7), inputs.dump(8))

    def test_relabelled_specs_present_the_same_groups(self):
        for label, spec, gens in inputs.point_cold_specs(3):
            G = parse_group_spec(spec)
            self.assertEqual(G.order, parse_group_spec(label).order, label)
            self.assertEqual(len(gens), len(G.generators), label)


class Tracing(unittest.TestCase):
    def test_outputs_identical_and_originals_restored(self):
        import qell.charmod
        import qell.perm
        import qell.rotrep
        before = (qell.perm.Permutation.__mul__, qell.rotrep.decompose,
                  qell.charmod.decompose, qc.structure, jsonio.structure)
        spec = inputs.point_cold_specs(5)[2][1]          # a relabelled C2xS4
        plain = _point_json(spec)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(qell.rotrep.decompose, before[1])
            traced = _point_json(spec)
        finally:
            tracer.uninstall()
        self.assertEqual(plain, traced)
        self.assertGreater(tracer.stats.calls["charmod.decompose"], 0)
        after = (qell.perm.Permutation.__mul__, qell.rotrep.decompose,
                 qell.charmod.decompose, qc.structure, jsonio.structure)
        self.assertTrue(all(a is b for a, b in zip(before, after)))

    def test_cli_launcher_output_is_the_cli_output(self):
        argv = ["point", "--group", inputs.cli_specs(2)["G"]]
        plain = subprocess.run([sys.executable, "-m", "qell.cli"] + argv,
                               capture_output=True, env=ENV, check=True).stdout
        with tempfile.TemporaryDirectory() as tmp:
            dump = os.path.join(tmp, "trace.json")
            traced = subprocess.run(
                [sys.executable, os.path.join(HERE, "launch.py"), dump] + argv,
                capture_output=True, env=ENV, check=True).stdout
            with open(dump, encoding="utf-8") as fh:
                data = json.load(fh)
        self.assertEqual(plain, traced)
        self.assertEqual(data["stats"]["timed"]["calls"]["cli.point"], 1)

    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer()

        def inner():
            time.sleep(0.02)

        def outer():
            time.sleep(0.01)
            wrapped_inner()
        wrapped_inner = tracer._wrap(inner, "t.inner", "span")
        tracer._wrap(outer, "t.outer", "span")()
        s = tracer.stats
        self.assertAlmostEqual(s.self_s["t.outer"], 0.01, delta=0.008)
        self.assertAlmostEqual(s.self_s["t.inner"], 0.02, delta=0.008)
        ref = tracing.self_times(tracer.spans)
        by_name = {name: ref[span_id] for span_id, name, *_ in tracer.spans}
        for name in ("t.outer", "t.inner"):
            self.assertAlmostEqual(by_name[name], s.self_s[name], delta=1e-4)

    def test_self_times_of_overlapping_children(self):
        spans = [(0, "a", 0.0, 10.0, None, None), (1, "b", 1.0, 4.0, 0, None),
                 (2, "c", 3.0, 6.0, 0, None), (3, "d", 2.0, 3.0, 1, None)]
        self.assertEqual(tracing.self_times(spans), {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0})


class FailureCounting(unittest.TestCase):
    def test_perturbed_transfer_is_counted(self):
        maps = worker.MapsWarm(4, tempfile.gettempdir(), groups=("S3",))
        clean = worker.Runner()
        maps.run_pass(clean, index=0)
        self.assertTrue(all(op.ok for op in clean.ops))
        original = qc.transfer

        def perturbed(G, elt, X=None, algorithm="A"):
            out = original(G, elt, X, algorithm)
            return out + out.structure.unit() if algorithm == "B" else out
        maps.qc = types.SimpleNamespace(**vars(qc))
        maps.qc.transfer = perturbed
        runner = worker.Runner()
        maps.run_pass(runner, index=1)
        failed = [op for op in runner.ops if not op.ok]
        self.assertEqual(len(failed), len(maps.pairs))
        self.assertTrue(all(op.name == "transfer_B" for op in failed))


class Comparison(unittest.TestCase):
    METRICS = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.15},
               {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.15}]

    def _runs(self, scale: float) -> dict:
        runs = []
        for i in range(10):
            noise = 1 + 0.01 * ((i * 7) % 5 - 2)
            runs.append({"ops_per_s": {"value": 100 * noise / scale},
                         "op_p50_ms": {"value": 10 * noise * scale}})
        return {"maps-warm": runs}

    def test_identical_runs_are_accepted(self):
        rows = stats.compare(self._runs(1.0), self._runs(1.0), self.METRICS)
        self.assertTrue(all(r["verdict"] == "ok" for r in rows))

    def test_slowdown_beyond_bound_is_flagged(self):
        rows = stats.compare(self._runs(1.0), self._runs(1.3), self.METRICS)
        self.assertEqual([r["verdict"] for r in rows], ["regression", "regression"])

    def test_slowdown_within_bound_passes(self):
        rows = stats.compare(self._runs(1.0), self._runs(1.05), self.METRICS)
        self.assertTrue(all(r["verdict"] == "ok" for r in rows))

    def test_tail_percentile_keeps_ten_samples_above(self):
        self.assertEqual(stats.tail(list(range(24)))[::2], (50, 12))
        self.assertEqual(stats.tail(list(range(44)))[::2], (75, 11))
        self.assertEqual(stats.tail(list(range(48)))[::2], (80, 10))
        self.assertEqual(stats.tail(list(range(66)))[::2], (85, 10))
        self.assertEqual(stats.tail(list(range(3000)))[::2], (99, 30))


class PinnedSignatures(unittest.TestCase):
    def test_builtin_specs_match_the_pins(self):
        for label, _, _ in inputs.LADDER:        # labels are builtin specs
            payload = json.loads(_point_json(label))
            self.assertEqual(checks.structure_signature(payload), checks.PINNED[label],
                             label)

    def test_sympy_agrees_on_a_relabelled_group(self):
        label, spec, gens = inputs.point_cold_specs(9)[3]
        payload = json.loads(_point_json(spec))
        self.assertEqual(checks.class_data(payload),
                         checks.sympy_class_data(len(gens[0]), gens))


if __name__ == "__main__":
    unittest.main()
