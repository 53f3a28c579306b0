#!/usr/bin/env python3
"""Self-test of the benchmark's bounds: synthetic results fed through
gate.regressions must flag a 10x worsening of every end-to-end metric on
every workload, pass an unchanged result and never flag an improvement.
Silent on success."""

import io
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gate  # noqa: E402

SPEC = gate.load_spec()


def scaled(metric, value, factor):
    """[value] made [factor] times worse (factor < 1: better)."""
    return value * factor if metric["better"] == "lower" else value / factor


class Bounds(unittest.TestCase):
    def test_declarations(self):
        names = [m["name"] for m in SPEC["end_to_end"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", names)
        for m in SPEC["end_to_end"]:
            self.assertIn(m["better"], ("higher", "lower"), m["name"])
            self.assertTrue(m["unit"], m["name"])
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))

    def check_each(self, factor, flagged):
        for workload in SPEC["workloads"]:
            for m in SPEC["end_to_end"]:
                base = {x["name"]: 10.0 for x in SPEC["end_to_end"]}
                cur = dict(base)
                cur[m["name"]] = scaled(m, base[m["name"]], factor)
                got = [r[0] for r in gate.regressions(SPEC, base, cur)]
                want = [m["name"]] if flagged else []
                self.assertEqual(got, want, "%s on %s" % (m["name"], workload["name"]))

    def test_tenfold_worsening_is_flagged(self):
        self.check_each(10.0, True)

    def test_unchanged_passes(self):
        self.check_each(1.0, False)

    def test_improvement_is_not_flagged(self):
        self.check_each(0.1, False)

    def test_bound_edge(self):
        for m in SPEC["end_to_end"]:
            base = {m["name"]: 10.0}
            within = {m["name"]: 10.0 * (1 + m["bound"] / 2) if m["better"] == "lower"
                      else 10.0 * (1 - m["bound"] / 2)}
            beyond = {m["name"]: 10.0 * (1 + 2 * m["bound"]) if m["better"] == "lower"
                      else 10.0 * (1 - 2 * m["bound"])}
            self.assertEqual(gate.regressions(SPEC, base, within), [], m["name"])
            self.assertEqual(len(gate.regressions(SPEC, base, beyond)), 1, m["name"])


if __name__ == "__main__":
    out = io.StringIO()
    result = unittest.main(argv=[sys.argv[0]], exit=False,
                           testRunner=unittest.TextTestRunner(stream=out)).result
    if not result.wasSuccessful():
        sys.stderr.write(out.getvalue())
        sys.exit(1)
