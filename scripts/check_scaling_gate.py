#!/usr/bin/env python3
"""Scaling-regression gate for CI (stdlib only, no third-party deps).

Compares a fresh BM_ScalingMoves run against the committed scaling wall
(BENCH_scaling.json) and fails on a super-linear move-loop regression.

Shared CI runners make *absolute* timings meaningless (the release-bench
job says as much), so the gate judges a hardware-independent shape instead:
the ratio of per-move cost on a mid-size generated design to per-move cost
on the EWF-scale design, measured within the same run on the same machine.
A flat move loop keeps that ratio constant as code evolves; an O(n) scan
creeping back into a proposer blows it up by orders of magnitude (the bug
this PR removed was 25-50x). The gate fails when the fresh ratio exceeds
2x the committed wall's ratio for the same pair of rows.

Usage: check_scaling_gate.py <fresh.json> <committed BENCH_scaling.json>
       check_scaling_gate.py --self-test
Both files are the JSON array bench_runtime emits via SALSA_SCALING_JSON
(rows of {benchmark, family, ops, ns_per_move, ...}).

--self-test runs the unit tests for the per-move ratio math and the
missing-row / NaN / non-positive error paths (wired into ctest as
scaling_gate_selftest and into the release-bench CI job), exiting non-zero
on any failure.
"""

import json
import math
import sys

RATIO_LIMIT = 2.0


class GateError(SystemExit):
    """Malformed record: the gate refuses to judge, loudly (exit 1)."""

    def __init__(self, message):
        super().__init__(f"scaling gate: {message}")


def per_move(rows, family, min_ops):
    """ns/move of the first row matching family with ops >= min_ops.

    Rejects rows whose ns_per_move is missing, NaN, infinite or <= 0: a
    NaN would otherwise poison the ratio and sail through every float
    comparison as 'not greater', silently passing the gate.
    """
    for r in rows:
        if r.get("family") == family and r.get("ops", -1) >= min_ops:
            try:
                ns = float(r["ns_per_move"])
            except KeyError:
                raise GateError(
                    f"'{family}' row (ops={r.get('ops')}) has no "
                    f"ns_per_move field")
            except (TypeError, ValueError):
                raise GateError(
                    f"'{family}' row (ops={r.get('ops')}) has a "
                    f"non-numeric ns_per_move: {r['ns_per_move']!r}")
            if math.isnan(ns) or math.isinf(ns) or ns <= 0:
                raise GateError(
                    f"'{family}' row (ops={r.get('ops')}) has an invalid "
                    f"ns_per_move ({ns}); refusing to judge a ratio on it")
            return ns, r["ops"]
    raise GateError(
        f"no '{family}' row with >= {min_ops} ops in the scaling record")


def ratio(rows):
    small, small_ops = per_move(rows, "ewf", 0)
    big, big_ops = per_move(rows, "cascade", 5000)
    return big / small, small, small_ops, big, big_ops


def judge(fresh, wall):
    """Returns (ok, lines): the gate verdict plus its printable report."""
    fresh_ratio, fs, fso, fb, fbo = ratio(fresh)
    wall_ratio, ws, wso, wb, wbo = ratio(wall)

    lines = [
        f"fresh: ewf({fso} ops) {fs:.0f} ns/move, "
        f"cascade({fbo} ops) {fb:.0f} ns/move -> ratio {fresh_ratio:.2f}",
        f"wall:  ewf({wso} ops) {ws:.0f} ns/move, "
        f"cascade({wbo} ops) {wb:.0f} ns/move -> ratio {wall_ratio:.2f}",
    ]
    limit = RATIO_LIMIT * wall_ratio
    if fresh_ratio > limit:
        lines.append(
            f"FAIL: per-move scaling ratio {fresh_ratio:.2f} exceeds "
            f"{RATIO_LIMIT:.0f}x the committed wall ({wall_ratio:.2f}); a "
            "super-linear cost crept back into the move loop")
        return False, lines
    lines.append(
        f"ok: ratio {fresh_ratio:.2f} within {RATIO_LIMIT:.0f}x of the "
        f"wall ({limit:.2f})")
    return True, lines


def self_test():
    """Unit tests for the ratio math and every error path."""
    import unittest

    def row(family, ops, ns):
        return {"benchmark": "BM_ScalingMoves", "family": family,
                "ops": ops, "ns_per_move": ns}

    WALL = [row("ewf", 34, 700.0), row("cascade", 5000, 3500.0)]

    class GateTests(unittest.TestCase):
        def test_per_move_picks_first_matching_row(self):
            rows = [row("cascade", 1000, 1.0), row("cascade", 5000, 9.0),
                    row("cascade", 50000, 99.0)]
            self.assertEqual(per_move(rows, "cascade", 5000), (9.0, 5000))

        def test_per_move_min_ops_zero_matches_any(self):
            self.assertEqual(per_move(WALL, "ewf", 0), (700.0, 34))

        def test_ratio_math(self):
            r, small, small_ops, big, big_ops = ratio(WALL)
            self.assertAlmostEqual(r, 5.0)
            self.assertEqual((small, small_ops), (700.0, 34))
            self.assertEqual((big, big_ops), (3500.0, 5000))

        def test_gate_passes_within_2x(self):
            fresh = [row("ewf", 34, 650.0), row("cascade", 5000, 6000.0)]
            ok, lines = judge(fresh, WALL)  # ratio 9.23 < 10.0
            self.assertTrue(ok)
            self.assertIn("ok:", lines[-1])

        def test_gate_fails_beyond_2x(self):
            fresh = [row("ewf", 34, 650.0), row("cascade", 5000, 7000.0)]
            ok, lines = judge(fresh, WALL)  # ratio 10.77 > 10.0
            self.assertFalse(ok)
            self.assertIn("FAIL", lines[-1])

        def test_gate_boundary_is_not_a_failure(self):
            fresh = [row("ewf", 34, 700.0), row("cascade", 5000, 7000.0)]
            ok, _ = judge(fresh, WALL)  # exactly 2x: allowed
            self.assertTrue(ok)

        def test_missing_family_row_errors(self):
            with self.assertRaises(SystemExit) as ctx:
                per_move([row("ewf", 34, 700.0)], "cascade", 5000)
            self.assertIn("no 'cascade' row", str(ctx.exception))

        def test_too_small_ops_errors(self):
            with self.assertRaises(SystemExit):
                per_move([row("cascade", 1000, 5.0)], "cascade", 5000)

        def test_nan_refused_not_silently_passed(self):
            # float('nan') > limit is False for every limit — without the
            # explicit check a NaN row would pass the gate unnoticed.
            fresh = [row("ewf", 34, float("nan")),
                     row("cascade", 5000, 3500.0)]
            with self.assertRaises(SystemExit) as ctx:
                judge(fresh, WALL)
            self.assertIn("invalid ns_per_move", str(ctx.exception))

        def test_infinite_and_nonpositive_refused(self):
            for bad in (float("inf"), 0.0, -3.0):
                with self.assertRaises(SystemExit):
                    per_move([row("ewf", 34, bad)], "ewf", 0)

        def test_missing_ns_field_errors(self):
            broken = [{"family": "ewf", "ops": 34}]
            with self.assertRaises(SystemExit) as ctx:
                per_move(broken, "ewf", 0)
            self.assertIn("no ns_per_move", str(ctx.exception))

        def test_non_numeric_ns_errors(self):
            with self.assertRaises(SystemExit) as ctx:
                per_move([row("ewf", 34, "fast")], "ewf", 0)
            self.assertIn("non-numeric", str(ctx.exception))

    suite = unittest.defaultTestLoader.loadTestsFromTestCase(GateTests)
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1


def main():
    if len(sys.argv) == 2 and sys.argv[1] == "--self-test":
        raise SystemExit(self_test())
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    with open(sys.argv[1]) as f:
        fresh = json.load(f)
    with open(sys.argv[2]) as f:
        wall = json.load(f)

    ok, lines = judge(fresh, wall)
    for line in lines:
        print(line)
    if not ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
