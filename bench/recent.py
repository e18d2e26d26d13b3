"""Re-measure the single-call timings quoted in ROADMAP.md ("Recent").

    python3 bench/recent.py

Run from the root of a source checkout. Each sample is one library call in
a fresh interpreter (PYTHONPATH=src), timed around the call alone, so
import and input construction are excluded. For every quoted number the
script prints the median of the samples, their spread (max - min) and a
flag when the quoted value lies further from the median than the spread.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

SAMPLES = 5  # fresh-interpreter calls per case

# (label, quoted seconds, setup code, timed expression)
CASES = [
    ("structure_report simple_ext(6)", 0.060,
     "a = sl2.simple_ext_algebra(6)", "a.structure_report()"),
    ("structure_report simple_ext(12)", 1.75,
     "a = sl2.simple_ext_algebra(12)", "a.structure_report()"),
    ("irreducibility ladder m=8", 0.110,
     "r = sl2.sl2_leibniz_irrep(8, 'zero_lambda')", "reps.irreducibility(r)"),
    ("irreducibility ladder m=16", 1.67,
     "r = sl2.sl2_leibniz_irrep(16, 'zero_lambda')", "reps.irreducibility(r)"),
    ("decompose ladder 2+3+4", 0.8,
     "r = ladder_sum(2, 3, 4)", "decompose(r)"),
    ("decompose ladder 2+3+4+4", 2.7,
     "r = ladder_sum(2, 3, 4, 4)", "decompose(r)"),
    # quoted as "at most 165 ms up to n = 10"; the slowest call of the grid
    ("extension_rep_solve max over n=5..10, m=1..4", 0.165,
     "grid = [(n, m) for n in range(5, 11) for m in range(1, 5)]",
     "max_call(lambda nm: sl2.extension_rep_solve(*nm), grid)"),
]

SAMPLE = """
import json, sys, time
import leibnizalg.reps as reps
import leibnizalg.sl2 as sl2
from leibnizalg.decompose import decompose

def ladder_sum(*ms):
    rep = sl2.sl2_leibniz_irrep(ms[0], 'zero_lambda')
    for m in ms[1:]:
        rep = reps.direct_sum(rep, sl2.sl2_leibniz_irrep(m, 'zero_lambda'))
    return rep

def max_call(fn, args):
    worst = 0.0
    for a in args:
        t = time.perf_counter()
        fn(a)
        worst = max(worst, time.perf_counter() - t)
    return worst

{setup}
start = time.perf_counter()
value = {expr}
elapsed = time.perf_counter() - start
print(json.dumps(value if isinstance(value, float) else elapsed))
"""


def sample(setup: str, expr: str, env: dict) -> float:
    code = SAMPLE.format(setup=setup, expr=expr)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=600)
    return float(done.stdout.strip().splitlines()[-1])


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    rows = []
    for label, quoted, setup, expr in CASES:
        times = [sample(setup, expr, env) for _ in range(SAMPLES)]
        med = statistics.median(times)
        spread = max(times) - min(times)
        flag = abs(med - quoted) > spread
        rows.append({"case": label, "quoted_s": quoted, "median_s": med,
                     "spread_s": spread, "differs": flag})
        print(f"{label:48s} quoted {quoted:7.3f}  median {med:7.3f}  "
              f"spread {spread:6.3f}  {'DIFFERS' if flag else 'ok'}", flush=True)
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
