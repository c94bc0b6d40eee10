"""Memory and time comparisons: count formulas plus a small live benchmark.

The count table reproduces the published-value formulas for the reference
(t, k, n) tuples; the benchmark, run through ``mss bench``, shows why the
backward walk is the method of choice for consecutive quorums once
thresholds grow.
"""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mss.cli import main
from mss.counts import counts_csv

print("published-value counts at the reference parameter tuples:")
print(counts_csv())

print("live timings (medians over 5 trials, n = 24, one secret):")
csv = io.StringIO()
with contextlib.redirect_stdout(csv):
    args = ["bench", "--variant", "s1", "--n", "24", "--k", "1", "--t-range", "4,8,16"]
    assert main([*args, "--trials", "5", "--seed", "7"]) == 0
print(csv.getvalue())

by_phase = {}
for line in csv.getvalue().splitlines()[1:]:
    phase, t, _trials, median = line.split(",")
    by_phase[(phase, int(t))] = float(median)
for t in (4, 8, 16):
    solve = by_phase[("recover_vandermonde", t)]
    walk = by_phase[("recover_backward", t)]
    print(
        f"t={t:>2}: backward walk {walk * 1e3:7.3f} ms vs "
        f"linear solve {solve * 1e3:7.3f} ms  ({solve / walk:5.1f}x)"
    )
