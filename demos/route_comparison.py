"""Compare the two analytic evaluation routes along a time sweep.

The eigenbasis series (at increasing truncation order) and the closed
angular-integral route evaluate the same two-time quasi-probability
q_{1,-1}(0, t2) for a strongly squeezed coherent state.  The series visibly
converges onto the integral curve as the truncation order grows.

Run:  python3 demos/route_comparison.py [out.csv]
"""

import math
import sys

import numpy as np

from lgqpd import named_evaluator

point = dict(x0=0.550, p0=1.925, r=1.0, theta0=math.pi / 3, s1=1, s2=-1, t1=0.0)
grid = np.arange(0.0, 2 * math.pi + 1e-9, 0.05)

# each curve is one call of its route's t2-array kernel
curves = {n: named_evaluator(point, "series", "sign", n)[1](grid) for n in (5, 50, 500)}
integral = named_evaluator(point, "integral", "sign")[1](grid)

print(f"q_(1,-1)(0, t2) for x0=0.550 p0=1.925 r=1 theta0=pi/3  ({grid.size} points)")
print(f"{'w*t2':>6} {'series n=5':>12} {'n=50':>12} {'n=500':>12} {'integral':>12}")
for k in range(0, grid.size, 10):
    print(f"{grid[k]:6.2f} {curves[5][k]:12.6f} {curves[50][k]:12.6f} "
          f"{curves[500][k]:12.6f} {integral[k]:12.6f}")

for n in (5, 50, 500):
    dev = np.max(np.abs(curves[n] - integral))
    print(f"max |series(n={n:3d}) - integral| = {dev:.2e}")

if len(sys.argv) > 1:
    out = sys.argv[1]
    header = "wt2,series_n5,series_n50,series_n500,integral"
    np.savetxt(out, np.column_stack([grid, curves[5], curves[50], curves[500], integral]),
               delimiter=",", header=header, comments="")
    print(f"wrote {out}")
