"""Deepest two-time violation with sign projectors, squeeze by squeeze.

For each squeeze magnitude there is a displacement that drives the minimum of
4*q_{s1,s2}(0, t2) down to -0.113 (22.6% of the -1/2 floor) -- squeezing
relocates the optimum in phase space but cannot deepen it, because the
squeezed problem maps exactly onto a coherent one.

Run:  python3 demos/sign_projector_minima.py
"""

import math

from lgqpd import T2Search, minimize_over_t2, named_evaluator
from lgqpd.verify import SIGN_MINIMUM_ROWS

search = T2Search(0.0, 2 * math.pi, coarse_steps=240, refine_iters=40)

print(f"{'s1':>3} {'s2':>3} {'r':>4} {'x0':>7} {'p0':>6} {'4*q_min':>9} {'w*t2':>6}")
for s1, s2, r, x0, p0 in SIGN_MINIMUM_ROWS:
    params = {"s1": s1, "s2": s2, "r": r, "x0": x0, "p0": p0}
    evaluator, curve = named_evaluator(params, "series", "sign", n_max=400)
    q, t2 = minimize_over_t2(evaluator, curve, search)
    print(f"{s1:+3d} {s2:+3d} {r:4.1f} {x0:7.3f} {p0:6.3f} {4 * q:9.4f} {t2:6.3f}")

print("\nevery row sits at 4q = -0.113 +/- 0.003: squeezing does not boost the violation")
