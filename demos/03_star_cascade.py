"""
Clearing a star by geometric excursions
=======================================

A star with k arms falls to any pursuer faster than 2k-3.  The trick is a
cascade: sweep one arm, then probe the remaining arms in rotation with
excursion durations growing geometrically by the root lambda of
x^(k-2) + ... + x = (s-1)/2.  Each probe pushes its arm's evader-free
radius out faster than the other arms' radii decay.
"""

from graphchase import (build_graph, build_star_schedule, lambda_root,
                        star_strategy, verify)

k = 4
s = 2 * k - 3 + 0.5
star = build_graph(["O"] + [f"u{i}" for i in range(k)],
                   [("O", f"u{i}", 1.0) for i in range(k)])
lam = lambda_root(k, s)
print(f"k={k} arms at speed s={s}: growth factor lambda = {lam:.6f}")

# the schedule is pure arithmetic, inspectable before any motion exists
sched = build_star_schedule(star, s, truncation=1e-3)
print("first probe lasts", f"{sched.d0:.2e}", "and probes grow by lambda:")
for arm, start, dur in sched.excursions[:5]:
    print(f"  t={start:.4f}  probe {arm} for {dur:.2e}")
print(f"  ... {len(sched.excursions)} excursions in total")

# the plan records the excursion after which each arm is cleared
cleared = []
for index, arm in sched.clearings:
    cleared.append(arm)
    print(f"  after excursion {index}: cleared={sorted(cleared)}")

# the actual trajectory, checked against every unit-speed evader
cop = star_strategy(star, s, truncation=1e-3)
res = verify(cop, h=1e-3, eps=4e-3, want_witness=False)
print("verification:", res.verdict, "by t =", round(res.time_bound, 3))

# half a unit slower, and the construction itself refuses
try:
    star_strategy(star, 2 * k - 3 - 0.5)
except ValueError as exc:
    print("at s =", 2 * k - 3 - 0.5, "->", exc)
