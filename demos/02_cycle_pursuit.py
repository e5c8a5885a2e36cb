"""
Pursuit on a cycle: the speed-1 wall
====================================

On a circle a pursuer no faster than the evader never wins: the evader
holds the antipode.  Any speed above 1 wins by lapping the circle once,
shrinking the uncovered arc to nothing by time L/(s-1).
"""

from graphchase import build_graph, cycle_loop, cycle_strategy, verify

circle = build_graph(["a"], [("a", "a", 1.0)])

# at speed 1 the evader survives any horizon; the verifier hands back an
# explicit evading trajectory as the counterexample
slow = cycle_loop(circle, 1.0, duration=10.0)
res = verify(slow, h=0.01)
print("s=1 for 10 time units:", res.verdict)
print("  witness keeps clearance", round(res.min_clearance, 4),
      "(half the circle is 0.5)")

# at speed 2 one lap takes 1/(2-1) = 1 and captures
fast = cycle_strategy(circle, 2.0)
print("s=2 planned duration:", fast.duration)
res = verify(fast, h=1 / 150, eps=0.01)
print("s=2:", res.verdict, "by t =", round(res.time_bound, 4))

# the capture bound is tight: no cop can beat time 1 on the unit circle,
# and the verified time converges to 1 as the grid refines
for h in (1 / 30, 1 / 90, 1 / 270):
    r = verify(cycle_strategy(circle, 2.0), h=h, eps=1.5 * h,
               want_witness=False)
    print(f"  h=1/{round(1/h)}: capture by {r.time_bound:.4f}")
