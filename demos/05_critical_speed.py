"""
Estimating capture thresholds by bisection
==========================================

The critical speed of a graph is the infimum of pursuer speeds that admit
a winning trajectory.  Upper bounds come from verified captures; refusals
and survival witnesses bound from below what a given strategy family can
do.  Bisection shrinks the bracket, verifying every probe independently.
"""

from graphchase import (build_graph, frontier_table, frontier_to_csv,
                        upper_bound_bisect)

circle = build_graph(["a"], [("a", "a", 1.0)])

# the cycle family: capture iff s > 1, so the bracket pins 1
br = upper_bound_bisect(circle, "cycle", 0.5, 2.0, tol=0.05, h=0.02)
print(f"cycle family bracket: ({br.lower:.4f}, {br.upper:.4f}]")
print("  probes:", ", ".join(f"{s:g}:{kind[0]}" for s, kind in br.probes))
print("  upper evidence: capture by t =",
      round(br.upper_evidence.time_bound, 3))

# a 3-arm star: construction needs s > 3 = 2k-3.  Every probe's path is
# built for the bracket's own eps: its cascade truncates at
# min(shortest edge / 100, eps / 4), so at a fine eps the opening probes
# shrink with it and the bracket still closes in on 3
star = build_graph(["O", "u1", "u2", "u3"],
                   [("O", "u1", 0.5), ("O", "u2", 0.5), ("O", "u3", 0.5)])
for h, eps in ((5e-3, 0.02), (5e-4, 0.0015)):
    br = upper_bound_bisect(star, "star", 2.5, 4.0, tol=0.1, h=h, eps=eps)
    print(f"star family bracket at eps={eps:g}: "
          f"({br.lower:.4f}, {br.upper:.4f}]")

# frontier tables survey a whole speed list; speeds the family rejects
# fall back to a naive sweep so each row still carries evidence
rows = frontier_table(circle, "cycle", [0.5, 1.0, 1.5, 2.0], h=0.02)
print()
print(frontier_to_csv(rows))
