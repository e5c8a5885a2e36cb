"""
Survival witnesses and time-space diagrams
==========================================

When a strategy fails, the verifier does not just say "survival": it
backtracks an explicit evading trajectory from the bits the propagation
records of which predecessors attain each step's best score.
The witness is a valid unit-speed motion whose clearance from the pursuer
is then re-measured exactly in continuous time, independent of the grid.
"""

import os

from graphchase import (PathBuilder, build_graph, check_lipschitz,
                        continuous_clearance, save_svg, verify)

g = build_graph(["a", "b", "c"],
                [("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)])

# a lazy pursuer: shuttle along one edge only
cop = PathBuilder(g, "a", 1.5)
for _ in range(3):
    cop.move_to("b", speed=1.5).move_to("a", speed=1.5)
cop = cop.build()

res = verify(cop, h=0.02)
print("shuttling a--b on a triangle:", res.verdict)
w = res.witness
print("  witness is unit-speed:", check_lipschitz(w, 1.0 + 1e-9))
print("  exact clearance kept:", round(res.min_clearance, 4))
start = w.evaluate(0.0)
print(f"  witness starts on edge {start.edge} at offset "
      f"{round(start.offset, 4)}")

# the same exact-clearance measurement works for any evader you write down
evader = PathBuilder(g, "c", 1.0).wait(cop.duration).build()
print("  standing at c keeps", round(continuous_clearance(cop, evader), 4))

# a time-space diagram: one horizontal band per edge, time left to right,
# pursuer in red with its capture tube, witness in blue
out = os.path.join(os.path.dirname(__file__) or ".", "witness_diagram.svg")
save_svg(cop, out, witness=w, eps=res.eps, title="shuttle vs witness")
print("wrote", out)
