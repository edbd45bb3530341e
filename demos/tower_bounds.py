"""Rank thresholds beyond which dense binary geometries contain G(m-1,2,c).

Two routes to a sufficient rank: a closed-form tower expression, and a
recursion on the critical exponent that is usually far smaller.  Values
that would not fit in memory are reported symbolically as a tower height
plus topmost argument.
"""

from fractions import Fraction

from qgeom import r_main2_binary, r_main2_recursive, tower

print("tower values T_c(s):")
for c, s in ((1, 4), (2, 3), (2, 5), (3, 4)):
    t = tower(c, s)
    if t.kind == "exact":
        print("  T_%d(%d) = %d" % (c, s, t.value))
    else:
        print("  T_%d(%d) = tower of height %d topped by %d (symbolic)"
              % (c, s, t.height, t.arg))

eps = Fraction(1, 2)
print("\nclosed-form threshold, m=3 c=2 eps=1/2:",
      r_main2_binary(3, 2, eps).value)

trace = r_main2_recursive(3, 2, eps)
print("recursive threshold, same inputs:", trace[0].value)
for lvl in trace:
    print("  level c=%d: m=%d eps=%s r=%s t=%s value=%d"
          % (lvl.c, lvl.m, lvl.eps, lvl.r, lvl.t, lvl.value))
