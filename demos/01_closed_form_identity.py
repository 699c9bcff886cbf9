"""
Two routes to the same sum
==========================

S(eta, c; x) can be summed term by term, or collapsed to a single
hypergeometric evaluation. The two paths share no code, so their agreement
is a real check. This script prints both values over a small parameter
sweep, then visits the x < -eta region, where the closed route's series in
z gives the analytic continuation (for c in {1, 2, 3}).
"""

from hypersum import SumParams, sum_closed, sum_direct

print("%8s %6s %7s  %22s %22s %10s" % ("eta", "c", "x", "direct", "closed", "rel diff"))
for eta, c, x in [
    (2.0, 2.5, 0.5),
    (1.0, 0.8, -0.9),
    (0.7, 1.3, -0.5),
    (3.5, 4.0, 0.95),
    (0.6, 2.0, 0.3),
]:
    p = SumParams(eta, c, x)
    a = sum_direct(p)
    b = sum_closed(p)
    rel = abs(a.value - b.value) / abs(b.value)
    print("%8.2f %6.2f %7.2f  %22.15e %22.15e %10.2e" % (eta, c, x, a.value, b.value, rel))

# Below x = -eta the naive 2F1(1/2, 1; c; xi)/X would pick the wrong
# square-root branch. The closed route's series in z continues cleanly
# through x = -eta; the result object says so via its `continuation` flag.
print()
p = SumParams(0.4, 2.0, -0.8)
a = sum_direct(p)
b = sum_closed(p)
print("continuation at (eta, c, x) = (0.4, 2, -0.8):")
print("  direct series   %.15f" % a.value)
print("  closed form     %.15f   continuation=%s" % (b.value, b.continuation))
