"""
Simulated progeny against the analytic law
==========================================

Replicates run in fixed blocks, each with its own counter-based random
stream keyed by (seed, block index), and workers take whole blocks, so
results are exactly reproducible and do not depend on the worker count.
The chi-square statistic compares empirical cell counts with the analytic
pmf.
"""

from hypersum import (
    ProgenyHalfLaw,
    ScaledSibuya,
    SimConfig,
    chi_square_threshold,
    gof_compare,
    progeny_pmf_range,
    simulate_total_progeny,
)

d = ScaledSibuya(0.5, 0.6)
law = ProgenyHalfLaw(0.6)

sim = simulate_total_progeny(d, SimConfig(seed=2024, replicates=200_000))
rep = gof_compare(sim, law, bins=12)

pmf = progeny_pmf_range(law, 12)
n = sim.replicates
print("%4s %12s %12s %8s" % ("ell", "observed", "expected", "z"))
for ell in range(1, 13):
    print("%4d %12d %12.1f %8.2f"
          % (ell, sim.counts.get(ell, 0), n * pmf[ell - 1], rep.z_scores[ell]))

thr = chi_square_threshold(rep.dof)
print()
print("chi-square %.2f on %d dof, 0.999 quantile %.2f -> %s"
      % (rep.chi_square, rep.dof, thr, "accept" if rep.chi_square < thr else "reject"))

# Same seed, different worker count: identical counts, by construction.
two = simulate_total_progeny(d, SimConfig(seed=2024, replicates=200_000, workers=2))
print("workers=2 reproduces workers=1 exactly: %s" % (two.counts == sim.counts))
