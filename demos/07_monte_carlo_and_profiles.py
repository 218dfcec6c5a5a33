"""Seeded Monte Carlo runs and empirical stability profiles.

Sampled tester runs are driven by a counter-based generator with per-chunk
derived seeds, so the outcome depends only on (seed, trials): running again
with the same seed reproduces it exactly.  Stability profiles corrupt random cocycles
edge by edge and tabulate exact local defect against the global-defect upper
bound; on complete complexes the bound stays below the defect line.
"""

from permstab import run_sampled, stability_profile
from permstab.cochains import images_to_cochain
from permstab.instances import bouquet_a3, complete_complex
from permstab.perm import Permutation

x = bouquet_a3()
alpha = images_to_cochain([Permutation([2, 1, 3])], x)   # exact defect 2/3

out1 = run_sampled("cocycle", alpha, trials=200000, seed=42)
assert run_sampled("cocycle", alpha, trials=200000, seed=42) == out1
print(f"exact rate {out1.exact_rate}, empirical {float(out1.empirical_rate):.5f} "
      f"({out1.trials} trials, generator {out1.generator})")

linf = run_sampled("cocycle", alpha, trials=50000, seed=42, linf=True)
print(f"all-constraints-at-once variant: exact {linf.exact_rate}, "
      f"empirical {float(linf.empirical_rate):.5f}")

print("\nstability profile on the complete complex with 5 vertices:")
profile = stability_profile(complete_complex(5), 2, [0.1, 0.3, 0.6], 3,
                            seed=9, hom_guard=10 ** 9)
print(profile.to_csv())
