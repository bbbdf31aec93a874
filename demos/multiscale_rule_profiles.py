"""Measure profiles of four contrasting rules across scales.

A profile is the trajectory of (E, S, C, H) as the grouping scale b grows.
Rule 0 is flat.  Rule 1 is lively at b=1 and flat above.  Rule 110 trades
emergence for self-organization and complexity as the scale grows.  Rule 30
stays near-maximally emergent everywhere.  The reference column shows the
homeostasis expected between uncorrelated states (2^-b).
"""

from infodyn import multiscale_profiles

print("profiling rules 0, 1, 110, 30 (50 instances each, N=256, window 4096) ...")
profile = multiscale_profiles(
    rules=(0, 1, 110, 30),
    scales=(1, 2, 4, 8),
    n=256,
    instances=50,
    transient=4096,
    window=4096,
    master_seed=0,
)

means = {(r.parameter, r.scale): r.aggregate["mean"] for r in profile.sweeps}
for rule in (0, 1, 110, 30):
    print(f"\nrule {rule}:")
    print(f"{'b':>3}  {'E':>7}  {'S':>7}  {'C':>7}  {'H':>7}  {'H_uncorr':>8}")
    for scale in (1, 2, 4, 8):
        m = means[(rule, scale)]
        print(
            f"{scale:>3}  {m['E']:7.4f}  {m['S']:7.4f}  {m['C']:7.4f}"
            f"  {m['H']:7.4f}  {profile.h_baseline[scale]:8.4f}"
        )

print(
    "\nH above the reference line means successive states stay correlated;"
    "\nbelow it (rule 54 at b=1, rule 110 at b>=4) signals anticorrelated"
    "\nstructure riding on a periodic background."
)
