"""Text-art portraits of four automata grown from a single cell.

Rule 0 erases everything at once, rule 1 blinks, rule 110 grows interacting
structures on a regular background, and rule 30 looks random.  Each pattern
is also written as a plain PBM bitmap to the current working directory.
"""

from pathlib import Path

from infodyn import EcaConfig, run_eca, trajectory_pbm

WIDTH = 79
STEPS = 32

for rule in (0, 1, 110, 30):
    config = EcaConfig(
        rule=rule, n=WIDTH, init="single_cell", transient=0, window=STEPS, seed=0
    )
    traj = run_eca(config)
    print(f"\nrule {rule}:")
    for row in traj.states:
        print("".join("█" if cell else " " for cell in row))
    out = Path(f"rule_{rule}_single_cell.pbm")
    out.write_text(trajectory_pbm(traj))
    print(f"(bitmap written to {out})")
