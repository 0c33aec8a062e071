"""How fast the shifting denoiser closes in on its hindsight target.

The target is the best true loss any schedule in the class could have
achieved given the clean sequence (zero, for two-block data with one
allowed shift).  The denoiser only sees the noisy sequence, so it pays a
gap that comes from misplacing the shift by a few positions; the gap decays
roughly like 1/n because the misplacement does not grow with n.
"""

from sdude import bsc_channel, concentration_sweep, two_block_sequence

report = concentration_sweep(
    two_block_sequence,
    bsc_channel(0.1),
    k=0,
    m=1,
    n_list=(10**3, 10**4, 10**5),
    trials=50,
    seed=0,
)

print(f"{'n':>8s} {'mean gap':>12s} {'max gap':>12s}   ({report.sweep[0]['trials']} trials each)")
for row in report.sweep:
    print(f"{row['n']:>8d} {row['mean_gap']:>12.2e} {row['max_gap']:>12.2e}")

print("\nCSV form (what the command-line experiment writes):")
print(report.to_csv())
