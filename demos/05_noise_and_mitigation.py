"""Sample under the stand-in hardware noise model, calibrate the readout
confusion, and show the correction pulling expectations back toward truth.

Run: python3 demos/05_noise_and_mitigation.py
"""
import numpy as np

import qregress as q
from qregress.mitigation import expectation_error_study, mitigate_counts

noise = q.default_noise(4)
print("noise model:", noise.to_json())

# Readout calibration from all-zeros / all-ones runs
confusion = q.calibrate_readout(noise, 4, 20000, seed=1)
print("\ncalibrated per-qubit confusion (measured x true):")
for qubit, mat in enumerate(confusion.matrices):
    print(f"  qubit {qubit}: {np.round(mat, 4).tolist()}")

# A deterministic circuit read through noisy measurement
circ = q.new_circuit(4)
for qubit in range(4):
    circ = circ.append(q.x(qubit))
counts = q.sample(circ, 20000, seed=2, noise=noise)
top = sorted(counts.counts.items(), key=lambda kv: -kv[1])[:4]
print("\nall-ones circuit, noisy counts (top 4):", top)
quasi = mitigate_counts(counts, confusion)  # aligned with counts.outcomes
print("after correction, P(1111) =", round(float(quasi[counts.outcomes == 0b1111].sum()), 4))

# Does correction help on average? 20 seeded trials of a Z expectation.
rng = np.random.default_rng(5)
probe = q.new_circuit(4)
for qubit in range(4):
    probe = probe.append(q.rx(qubit, float(rng.uniform(0, np.pi / 3))))
study = expectation_error_study(
    probe, q.NoiseModel(readout=((0.02, 0.02),) * 4), 1, 10000, 20, seed=5
)
print(f"\nexpectation study over 20 trials: mitigation closer to truth in "
      f"{study['win_fraction']:.0%} of runs "
      f"(raw err {study['mean_raw_error']:.4f} -> {study['mean_mitigated_error']:.4f})")
