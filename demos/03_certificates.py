"""Decomposability certificates and entanglement detection.

A family witness is decomposable only when b = d, and each of the three
verdicts comes with checkable evidence:

- decomposable (b = d): an explicit split W = P + Q^T_B with P, Q
  positive semidefinite;
- not-block-positive (b = d, but P or Q is not PSD, which happens off the
  cones): a product vector whose expectation is negative, so W is not a
  witness at all;
- indecomposable (b != d): a PPT state whose pairing with the witness is
  negative, which no decomposable witness can achieve.
"""
import numpy as np

from ewcones import (
    WitnessParams,
    block_positivity_min,
    certify_decomposability,
    detect,
    partial_transpose,
    probe_state,
    witness_from_params,
)

# b = d: explicit decomposition
p = WitnessParams(0.5, 0.75, 1.0, 0.75)
cert = certify_decomposability(p)
print(f"point {tuple(float(x) for x in p.as_array())}: {cert.verdict}")
print(f"  gram spectrum {np.round(cert.a_eigenvalues, 12)}")
print(f"  reconstruction error {cert.reconstruction_error:.2e},"
      f" P psd: {cert.p_psd}, Q psd: {cert.q_psd}")

# b = d off the cones: the split fails and a product vector shows why
p = WitnessParams(0.0, 1.5, 0.0, 1.5)
cert = certify_decomposability(p)
print(f"\npoint {tuple(float(x) for x in p.as_array())}: {cert.verdict}")
print(f"  product value {cert.product_value}, P psd: {cert.p_psd}, Q psd: {cert.q_psd}")

# b != d: a PPT probe state the witness still sees
p = WitnessParams(1.0, 1.0, 1.0, 0.0)
cert = certify_decomposability(p)
print(f"\npoint {tuple(float(x) for x in p.as_array())}: {cert.verdict}")
print(f"  probe epsilon {cert.epsilon}, pairing {cert.pairing_value}")
lo, hi = cert.epsilon_interval
print(f"  pairing stays negative for epsilon in ({lo}, {hi})")

probe = probe_state(cert.epsilon)
rho = probe.state / np.trace(probe.state).real
low = np.linalg.eigvalsh(rho)[0]
low_pt = np.linalg.eigvalsh(partial_transpose(rho, 4, 4))[0]
print(f"  probe eigenvalue floor {low:.2e}, after partial transpose {low_pt:.2e}")

# the same probe, fed to the detector
w = witness_from_params(p)
value = detect(w, rho)
print(f"  detector value {value:.6f} -> entangled: {value < -1e-9}")

# block positivity: the lattice floor over product vectors (evidence, not proof)
floor = block_positivity_min(w)
print(f"\nlattice floor for this witness: {floor:.2e}")

# a flat witness that touches zero: the reduction-type point (0, 1, 1, 1)
w0 = witness_from_params(WitnessParams(0.0, 1.0, 1.0, 1.0))
floor = block_positivity_min(w0)
print(f"lattice floor for the a = 0 member: {floor:.2e}")
