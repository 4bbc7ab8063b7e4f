"""Does the induced form extend over the binding circle?

Collapsing the boundary of the solid torus leaves a distinguished circle
(the binding).  In the chart (b, rho, vartheta) around it, the induced
1-form extends smoothly exactly when the quotient function

    f = (H o Phi - h (1 - rho^2)^2) / rho^2

does.  Radial collar Hamiltonians pass at every audited order; an angular
collar term is caught immediately: f's limit at rho = 0 depends on the
approach direction.
"""

import numpy as np

from reebcut import (
    BindingChart,
    QuadraticHamiltonian,
    RigidRotationHamiltonian,
    adapted_collar_g,
    binding_function_f,
    cosine_defect_hamiltonian,
    extended_contact_audit,
    extension_test,
)
from reebcut.binding import make_f_tilde

SQRT2 = np.sqrt(2.0)
chart = BindingChart(h=2)

# --- closed forms -----------------------------------------------------------
H = QuadraticHamiltonian(SQRT2, 2 - SQRT2)
rho = np.array([0.3, 0.1, 0.01])
print("ellipsoid binding function (closed form a0 (2 - rho^2)):")
print("  f:", binding_function_f(H, chart, 0.0, rho, 0.0))
print("  a0(2-rho^2):", SQRT2 * (2 - rho**2))

# --- extension verdicts ------------------------------------------------------
def show(H, label, h):
    rep = extension_test(H, BindingChart(h=h))
    verdicts = " ".join(f"C{v.order}:{'ok' if v.passed else 'FAIL'}"
                        for v in rep.verdicts)
    print(f"  {label:34s} {verdicts}  f(0)={rep.f0:.6f} "
          f"spread={rep.direction_spread:.2e}")


print("\nextension verdicts:")
show(QuadraticHamiltonian(SQRT2, 2 - SQRT2), "quadratic (ellipsoid)", 2)
show(RigidRotationHamiltonian(2, 1, 3), "rigid rotation 1/3", 2)
show(cosine_defect_hamiltonian(3, 0.4, 0.0), "radial collar (d = 0)", 3)
show(cosine_defect_hamiltonian(3, 0.4, 0.5), "angular collar (d = 0.5)", 3)

# --- the extended form along the binding -------------------------------------
audit = extended_contact_audit(make_f_tilde(H, chart))
print("\nextended form audit (ellipsoid):")
print(f"  f on binding min: {audit.f_on_binding_min:.6f} (= 2 a0)")
print(f"  volume density min: {audit.volume_density_min:.6f}")
print(f"  Reeb defects: pairing {audit.reeb_pairing_defect:.1e}, "
      f"contraction {audit.reeb_contraction_defect:.1e}")

# --- the adapted collar parameter --------------------------------------------
print("\nadapted collar solve for tau = h r^2 - H:")
for tau in (-0.3, -0.05):
    r = adapted_collar_g(H, 2, 0.0, 0.7, tau)
    print(f"  tau={tau:+.2f}: r = {r:.12f} "
          f"(closed form {np.sqrt((tau + SQRT2) / SQRT2):.12f})")
