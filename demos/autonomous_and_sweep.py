"""Closed-form angular values of a 4D autonomous flow, plus a sweep slice.

The flow has two 2x2 spectral blocks with frequencies 1 and 1/sqrt(2).
For planes (s = 2), the angular value is the maximum of torus averages
over admissible index sets; the sweep scans the frequency ratio kappa and
shows the jump between resonant (rational) and independent cells.
"""

import math

from angval.autonomous import ComplexBlock, SchurSpec, admissible_sets, angular_value_irrational
from angval.semicontinuity import hairy_sweep

spec = SchurSpec(
    (ComplexBlock(0.0, 1.0, 1.0 / 3.0), ComplexBlock(-1.0, 1.0 / math.sqrt(2.0), 0.25))
)

for s in (1, 2, 3):
    print("s = %d admissible sets:" % s, admissible_sets(s, spec))

res = angular_value_irrational(2, spec)
for sv in res.per_set:
    print("  J = %-8s integral = %.8f" % (sv.index_set, sv.value))
print("angular value (s = 2) = %.7f" % res.value)

# a small slice of the semicontinuity sweep: rho2 fixed, kappa scanned
cells = hairy_sweep(
    1.0,
    1.0 / 3.0,
    kappa_grid=[0.45, 0.455, 0.5, 0.505, 2.0 / 3.0, 1.0 / math.sqrt(2.0)],
    rho2_grid=[0.25],
)
print("\nkappa      tag         value")
for c in cells:
    tag = "%d/%d" % (c.tag.p, c.tag.q) if c.tag.rational else "irrational"
    print("%-9.6f  %-10s  %.7f" % (c.kappa, tag, c.value))
