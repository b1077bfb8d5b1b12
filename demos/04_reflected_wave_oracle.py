#!/usr/bin/env python3
"""Direct evaluation of the reflected wave (the oracle route).

The boundary-value problem has an exact Airy-quotient solution operator;
integrating its three-fold spectral representation numerically (no
asymptotic substitutions) gives the ground truth the asymptotic routes are
checked against.  Runs at k = 400; the two oracle calls take well under a
second each.
"""

import math
import time

from grazebeam import grazing, spectral

x = 0.5
k = 400.0
y = 2.0*math.sqrt(x)
t_ray = y + y**3/12.0

t0 = time.time()
on = spectral.exact_solution(x, y, t_ray, k)
print("direct w(x=%.1f, on-ray, k=%g) = %s" % (x, k, on.value))
print("  error estimate %.1e, %d panels, converged=%s  [%.1fs]"
      % (on.error_estimate, on.panel_count, on.converged, time.time() - t0))

wu = grazing.u_integral(x, k).value
wc = grazing.w_on_ray_closed(x)
print("\nagainst the asymptotic routes:")
print("  u-integral route   %s   (rel diff %.3f)"
      % (wu, abs(on.value - wu)/abs(wu)))
print("  closed-form limit  %s   (rel diff %.3f; the k^{-1/6} gap)"
      % (wc, abs(on.value - wc)/abs(wc)))

t0 = time.time()
off = spectral.exact_solution(x, y, t_ray + 1.0, k)
print("\nconcentration on the ray: shifting t by +1 collapses the field")
print("  |w(off)| / |w(on)| = %.2e  [%.1fs]"
      % (abs(off.value)/abs(on.value), time.time() - t0))
