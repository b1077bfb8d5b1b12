#!/usr/bin/env python3
"""The headline computation: the wave amplitude after grazing the boundary.

On the central ray the reflected wave collapses to a one-dimensional
integral whose k -> infinity limit is the closed form
w = (1/2)(1 - x + 2 i sqrt(x))^{-1/2}, with |w| = (1/2)(1 + x)^{-1/2}.
The emerging field v - w is then very nearly half the incident beam near
the grazing point.  This script prints the finite-k convergence ladder
(the approach is ~k^{-1/6}) and the emerging-amplitude curve.
"""

import numpy as np

from grazebeam import grazing, raybeam

print("u-integral vs closed form (relative deviation, ~k^{-1/6}):")
print("      k      x=0.5     x=1.0")
for k in (1e3, 1e4, 1e5, 1e6):
    devs = []
    for x in (0.5, 1.0):
        wc = grazing.w_on_ray_closed(x)
        wu = grazing.u_integral(x, k).value
        devs.append(abs(wu - wc)/abs(wc))
    print("  %7.0e   %.4f    %.4f" % (k, devs[0], devs[1]))

print("\ncross-check of the two finite-k routes at k = 1e5 (x = 1):")
wz = grazing.z_integral(1.0, 1e5).value
wu = grazing.u_integral(1.0, 1e5).value
print("  z-route %s" % wz)
print("  u-route %s   (rel diff %.4f)" % (wu, abs(wz - wu)/abs(wu)))

print("\nclosed form and modulus law:")
for x in (0.1, 0.5, 1.0, 2.0, 4.0):
    w = grazing.w_on_ray_closed(x)
    print("  x=%.1f  w=%+.4f%+.4fj  |w|=%.4f  (1/2)(1+x)^{-1/2}=%.4f"
          % (x, w.real, w.imag, abs(w), 0.5/np.sqrt(1 + x)))

print("\nemerging amplitude |v - w| against the incident beam |v|:")
print("  (the ratio tends to 1/2 as x -> 0+)")
for x in (1e-4, 0.01, 0.1, 0.5, 1.0, 2.0, 4.0):
    v = raybeam.beam_on_ray(x)
    d = grazing.reflected_amplitude(x)
    print("  x=%7.4f  |v|=%.4f  |v-w|=%.4f  ratio=%.4f"
          % (x, abs(v), abs(d), abs(d)/abs(v)))
