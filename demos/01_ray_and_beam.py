#!/usr/bin/env python3
"""Walk the central ray and its Gaussian beam.

The model wave operator (1+x) d_tt - d_xx - d_yy has a null ray tangent to
the boundary x = 0 at the origin: x(y) = y^2/4, t(y) = y + y^3/12.  This
script tabulates the ray, checks that the symbol vanishes along it, and
evaluates the beam frame (matrix M, determinant D, amplitude a) and the
beam field at a few stations.
"""

import numpy as np

from grazebeam import raybeam

print("central ray (y, x, t, xi, eta, tau, symbol/2):")
for y in np.linspace(-2.0, 2.0, 9):
    p = raybeam.central_ray(y)
    print("  y=%+5.2f  x=%7.4f  t=%+8.4f  xi=%+5.2f  H=%+.1e"
          % (p.y, p.x, p.t, p.xi, raybeam.hamiltonian(p)))

print("\nbeam frame along the ray:")
for y in (0.0, 1.0, 2.0):
    D, M, a = raybeam.closed_frame(y)
    eig = np.linalg.eigvalsh(M.imag).min()
    print("  y=%.1f  D=%.4f%+.4fj  a=%.4f%+.4fj  min eig Im M=%.3f"
          % (y, D.real, D.imag, a.real, a.imag, eig))

print("\nbeam field on and off the ray (k = 200):")
k = 200.0
for y in (0.0, 1.0, 2.0):
    p = raybeam.central_ray(y)
    on = raybeam.beam_field(p.x, y, p.t, k)
    off = raybeam.beam_field(p.x + 0.15, y, p.t, k)
    print("  y=%.1f  |v(on)|=%.4f  |v(x+0.15)|=%.2e  (Gaussian decay)"
          % (y, abs(on), abs(off)))

print("\non-ray closed form |v| = |1 + 4x + 2i x^{3/2}|^{-1/2}:")
for x in (0.25, 1.0, 4.0):
    print("  x=%.2f  |v| = %.6f" % (x, abs(raybeam.beam_on_ray(x))))
