"""Rusanov finite-volume fluxes for the hydrodynamic blocks.

Per species the conserved block is W = (n, q) with q a 3-vector, and the
interface flux is centered plus scalar Rusanov viscosity, D = max of the
local viscosity speeds on both sides.  One argument, c2, selects which of
the two schemes' explicit fluxes is meant.

c2 = None is the AP split flux.  The parallel mass flux and the pressure
belong to the implicit n/phi solves, so along axis a

    F0   = e_a . ((I - b b) q)          (perpendicular mass flux)
    F1:4 = q_a q / n                    (convective momentum flux)

and the speed is the spectral radius of its Jacobian (b held fixed),
whose eigenvalues

    u_a (twice)  and  u_a +/- sqrt(u_a * b_a * (b . u)),   u = q / n,

the vectorised radius evaluates directly (the tests check it against a
dense 4x4 eigensolve).

A number c2, the squared isothermal sound speed, is the classical full
flux: F0 = q_a, the pressure c2 * n added on the axis momentum row, and
the speed |u_a| + sqrt(c2).

Layout: there is one.  ``fv_divergence`` takes q as the state stores
it, component planes of shape (3, nx, ny), and b from the
field's planes, and returns four planes, shape (4, nx, ny).  Boundaries
are zero-gradient: a copy ghost cell would make the viscosity term
vanish on the boundary face, so that face carries the adjacent cell's
own flux, and no ghost copy is made.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, dot
from .stencil import MagneticField


def explicit_flux_vector(n: np.ndarray, q: np.ndarray, b: np.ndarray,
                         axis: int, c2: float = None) -> np.ndarray:
    """Per-cell flux rows (n, qx, qy, qz) along one axis, shape (4,) + n.shape;
    q and b are three component planes each."""
    if np.any(n <= 0.0):
        raise FloatingPointError("non-positive density in flux evaluation")
    out = np.empty((4,) + n.shape)
    qa = q[axis]
    for k in range(3):
        np.multiply(qa, q[k], out=out[1 + k])
        out[1 + k] /= n
    if c2 is None:
        np.subtract(qa, b[axis] * dot(b, q), out=out[0])
    else:
        out[0] = qa
        out[1 + axis] += c2 * n
    return out


def _radius_field(n: np.ndarray, q: np.ndarray, b: np.ndarray, axis: int,
                  c2: float = None) -> np.ndarray:
    """Per-cell viscosity speed along one axis; q and b are three
    component planes each."""
    if c2 is not None:
        speed = np.abs(q[axis] / n)
        speed += np.sqrt(c2)
        return speed
    u = [qk / n for qk in q]
    ua = u[axis]
    kappa = ua * b[axis]
    kappa *= dot(b, u)
    # real roots u_a +/- sqrt(kappa) for kappa >= 0, a complex pair of
    # modulus sqrt(u_a^2 - kappa) otherwise; the clamps keep the branch
    # np.where discards free of square roots of negatives
    return np.where(kappa >= 0.0,
                    np.abs(ua) + np.sqrt(np.maximum(kappa, 0.0)),
                    np.sqrt(ua * ua - np.minimum(kappa, 0.0)))


def fv_divergence(n: np.ndarray, q: np.ndarray, field: MagneticField,
                  grid: Grid, c2: float = None) -> np.ndarray:
    """Per-cell FV divergence planes (mass row, 3 momentum rows), shape
    (4,) + n.shape, of the AP split flux (c2 None) or the classical full
    flux (c2 a number); q is given as its component planes, shape (3,) +
    n.shape.

    Boundary faces carry the adjacent cell's flux with no viscosity, as
    copy ghost cells would.
    """
    if np.any(n <= 0.0) or not all(np.all(np.isfinite(v)) for v in (n, *q)):
        raise FloatingPointError("invalid state in FV divergence")
    b = field.b_cell_planes
    W = (n, q[0], q[1], q[2])
    div = np.zeros((4,) + grid.shape_cells)
    for a in range(2):
        f = explicit_flux_vector(n, q, b, a, c2)
        rad = _radius_field(n, q, b, a, c2)
        lo, hi, inner, first, last = ((slice(None),) * a + (s,) for s in (
            slice(0, -1), slice(1, None), slice(1, -1), slice(0, 1),
            slice(-1, None)))
        half_D = np.maximum(rad[lo], rad[hi])
        half_D *= 0.5
        faces = list(grid.shape_cells)
        faces[a] += 1
        F = np.empty(faces)
        for k in range(4):
            centered = f[k][lo] + f[k][hi]
            centered *= 0.5
            jump = W[k][hi] - W[k][lo]
            jump *= half_D
            np.subtract(centered, jump, out=F[inner])
            F[first] = f[k][first]
            F[last] = f[k][last]
            dF = F[hi] - F[lo]
            dF /= grid.spacing[a]
            div[k] += dF
    return div
