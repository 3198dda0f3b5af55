"""Independent SDE reference scheme for the particle noise: the oracle that
the exact noise factor of ``mfeuler.particles.step`` is checked against."""

import numpy as np

from mfeuler.noise import SigmaField


def ito_reference(
    v0: np.ndarray,
    x0: np.ndarray,
    sigma: SigmaField,
    path_increments: np.ndarray,
    dt: float,
    period: float,
    scheme: str = "corrected",
) -> np.ndarray:
    """Integrate the force-free Ito form dV_q = 1/2 sigma_q(X)^2 V_q dt + sigma_q(X) V_q dB_q.

    ``path_increments`` has shape (steps, n, dim): row n of every step drives
    particle n of ``v0`` and ``x0``, so one call integrates n independent paths.

    ``euler`` is the plain Euler-Maruyama discretization (strong order 1/2 for
    this multiplicative noise); ``corrected`` adds the next Ito-Taylor term
    1/2 sigma^2 V (dB^2 - dt), lifting the pathwise order to 1.  Positions
    advance with dX = V dt; coefficients are evaluated non-anticipatively.
    """
    if scheme not in ("euler", "corrected"):
        raise ValueError(f"unknown oracle scheme {scheme!r}")
    v = np.atleast_2d(np.asarray(v0, dtype=float)).copy()
    x = np.atleast_2d(np.asarray(x0, dtype=float)).copy()
    for dB in path_increments:
        sig = sigma.values(x)
        incr = 0.5 * sig**2 * v * dt + sig * v * dB
        if scheme == "corrected":
            incr = incr + 0.5 * sig**2 * v * (dB**2 - dt)
        x = np.mod(x + v * dt, period)
        v = v + incr
    return v
