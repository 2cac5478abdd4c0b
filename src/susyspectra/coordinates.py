"""Changes of variables between the radial, hyperbolic and angular pictures.

Two distinct "t" variables appear and are never aliased: the Morse-side
t_m = r^2/2 = lambda e^-rho and the sech-well-side t_pt = e^-rho.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "rho_from_r",
    "r_from_rho",
    "morse_t_from_rho",
    "rho_from_morse_t",
    "pt_t_from_rho",
    "rho_from_pt_t",
    "chain_30",
    "theta_from_rho",
    "t_phi_from_r_phi",
]


def rho_from_r(lam: float, r):
    """rho = ln(2 lambda / r^2), the level coordinate of the radial picture."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("r must be positive")
    out = np.log(2.0 * lam / (r * r))
    return float(out) if out.ndim == 0 else out


def r_from_rho(lam: float, rho):
    rho = np.asarray(rho, dtype=float)
    out = np.sqrt(2.0 * lam * np.exp(-rho))
    return float(out) if out.ndim == 0 else out


def morse_t_from_rho(lam: float, rho):
    """t_m = r^2/2 = lambda e^-rho."""
    rho = np.asarray(rho, dtype=float)
    out = lam * np.exp(-rho)
    return float(out) if out.ndim == 0 else out


def rho_from_morse_t(lam: float, t):
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("t must be positive")
    out = np.log(lam / t)
    return float(out) if out.ndim == 0 else out


def pt_t_from_rho(rho):
    """t_pt = e^-rho (composition of the sinh/arccot/half-tangent chain)."""
    rho = np.asarray(rho, dtype=float)
    out = np.exp(-rho)
    return float(out) if out.ndim == 0 else out


def rho_from_pt_t(t):
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("t must be positive")
    out = -np.log(t)
    return float(out) if out.ndim == 0 else out


def chain_30(rho):
    """The substitution chain zeta = sinh rho, sigma = arccot zeta in (0, pi),
    t = tan(sigma/2).  The composition collapses to t = e^-rho exactly.

    t is evaluated through the half-angle form (1 - cos sigma)/sin sigma
    written in zeta, which is the same function as tan(sigma/2) but does not
    lose absolute accuracy where sigma approaches pi and t blows up.
    """
    rho = np.asarray(rho, dtype=float)
    zeta = np.sinh(rho)
    sigma = 0.5 * np.pi - np.arctan(zeta)   # principal arccot, continuous at 0
    root = np.hypot(1.0, zeta)
    # pick the cancellation-free branch of sqrt(1+zeta^2) - zeta
    t = np.where(zeta >= 0, 1.0 / (root + np.abs(zeta)), root + np.abs(zeta))
    if rho.ndim == 0:
        return float(zeta), float(sigma), float(t)
    return zeta, sigma, t


def theta_from_rho(rho):
    """theta = arccos(tanh rho), mapping the line onto (0, pi)."""
    rho = np.asarray(rho, dtype=float)
    out = np.arccos(np.tanh(rho))
    return float(out) if out.ndim == 0 else out


def t_phi_from_r_phi(r, phi):
    """Radial-picture pair (t, Phi) = (r^2/2, 2 phi)."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("r must be positive")
    phi = np.asarray(phi, dtype=float)
    t = 0.5 * r * r
    Phi = 2.0 * phi
    if t.ndim == 0 and Phi.ndim == 0:
        return float(t), float(Phi)
    return t, Phi
