"""Closed-form large-N spectral predictions for the signature metric.

For B = diag(+1...+1, -1...-1) with a fraction ``lam`` of plus-ones the
large-N spectrum of phi = A*B consists of

* real eigenvalues with density ``rho_real`` on the band
  [-band_edge, band_edge], carrying total mass |1-2 lam|, and
* complex-conjugate pairs filling two mirror-image blobs with the
  uniform density m^2/pi; each blob is bounded by the two polar arcs
  ``boundary_radii`` and the blob fraction is nu = 1 - |1-2 lam|.

The averaged resolvent G(w) is algebraic: in the region free of
complex eigenvalues it is G = lam/(b + w) - (1 - lam)/(b - w), built
from one root b(w) of the cubic

    m^2 b^3 + (1 - m^2 w^2) b + w (1 - 2 lam) = 0,

the branch continuous with the large-|w| asymptote b ~ (1-2 lam)/(m^2 w);
inside the blobs it takes the non-holomorphic value m^2 conj(w), which
the branch meets on the blob boundary (Janik, Nowak, Papp and Zahed,
Nucl. Phys. B 501, 1997).

``holomorphic_b`` picks that root from the three by a rule, with no
continuation: keep the roots whose G = (1 + m^2 b^2)/w (true at every
root) has Im G * Im w <= 0, the sign of a resolvent off the real axis,
and of those take the one with the largest Re b * sgn(Re w) * sgn(1 - 2 lam).
The rule is evaluated at -conj w for Re w < 0, by the symmetry
b(-conj w) = -conj b(w), which makes b imaginary on Re w = 0.  On and
next to that line Re b is rounding, so the roots rank as in the limit
Re w -> 0+, by d Re b / d Re w.  The domain is w outside the blobs and
off the real axis: on the axis the sign test is vacuous, so band values
are side limits at +-i eps.  The closed-form leg shares no code with the
gap solver, whose signature results it checks.
"""

from __future__ import annotations

import numpy as np

CDF_GRID = 20001              # points of the real-band CDF's trapezoidal sum
# |Im w| at or below AXIS_TOL (|w| + 1/m) counts as on the real axis, where
# the roots' rounding decides the sign of Im G, and |Re w| as on the line
# Re w = 0, where it decides the order of Re b
AXIS_TOL = 1e-12


def _check(lam: float, m: float):
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must be in [0, 1], got {lam}")
    if not m > 0:
        raise ValueError(f"m must be positive, got {m}")


def sin_theta0(lam: float) -> float:
    """Sine of the half-opening angle of the eigenvalue-free cone."""
    return abs(2.0 * lam - 1.0)


def band_edge(lam: float, m: float = 1.0) -> float:
    """Endpoint x0 > 0 of the real-eigenvalue band [-x0, x0].

    Reduces to the semicircle edge 2/m at lam = 0 or 1 and to 1/m at
    lam = 1/2; in between it is the point where the cubic discriminant
    changes sign on the real axis.
    """
    _check(lam, m)
    s = 2.0 * np.sqrt(lam * (1.0 - lam))
    inner = 3.0 * abs(1.0 - 2.0 * lam) ** (2.0 / 3.0) * (
        (1.0 - s) ** (1.0 / 3.0) + (1.0 + s) ** (1.0 / 3.0)
    ) + 2.0
    return float(np.sqrt(inner / (2.0 * m * m)))


def rho_real(x, lam: float, m: float = 1.0):
    """Density of real eigenvalues on the band, 0 outside and at lam=1/2.

    The central value is m|1-2 lam|/pi; the closed form has a 0/0 at
    x = 0 which is replaced by its analytic limit for |m x| < 1e-7.
    Integrates to |1-2 lam| over the band.
    """
    _check(lam, m)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.zeros_like(x)
    if lam != 0.5:
        x0 = band_edge(lam, m)
        inside = np.abs(x) < x0
        small = inside & (np.abs(m * x) < 1e-7)
        gen = inside & ~small
        if np.any(gen):
            xg = x[gen]
            xi = -27.0 * m**4 * (1.0 - 2.0 * lam) * xg
            delta = xi * xi + 108.0 * m**6 * (1.0 - m * m * xg * xg) ** 3
            root = np.sqrt(delta)   # delta > 0 inside the band
            num = np.abs(xi - root) ** (2.0 / 3.0) - np.abs(xi + root) ** (2.0 / 3.0)
            out[gen] = np.sign(1.0 - 2.0 * lam) * num / (
                np.sqrt(3.0) * 2.0 ** (2.0 / 3.0) * 6.0 * np.pi * m * m * xg
            )
        out[small] = m * abs(1.0 - 2.0 * lam) / np.pi
    return float(out[0]) if scalar else out


def boundary_radii(theta: float, lam: float, m: float = 1.0):
    """Inner and outer radius (r_minus, r_plus) of the blob boundary.

    Defined for directions with sin^2 theta >= sin^2 theta0; returns
    None elsewhere (the ray misses the blobs).  The two arcs join at
    equality, where both radii equal 1/(sqrt(2) m).
    """
    _check(lam, m)
    s0 = sin_theta0(lam)
    st2 = np.sin(theta) ** 2
    if st2 < s0 * s0 or st2 == 0.0:
        return None
    disc = np.sqrt(max(1.0 - (s0 * s0) / st2, 0.0))
    r_minus = np.sqrt((1.0 - disc) / 2.0) / m
    r_plus = np.sqrt((1.0 + disc) / 2.0) / m
    return float(r_minus), float(r_plus)


def boundary_table(lam: float, m: float, num: int):
    """Polar table (theta, r_minus, r_plus) of the upper blob boundary.

    ``num`` directions from 1e-9 past the low sewing corner to 1e-9 short
    of the high one, each through ``boundary_radii``.  Empty arrays for
    lam in {0, 1}, where ``boundary_curve`` is empty (no blobs).
    """
    _check(lam, m)
    if lam in (0.0, 1.0):
        return np.empty(0), np.empty(0), np.empty(0)
    th0 = np.arcsin(sin_theta0(lam))
    thetas = np.linspace(th0 + 1e-9, np.pi - th0 - 1e-9, num)
    r_minus, r_plus = np.array([boundary_radii(t, lam, m) for t in thetas]).T
    return thetas, r_minus, r_plus


def alpha_sq(w, lam: float, m: float = 1.0):
    """Order parameter alpha^2 and the auxiliary beta at w, a point or an array.

    alpha^2 > 0 exactly when w lies inside a blob; beta is the
    imaginary part of b there.  Undefined on the real axis unless
    lam = 1/2 (beta has a simple pole in y).
    """
    _check(lam, m)
    w = np.asarray(w, dtype=complex)
    x, y = w.real, w.imag
    if lam != 0.5 and np.any(y == 0.0):
        raise ValueError("alpha_sq is undefined at Im w = 0 for lam != 1/2")
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = np.where(y == 0.0, 0.0, (2.0 * lam - 1.0) / (2.0 * m * m * y))
    a2 = 1.0 / (m * m) - (x * x + y * y + beta * beta)
    return (float(a2), float(beta)) if w.ndim == 0 else (a2, beta)


def in_blobs(w, lam: float, m: float = 1.0):
    """Whether w lies strictly inside the blobs: alpha^2 > 0, off the axis unless lam = 1/2."""
    w = np.asarray(w, dtype=complex)
    off = (w.imag != 0.0) | (lam == 0.5)
    res = np.where(off, alpha_sq(np.where(off, w, 1j), lam, m)[0] > 0.0, False)
    return bool(res) if w.ndim == 0 else res


def blob_area_and_nu(lam: float, m: float = 1.0) -> tuple[float, float]:
    """Total blob area and the complex-eigenvalue fraction nu."""
    _check(lam, m)
    nu = 1.0 - abs(1.0 - 2.0 * lam)
    return nu * np.pi / (m * m), nu


def semicircle_density(x, m: float = 1.0):
    """Semicircle density (m^2/2 pi) sqrt(4/m^2 - x^2) on |x| <= 2/m."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    arg = 4.0 / (m * m) - x * x
    out = np.where(arg > 0, m * m / (2.0 * np.pi) * np.sqrt(np.maximum(arg, 0.0)), 0.0)
    return float(out[0]) if scalar else out


def semicircle_cdf(x, m: float = 1.0):
    """Closed-form CDF of the semicircle law."""
    x = np.clip(np.asarray(x, dtype=float), -2.0 / m, 2.0 / m)
    return 0.5 + m * m / (4.0 * np.pi) * x * np.sqrt(4.0 / (m * m) - x * x) \
        + np.arcsin(m * x / 2.0) / np.pi


def gue_green(w, m: float = 1.0):
    """Resolvent of the hermitian reference ensemble (lam in {0,1}).

    G(w) = (m^2/2)(w - sqrt(w^2 - 4/m^2)), branch fixed by G ~ 1/w at
    infinity; implemented as sqrt(w-2/m)*sqrt(w+2/m) with principal
    square roots so the only cut is the eigenvalue band itself.
    """
    w = np.asarray(w, dtype=complex)
    root = np.sqrt(w - 2.0 / m) * np.sqrt(w + 2.0 / m)
    return m * m / 2.0 * (w - root)


# ---------------------------------------------------------------------------
# holomorphic branch of the cubic
# ---------------------------------------------------------------------------

def holomorphic_b(w, lam: float, m: float = 1.0):
    """Branch b(w) of the cubic continuous with the large-|w| asymptote.

    The three roots come from one ``eigvals`` call on a stack of 3x3
    companion matrices; the rule of the module docstring picks one.  Valid
    for w outside the blobs with |Im w| > AXIS_TOL (|w| + 1/m); reach the
    band through explicit +-i eps side limits.  For lam = 1/2 the traceless
    metric forces b = 0 identically outside the disk.
    """
    _check(lam, m)
    w = np.asarray(w, dtype=complex)
    scalar = w.ndim == 0
    w = np.atleast_1d(w).ravel()
    if lam == 0.5:
        out = np.zeros_like(w)
        return complex(out[0]) if scalar else out
    if np.any(in_blobs(w, lam, m)):
        raise ValueError("holomorphic branch requested inside the blobs")
    if np.any(np.abs(w.imag) <= AXIS_TOL * (np.abs(w) + 1.0 / m)):
        raise ValueError("holomorphic branch requested on the real axis; use side limits")
    z = np.where(w.real < 0.0, -np.conj(w), w)     # b(-conj w) = -conj b(w)
    m2, tilt = m * m, 1.0 - 2.0 * lam
    companion = np.zeros((len(z), 3, 3), dtype=complex)   # of b^3 + p b + q
    companion[:, 0, 1], companion[:, 0, 2] = (m2 * z * z - 1.0) / m2, -tilt * z / m2
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    roots = np.linalg.eigvals(companion)
    zc = z[:, None]
    # G by w G = 1 + m^2 b^2 (every root): the pole form loses its sign at large |w|
    g = (1.0 + m2 * roots * roots) / zc
    with np.errstate(divide="ignore", invalid="ignore"):
        # next to Re w = 0, where Re b is rounding, the roots rank as Re w -> 0+
        # does, by d Re b / d Re w
        slope = ((2.0 * m2 * zc * roots - tilt) / (3.0 * m2 * roots * roots + 1.0 - m2 * zc * zc)).real
    line = zc.real <= AXIS_TOL * (np.abs(zc) + 1.0 / m)
    key = np.where(line, slope, roots.real) * np.sign(tilt)
    pick = np.argmax(np.where(g.imag * zc.imag <= 0.0, key, -np.inf), axis=1)
    b = roots[np.arange(len(z)), pick]
    b = np.where(z.real > 0.0, b, 1j * b.imag)
    b = np.where(w.real < 0.0, -np.conj(b), b)
    return complex(b[0]) if scalar else b


def green_holomorphic(w, lam: float, m: float = 1.0):
    """Resolvent G(w) outside the blobs, G = lam/(b+w) - (1-lam)/(b-w).

    Satisfies w G = 1 + m^2 b^2 and G ~ 1/w at infinity; for lam = 1/2
    it is exactly 1/w outside the disk.
    """
    w = np.asarray(w, dtype=complex)
    scalar = w.ndim == 0
    wv = np.atleast_1d(w).ravel()
    b = np.atleast_1d(holomorphic_b(wv, lam, m))
    g = lam / (b + wv) - (1.0 - lam) / (b - wv)
    return complex(g[0]) if scalar else g.reshape(w.shape)


def real_band_cdf(lam: float, m: float = 1.0):
    """CDF of the real-eigenvalue density conditioned on being real.

    Returns a callable F with F(-x0) = 0 and F(x0) = 1, built by
    trapezoidal accumulation of ``rho_real`` on CDF_GRID points.  Undefined
    at lam = 1/2 where the density vanishes identically.
    """
    _check(lam, m)
    if lam == 0.5:
        raise ValueError("real density is identically zero at lam = 1/2")
    x0 = band_edge(lam, m)
    xs = np.linspace(-x0, x0, CDF_GRID)
    rho = rho_real(xs, lam, m)
    cum = np.concatenate([[0.0], np.cumsum((rho[1:] + rho[:-1]) / 2.0 * np.diff(xs))])
    cum /= cum[-1]

    def cdf(x):
        return np.interp(np.asarray(x, dtype=float), xs, cum, left=0.0, right=1.0)

    return cdf


def boundary_curve(lam: float, m: float = 1.0, num: int = 721) -> np.ndarray:
    """Closed polyline tracing the upper blob boundary, as complex points.

    Runs along the outer arc from the low-angle sewing corner to the
    high-angle one and back along the inner arc.  Empty for lam in
    {0, 1} (no blobs).
    """
    _check(lam, m)
    if lam in (0.0, 1.0):
        return np.empty(0, dtype=complex)
    s0 = sin_theta0(lam)
    th0 = np.arcsin(s0)
    thetas = np.linspace(th0, np.pi - th0, num)
    if s0 == 0.0:
        return (np.exp(1j * thetas) / m).astype(complex)
    with np.errstate(invalid="ignore"):
        disc = np.sqrt(np.maximum(1.0 - (s0 / np.sin(thetas)) ** 2, 0.0))
    r_plus = np.sqrt((1.0 + disc) / 2.0) / m
    r_minus = np.sqrt((1.0 - disc) / 2.0) / m
    outer = r_plus * np.exp(1j * thetas)
    inner = (r_minus * np.exp(1j * thetas))[::-1]
    return np.concatenate([outer, inner])
