"""Powell's direction-set minimiser with a floor under the line tolerance.

``scipy.optimize.minimize(method="Powell")`` stops a line search at Brent's
``tol1 = 0.1 * |alpha| + 1e-11`` -- relative to the step, so on an aligned
scan (``alpha`` near 0) each search spends ~19 evaluations polishing a
translation to 1e-5 mm on 3 mm voxels. This module walks the same path --
scipy's unbounded outer loop, the public :func:`scipy.optimize.bracket`
from (0, 1), Brent's golden/parabolic loop -- with :data:`LINE_TOL_FLOOR`
for the ``1e-11``, and hands each line search the f(0) it already knows
(scipy evaluates it again). With the floor at ``1e-11`` it reproduces
scipy's trajectory bit for bit; the tests hold it to that.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
from scipy.optimize import bracket

#: Absolute term of a line search's tolerance, in line-parameter units:
#: 0.4 µm along a translation axis, 4e-4 rad (0.024 mm at a 60 mm head
#: radius) along a rotation axis. Rotations of 1e-4..8e-4 rad are what an
#: aligned scan's optimum holds; a floor above them cannot resolve any.
LINE_TOL_FLOOR = 4e-4

_LINE_TOL_REL = 0.1  # scipy's line tolerance at xtol=1e-3 (it passes xtol * 100)
_GOLDEN = 0.3819660
_BRENT_MAX_ITER = 500


def _brent(line: Callable[[float], float], xa, xb, xc, fb) -> tuple[float, float]:
    """Minimum of ``line`` inside the bracket ``xa, xb, xc``; ``fb = line(xb)``.

    scipy's ``Brent.optimize`` step for step, but for the floor in ``tol1``.
    """
    x = w = v = xb
    fw = fv = fx = fb
    a, b = (xa, xc) if xa < xc else (xc, xa)
    deltax = rat = 0.0
    for _ in range(_BRENT_MAX_ITER):
        tol1 = _LINE_TOL_REL * abs(x) + LINE_TOL_FLOOR
        tol2 = 2.0 * tol1
        xmid = 0.5 * (a + b)
        if abs(x - xmid) < tol2 - 0.5 * (b - a):
            break
        golden = abs(deltax) <= tol1
        if not golden:
            tmp1 = (x - w) * (fx - fv)
            tmp2 = (x - v) * (fx - fw)
            p = (x - v) * tmp2 - (x - w) * tmp1
            tmp2 = 2.0 * (tmp2 - tmp1)
            if tmp2 > 0.0:
                p = -p
            tmp2 = abs(tmp2)
            dx_temp, deltax = deltax, rat
            # The parabolic step, if it lands inside (a, b) and moves less
            # than half the step before last.
            inside = tmp2 * (a - x) < p < tmp2 * (b - x)
            if inside and abs(p) < abs(0.5 * tmp2 * dx_temp):
                rat = p / tmp2
                u = x + rat
                if (u - a) < tol2 or (b - u) < tol2:
                    rat = tol1 if xmid - x >= 0 else -tol1
            else:
                golden = True
        if golden:
            deltax = a - x if x >= xmid else b - x
            rat = _GOLDEN * deltax
        if abs(rat) < tol1:  # move by at least tol1
            u = x + tol1 if rat >= 0 else x - tol1
        else:
            u = x + rat
        fu = line(u)
        if fu > fx:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w, fv, fw = w, u, fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        else:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
    return x, fx


def _line_search(func, p: np.ndarray, xi: np.ndarray, f0: float):
    """Minimise ``func(p + alpha * xi)`` over ``alpha``, given ``f0 = func(p)``.

    Returns the minimum, its point and the step taken to it.
    """
    if not np.any(xi):
        return f0, p, xi

    def line(alpha: float) -> float:
        return f0 if alpha == 0.0 else func(p + alpha * xi)

    try:
        xa, xb, xc, _, fb, _, _ = bracket(line, 0.0, 1.0)
    except RuntimeError as err:
        # scipy's BracketError (a private name) carries the three points it
        # stopped at; like ``minimize_scalar`` take the best of them. A
        # staircase cost that is level at 0, 1 and 2.618 ends here, at 0.
        data = getattr(err, "data", None)
        if data is None:
            raise
        if np.isnan(data[:6]).any():
            alpha = fmin = np.nan
        else:
            best = int(np.argmin(data[3:6]))
            alpha, fmin = data[best], data[3 + best]
    else:
        alpha, fmin = _brent(line, xa, xb, xc, fb)
    xi = alpha * xi
    return fmin, p + xi, xi


def minimize_powell(
    func: Callable[[np.ndarray], float], x0: np.ndarray, max_iter: int, ftol: float
) -> tuple[np.ndarray, float]:
    """Minimise ``func`` from ``x0`` along a direction set; returns ``(x, func(x))``.

    scipy's unbounded ``_minimize_powell`` in behaviour: coordinate
    directions in order, stop when an iteration improves ``func`` by less
    than the relative ``ftol`` or after ``max_iter`` iterations (at least
    one runs), otherwise try the extrapolated point and replace the
    direction of largest decrease by the iteration's net step.
    """
    x = np.asarray(x0, dtype=float).flatten()
    direc = np.eye(len(x))
    fval = func(x)
    x1 = x.copy()
    iteration = 0
    while True:
        fx = fval
        bigind, delta = 0, 0.0
        for i, direction in enumerate(direc):
            fx2 = fval
            fval, x, _ = _line_search(func, x, direction, fval)
            if fx2 - fval > delta:
                delta, bigind = fx2 - fval, i
        iteration += 1
        if 2.0 * (fx - fval) <= ftol * (abs(fx) + abs(fval)) + 1e-20:
            break
        if iteration >= max_iter or (np.isnan(fx) and np.isnan(fval)):
            break
        direc1 = x - x1
        x1 = x.copy()
        fx2 = func(x + direc1)
        if fx > fx2:
            t = 2.0 * (fx + fx2 - 2.0 * fval)
            temp = fx - fval - delta
            t *= temp * temp
            temp = fx - fx2
            t -= delta * temp * temp
            if t < 0.0:
                fval, x, direc1 = _line_search(func, x, direc1, fval)
                if np.any(direc1):
                    direc[bigind] = direc[-1]
                    direc[-1] = direc1
    return x, fval
