"""Damped 2-D Newton iteration with a caller-supplied exact Jacobian.

The residual callback returns both the system values and a scalar merit;
steps are halved until the merit decreases at a point where the Jacobian
determinant is still positive.  When a step cannot make progress the
iteration asks a caller-supplied fallback, once, for a new seed and
polishes from it; a second stall ends the solve.
"""

from __future__ import annotations

from collections import namedtuple

_MAX_BACKTRACKS = 30  # step halvings tried before a Newton step counts as stalled


RootResult = namedtuple("RootResult", "x y residual iterations restarts converged residual_history")


def newton2d(
    fun,
    seed: tuple[float, float],
    *,
    jac,
    tol: float,
    max_iters: int,
    fallback,
) -> RootResult:
    """Drive fun(x, y) -> (g1, g2, merit) to merit <= tol.

    jac(x, y) -> (dg1/dx, dg1/dy, dg2/dx, dg2/dy) is the exact Jacobian of
    (g1, g2).  Each Newton step is backtracked (halved up to _MAX_BACKTRACKS
    times) until the merit drops at a point with a positive Jacobian
    determinant; points where the system is flat in some direction would
    stall the next step.  At the first stall the search calls fallback(),
    which returns a new (x, y) seed, and polishes from that seed, so a
    solve that never stalls never asks for it; `restarts` is 1 when it
    seeded.  A second stall ends the solve.  Never raises; inspect
    `converged` on the result.  A converged result's point is the last
    one evaluated.
    """
    x, y = seed
    g1, g2, merit = fun(x, y)
    j11, j12, j21, j22 = jac(x, y)
    history = [merit]
    best = (merit, x, y)
    iters = 0
    restarts = 0

    while merit > tol and iters < max_iters:
        stalled = True
        det = j11 * j22 - j12 * j21
        if det > 0.0:
            dx = (-g1 * j22 + g2 * j12) / det
            dy = (-g2 * j11 + g1 * j21) / det
            step = 1.0
            for _ in range(_MAX_BACKTRACKS + 1):
                nx, ny = x + step * dx, y + step * dy
                n1, n2, nm = fun(nx, ny)
                if nm < merit:
                    nj = jac(nx, ny)
                    if nj[0] * nj[3] - nj[1] * nj[2] > 0.0:
                        x, y, g1, g2, merit = nx, ny, n1, n2, nm
                        j11, j12, j21, j22 = nj
                        stalled = False
                        break
                step *= 0.5
        if stalled:
            if restarts:
                break
            x, y = fallback()
            restarts = 1
            g1, g2, merit = fun(x, y)
            j11, j12, j21, j22 = jac(x, y)
        else:
            iters += 1
        history.append(merit)
        if merit < best[0]:
            best = (merit, x, y)

    return RootResult(
        x=best[1],
        y=best[2],
        residual=best[0],
        iterations=iters,
        restarts=restarts,
        converged=best[0] <= tol,
        residual_history=tuple(history),
    )
