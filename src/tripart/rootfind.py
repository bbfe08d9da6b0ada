"""Damped 2-D Newton iteration with a caller-supplied exact Jacobian.

The residual callback returns both the system values and a scalar merit;
steps are halved until the merit decreases at a point where the Jacobian
determinant is still positive.  When a step cannot make progress the
iteration reseeds itself from refined candidates of a coarse grid search
over a box that a caller-supplied callable returns at the first stall.
Several well-separated candidates are kept because the merit landscape
can be flat far from the basin, which silently kills a single restart.

The refine scans and the backtracking evaluate through `bounded(x, y,
bound)`: `fun(x, y)`, or (nan, nan, m) with bound <= m <= merit once one
residual component alone reaches `bound`.  Both keep a point only if its
merit is strictly below the bound, which a stopped point fails in full
too, so every pick, and so every result, is that of `fun` alone.
"""

from __future__ import annotations

import math
from collections import namedtuple

_COARSE_N = 21
_REFINE_N = 9
_REFINE_LEVELS = 3
_RESTART_SEEDS = 4
_CROSS_SEEDS = 32
_MAX_BACKTRACKS = 30  # step halvings tried before a Newton step counts as stalled


RootResult = namedtuple("RootResult", "x y residual iterations restarts converged residual_history")


def _grid_best(bounded, x_lo, x_hi, y_lo, y_hi, n, bound):
    """The lowest-merit node of an n x n grid, exact when its merit is below `bound`."""
    best, bx, by = math.inf, 0.5 * (x_lo + x_hi), 0.5 * (y_lo + y_hi)
    lim = min(best, bound)
    ys = [y_lo + (y_hi - y_lo) * j / (n - 1) for j in range(n)]
    for i in range(n):
        x = x_lo + (x_hi - x_lo) * i / (n - 1)
        for y in ys:
            r = bounded(x, y, lim)[2]
            if r < best:
                best, bx, by = r, x, y
                lim = min(best, bound)
    return best, bx, by


def _refine(bounded, start, wx, wy):
    """Shrinking local scans around the incumbent cell."""
    best = start
    for _ in range(_REFINE_LEVELS):
        m, cx, cy = best
        cand = _grid_best(bounded, cx - wx, cx + wx, cy - wy, cy + wy, _REFINE_N, m)
        if cand[0] < best[0]:
            best = cand
        wx *= 2.0 / (_REFINE_N - 1)
        wy *= 2.0 / (_REFINE_N - 1)
    return best


def _restart_seeds(fun, bounded, box):
    """Candidate restart points from one coarse scan of the box.

    Two families of grid cells are kept: cells whose corners change the
    sign of both residual components, and the lowest-merit cells.  The
    first family matters when the root's merit dip is narrower than a
    cell: the scan cannot see the dip, but the containing cell is still
    flagged because the zero curves of the system cross inside it.  Every
    flagged cell is kept (the curves can run close together over a long
    chain of cells, and any of them may hold the root), while the merit
    family is held at least two cells apart so it explores distinct
    basins.  All picks are polished by local refinement and returned
    sorted by refined merit.
    """
    x_lo, x_hi, y_lo, y_hi = box
    n = _COARSE_N

    def node(i, j):
        return (
            x_lo + (x_hi - x_lo) * i / (n - 1),
            y_lo + (y_hi - y_lo) * j / (n - 1),
        )

    vals = [[None] * n for _ in range(n)]
    merits = []
    for i in range(n):
        for j in range(n):
            vals[i][j] = fun(*node(i, j))
            merits.append((vals[i][j][2], i, j))

    offs = ((0, 0), (1, 0), (0, 1), (1, 1))
    crossings = []
    for i in range(n - 1):
        for j in range(n - 1):
            corner = (vals[i][j], vals[i + 1][j], vals[i][j + 1], vals[i + 1][j + 1])
            s1 = s2 = 0  # corners with g1 > 0 and with g2 > 0
            for g1, g2, m in corner:
                if not math.isfinite(m):
                    break
                s1 += g1 > 0.0
                s2 += g2 > 0.0
            else:
                if 0 < s1 < 4 and 0 < s2 < 4:
                    k = min(range(4), key=lambda k: corner[k][2])
                    crossings.append((corner[k][2], i + offs[k][0], j + offs[k][1]))
    crossings.sort()
    merits.sort()

    picked = []
    seen = set()
    for _, i, j in crossings:
        if (i, j) in seen:
            continue
        seen.add((i, j))
        picked.append((i, j))
        if len(picked) == _CROSS_SEEDS:
            break
    got = 0
    for _, i, j in merits:
        if any(abs(i - pi) <= 2 and abs(j - pj) <= 2 for pi, pj in picked):
            continue
        picked.append((i, j))
        got += 1
        if got == _RESTART_SEEDS:
            break

    wx = (x_hi - x_lo) / (n - 1)
    wy = (y_hi - y_lo) / (n - 1)
    seeds = [
        _refine(bounded, (vals[i][j][2], *node(i, j)), wx, wy) for i, j in picked
    ]
    seeds.sort()
    return seeds


def newton2d(
    fun,
    seed: tuple[float, float],
    *,
    jac,
    tol: float,
    max_iters: int,
    restart_box,
    bounded,
) -> RootResult:
    """Drive fun(x, y) -> (g1, g2, merit) to merit <= tol.

    jac(x, y) -> (dg1/dx, dg1/dy, dg2/dx, dg2/dy) is the exact Jacobian of
    (g1, g2).  Each Newton step is backtracked (halved up to _MAX_BACKTRACKS
    times) until the merit drops at a point with a positive Jacobian
    determinant; points where the system is flat in some direction would
    stall the next step.  On stagnation the search reseeds from the next
    grid candidate inside the box (x_lo, x_hi, y_lo, y_hi) that
    restart_box() returns, called once, at the first stall, so a solve
    that never stalls never asks for it.  Never raises; inspect
    `converged` on the result.

    bounded(x, y, bound) is `fun` that may stop early (see above), asked
    only where a merit >= bound loses a strict `<`: the result, `history`
    included, is that of `fun` everywhere, and a converged result's point
    is the last one evaluated in full.
    """
    x, y = seed
    g1, g2, merit = fun(x, y)
    j11, j12, j21, j22 = jac(x, y)
    history = [merit]
    best = (merit, x, y)
    iters = 0
    restarts = 0
    seeds = None

    while merit > tol and iters < max_iters:
        stalled = True
        det = j11 * j22 - j12 * j21
        if det > 0.0:
            dx = (-g1 * j22 + g2 * j12) / det
            dy = (-g2 * j11 + g1 * j21) / det
            step = 1.0
            for _ in range(_MAX_BACKTRACKS + 1):
                nx, ny = x + step * dx, y + step * dy
                n1, n2, nm = bounded(nx, ny, merit)
                if nm < merit:
                    nj = jac(nx, ny)
                    if nj[0] * nj[3] - nj[1] * nj[2] > 0.0:
                        x, y, g1, g2, merit = nx, ny, n1, n2, nm
                        j11, j12, j21, j22 = nj
                        stalled = False
                        break
                step *= 0.5
        if stalled:
            if seeds is None:
                seeds = _restart_seeds(fun, bounded, restart_box())
            if not seeds:
                break
            _, x, y = seeds.pop(0)
            restarts += 1
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
