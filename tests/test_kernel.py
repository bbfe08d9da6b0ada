"""The angle and classification kernel against a plain reference.

The reference is the looped form of the kernel: one angle per iteration
of a loop over the vertices, and the criterion margin taken by a helper
of its own from the tangents of the two angles after the widest.  The
package's unrolled kernel must give the same bits on every case here,
including the sign of a zero margin.
"""

import math
import random
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tripart import problem
from tripart.geometry import CLASSIFY_TOL, _classify_angles, _triangle_angles
from tripart.problem import _apex, _tan_deg, sweep_rows

ACUTE, RIGHT = "acute", "right"
INTERIOR, BOUNDARY, EXTERIOR = "obtuse-interior", "obtuse-boundary", "obtuse-exterior"


def ref_angles(pts):
    out = []
    for i in range(3):
        (px, py), (qx, qy), (rx, ry) = pts[i], pts[(i + 1) % 3], pts[(i + 2) % 3]
        ux, uy, wx, wy = qx - px, qy - py, rx - px, ry - py
        out.append(math.atan2(abs(ux * wy - uy * wx), ux * wx + uy * wy))
    return tuple(out)


def ref_widest(angles):
    a0, a1, a2 = angles
    if a0 >= a1:
        return 0 if a0 >= a2 else 2
    return 1 if a1 >= a2 else 2


def ref_margin(ta, tb):
    lhs = math.sqrt((1.0 + ta * ta) * tb) + math.sqrt((1.0 + tb * tb) * ta)
    return lhs - math.sqrt(3.0 * (ta + tb))


def ref_classify(angles):
    i = ref_widest(angles)
    widest = angles[i]
    if widest <= 0.5 * math.pi + CLASSIFY_TOL:
        kind = RIGHT if abs(widest - 0.5 * math.pi) <= CLASSIFY_TOL else ACUTE
        return kind, i, None
    margin = ref_margin(math.tan(angles[(i + 1) % 3]), math.tan(angles[(i + 2) % 3]))
    if margin > CLASSIFY_TOL:
        kind = INTERIOR
    elif margin < -CLASSIFY_TOL:
        kind = EXTERIOR
    else:
        kind = BOUNDARY
    return kind, i, margin


def bits(value):
    """A comparable form that tells 0.0 from -0.0 and keeps NaN equal to itself."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return value


def assert_same_angles(pts):
    assert bits(_triangle_angles(pts)) == bits(ref_angles(pts)), pts


def assert_same_class(angles):
    assert bits(_classify_angles(angles)) == bits(ref_classify(angles)), angles


def test_random_triangles_both_orientations_translated_and_scaled():
    rng = random.Random(20061)
    seen = set()
    for _ in range(400):
        pts = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(3)]
        for scale in (1.0, 1e-100, 1e100):
            for shift in (0.0, 1e-3, 1.0, 1e3, 1e8):
                moved = [(scale * x + shift, scale * y - shift) for x, y in pts]
                for tri in (moved, moved[::-1]):
                    assert_same_angles(tri)
                    angles = ref_angles(tri)
                    assert_same_class(angles)
                    seen.add(ref_classify(angles)[0])
    assert {ACUTE, INTERIOR, EXTERIOR} <= seen


@pytest.mark.parametrize("n", range(2, 61))
def test_every_sweep_grid_row(n):
    degs = [180.0 * k / n for k in range(n)]
    tans = [_tan_deg(d) for d in degs]
    for i in range(1, n):
        for j in range(1, n - i):
            pts = ((0.0, 0.0), (1.0, 0.0), _apex(degs[i], degs[j], tans[i], tans[j]))
            assert_same_angles(pts)
            assert_same_class(ref_angles(pts))


def sweep_tangents(ta, tbs, widest):
    """The tangent pairs the sweep's `_obtuse_cells` hands `_obtuse_kind`
    for the cells with base angle tangents ta and each tb of tbs."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problem, "_obtuse_kind", lambda t1, t2: seen.append((t1, t2)) or (INTERIOR, 1.0))
        problem._obtuse_cells(ta, tbs, widest)
    return seen


def kernel_tangents(ta, tb, widest):
    """The tangents of the two `_triangle_angles` after the widest, at the
    apex (0,0), (1,0), (x, y) of _apex's general branch."""
    s = ta + tb
    angles = _triangle_angles(((0.0, 0.0), (1.0, 0.0), (tb / s, ta * tb / s)))
    return math.tan(angles[(widest + 1) % 3]), math.tan(angles[(widest + 2) % 3])


def assert_sweep_angles_are_the_triangle_angles(ta, tbs, widest):
    want = [bits(kernel_tangents(ta, tb, widest)) for tb in tbs]
    assert [bits(t) for t in sweep_tangents(ta, tbs, widest)] == want, (ta, tbs, widest)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _usable_apex(ta, tb):
    """Whether ta and tb give a finite apex off the base line."""
    s = ta + tb
    return s != 0.0 and math.isfinite(tb / s) and math.isfinite(ta * tb / s) and ta * tb / s != 0.0


@settings(max_examples=3000, deadline=None)
@given(st.sampled_from([0, 1, 2]), FINITE, FINITE)
def test_base_angles_are_the_triangle_angles(widest, ta, tb):
    """The sweep computes only the two angles after the widest, each with
    `_triangle_angles`'s expression less its products with an exact 1.0 or
    0.0; the bits must be the same at any apex off the base line, for each
    position of the widest angle."""
    assume(_usable_apex(ta, tb))
    assert_sweep_angles_are_the_triangle_angles(ta, [tb], widest)


@pytest.mark.parametrize("ta", [1.0, -1.0, 0.5, 1e-300, 5e-324, -3.0, 1e300])
def test_base_angles_at_right_base_angles_and_past_the_base(ta):
    """Cells with the base angle tangent ta at a and tangents at b next to
    a right angle (the largest) or past either end of the base (a negative
    one, obtuse at a or b): where a dropped 0.0 or 1.0 product could
    matter, at every scale the apex stays finite and off the base line."""
    tbs = (1.0, -1.0, 0.5, -0.5, 2.0**-52, -(2.0**-52), 1e-9, -1e-9, 3.0, -3.0, 1e9, -1e9, 1e300, -1e300)
    tbs = [tb for tb in tbs if _usable_apex(ta, tb)]
    assert len(tbs) >= 4, ta
    for widest in (0, 1, 2):
        assert_sweep_angles_are_the_triangle_angles(ta, tbs, widest)


@pytest.mark.parametrize("n", [*range(2, 61), 400])
def test_base_angles_on_every_sweep_grid_apex(n):
    """Each obtuse cell of the sweep grid takes the tangents of the two
    `_triangle_angles` after its widest angle, bit for bit."""
    tans = [_tan_deg(180.0 * k / n) for k in range(n)]
    for i in range(1, n - 1):
        for j in range(1, n - i):
            for widest in [w for w, k in enumerate((i, j, n - i - j)) if 2 * k > n]:
                assert_sweep_angles_are_the_triangle_angles(tans[i], [tans[j]], widest)


@pytest.mark.parametrize("ns", [range(2, 151), range(997, 1001)], ids=["2-150", "997-1000"])
def test_sweep_rows_are_the_kernel_classification(ns):
    """sweep_rows decides acute and right cells from their grid indices and
    takes trigonometry only for obtuse ones; each row's kind and margin
    must still be those of the kernel on the cell's apex, the margin bit
    for bit.  The rows are compared one base angle at a time."""
    for n in ns:
        degs = [180.0 * k / n for k in range(n)]
        tans = [_tan_deg(d) for d in degs]
        rows = sweep_rows(n)
        for i in range(1, n - 1):
            a, ta = degs[i], tans[i]
            want = [
                (kind, m if m is None else m.hex())
                for j in range(1, n - i)
                for apex in [_apex(a, degs[j], ta, tans[j])]
                for kind, _, m in [_classify_angles(_triangle_angles(((0.0, 0.0), (1.0, 0.0), apex)))]
            ]
            got = [(kind, m if m is None else m.hex()) for _, _, kind, m in islice(rows, n - i - 1)]
            assert got == want, (n, i)
        assert next(rows, None) is None, n


def _around(x):
    """x and its neighbours one ulp away."""
    return (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))


def test_widest_angle_at_the_right_angle_band_edges():
    kinds = set()
    for centre in (0.5 * math.pi - CLASSIFY_TOL, 0.5 * math.pi, 0.5 * math.pi + CLASSIFY_TOL):
        for widest in _around(centre):
            rest = math.pi - widest
            for other in (0.5 * rest, 0.3 * rest):
                for angles in ((widest, other, rest - other), (other, widest, rest - other), (other, rest - other, widest)):
                    assert_same_class(angles)
                    kinds.add(ref_classify(angles)[0])
    assert {ACUTE, RIGHT, INTERIOR} <= kinds


def _bisect_to_margin(a, target):
    """Base angle b (radians) whose criterion margin with the base angle a
    is target to rounding, by bisection on b: the margin runs from
    negative (b -> 0) to positive (a + b -> pi / 2)."""
    lo, hi = 1e-9, 0.5 * math.pi - a - 1e-9
    ta = math.tan(a)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if ref_margin(ta, math.tan(mid)) < target:
            lo = mid
        else:
            hi = mid


def test_margins_at_zero_and_at_the_boundary_band_edges():
    rng = random.Random(20062)
    kinds, zeros = set(), 0
    for _ in range(60):
        a = rng.uniform(math.radians(5.0), math.radians(60.0))
        for target in (0.0, CLASSIFY_TOL, -CLASSIFY_TOL):
            for b in _around(_bisect_to_margin(a, target)):
                angles = (math.pi - a - b, a, b)
                assert_same_class(angles)
                kind, _, margin = ref_classify(angles)
                kinds.add(kind)
                zeros += margin == 0.0
                ta, tb = math.tan(a), math.tan(b)
                pts = ((0.0, 0.0), (1.0, 0.0), (tb / (ta + tb), ta * tb / (ta + tb)))
                assert_same_angles(pts)
                assert_same_class(ref_angles(pts))
    assert {INTERIOR, BOUNDARY, EXTERIOR} <= kinds
    assert zeros > 0


def test_exact_ties_for_the_widest_angle():
    third = math.pi / 3
    for angles in (
        (third, third, third),
        (0.25 * math.pi, 0.5 * math.pi, 0.5 * math.pi),
        (0.5 * math.pi, 0.25 * math.pi, 0.5 * math.pi),
        (0.4 * math.pi, 0.4 * math.pi, 0.2 * math.pi),
        (0.2 * math.pi, 0.4 * math.pi, 0.4 * math.pi),
        (0.6 * math.pi, 0.2 * math.pi, 0.2 * math.pi),
        (0.2 * math.pi, 0.2 * math.pi, 0.6 * math.pi),
        (1.0, 1.0, 1.0),
    ):
        assert_same_class(angles)
    # equilateral and isosceles triangles in both orientations
    for pts in (((0.0, 0.0), (2.0, 0.0), (1.0, math.sqrt(3.0))), ((0.0, 0.0), (2.0, 0.0), (1.0, 0.25))):
        for tri in (pts, pts[::-1], pts[1:] + pts[:1]):
            assert_same_angles(tri)
            assert_same_class(ref_angles(tri))
