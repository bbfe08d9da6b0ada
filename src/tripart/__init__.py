"""Equal-area partition of triangles by perpendiculars through a point,
plus translation-based area partition of convex polygons by a three-ray
fan.  See `tripart.partition.equal_partition` for the main entry point
and the `tripart` command line for file-based use."""

from types import ModuleType as _ModuleType

from .geometry import (
    ConvexPolygon,
    GeometryError,
    Point,
    RegionAreas,
    Triangle,
    min_area_f,
    region_area,
    region_areas,
    region_polygon,
)
from .masspart import (
    MassPartitionError,
    SectorConfig,
    TranslationSolution,
    sector_areas,
    solve_translation,
)
from .partition import (
    Classification,
    LabelSets,
    PartitionError,
    PartitionSolution,
    SolverConfig,
    SolverError,
    SolverReport,
    VerifyReport,
    boundary_point_closed_form,
    classify,
    cut_line_offset,
    equal_partition,
    lemma_check,
    solve_exterior,
    solve_kkm,
    solve_maximin,
    solve_newton,
    verify_partition,
)
from .problem import InputError, ProblemSpec, Report, parse_spec, run
from .svg import emit_svg

__version__ = "0.1.0"

# the names imported above, the package's public API, in import order
__all__ = [k for k, v in globals().items() if not (k.startswith("_") or isinstance(v, _ModuleType))] + ["__version__"]
