"""Smoothness of affine type A Schubert varieties, exactly.

Three views of the same count live here: pattern avoidance on affine
permutations, iterated parabolic (BP) factorizations, and staircase
diagrams over the cycle graph, tied together by exact generating
functions.  See the README for the command-line interface.
"""

from .affine import (
    AffinePermutation,
    ball_levels,
    cycle_runs,
    from_window,
    from_word,
    identity,
    longest_element,
    poincare_polynomial,
)
from .bp import (
    BPDecomposition,
    GrassmannianLabel,
    complete_bp_decomposition,
    fibre_tower,
    is_smooth_partial,
)
from .errors import BudgetExceeded, MalformedDiagram, NotSmooth
from .poly import Polynomial
from .series import (
    D_FACTORS,
    P_FACTORS,
    Q_FACTORS,
    IntSeries,
    alpha,
    catalan,
    series_A_assembled,
    series_A_closed,
    series_AB,
    series_Abar,
    series_AF,
    series_AM,
    series_Astar,
    sqrt_one_minus_4t,
)
from .smoothness import (
    SpiralSpec,
    enumerate_smooth,
    is_rationally_smooth,
    is_smooth,
    is_twisted_spiral,
    spiral,
    twisted_spiral,
)
from .staircase import (
    DECREASING,
    INCREASING,
    BrokenStaircase,
    CoxGraph,
    DyckPath,
    StaircaseDiagram,
    broken_staircases,
    cycle_decompose,
    cycle_graph,
    dyck_paths,
    enumerate_diagrams,
    from_dyck,
    from_json,
    fully_supported_cycle_diagrams,
    fully_supported_path_diagrams,
    increasing_diagrams,
    line_decompose,
    line_glue,
    path_graph,
    render,
    to_dyck,
    to_element,
    to_json,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
