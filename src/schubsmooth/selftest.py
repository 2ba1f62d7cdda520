"""Acceptance suite: eleven cross-checks tying the three views together.

Each criterion verifies one reproducible claim (a table of counts, a
bijection roundtrip, a factorization identity) with exact arithmetic.  The
"small" scale reduces every enumeration cap by one so the whole suite runs
in well under a minute; series orders stay as printed since they cost
milliseconds.  Criteria are pure functions, so running them in parallel
worker processes cannot change any verdict.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

from .affine import ball_levels, from_window, poincare_polynomial
from .bp import complete_bp_decomposition, fibre_tower
from .poly import Polynomial, gaussian_binomial
from .series import (
    alpha,
    catalan,
    series_A_assembled,
    series_A_closed,
    series_AB,
    series_AM,
)
from .smoothness import (
    SpiralSpec,
    enumerate_smooth,
    is_rationally_smooth,
    is_smooth,
    is_twisted_spiral,
    twisted_spiral,
)
from .staircase import (
    broken_staircases,
    cycle_graph,
    enumerate_diagrams,
    from_dyck,
    increasing_diagrams,
    path_graph,
    to_dyck,
    to_element,
)

TABLE_1 = (5, 31, 173, 891, 4373, 20833, 97333, 448663)  # a_2 .. a_9


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    ok: bool
    detail: str


def _cap(scale: str, full_value: int) -> int:
    if scale not in ("small", "full"):
        raise ValueError(f"scale must be 'small' or 'full', got {scale!r}")
    return full_value - 1 if scale == "small" else full_value


def criterion_1(scale: str = "full") -> tuple[bool, str]:
    """Closed-form coefficients a_2..a_9 match the reference table, fast."""
    t0 = time.monotonic()
    a = series_A_closed(9)
    got = tuple(a[n] for n in range(2, 10))
    fast = time.monotonic() - t0 < 1.0
    ok = got == TABLE_1 and fast
    return ok, f"a_2..a_9 = {got}, under 1 s: {fast}"


def criterion_2(scale: str = "full") -> tuple[bool, str]:
    """Closed form and assembled formula agree exactly through order 60."""
    t0 = time.monotonic()
    closed = series_A_closed(60)
    assembled = series_A_assembled(60)
    fast = time.monotonic() - t0 < 5.0
    ok = closed == assembled and fast
    return ok, f"order 60: equal = {closed == assembled}, under 5 s: {fast}"


def criterion_3(scale: str = "full") -> tuple[bool, str]:
    """Spherical diagram counts on the cycle match a_n for n = 2..7."""
    top = _cap(scale, 7)
    a = series_A_closed(top)
    counts = {}
    for n in range(2, top + 1):
        counts[n] = len(enumerate_diagrams(cycle_graph(n), spherical_only=True))
    ok = all(counts[n] == a[n] for n in counts)
    if scale == "full":
        ok = ok and counts[7] == 20833
    return ok, f"counts {counts}"


def criterion_4(scale: str = "full") -> tuple[bool, str]:
    """Pattern-avoider counts match a_n for n <= 7, and to_element hits them
    exactly for n <= 6."""
    top = _cap(scale, 7)
    a = series_A_closed(top)
    ok = True
    details = []
    for n in range(2, top + 1):
        cnt = len(enumerate_smooth(n))
        details.append(f"|smooth({n})| = {cnt}")
        ok = ok and cnt == a[n]
    for n in range(2, _cap(scale, 6) + 1):
        diagrams = enumerate_diagrams(cycle_graph(n), spherical_only=True)
        image = {to_element(d) for d in diagrams}
        same = len(image) == len(diagrams) and image == set(enumerate_smooth(n))
        details.append(f"image({n}) {'=' if same else '!='} smooth({n})")
        ok = ok and same
    return ok, ", ".join(details)


def criterion_5(scale: str = "full") -> tuple[bool, str]:
    """m_n is Catalan, by series for n <= 14 and by Dyck roundtrip n <= 8."""
    am = series_AM(14)
    ok = all(am[n] == catalan(n) for n in range(1, 15)) and am[0] == 0
    dyck_top = _cap(scale, 8)
    rt = 0
    for n in range(1, dyck_top + 1):
        diagrams = increasing_diagrams(n)
        if len(diagrams) != catalan(n):
            ok = False
        for d in diagrams:
            if from_dyck(to_dyck(d), n) != d:
                ok = False
            rt += 1
    return ok, f"series n<=14, {rt} Dyck roundtrips through n = {dyck_top}"


def criterion_6(scale: str = "full") -> tuple[bool, str]:
    """b_n = m_{n+1} - m_n by series (n <= 13) and by breaking (n <= 9)."""
    ab, am = series_AB(13), series_AM(14)
    ok = all(ab[n] == am[n + 1] - am[n] for n in range(1, 14))
    enum_top = _cap(scale, 9)
    for n in range(1, enum_top + 1):
        pieces = broken_staircases(n)
        if len(pieces) != ab[n]:
            ok = False
        # a broken piece unbreaks to one diagram, an unbroken one to two
        if sum(2 - piece.is_broken for piece in pieces) != catalan(n + 1):
            ok = False
    return ok, f"series n<=13, break/unbreak enumeration n<={enum_top}"


def criterion_7(scale: str = "full") -> tuple[bool, str]:
    """P_w is the product of [m choose a]_q over the fibre tower of every
    smooth w: each level is a Grassmannian Gr(a, m)."""
    n_top = _cap(scale, 5)
    checked = 0
    ok = True
    for n in range(2, n_top + 1):
        for w in enumerate_smooth(n):
            product = Polynomial.of(1)
            for label in fibre_tower(w):
                product = product * gaussian_binomial(label.m, label.a)
            if poincare_polynomial(w) != product:
                ok = False
            checked += 1
    return ok, f"{checked} smooth elements, P_w = prod of [m choose a]_q over the tower, n <= {n_top}"


def criterion_8(scale: str = "full") -> tuple[bool, str]:
    """Every smooth element with n <= 6 (n <= 5 at small scale) has a
    complete maximal BP decomposition with finite type A factors and
    additive lengths, each factor's length counted afresh from its window."""
    n_top = _cap(scale, 6)
    checked = 0
    ok = True
    for n in range(2, n_top + 1):
        for w in enumerate_smooth(n):
            if w.is_identity():
                continue
            dec = complete_bp_decomposition(w)
            if dec is None or not dec.all_maximal():
                ok = False
                continue
            if any(len(v.support) >= n for v in dec.factors):
                ok = False  # factor would generate an affine, not finite, group
            if sum(from_window(n, v.window).length for v in dec.factors) != w.length:
                ok = False  # the factors carry lengths from the split: count them again
            checked += 1
    return ok, f"{checked} smooth elements decomposed, n <= {n_top}"


def criterion_9(scale: str = "full") -> tuple[bool, str]:
    """Palindromic Poincaré polynomial == smooth or twisted spiral (n = 3,
    and n = 4 at full scale, through the first twisted spirals at length 12)."""
    reach = {3: _cap(scale, 10)}
    if scale == "full":
        reach[4] = 12
    checked, spirals, ok = 0, 0, True
    for n, len_top in reach.items():
        for level in itertools.islice(ball_levels(n), 1, len_top + 1):
            for w in level:
                pal = poincare_polynomial(w).is_palindromic()
                spiral = is_twisted_spiral(w)
                if pal != (is_smooth(w) or spiral):
                    ok = False
                checked += 1
                spirals += spiral
    ts = twisted_spiral(SpiralSpec(0, 2, "x"), 3)
    spiral_ok = (
        ts.length == 7
        and poincare_polynomial(ts).is_palindromic()
        and not is_smooth(ts)
        and is_rationally_smooth(ts)
    )
    through = ", ".join(f"length {top} at n = {n}" for n, top in reach.items())
    return ok and spiral_ok, (
        f"{checked} elements through {through}, {spirals} twisted spirals; "
        f"twisted spiral l=7 palindromic-not-smooth: {spiral_ok}"
    )


def criterion_10(scale: str = "full") -> tuple[bool, str]:
    """to_element(flip(d)) equals to_element(d) inverse, cycle and path."""
    top = _cap(scale, 5)
    checked, ok = 0, True
    for n in range(2, top + 1):
        for d in enumerate_diagrams(cycle_graph(n), spherical_only=True):
            if to_element(d.flip()) != to_element(d).inverse():
                ok = False
            checked += 1
    for n in range(1, top + 1):
        for d in enumerate_diagrams(path_graph(n)):
            if to_element(d.flip()) != to_element(d).inverse():
                ok = False
            checked += 1
    return ok, f"{checked} diagrams, n <= {top}"


def criterion_11(scale: str = "full") -> tuple[bool, str]:
    """α is the root of 1-6t+8t²-4t³ and a_60·α^60 is within 2% of 1."""
    root = alpha()
    residual = abs(1 - 6 * root + 8 * root**2 - 4 * root**3)
    a60 = float(series_A_closed(60)[60]) * root**60
    ok = residual <= 1e-12 and abs(root - 0.228155) <= 1e-6 and 0.98 <= a60 <= 1.02
    return ok, f"alpha = {root:.10f}, residual = {residual:.2e}, a60*alpha^60 = {a60:.4f}"


CRITERIA: tuple[tuple[int, str, Callable[[str], tuple[bool, str]]], ...] = (
    (1, "table reproduction (closed form)", criterion_1),
    (2, "closed form vs assembled formula", criterion_2),
    (3, "cycle diagram enumeration vs series", criterion_3),
    (4, "pattern avoiders vs diagrams", criterion_4),
    (5, "Catalan identity and Dyck roundtrip", criterion_5),
    (6, "broken staircase identity", criterion_6),
    (7, "Grassmannian BP Poincare factorization", criterion_7),
    (8, "complete maximal BP decompositions", criterion_8),
    (9, "palindromy vs smooth-or-twisted-spiral", criterion_9),
    (10, "flip-inverse duality", criterion_10),
    (11, "asymptotic constant", criterion_11),
)


def _run_one(args: tuple[int, str, str]) -> CriterionResult:
    index, name, scale = args
    func = next(f for i, _, f in CRITERIA if i == index)
    try:
        ok, detail = func(scale)
    except (AssertionError, ValueError, RuntimeError) as exc:
        ok, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CriterionResult(index=index, name=name, ok=ok, detail=detail)


def run_selftest(scale: str = "full", workers: int = 1) -> tuple[CriterionResult, ...]:
    """Run all criteria; results are independent of the worker count.

    >>> res = run_selftest("small")  # doctest: +SKIP
    >>> all(r.ok for r in res)  # doctest: +SKIP
    True
    """
    jobs = [(i, name, scale) for i, name, _ in CRITERIA]
    if workers > 1:
        # the pool starts every worker up front; more than one per criterion would idle
        with ProcessPoolExecutor(max_workers=min(workers, len(CRITERIA))) as pool:
            results = list(pool.map(_run_one, jobs))
    else:
        results = [_run_one(job) for job in jobs]
    return tuple(sorted(results, key=lambda r: r.index))
