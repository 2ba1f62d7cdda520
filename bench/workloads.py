"""Inputs, timed passes and correctness checks of the four workloads.

Each workload is one pass of calls into the public API of ``schubsmooth``.
A pass runs in a fresh interpreter (see worker.py), so the package's
``lru_cache``s start cold, as they do for a command-line user.

Every reference value used by the checks is fixed here or in
reference.json; none is taken from the code under test while it runs.
The queries inputs and their smoothness oracle are the benchmark's own:
windows are grown by s_i swaps, and 3412/4231 containment is decided by a
pair scan written independently of ``schubsmooth.smoothness``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import schubsmooth as S

# a_2..a_9: smooth elements of the affine symmetric group of period n, which
# are also the spherical cycle diagrams on n vertices (the README table).
A_REF = {2: 5, 3: 31, 4: 173, 5: 891, 6: 4373, 7: 20833, 8: 97333, 9: 448663}

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

# Full and smoke sizes.  The smoke sizes only exercise the code paths.
# A full pass takes about a second, so a run repeats it a dozen times or
# more and every timed call gets a repetition outside the host's slow
# stretches (see best_of in run.py).  Passes of avoiders through n = 5 and
# diagrams through n = 7 take many seconds and repeat too rarely for that.
SIZES = {
    "avoiders": {"full": (2, 3, 4), "smoke": (2, 3)},
    "diagrams": {"full": ((2, 3, 4, 5, 6), 6), "smoke": ((2, 3, 4), 4)},
    "series": {"full": 600, "smoke": 40},
    "queries": {"full": 1000, "smoke": 20},
}

QUERY_PERIODS = (3, 4, 5, 6, 8)
QUERY_SMOOTH_SHARE = 0.45  # grown smooth on purpose; short random walks add about a fifth more
QUERY_J_SHARE = 0.25
QUERY_J_MAX_LENGTH = 10  # within poincare_polynomial's default cap of 16


@dataclass
class PassResult:
    """What one timed pass produced."""

    wall_s: float
    ops: int
    latencies: list[float]  # one per op, in the same order on every pass
    outputs: object
    rest: list[float] = field(default_factory=list)  # timed calls that are not ops
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(message)


# ----------------------------------------------------------------------
# The benchmark's own affine arithmetic: windows, s_i swaps, 3412/4231.


def value(n: int, window: tuple[int, ...], p: int) -> int:
    """w(p) for any integer p, from w(p + n) = w(p) + n."""
    q, r = divmod(p - 1, n)
    return window[r] + q * n


def ascents(n: int, window: list[int]) -> list[int]:
    """Nodes i with w(i) < w(i+1), reading w(0) = w(n) - n: right
    multiplication by s_i adds one to the length exactly for these."""
    out = [0] if window[n - 1] - n < window[0] else []
    return out + [i for i in range(1, n) if window[i - 1] < window[i]]


def swap(n: int, window: list[int], i: int) -> list[int]:
    """The window of w * s_i."""
    w = list(window)
    if i == 0:
        w[0], w[n - 1] = w[n - 1] - n, w[0] + n
    else:
        w[i - 1], w[i] = w[i], w[i - 1]
    return w


def contains_3412_or_4231(n: int, window: tuple[int, ...]) -> bool:
    """Pair scan over inversions (a, d), a in one period.

    Both patterns start above where they end, so an occurrence has its
    first and last positions on an inversion, and inversions span fewer
    than 2D positions for D = max |w(i) - i|.  Along (a, d):
    4231 is an increasing pair among the values strictly between w(d) and
    w(a); 3412 is a value above w(a) followed by a value below w(d).
    """
    reach = 2 * max(abs(v - i) for i, v in enumerate(window, start=1))
    vals = [value(n, window, p) for p in range(1, n + reach + 1)]
    for a in range(1, n + 1):
        wa = vals[a - 1]
        for d in range(a + 1, a + reach):
            wd = vals[d - 1]
            if wd >= wa:
                continue
            low = None  # smallest in-between value seen so far
            above = False
            for b in range(a + 1, d):
                x = vals[b - 1]
                if wd < x < wa:
                    if low is not None and x > low:
                        return True
                    low = x if low is None else min(low, x)
                elif x > wa:
                    above = True
                elif x < wd and above:
                    return True
    return False


def grow(rng: random.Random, n: int, steps: int, keep_smooth: bool) -> tuple[list[int], int]:
    """Apply up to `steps` length-raising s_i swaps to the identity window.

    With keep_smooth, only swaps that keep the window 3412/4231-avoiding are
    taken, and growth stops early when none is left.  Returns the window and
    its length, which is the number of swaps taken.
    """
    w = list(range(1, n + 1))
    length = 0
    while length < steps:
        options = ascents(n, w)
        rng.shuffle(options)
        for i in options:
            x = swap(n, w, i)
            if not keep_smooth or not contains_3412_or_4231(n, tuple(x)):
                w, length = x, length + 1
                break
        else:
            break
    return w, length


# ----------------------------------------------------------------------
# Inputs


def make_inputs(workload: str, seed: int, smoke: bool):
    """The inputs of one pass; only queries depends on the seed."""
    size = SIZES[workload]["smoke" if smoke else "full"]
    if workload != "queries":
        return size
    # The request mix is stratified, so seeds differ only in the walks and
    # the order: each period gets the same number of requests, every fourth
    # takes a J, and requested lengths sweep 1..top in a shuffled order.
    rng = random.Random(seed)
    slots = []
    for n in QUERY_PERIODS:
        per_kind: dict[bool, list[int]] = {}
        for k in range(size // len(QUERY_PERIODS)):
            with_j = k % round(1 / QUERY_J_SHARE) == 0
            top = QUERY_J_MAX_LENGTH if with_j else 6 * n
            if not per_kind.get(with_j):
                per_kind[with_j] = rng.sample(range(1, top + 1), top)
            slots.append((n, with_j, rng.random() < QUERY_SMOOTH_SHARE, per_kind[with_j].pop()))
    rng.shuffle(slots)
    requests = []
    for n, with_j, keep_smooth, steps in slots:
        window, length = grow(rng, n, steps, keep_smooth)
        J = None
        if with_j:
            up = ascents(n, window)
            J = tuple(sorted(rng.sample(up, rng.randint(1, len(up)))))
        requests.append((n, tuple(window), length, J))
    return requests


# ----------------------------------------------------------------------
# Timed passes


def run_avoiders(periods) -> PassResult:
    """Route 1: enumerate_smooth(n); one op is one smooth element."""
    latencies, outputs = [], {}
    start = perf_counter()
    for n in periods:
        t = perf_counter()
        outputs[n] = S.enumerate_smooth(n)
        latencies.append(perf_counter() - t)
    wall = perf_counter() - start
    return PassResult(wall, sum(len(v) for v in outputs.values()), latencies, outputs)


def run_diagrams(size) -> PassResult:
    """Route 2: spherical cycle diagrams, their elements, and validate;
    one op is one diagram mapped by to_element."""
    periods, validate_max = size
    latencies, rest, outputs = [], [], {}
    start = perf_counter()
    for n in periods:
        t = perf_counter()
        diagrams = S.enumerate_diagrams(S.cycle_graph(n), spherical_only=True)
        rest.append(perf_counter() - t)
        images = []
        for d in diagrams:
            t = perf_counter()
            images.append(S.to_element(d))
            latencies.append(perf_counter() - t)
        verdicts = None
        if n <= validate_max:
            t = perf_counter()
            verdicts = [d.validate()[0] for d in diagrams]
            rest.append(perf_counter() - t)
        outputs[n] = (len(diagrams), images, verdicts)
    wall = perf_counter() - start
    return PassResult(wall, len(latencies), latencies, outputs, rest)


def run_series(order: int) -> PassResult:
    """Route 3: the closed form and the assembled formula to a common
    order; one op is one coefficient."""
    latencies = []
    start = perf_counter()
    t = perf_counter()
    closed = S.series_A_closed(order)
    latencies.append(perf_counter() - t)
    t = perf_counter()
    assembled = S.series_A_assembled(order)
    latencies.append(perf_counter() - t)
    wall = perf_counter() - start
    return PassResult(wall, 2 * (order + 1), latencies, (closed.coeffs, assembled.coeffs))


def answer(n: int, window: tuple[int, ...], J) -> tuple:
    """One request: what the smooth and decompose subcommands compute."""
    w = S.from_window(n, window)
    out = [S.is_smooth(w), S.is_rationally_smooth(w)]
    for js in ((), J) if J else ((),):
        dec = S.complete_bp_decomposition(w, js)
        out.append(None if dec is None else ([v.reduced_word for v in dec.factors], dec.maximal))
    if J:
        out.append(S.poincare_polynomial(w, J).coeffs)
    return tuple(out)


def run_queries(requests) -> PassResult:
    """A closed loop of one client; one op is one answered request."""
    latencies, outputs = [], []
    result = PassResult(0.0, 0, latencies, outputs)
    start = perf_counter()
    for n, window, _, J in requests:
        t = perf_counter()
        try:
            out = answer(n, window, J)
        except Exception as exc:  # a failed request is counted, not fatal
            out = ("error", type(exc).__name__)
            result.fail(1, f"window {window}: {type(exc).__name__}: {exc}")
        latencies.append(perf_counter() - t)
        outputs.append(out)
    result.wall_s = perf_counter() - start
    result.ops = len(requests) - result.failed
    return result


RUNNERS = {"avoiders": run_avoiders, "diagrams": run_diagrams, "series": run_series, "queries": run_queries}


# ----------------------------------------------------------------------
# Checks; each adds to result.attempted and result.failed.


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def check_avoiders(periods, res: PassResult, seed: int, smoke: bool) -> None:
    for n in periods:
        found = res.outputs[n]
        res.attempted += A_REF[n]
        if len(found) != A_REF[n]:
            res.fail(max(abs(len(found) - A_REF[n]), 1), f"n={n}: {len(found)} avoiders, expected {A_REF[n]}")
        bad = sum(1 for w in found if w.n != n or contains_3412_or_4231(n, w.window))
        if bad:
            res.fail(bad, f"n={n}: {bad} returned elements contain 3412 or 4231")


def check_diagrams(size, res: PassResult, seed: int, smoke: bool) -> None:
    periods, validate_max = size
    for n in periods:
        count, images, verdicts = res.outputs[n]
        res.attempted += A_REF[n]
        if count != A_REF[n]:
            res.fail(max(abs(count - A_REF[n]), 1), f"n={n}: {count} diagrams, expected {A_REF[n]}")
        distinct = {w.window for w in images if w.n == n}
        if len(distinct) != A_REF[n]:
            res.fail(max(abs(len(distinct) - A_REF[n]), 1), f"n={n}: {len(distinct)} distinct images of period {n}")
        if verdicts is not None and not all(verdicts):
            res.fail(verdicts.count(False), f"n={n}: {verdicts.count(False)} diagrams fail validate")
        if n <= 5:
            bad = sum(1 for win in distinct if contains_3412_or_4231(n, win))
            if bad:
                res.fail(bad, f"n={n}: {bad} images contain 3412 or 4231")


def check_series(order: int, res: PassResult, seed: int, smoke: bool) -> None:
    closed, assembled = res.outputs
    res.attempted += res.ops
    wrong = sum(1 for a, b in zip(closed, assembled) if a != b) + abs(len(closed) - len(assembled))
    if wrong:
        res.fail(wrong, f"closed and assembled differ in {wrong} coefficients")
    for name, coeffs in (("closed", closed), ("assembled", assembled)):
        bad = [n for n, a in A_REF.items() if n <= order and coeffs[n] != a]
        if bad:
            res.fail(len(bad), f"{name}: a_n differs from the README table at n={bad}")
    frozen = REFERENCE["series_digest"].get(str(order))
    if frozen is not None and digest(list(closed)) != frozen:
        res.fail(order + 1, f"coefficient digest at order {order} differs from the frozen one")


def check_queries(requests, res: PassResult, seed: int, smoke: bool) -> None:
    res.attempted += len(requests)
    for (n, window, length, J), out in zip(requests, res.outputs):
        if out[0] == "error":
            continue  # counted when it failed
        problem = query_problem(n, window, length, J, out)
        if problem:
            res.fail(1, f"window {window}: {problem}")
    frozen = None if smoke else REFERENCE["queries_digest"].get(str(seed))
    if frozen is not None and digest(res.outputs) != frozen:
        res.fail(1, f"answer digest for seed {seed} differs from the frozen one")


def query_problem(n: int, window, length: int, J, out) -> str:
    smooth, rational, dec = out[0], out[1], out[2]
    if smooth != (not contains_3412_or_4231(n, window)):
        return f"is_smooth says {smooth}, the pattern scan disagrees"
    if smooth:
        if not rational:
            return "smooth but not rationally smooth"
        if dec is None:
            return "smooth without a complete BP decomposition"
        words, maximal = dec
        if not all(maximal):
            return "smooth with a non-maximal BP factor"
        if sum(len(word) for word in words) != length:
            return f"BP factor lengths sum to {sum(len(word) for word in words)}, length is {length}"
    if J:
        coeffs = out[-1]
        if coeffs[0] != 1 or coeffs[-1] != 1 or len(coeffs) - 1 != length:
            return f"Poincare polynomial {coeffs} is not monic of degree {length} with constant 1"
    return ""


CHECKS = {"avoiders": check_avoiders, "diagrams": check_diagrams, "series": check_series, "queries": check_queries}
