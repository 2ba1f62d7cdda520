"""Batch command line interface.

Subcommands: smooth, decompose, enumerate, series, staircase, selftest.
All output is deterministic for fixed flags: json emits a single document,
tsv one record per line, text a human-readable rendering of the same data.
Exit codes: 0 success, 1 invalid input or exhausted budget, 2 failed
internal cross-check (series --diff mismatch, selftest failure).

Elements are accepted as --window or --word comma lists, or as --element
pointing to a JSON file {"n": 4, "window": [2,5,0,3]} / {"n": 4, "word":
[0,3,2]}; output always echoes the normalized window.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NoReturn, Optional, Sequence

from .affine import AffinePermutation, from_window, from_word
from .bp import complete_bp_decomposition, is_smooth_partial
from .errors import BudgetExceeded
from .series import (
    series_A_assembled,
    series_A_closed,
    series_AB,
    series_Abar,
    series_AF,
    series_AM,
    series_Astar,
)
from .smoothness import (
    PERIOD_MAX,
    enumerate_smooth,
    is_smooth,
    is_twisted_spiral,
)
from .staircase import (
    ENUM_MAX,
    StaircaseDiagram,
    broken_staircases,
    cycle_decompose,
    cycle_graph,
    enumerate_diagrams,
    from_json,
    fully_supported_cycle_diagrams,
    fully_supported_path_diagrams,
    increasing_diagrams,
    is_json_int,
    line_decompose,
    render,
    to_dyck,
    to_json,
)
from . import selftest as selftest_module

ENUM_CAP_DEFAULT = 6
ENUM_CAP_MAX = ENUM_MAX["cycle"]
SERIES_ORDER_MAX = 1000
# Largest period of an element read by smooth and decompose, a bound on time;
# README.md gives the measured times at this bound.
ELEMENT_N_MAX = 200
# Largest length of an element that decompose accepts: its output holds a
# reduced word of every factor, l(w) letters in all, so time and output grow
# with the length whatever the period.  README.md gives the measured time.
DECOMPOSE_LENGTH_MAX = 100_000


# ----------------------------------------------------------------------
# argument plumbing


def _parse_ints(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(part) for part in text.replace(" ", "").split(",")]
    except ValueError as exc:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from exc


def _check_period(n: int) -> None:
    if n > ELEMENT_N_MAX:
        raise ValueError(f"the period n must be at most {ELEMENT_N_MAX}, got {n}")


def _element(args: argparse.Namespace) -> AffinePermutation:
    sources = [s for s in (args.window, args.word, args.element) if s is not None]
    if len(sources) != 1:
        raise ValueError("supply exactly one of --window, --word, --element")
    if args.element is not None:
        with open(args.element, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except RecursionError:
                raise ValueError("element file JSON is nested too deeply") from None
        if not isinstance(doc, dict) or "n" not in doc:
            raise ValueError("element file must hold a JSON object with an 'n' field")
        n = doc["n"]
        if not is_json_int(n):
            raise ValueError(f"element file field 'n' must be an integer, got {json.dumps(n)}")
        if args.n is not None and args.n != n:
            raise ValueError(f"--n {args.n} disagrees with element file n = {n}")
        _check_period(n)
        for key, build in (("window", from_window), ("word", from_word)):
            if key in doc:
                values = doc[key]
                if not isinstance(values, list) or not all(map(is_json_int, values)):
                    raise ValueError(f"element file field {key!r} must be a list of integers")
                return build(n, values)
        raise ValueError("element file needs a 'window' or 'word' field")
    if args.n is None:
        raise ValueError("--n is required with --window/--word")
    _check_period(args.n)
    values = _parse_ints(args.window if args.window is not None else args.word)
    if args.window is not None:
        if len(values) != args.n:
            raise ValueError(f"window must list {args.n} values")
        return from_window(args.n, values)
    return from_word(args.n, values)


def _emit(args: argparse.Namespace, doc: object, tsv_rows: list[str], text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(doc))
    elif args.format == "tsv":
        for row in tsv_rows:
            print(row)
    else:
        for line in text_lines:
            print(line)


# ----------------------------------------------------------------------
# smooth / decompose / enumerate


def _cmd_smooth(args: argparse.Namespace) -> int:
    w = _element(args)
    smooth, spiral = is_smooth(w), is_twisted_spiral(w)
    doc = {
        "smooth": smooth,
        "rationally_smooth": smooth or spiral,
        "twisted_spiral": spiral,
        "length": w.length,
        "window": list(w.window),
    }
    rows = [f"{k}\t{json.dumps(v)}" for k, v in doc.items()]
    _emit(args, doc, rows, [f"{k}: {json.dumps(v)}" for k, v in doc.items()])
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    w = _element(args)
    if w.length > DECOMPOSE_LENGTH_MAX:
        raise BudgetExceeded(f"decompose takes lengths up to {DECOMPOSE_LENGTH_MAX}, got {w.length}")
    js = frozenset(_parse_ints(args.J)) if args.J is not None else frozenset()
    decomposition = complete_bp_decomposition(w, js)
    smooth = is_smooth_partial(w, js)  # for J empty this is is_smooth(w)
    factors = None
    if decomposition is not None:
        factors = [
            {
                "word": list(v.reduced_word),
                "K": sorted(decomposition.chain[i + 1]),
                "maximal": decomposition.maximal[i],
                "grassmannian": {"nodes": list(label.nodes), "missing": label.missing},
            }
            for i, (v, label) in enumerate(zip(decomposition.factors, decomposition.labels))
        ]
    doc = {"factors": factors, "smooth": smooth, "window": list(w.window)}
    rows = []
    if factors is None:
        rows.append("factors\tnull")
    else:
        for i, f in enumerate(factors):
            rows.append(
                f"factor\t{i}\t{','.join(map(str, f['word']))}\t"
                f"K={','.join(map(str, f['K']))}\tmaximal={f['maximal']}"
            )
    rows.append(f"smooth\t{json.dumps(smooth)}")
    text = [json.dumps(doc, indent=2)]
    _emit(args, doc, rows, text)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    elements = enumerate_smooth(args.n)
    if args.max_length is not None:
        elements = [w for w in elements if w.length <= args.max_length]
    if args.count_only:
        _emit(args, len(elements), [str(len(elements))], [str(len(elements))])
        return 0
    ordered = sorted(elements, key=lambda w: (w.length, w.window))
    doc = [{"length": w.length, "window": list(w.window)} for w in ordered]
    rows = [f"{w.length}\t{','.join(map(str, w.window))}" for w in ordered]
    _emit(args, doc, rows, rows)
    return 0


# ----------------------------------------------------------------------
# series


# Each series: its closed formula, its count by enumeration at one n, and
# the first n counted (a cycle needs two vertices).
SERIES = {
    "A": (series_A_closed, lambda n: len(enumerate_diagrams(cycle_graph(n), spherical_only=True)), 2),
    "AM": (series_AM, lambda n: len(increasing_diagrams(n)), 1),
    "AB": (series_AB, lambda n: len(broken_staircases(n)), 1),
    "AF": (series_AF, lambda n: len(fully_supported_path_diagrams(n)), 1),
    "ABAR": (series_Abar, lambda n: len(fully_supported_cycle_diagrams(n)), 2),
    "ASTAR": (series_Astar, lambda n: sum(len(fully_supported_path_diagrams(k)) for k in range(1, n)), 1),
}


def _cmd_series(args: argparse.Namespace) -> int:
    which = args.which
    formula, count, first = SERIES[which]
    order = args.order
    if order < 1:
        raise ValueError("--order must be at least 1")
    if order > SERIES_ORDER_MAX:
        raise ValueError(f"--order must be at most {SERIES_ORDER_MAX}")
    if args.enum_cap < 1:
        raise ValueError("--enum-cap must be at least 1")
    cap = min(args.enum_cap, ENUM_CAP_MAX)
    # only A has an assembled formula of its own; a second column from the
    # closed formula would make --diff compare a column with itself
    if args.method == "assembled" and which != "A":
        raise ValueError(f"--method assembled is defined for --which A only, not {which}")
    if args.method == "all":
        methods = ["closed", "assembled", "enumerate"] if which == "A" else ["closed", "enumerate"]
    else:
        methods = [args.method]
    columns: dict[str, dict[int, int]] = {}
    for method in methods:
        if method == "closed":
            s = formula(order)
            columns["closed"] = {n: s[n] for n in range(1, order + 1)}
        elif method == "assembled":
            s = series_A_assembled(order)
            columns["assembled"] = {n: s[n] for n in range(1, order + 1)}
        else:
            columns["enumerate"] = {n: count(n) for n in range(first, min(order, cap) + 1)}
    primary = columns.get("closed") or columns.get("assembled") or columns["enumerate"]
    mismatches = []
    names = sorted(columns)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            for n in sorted(set(columns[a]) & set(columns[b])):
                if columns[a][n] != columns[b][n]:
                    mismatches.append({"n": n, a: columns[a][n], b: columns[b][n]})
    doc: dict = {
        "which": which,
        "order": order,
        "methods": names,
        "rows": [[n, primary[n]] for n in sorted(primary)],
    }
    # The combined count A(t) only counts varieties for n >= 2; smaller n is
    # reported anyway but flagged so tools do not mistake it for a count.
    outside = [n for n, _ in doc["rows"] if n < 2] if which == "A" else []
    if outside:
        doc["outside_domain"] = outside
    if args.diff:
        doc["mismatches"] = mismatches
    rows = [f"{n}\t{c}" for n, c in doc["rows"]]
    text = [
        f"{which}[{n}] = {c}" + ("  (outside domain)" if n in outside else "")
        for n, c in doc["rows"]
    ]
    if args.diff and mismatches:
        text.append(f"mismatches: {mismatches}")
    _emit(args, doc, rows, text)
    if args.diff and mismatches:
        return 2
    return 0


# ----------------------------------------------------------------------
# staircase


def _load_diagram(path: str) -> StaircaseDiagram:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())


def _piece_doc(piece) -> dict:
    return {
        "n": piece.n,
        "direction": piece.direction,
        "blocks": [sorted(b) for b in piece.blocks],
        "broken": piece.is_broken,
    }


def _cmd_staircase(args: argparse.Namespace) -> int:
    d = _load_diagram(args.file)
    ok, reason = d.validate()
    if args.action == "validate":
        doc = {"valid": ok, "reason": reason}
        _emit(
            args,
            doc,
            [f"valid\t{json.dumps(ok)}", f"reason\t{reason}"],
            [f"valid: {ok}" + (f" ({reason})" if reason else "")],
        )
        return 0
    if not ok:
        raise ValueError(f"diagram fails {reason}")
    if args.action == "render":
        picture = render(d)
        _emit(args, picture, picture.splitlines(), picture.splitlines())
        return 0
    if args.action == "dyck":
        p = to_dyck(d)
        doc = {"semilength": p.semilength, "pairs": [list(pair) for pair in p.pairs]}
        rows = [f"{r}\t{u}" for r, u in p.pairs]
        _emit(args, doc, rows, [f"pairs: {list(map(list, p.pairs))}"])
        return 0
    if args.action == "decompose":
        if d.graph.kind == "cycle":
            pieces, mark = cycle_decompose(d)
            doc = {
                "kind": "cycle",
                "pieces": [_piece_doc(p) for p in pieces],
                "mark": mark,
            }
        else:
            pieces, final = line_decompose(d)
            doc = {
                "kind": "path",
                "pieces": [_piece_doc(p) for p in pieces],
                "final": json.loads(to_json(final)),
            }
        rows = [json.dumps(doc)]
        _emit(args, doc, rows, [json.dumps(doc, indent=2)])
        return 0
    raise ValueError(f"unknown staircase action {args.action!r}")


# ----------------------------------------------------------------------
# selftest


def _cmd_selftest(args: argparse.Namespace) -> int:
    results = selftest_module.run_selftest(args.scale, workers=args.workers)
    doc = [
        {"criterion": r.index, "name": r.name, "ok": r.ok, "detail": r.detail}
        for r in results
    ]
    rows = [
        f"{r.index}\t{'PASS' if r.ok else 'FAIL'}\t{r.name}\t{r.detail}" for r in results
    ]
    text = [
        f"{'PASS' if r.ok else 'FAIL'} criterion {r.index:2d} {r.name}: {r.detail}"
        for r in results
    ]
    _emit(args, doc, rows, text)
    return 0 if all(r.ok for r in results) else 2


# ----------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as every other invalid input does; exit 2 is
    kept for failed cross-checks."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _list_flag(arg: str) -> bool:
    """Whether arg is --window or --word, or a prefix argparse reads as one."""
    return len(arg) >= 4 and ("--window".startswith(arg) or "--word".startswith(arg))


def _attach_list_values(argv: Sequence[str]) -> list[str]:
    """Read `--window -1,4` (or `--win -1,4`) as `--window=-1,4`: argparse
    would take -1,4, which is not a plain negative number, for a flag."""
    out: list[str] = []
    for arg in argv:
        if out and _list_flag(out[-1]) and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _add_element_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=None, help="number of window positions")
    p.add_argument("--window", default=None, help="comma-separated window values")
    p.add_argument("--word", default=None, help="comma-separated reduced word letters")
    p.add_argument("--element", default=None, help="JSON file with n and window or word")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="schubsmooth",
        description="Smoothness, BP decompositions, staircase diagrams, and counts "
        "for affine type A Schubert varieties.",
    )
    parser.add_argument("--format", choices=("json", "tsv", "text"), default="json")
    parser.add_argument(
        "--workers", type=int, default=1, help="parallelism hint; results never depend on it"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("smooth", help="decide smoothness of one element")
    _add_element_flags(p)
    p.set_defaults(func=_cmd_smooth)

    p = sub.add_parser("decompose", help="complete BP decomposition of one element")
    _add_element_flags(p)
    p.add_argument("--J", default=None, help="comma-separated nodes of the relative parabolic")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("enumerate", help="list all smooth elements of the affine group")
    p.add_argument("--n", type=int, required=True, help=f"period, at most {PERIOD_MAX}")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--max-length", type=int, default=None, help="print only lengths up to this")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("series", help="generating function coefficients")
    p.add_argument("--which", choices=tuple(SERIES), required=True)
    p.add_argument(
        "--order", type=int, required=True, help=f"last coefficient (at most {SERIES_ORDER_MAX})"
    )
    p.add_argument(
        "--method", choices=("closed", "assembled", "enumerate", "all"), default="closed"
    )
    p.add_argument("--diff", action="store_true", help="exit 2 on any method mismatch")
    p.add_argument(
        "--enum-cap",
        type=int,
        default=ENUM_CAP_DEFAULT,
        help=f"largest n counted by enumeration (hard max {ENUM_CAP_MAX})",
    )
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("staircase", help="operations on staircase diagram files")
    p.add_argument("action", choices=("validate", "render", "dyck", "decompose"))
    p.add_argument("--file", required=True, help="diagram JSON file")
    p.set_defaults(func=_cmd_staircase)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--scale", choices=("small", "full"), default="small")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_list_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (ValueError, OSError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal cross-check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
