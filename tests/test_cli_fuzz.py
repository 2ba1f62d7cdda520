"""The CLI contract under random input, with cli.main run in process.

Windows, words, element files, --J lists, diagram files and enumerate
flags are drawn at random, valid or not, with periods up to 8.  Every run
must exit 0 or 1, print exactly one JSON document on success with
--format json, and end any failure in an error line, never in an
escaping exception.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from schubsmooth import cli
from schubsmooth.staircase import cycle_graph, enumerate_diagrams, path_graph, to_json

FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)

SMALL = st.integers(-12, 12)
SCALARS = st.one_of(
    st.none(), st.booleans(), SMALL, st.floats(-3, 3, allow_nan=False), st.text("0129,-x", max_size=4)
)
JUNK = st.one_of(SCALARS, st.lists(SCALARS, max_size=4))
FORMATS = st.sampled_from(("json", "tsv", "text"))
RARELY = st.sampled_from((False,) * 7 + (True,))  # bad input about one time in eight


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_contract(argv, fmt):
    code, out, err = run_main(["--format", fmt, *argv])
    assert code in (0, 1), (argv, code, err)
    assert "Traceback" not in err, argv
    if code == 0 and fmt == "json":
        json.loads(out)  # raises on anything but one document
    if code == 1:
        assert "error:" in err.splitlines()[-1], (argv, err)


@st.composite
def windows(draw, n):
    """Mostly affine permutations: residues permuted, shifts summing to 0;
    otherwise any short list, which may break residues, sum or size."""
    if n < 1 or draw(RARELY):
        return draw(st.lists(SMALL, max_size=9))
    residues = draw(st.permutations(range(1, n + 1)))
    shifts = draw(st.lists(st.integers(-1, 1), min_size=n - 1, max_size=n - 1))
    return [r + k * n for r, k in zip(residues, shifts + [-sum(shifts)])]


def comma(values):
    return ",".join(map(str, values))


@st.composite
def element_args(draw, path):
    """Flags naming one element by --window, --word or an --element file."""
    n = draw(st.integers(-1, 0)) if draw(RARELY) else draw(st.integers(1, 8))
    source = draw(st.sampled_from(("window", "word", "element")))
    if source == "window":
        flag = draw(st.sampled_from(("--window", "--win")))
        return ["--n", str(n), f"{flag}={comma(draw(windows(n)))}"]
    letters = st.integers(-1, max(n, 0)) if draw(RARELY) else st.integers(0, max(n - 1, 0))
    word = draw(st.lists(letters, max_size=12))
    if source == "word":
        return ["--n", str(n), "--word", comma(word)]
    if draw(RARELY):
        doc = draw(st.one_of(st.dictionaries(st.sampled_from(("n", "window", "word")), JUNK), JUNK))
    else:
        doc = {"n": n, "window": draw(windows(n))} if draw(st.booleans()) else {"n": n, "word": word}
    text = json.dumps(doc)
    path.write_text(text[:-1] if draw(RARELY) else text)
    extra = ["--n", str(draw(st.integers(1, 8)))] if draw(RARELY) else []
    return [*extra, "--element", str(path)]


@st.composite
def element_commands(draw, path):
    argv = draw(element_args(path))
    command = draw(st.sampled_from(("smooth", "decompose")))
    if command == "decompose" and draw(st.booleans()):
        nodes = st.lists(st.integers(-1, 8) if draw(RARELY) else st.integers(0, 7), max_size=3)
        argv += ["--J", "x" if draw(RARELY) else comma(draw(nodes))]
    return [command, *argv]


@st.composite
def enumerate_commands(draw):
    """enumerate with a period in -1..8 (2..7 valid), maybe a length filter
    and maybe only the count."""
    argv = ["enumerate", "--n", str(draw(st.integers(-1, 8)))]
    if draw(st.booleans()):
        argv.append(f"--max-length={draw(st.integers(-2, 30))}")
    if draw(st.booleans()):
        argv.append("--count-only")
    return argv


# Valid diagrams, so that render, dyck and decompose get past validation
DIAGRAMS = [
    json.loads(to_json(d))
    for g in (path_graph(3), path_graph(4), cycle_graph(3), cycle_graph(4))
    for d in sorted(enumerate_diagrams(g), key=to_json)
]


@st.composite
def diagram_docs(draw):
    """A valid diagram, one with a field replaced, or one made up."""
    choice = draw(st.integers(0, 3))
    if choice <= 1:
        return draw(st.sampled_from(DIAGRAMS))
    if choice == 2:
        doc = json.loads(json.dumps(draw(st.sampled_from(DIAGRAMS))))
        field = draw(st.sampled_from(("kind", "n", "blocks", "covers")))
        if field in ("kind", "n"):
            doc["graph"][field] = draw(st.one_of(st.sampled_from(("path", "cycle")), JUNK))
        else:
            doc[field] = draw(st.one_of(JUNK, st.lists(st.lists(st.integers(-1, 9), max_size=4), max_size=4)))
        return doc
    kind = "tree" if draw(RARELY) else draw(st.sampled_from(("path", "cycle")))
    pair = st.lists(st.integers(-1, 5), min_size=1, max_size=3) if draw(RARELY) else st.lists(
        st.integers(0, 4), min_size=2, max_size=2
    )
    n = draw(st.integers(-1, 1)) if draw(RARELY) else draw(st.integers(2, 8))
    first = 0 if kind == "cycle" else 1  # path vertices are 1..n, cycle vertices 0..n-1
    vertex = st.integers(-1, 9) if draw(RARELY) else st.integers(first, first + max(n, 1) - 1)
    return {
        "graph": {"kind": kind, "n": n},
        "blocks": draw(st.lists(st.lists(vertex, max_size=5), max_size=5)),
        "covers": draw(st.lists(pair, max_size=5)),
    }


@FUZZ
@given(st.data(), FORMATS)
def test_element_commands_keep_the_contract(tmp_path_factory, data, fmt):
    path = tmp_path_factory.getbasetemp() / "element.json"
    check_contract(data.draw(element_commands(path)), fmt)


@FUZZ
@given(st.sampled_from(("validate", "render", "dyck", "decompose")), diagram_docs(), RARELY, FORMATS)
def test_staircase_commands_keep_the_contract(tmp_path_factory, action, doc, cut, fmt):
    path = tmp_path_factory.getbasetemp() / "diagram.json"
    text = json.dumps(doc)
    path.write_text(text[: len(text) // 2] if cut else text)
    check_contract(["staircase", action, "--file", str(path)], fmt)


@settings(FUZZ, max_examples=50)  # a period-7 listing takes a tenth of a second
@given(enumerate_commands(), FORMATS)
def test_enumerate_keeps_the_contract(argv, fmt):
    check_contract(argv, fmt)


def test_budget_seconds_is_a_usage_error():
    for argv in (
        ["--budget-seconds", "5", "enumerate", "--n", "3"],
        ["enumerate", "--n", "3", "--budget-seconds=5"],
    ):
        code, out, err = run_main(argv)
        assert code == 1 and out == "", argv
        assert "Traceback" not in err and "error:" in err.splitlines()[-1], argv
