"""End-to-end checks of the command line surface via cli.main.

Every test drives the real argument parser and asserts on captured
stdout/stderr and exit codes; goldens pin the exact output bytes so
reruns stay reproducible.
"""

import json

import pytest

from schubsmooth import cli, selftest
from schubsmooth.affine import from_window, from_word, identity
from schubsmooth.errors import BudgetExceeded, NotSmooth
from schubsmooth.selftest import CRITERIA, TABLE_1
from schubsmooth.smoothness import SpiralSpec, is_rationally_smooth, is_twisted_spiral, twisted_spiral
from schubsmooth.staircase import StaircaseDiagram, cycle_graph, to_json


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# smooth


def test_smooth_json_golden(capsys):
    code, out, err = run(capsys, "smooth", "--n", "4", "--window", "3,4,1,2")
    assert code == 0 and err == ""
    assert out == (
        '{"smooth": false, "rationally_smooth": false, "twisted_spiral": false, '
        '"length": 4, "window": [3, 4, 1, 2]}\n'
    )


def test_smooth_formats(capsys):
    code, out, _ = run(capsys, "--format", "tsv", "smooth", "--n", "2", "--word", "0,1,0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "smooth\tfalse"
    assert "rationally_smooth\ttrue" in lines
    assert len(lines) == 5
    code, out, _ = run(capsys, "--format", "text", "smooth", "--n", "2", "--word", "0,1,0")
    assert code == 0
    assert out.splitlines()[0] == "smooth: false"


def test_smooth_scans_once(capsys, monkeypatch):
    # rationally_smooth reuses the smooth verdict instead of a second scan
    calls = []
    scan = cli.is_smooth

    def counted(w):
        calls.append(w.window)
        return scan(w)

    monkeypatch.setattr(cli, "is_smooth", counted)
    spiral = twisted_spiral(SpiralSpec(0, 2, "x"), 3)
    for w in (from_window(4, [3, 4, 1, 2]), from_word(2, [0, 1, 0]), from_word(3, [1, 2]), spiral):
        calls.clear()
        code, out, _ = run(capsys, "smooth", "--n", str(w.n), "--window=" + ",".join(map(str, w.window)))
        assert code == 0 and calls == [w.window]
        doc = json.loads(out)
        assert doc["smooth"] == scan(w)
        assert doc["rationally_smooth"] == is_rationally_smooth(w)
        assert doc["twisted_spiral"] == is_twisted_spiral(w)
    assert doc["rationally_smooth"] and not doc["smooth"]


def test_window_and_word_give_identical_output(capsys):
    code_a, out_a, _ = run(capsys, "smooth", "--n", "4", "--window", "3,4,1,2")
    code_b, out_b, _ = run(capsys, "smooth", "--n", "4", "--word", "2,3,1,2")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_element_file_sources(capsys, tmp_path):
    f = tmp_path / "el.json"
    f.write_text('{"n": 4, "window": [3, 4, 1, 2]}')
    code, out, _ = run(capsys, "smooth", "--element", str(f))
    _, direct, _ = run(capsys, "smooth", "--n", "4", "--window", "3,4,1,2")
    assert code == 0 and out == direct
    g = tmp_path / "word.json"
    g.write_text('{"n": 3, "word": [0, 1]}')
    code, out, _ = run(capsys, "smooth", "--element", str(g))
    assert code == 0 and json.loads(out)["length"] == 2


def test_element_argument_validation(capsys, tmp_path):
    code, _, err = run(capsys, "smooth", "--n", "4", "--window", "1,2,3,4", "--word", "0")
    assert code == 1 and "exactly one" in err
    code, _, err = run(capsys, "smooth", "--window", "1,2")
    assert code == 1 and "--n is required" in err
    code, _, err = run(capsys, "smooth", "--n", "4", "--window", "1,2")
    assert code == 1 and "must list 4 values" in err
    code, _, err = run(capsys, "smooth", "--n", "3", "--window", "1,1,4")
    assert code == 1 and err.startswith("error:")
    code, _, err = run(capsys, "smooth", "--n", "3", "--window", "1,x,4")
    assert code == 1 and "integer list" in err
    f = tmp_path / "el.json"
    f.write_text('{"n": 4, "window": [3, 4, 1, 2]}')
    code, _, err = run(capsys, "smooth", "--n", "5", "--element", str(f))
    assert code == 1 and "disagrees" in err
    h = tmp_path / "bare.json"
    h.write_text('{"n": 4}')
    code, _, err = run(capsys, "smooth", "--element", str(h))
    assert code == 1 and "window" in err
    code, _, err = run(capsys, "smooth", "--element", str(tmp_path / "missing.json"))
    assert code == 1 and err.startswith("error:")
    for text in (
        "[1, 2]",
        '{"window": [1, 2]}',
        '{"n": null, "window": [1, 2]}',
        '{"n": 2, "window": 5}',
        '{"n": 2, "word": [0.5]}',
    ):
        g = tmp_path / "odd.json"
        g.write_text(text)
        code, out, err = run(capsys, "smooth", "--element", str(g))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1, err


def test_element_period_cap(capsys, tmp_path):
    # refused before any element is built: length is quadratic in n
    n = cli.ELEMENT_N_MAX + 1
    window = list(range(1, n + 1))
    f = tmp_path / "big.json"
    f.write_text(json.dumps({"n": n, "window": window}))
    for command in ("smooth", "decompose"):
        for argv in (
            ["--n", str(n), "--window", ",".join(map(str, window))],
            ["--n", str(n), "--word", "0"],
            ["--element", str(f)],
        ):
            code, out, err = run(capsys, command, *argv)
            assert (code, out) == (1, "")
            assert err.startswith("error:") and err.count("\n") == 1, err
            assert f"at most {cli.ELEMENT_N_MAX}" in err
    code, out, _ = run(capsys, "smooth", "--n", str(cli.ELEMENT_N_MAX), "--word", "0")
    assert code == 0 and json.loads(out)["length"] == 1


# ----------------------------------------------------------------------
# decompose


def test_decompose_golden(capsys):
    code, out, _ = run(capsys, "decompose", "--n", "4", "--window", "4,3,1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["smooth"] is True and doc["window"] == [4, 3, 1, 2]
    assert doc["factors"] == [
        {
            "word": [2, 3],
            "K": [1, 2],
            "maximal": True,
            "grassmannian": {"nodes": [2, 3], "missing": 3},
        },
        {
            "word": [2, 1],
            "K": [2],
            "maximal": True,
            "grassmannian": {"nodes": [1, 2], "missing": 1},
        },
        {
            "word": [2],
            "K": [],
            "maximal": True,
            "grassmannian": {"nodes": [2], "missing": 2},
        },
    ]
    w = identity(4)
    for f in doc["factors"]:
        w = w * from_word(4, f["word"])
    assert w == from_window(4, (4, 3, 1, 2))


def test_decompose_relative_to_parabolic(capsys):
    # smooth overall, but not smooth relative to J = {0}
    code, out, _ = run(capsys, "decompose", "--n", "3", "--window", "2,4,0", "--J", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"factors": None, "smooth": False, "window": [2, 4, 0]}
    code, _, err = run(capsys, "decompose", "--n", "3", "--window", "2,4,0", "--J", "7")
    assert code == 1 and "outside" in err


def test_decompose_tsv_rows(capsys):
    code, out, _ = run(capsys, "--format", "tsv", "decompose", "--n", "4", "--window", "4,3,1,2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "factor\t0\t2,3\tK=1,2\tmaximal=True"
    assert lines[-1] == "smooth\ttrue"


# ----------------------------------------------------------------------
# enumerate


def test_enumerate_count_only(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--count-only")
    assert code == 0 and out == "31\n"


def test_enumerate_listing_sorted(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2")
    assert code == 0
    assert json.loads(out) == [
        {"length": 0, "window": [1, 2]},
        {"length": 1, "window": [0, 3]},
        {"length": 1, "window": [2, 1]},
        {"length": 2, "window": [-1, 4]},
        {"length": 2, "window": [3, 0]},
    ]
    code, out, _ = run(capsys, "--format", "tsv", "enumerate", "--n", "2")
    assert code == 0
    assert out == "0\t1,2\n1\t0,3\n1\t2,1\n2\t-1,4\n2\t3,0\n"


def test_enumerate_max_length_filters(capsys):
    code, out, _ = run(capsys, "--format", "tsv", "enumerate", "--n", "3", "--max-length", "3")
    assert code == 0
    _, full, _ = run(capsys, "--format", "tsv", "enumerate", "--n", "3")
    kept = [row for row in full.splitlines() if int(row.split("\t")[0]) <= 3]
    assert out.splitlines() == kept and 1 < len(kept) < 31


def test_enumerate_period_cap(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "8")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# ----------------------------------------------------------------------
# series


def test_series_three_methods_agree(capsys):
    code, out, _ = run(capsys, "series", "--which", "A", "--order", "9", "--method", "all", "--diff")
    assert code == 0
    doc = json.loads(out)
    assert doc["methods"] == ["assembled", "closed", "enumerate"]
    assert doc["rows"] == [[n, c] for n, c in zip(range(1, 10), (0,) + TABLE_1)]
    assert doc["mismatches"] == []
    assert doc["outside_domain"] == [1]


def test_series_text_and_tsv(capsys):
    code, out, _ = run(capsys, "--format", "text", "series", "--which", "A", "--order", "3")
    assert code == 0
    assert out == "A[1] = 0  (outside domain)\nA[2] = 5\nA[3] = 31\n"
    code, out, _ = run(capsys, "--format", "tsv", "series", "--which", "A", "--order", "3")
    assert code == 0
    assert out == "1\t0\n2\t5\n3\t31\n"


def test_series_components(capsys):
    code, out, _ = run(capsys, "series", "--which", "AM", "--order", "5")
    doc = json.loads(out)
    assert code == 0 and doc["rows"] == [[1, 1], [2, 2], [3, 5], [4, 14], [5, 42]]
    assert "outside_domain" not in doc
    code, out, _ = run(capsys, "series", "--which", "AF", "--order", "6", "--method", "all", "--diff")
    doc = json.loads(out)
    assert code == 0 and doc["mismatches"] == []
    assert doc["rows"] == [[1, 1], [2, 3], [3, 11], [4, 43], [5, 173], [6, 707]]
    # only A has an assembled formula of its own, so only A gets that column
    assert doc["methods"] == ["closed", "enumerate"]
    code, out, _ = run(capsys, "series", "--which", "AM", "--order", "5", "--method", "all")
    assert code == 0 and json.loads(out)["methods"] == ["closed", "enumerate"]
    for which in ("AM", "AB", "AF", "ABAR", "ASTAR"):
        code, out, err = run(capsys, "series", "--which", which, "--order", "5", "--method", "assembled")
        assert (code, out) == (1, "") and err.count("\n") == 1
        assert err.startswith("error: --method assembled")


def test_series_enumeration_cap(capsys):
    code, out, _ = run(
        capsys, "series", "--which", "AM", "--order", "9", "--method", "enumerate", "--enum-cap", "99"
    )
    assert code == 0
    doc = json.loads(out)
    # the hard cap keeps enumeration at n <= 8 even when asked for more
    assert doc["rows"] == [[n, c] for n, c in zip(range(1, 9), (1, 2, 5, 14, 42, 132, 429, 1430))]
    code, _, err = run(capsys, "series", "--which", "A", "--order", "0")
    assert code == 1 and "--order" in err
    # the order has a hard maximum too, where all three methods still agree
    code, out, _ = run(
        capsys, "series", "--which", "A", "--order", str(cli.SERIES_ORDER_MAX), "--method", "all", "--diff"
    )
    doc = json.loads(out)
    assert code == 0 and doc["rows"][-1][0] == cli.SERIES_ORDER_MAX and doc["mismatches"] == []
    code, out, err = run(capsys, "series", "--which", "A", "--order", str(cli.SERIES_ORDER_MAX + 1))
    assert (code, out) == (1, "") and err.count("\n") == 1
    assert err.startswith("error: --order must be at most")
    for cap in ("0", "-5"):
        code, out, err = run(
            capsys, "series", "--which", "AM", "--order", "9", "--method", "enumerate", "--enum-cap", cap
        )
        assert (code, out) == (1, "") and "--enum-cap" in err


def test_series_closed_and_assembled_agree_at_the_cap(capsys):
    # with enumeration cut to n = 2 the diff is closed against assembled
    order = str(cli.SERIES_ORDER_MAX)
    code, out, err = run(
        capsys, "series", "--which", "A", "--order", order, "--method", "all", "--enum-cap", "2", "--diff"
    )
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["methods"] == ["assembled", "closed", "enumerate"]
    assert len(doc["rows"]) == cli.SERIES_ORDER_MAX and doc["mismatches"] == []


@pytest.mark.parametrize("which", tuple(cli.SERIES))
def test_series_methods_agree(capsys, which):
    code, out, err = run(capsys, "series", "--which", which, "--order", "6", "--method", "all", "--diff")
    assert (code, err) == (0, "")
    assert json.loads(out)["mismatches"] == []


def test_series_diff_detects_mismatch(capsys, monkeypatch):
    formula, _, first = cli.SERIES["AM"]
    monkeypatch.setitem(cli.SERIES, "AM", (formula, lambda n: 999, first))
    code, out, _ = run(capsys, "series", "--which", "AM", "--order", "3", "--method", "all", "--diff")
    assert code == 2
    doc = json.loads(out)
    assert doc["mismatches"] and doc["mismatches"][0]["n"] == 1
    # without --diff the mismatch is not checked and the exit stays 0
    code, _, _ = run(capsys, "series", "--which", "AM", "--order", "3", "--method", "all")
    assert code == 0


# ----------------------------------------------------------------------
# staircase


@pytest.fixture
def diagram_files(tmp_path):
    valid = tmp_path / "valid.json"
    valid.write_text(
        '{"graph": {"kind": "path", "n": 3}, "blocks": [[1, 2], [2, 3]], "covers": [[0, 1]]}'
    )
    invalid = tmp_path / "invalid.json"
    invalid.write_text(
        '{"graph": {"kind": "path", "n": 3}, "blocks": [[1, 2], [2]], "covers": [[0, 1]]}'
    )
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    wrap = tmp_path / "wrap.json"
    wrap.write_text(
        to_json(
            StaircaseDiagram(
                cycle_graph(10),
                [[0, 1, 2, 3], [7, 8, 9, 0, 1], [5, 6, 7], [3, 4, 5, 6]],
                [(0, 1), (1, 2), (2, 3)],
            )
        )
    )
    return {"valid": valid, "invalid": invalid, "malformed": malformed, "wrap": wrap}


def test_staircase_validate(capsys, diagram_files):
    code, out, _ = run(capsys, "staircase", "validate", "--file", str(diagram_files["valid"]))
    assert code == 0 and json.loads(out) == {"valid": True, "reason": ""}
    code, out, _ = run(capsys, "staircase", "validate", "--file", str(diagram_files["invalid"]))
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is False and doc["reason"].startswith("axiom (4)")
    code, _, err = run(capsys, "staircase", "validate", "--file", str(diagram_files["malformed"]))
    assert code == 1 and err.startswith("error:")


def test_staircase_validate_rejects_non_integers(capsys, tmp_path):
    # each of these was once read as a valid diagram: "12" as {1, 2}, 1.7
    # and 0.2 truncated, true and "2" taken for n
    bad = tmp_path / "bad.json"
    for graph, blocks, covers in (
        ('{"kind": "path", "n": 2}', '["12"]', "[]"),
        ('{"kind": "path", "n": 2}', "[[1.7], [2]]", "[[0, 1]]"),
        ('{"kind": "path", "n": 2}', "[[1], [2]]", "[[0.2, 1]]"),
        ('{"kind": "path", "n": true}', "[[1]]", "[]"),
        ('{"kind": "path", "n": "2"}', "[[1], [2]]", "[[0, 1]]"),
        ('{"kind": "path", "n": 2}', "{}", "[]"),
    ):
        bad.write_text(f'{{"graph": {graph}, "blocks": {blocks}, "covers": {covers}}}')
        for action in ("validate", "render"):
            code, out, err = run(capsys, "staircase", action, "--file", str(bad))
            assert code == 1 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1, err


def test_staircase_rejects_a_huge_graph(capsys, tmp_path):
    # the constructor and validate hold one entry per vertex, so without a
    # cap on n this file would take memory linear in n
    huge = tmp_path / "huge.json"
    huge.write_text('{"graph": {"kind": "cycle", "n": 1000000000}, "blocks": [[0]], "covers": []}')
    for action in ("validate", "render"):
        code, out, err = run(capsys, "staircase", action, "--file", str(huge))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "at most 1000" in err


def test_staircase_render(capsys, diagram_files):
    code, out, _ = run(capsys, "--format", "text", "staircase", "render", "--file", str(diagram_files["valid"]))
    assert code == 0
    assert out == "s1 s2 s3\n.. ## ##\n## ## ..\n"
    code, out, _ = run(capsys, "staircase", "render", "--file", str(diagram_files["valid"]))
    assert json.loads(out) == "s1 s2 s3\n.. ## ##\n## ## .."
    # invalid diagrams are refused for every action except validate
    code, _, err = run(capsys, "staircase", "render", "--file", str(diagram_files["invalid"]))
    assert code == 1 and "axiom (4)" in err


def test_staircase_dyck(capsys, diagram_files, tmp_path):
    code, out, _ = run(capsys, "staircase", "dyck", "--file", str(diagram_files["valid"]))
    assert code == 0
    assert json.loads(out) == {"semilength": 3, "pairs": [[2, 1], [1, 2]]}
    code, out, _ = run(capsys, "--format", "tsv", "staircase", "dyck", "--file", str(diagram_files["valid"]))
    assert out == "2\t1\n1\t2\n"
    down = tmp_path / "down.json"
    down.write_text('{"graph": {"kind": "path", "n": 2}, "blocks": [[1], [2]], "covers": [[1, 0]]}')
    code, _, err = run(capsys, "staircase", "dyck", "--file", str(down))
    assert code == 1 and "not increasing" in err


def test_staircase_decompose_cycle(capsys, diagram_files):
    code, out, _ = run(capsys, "staircase", "decompose", "--file", str(diagram_files["wrap"]))
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "cycle" and doc["mark"] == 6
    assert [p["n"] for p in doc["pieces"]] == [2, 8]
    assert [p["direction"] for p in doc["pieces"]] == ["increasing", "decreasing"]
    assert all(p["broken"] for p in doc["pieces"])


def test_staircase_decompose_path(capsys, tmp_path):
    f = tmp_path / "chain.json"
    f.write_text('{"graph": {"kind": "path", "n": 2}, "blocks": [[1], [2]], "covers": [[1, 0]]}')
    code, out, _ = run(capsys, "staircase", "decompose", "--file", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "path"
    assert doc["pieces"] == [
        {"n": 1, "direction": "decreasing", "blocks": [[1]], "broken": False}
    ]
    assert doc["final"] == {"graph": {"kind": "path", "n": 1}, "blocks": [[1]], "covers": []}


# ----------------------------------------------------------------------
# selftest


def test_selftest_small_passes(capsys):
    code, out, _ = run(capsys, "selftest", "--scale", "small")
    assert code == 0
    doc = json.loads(out)
    assert [r["criterion"] for r in doc] == list(range(1, 12))
    assert all(r["ok"] for r in doc)
    assert [r["name"] for r in doc] == [name for _, name, _ in CRITERIA]


def test_selftest_worker_count_does_not_change_output(capsys):
    code_a, out_a, _ = run(capsys, "selftest", "--scale", "small")
    code_b, out_b, _ = run(capsys, "--workers", "2", "selftest", "--scale", "small")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_selftest_pool_has_at_most_one_worker_per_criterion(monkeypatch):
    # a fake pool: records its size and starts no process
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [selftest.CriterionResult(i, name, True, "") for i, name, _ in jobs]

    monkeypatch.setattr(selftest, "ProcessPoolExecutor", FakePool)
    for workers in (2, len(CRITERIA), 1000):
        assert all(r.ok for r in selftest.run_selftest("small", workers=workers))
    assert sizes == [2, len(CRITERIA), len(CRITERIA)]


@pytest.mark.parametrize(
    "exc, detail",
    [
        (NotSmooth("no tower"), "raised NotSmooth: no tower"),
        (ValueError("bad n"), "raised ValueError: bad n"),
        (AssertionError("mismatch"), "raised AssertionError: mismatch"),
        (BudgetExceeded("cap 16"), "raised BudgetExceeded: cap 16"),
    ],
    ids=["NotSmooth", "ValueError", "AssertionError", "BudgetExceeded"],
)
def test_selftest_reports_a_raising_criterion(monkeypatch, exc, detail):
    def criterion(scale):
        raise exc

    monkeypatch.setattr(selftest, "CRITERIA", ((1, "raises", criterion),))
    assert selftest._run_one((1, "raises", "small")) == selftest.CriterionResult(1, "raises", False, detail)


def test_selftest_text_lines(capsys):
    code, out, _ = run(capsys, "--format", "text", "selftest", "--scale", "small")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11
    assert all(line.startswith("PASS criterion") for line in lines)


# ----------------------------------------------------------------------
# determinism and parser behavior


def test_reruns_are_byte_identical(capsys):
    for argv in (
        ("smooth", "--n", "4", "--window", "3,4,1,2"),
        ("enumerate", "--n", "2"),
        ("series", "--which", "A", "--order", "9", "--method", "all"),
        ("--format", "tsv", "series", "--which", "AB", "--order", "6"),
    ):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


def test_json_output_is_a_single_document(capsys):
    for argv in (
        ("smooth", "--n", "2", "--word", "0"),
        ("enumerate", "--n", "2"),
        ("series", "--which", "AM", "--order", "4"),
        ("selftest", "--scale", "small"),
    ):
        _, out, _ = run(capsys, *argv)
        json.loads(out)  # exactly one parseable document
        assert out.count("\n") == 1 and out.endswith("\n")


def test_rejected_flags_exit_via_argparse(capsys):
    for argv in (
        ["series", "--which", "BOGUS", "--order", "3"],
        ["staircase", "explode", "--file", "x"],
        [],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
    # a window starting with a negative value is a value, not a flag,
    # also after an abbreviated flag
    for flag in ("--window", "--win", "--wi"):
        code, out, _ = run(capsys, "smooth", "--n", "2", flag, "-1,4")
        assert code == 0 and json.loads(out)["window"] == [-1, 4]
    # a word reaches the element parser, which rejects the letter -1
    code, _, err = run(capsys, "smooth", "--n", "3", "--wo", "-1,0")
    assert code == 1 and "reflection index" in err
