"""The acceptance gate: every selftest criterion at full scale.

Each test prints one PASS/FAIL line (run pytest with -s or look at the
failure message) and asserts the criterion's verdict.  The criteria
themselves live in schubsmooth.selftest so the installed package ships
its own acceptance suite; this file just drives them one by one.  Where
README.md says that criterion N reports `...`, the quoted detail must be
the one just computed, so the README's counts cannot drift from selftest.
"""

import re
from pathlib import Path

import pytest

from schubsmooth.selftest import CRITERIA

README = Path(__file__).resolve().parent.parent / "README.md"
REPORT = re.compile(r"criterion (\d+) reports `([^`]*)`", re.IGNORECASE)


def readme_reports(text):
    """The quoted detail of each phrase "criterion N reports `...`", by N,
    with whitespace runs made single spaces, as Markdown wraps the phrases."""
    reports = {}
    for index, detail in REPORT.findall(" ".join(text.split())):
        reports.setdefault(int(index), []).append(detail)
    return reports


REPORTS = readme_reports(README.read_text(encoding="utf-8"))


def test_readme_reports_are_read_across_line_breaks():
    text = "Criterion 7 reports `12 elements,\n  n\n<= 5` and criterion 10 reports `ok`;\ncriterion 7 ends with `x`"
    assert readme_reports(text) == {7: ["12 elements, n <= 5"], 10: ["ok"]}
    assert set(REPORTS) <= {index for index, _, _ in CRITERIA}
    assert REPORTS


@pytest.mark.parametrize(
    "index,name,func",
    CRITERIA,
    ids=[f"criterion_{i:02d}_{name.replace(' ', '_')}" for i, name, _ in CRITERIA],
)
def test_criterion(index, name, func):
    ok, detail = func("full")
    print(f"{'PASS' if ok else 'FAIL'} criterion {index:2d} {name}: {detail}")
    assert ok, f"criterion {index} ({name}) failed: {detail}"
    for quoted in REPORTS.get(index, []):
        assert quoted == " ".join(detail.split()), f"README.md says criterion {index} reports `{quoted}`"
