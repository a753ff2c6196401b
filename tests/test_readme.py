"""The README's Library snippets run as written and print what their
comments say."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def _library_blocks() -> list[str]:
    text = README.read_text()
    section = text[text.index("## Library"):text.index("\n## ", text.index("## Library") + 1)]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_snippets_print_what_their_comments_state():
    blocks = _library_blocks()
    assert len(blocks) == 3
    out = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    printed = out.getvalue().splitlines()
    comments = [
        line.split("#", 1)[1].strip()
        for block in blocks
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert len(printed) == len(comments) == 4
    assert comments[0] == printed[0] == "DiagonalElement({v1: 6})"
    assert comments[1] == printed[1] == "DiagonalElement({v1: -2})"
    assert comments[2] == "even, not semicircular"
    report = namespace["classify"](namespace["a"], max_order=6)
    assert printed[2] == repr(report)
    assert report.even and not report.semicircular
    assert comments[3].startswith("False 3:")
    assert printed[3] == "False 3"
