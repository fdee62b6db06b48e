"""README's "Library use" block runs as written: it guards the names the
package exports at its top level and the documented API."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(library_block(), str(README), "exec"), {})
    lines = printed.getvalue().splitlines()
    assert [line.split()[0] for line in lines] == ["measured", "longitudinal",
                                                   "combined"]
