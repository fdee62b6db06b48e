"""README as written: its "Library use" block runs, which guards the names
the package exports at its top level and the documented API, and every
command-line flag it names is an option of the ``vcfclass`` parser."""

import contextlib
import io
import re
from pathlib import Path

from helpers import subcommand_options

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


FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def test_readme_flags_are_cli_options():
    options = subcommand_options()
    text = README.read_text(encoding="utf-8")
    # Walkthrough commands, continuation lines joined, and inline code spans
    # outside the fenced blocks; either may name its subcommand first.
    commands = [line.strip() for line in text.replace("\\\n", " ").splitlines()
                if line.startswith("vcfclass ")]
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    snippets = commands + re.findall(r"`([^`\n]*)`", prose)
    assert commands, "no vcfclass walkthrough line found"
    unknown = []
    for snippet in snippets:
        words = snippet.removeprefix("vcfclass ").split()
        allowed = options.get(words[0] if words else "", set().union(*options.values()))
        unknown += [(snippet, flag) for flag in FLAG.findall(snippet) if flag not in allowed]
    assert not unknown
