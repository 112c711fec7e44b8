"""The README's examples run as shown: the library snippet and the closed.check session."""

import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from diracgeom.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(section: str) -> list[tuple[str, list[str]]]:
    """(language, lines) of each fenced block under the ``## section`` heading, up to the next one."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return [(lang, text.splitlines()) for lang, text in re.findall(r"^```(\w*)\n(.*?)^```$", body, re.M | re.S)]


def test_library_example_prints_its_comments():
    (lang, lines), *_ = _blocks("Library use")
    assert lang == "python"
    shown = [line[2:] for line in lines if line.startswith("# ")]
    out = StringIO()
    with redirect_stdout(out):
        exec("\n".join(lines), {})
    assert shown
    assert out.getvalue().splitlines() == shown


def test_command_line_example_prints_the_shown_session(tmp_path, capsys):
    (_, checkfile), (_, session), *_ = _blocks("Command line")
    name = checkfile[0].removeprefix("# ")
    assert session[0] == f"$ diracgeom verify {name}"
    (tmp_path / name).write_text("\n".join(checkfile[1:]) + "\n")
    code = main(["verify", str(tmp_path / name)])
    assert capsys.readouterr().out.splitlines() == session[1:]
    # exit 1 when a check fails, as the README states
    failed = int(re.fullmatch(r"summary: \d+ passed, (\d+) failed", session[-1]).group(1))
    assert code == (1 if failed else 0)
