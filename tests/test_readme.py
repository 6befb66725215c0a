"""README's python blocks run as written, each in a fresh namespace.

The module imports nothing but the standard library, so it also runs as
a script, `python -W error tests/test_readme.py`, against whichever
ontodesc is importable: from outside the source tree and with no
PYTHONPATH, that is the installed package.  A traceback names the
README line that raised.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[tuple[int, str]]:
    """(first line number, source) of each ```python block in README."""
    text = README.read_text(encoding="utf-8")
    return [
        (text.count("\n", 0, m.start(1)) + 1, m.group(1))
        for m in re.finditer(r"^```python\n(.*?)^```$", text, re.S | re.M)
    ]


def run(line: int, source: str) -> None:
    # pad so the compiled block's line numbers are the README's
    exec(compile("\n" * (line - 1) + source, str(README), "exec"), {"__name__": "readme"})


def test_every_python_block_runs_in_a_fresh_namespace():
    blocks = python_blocks()
    assert blocks
    for line, source in blocks:
        run(line, source)


if __name__ == "__main__":
    blocks = python_blocks()
    for line, source in blocks:
        run(line, source)
    print(f"{len(blocks)} README python block(s) ran")
