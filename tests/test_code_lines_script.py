"""scripts/code_lines.py on fixed sources."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"

# 9 code lines: the import, the def, the four lines of the sum and the two
# of the string, and the return
SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


def f(x):
    """A function docstring."""
    total = (
        x
        + 1
    )
    text = """a string
that is not a docstring"""
    return total, text, os.sep
'''


def load_script():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_code_lines_skip_blanks_comments_and_docstrings():
    assert load_script().code_lines(SOURCE) == 9


def test_the_script_prints_each_module_and_the_total(tmp_path, capsys):
    script = load_script()
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    assert script.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["     9  a.py", "     1  b.py", "    10  total", ""]
    assert script.main([str(tmp_path / "a.py")]) == 0
    assert capsys.readouterr().out.split("\n") == ["     9  a.py", "     9  total", ""]
    assert script.main([str(tmp_path), "extra"]) == 2
    assert script.main([]) == 0
    *modules, total = capsys.readouterr().out.splitlines()
    assert "model.py" in {line.split()[1] for line in modules}
    assert int(total.split()[0]) == sum(int(line.split()[0]) for line in modules)
