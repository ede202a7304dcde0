"""The rules of the code-line counter that sizes ``src/stackseg``."""
import os
import subprocess
import sys

from code_lines import code_lines

MODULE = '''"""A module docstring
over two lines."""
import os  # a trailing comment leaves the line code


def f(x):
    """One line of docstring."""
    # a comment on its own line
    return os.path.join(
        x,
        "y")
'''


def test_counts_only_lines_that_hold_code():
    # import, def, and the three lines of the call
    assert code_lines(MODULE) == 5


def test_a_string_that_is_not_a_docstring_counts():
    assert code_lines('x = 1\n"""a bare\nstring"""\n') == 3
    assert code_lines('def f():\n    return """a\n    b"""\n') == 3


def test_the_script_prints_each_file_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("\n# only a comment\n")
    script = os.path.join(os.path.dirname(__file__), "code_lines.py")
    out = subprocess.run([sys.executable, script, str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    rows = [line.split() for line in out.splitlines()]
    assert rows == [["5", str(tmp_path / "a.py")],
                    ["0", str(tmp_path / "b.py")], ["5", "total"]]
