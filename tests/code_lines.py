"""Count the code lines of a package: the lines that are not blank, not a
comment, and not part of a module, class or function docstring.

    python tests/code_lines.py [DIR]

prints each module's count under DIR, ``src/sensapprox`` by default,
and their total. Docstrings are found through ``ast``: the string
constant that is the first statement of a module, a class or a
function, over every line it spans.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def code_lines(text):
    lines = text.splitlines()
    skip = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                skip.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for k, line in enumerate(lines, 1)
               if k not in skip and line.strip() and not line.strip().startswith("#"))


def main(argv):
    top = Path(argv[0]) if argv else ROOT / "src" / "sensapprox"
    total = 0
    for path in sorted(top.rglob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.relative_to(top)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
