"""Print the code lines of each module under SRC, and their total.

    python tools/code_lines.py [SRC]

SRC defaults to src/ospboson.  A code line is a line that is not blank,
not a comment and not part of a docstring: the string statement that opens
a module, class or function body, over all the lines it spans.  Each
module's count is printed as "<count> <path>", sorted by path, then the
total as "<count> total".
"""

import ast
import io
import sys
import tokenize
from pathlib import Path


def docstring_lines(tree):
    """The line numbers spanned by the docstrings of tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    """The number of code lines in the Python source text."""
    skip = docstring_lines(ast.parse(text))
    comments = {tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(text).readline)
                if tok.type == tokenize.COMMENT and not tok.line[:tok.start[1]].strip()}
    return sum(1 for n, line in enumerate(text.splitlines(), 1)
               if line.strip() and n not in skip and n not in comments)


def main(argv):
    src = Path(argv[1] if len(argv) > 1 else "src/ospboson")
    total = 0
    for path in sorted(src.rglob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print("%5d %s" % (n, path))
    print("%5d total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
