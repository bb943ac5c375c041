"""Line counts of the package's modules: total, code, docstring, comment-only
and blank lines, per module and summed.

A docstring line is one spanned by the string that opens a module, class or
function body; a comment-only line holds nothing but a comment; a blank line
holds nothing, outside any docstring. Every other line is code.

    python3 tools/src_lines.py [package directory, default src/fragsim]
"""

import ast
import sys
from pathlib import Path

COLUMNS = ("total", "code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers the docstrings of `tree` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """The COLUMNS counts of one module's source."""
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text))
    comment = blank = 0
    for number, line in enumerate(lines, 1):
        if number in docs:
            continue
        stripped = line.strip()
        if not stripped:
            blank += 1
        elif stripped.startswith("#"):
            comment += 1
    total = len(lines)
    return {"total": total, "code": total - len(docs) - comment - blank,
            "docstring": len(docs), "comment": comment, "blank": blank}


def main(argv: list[str]) -> None:
    root = Path(argv[0] if argv else "src/fragsim")
    rows = {path.name: count(path.read_text()) for path in sorted(root.glob("*.py"))}
    rows["all"] = {c: sum(row[c] for row in rows.values()) for c in COLUMNS}
    print(f"{'module':<14}" + "".join(f"{c:>10}" for c in COLUMNS))
    for name, row in rows.items():
        print(f"{name:<14}" + "".join(f"{row[c]:>10,}" for c in COLUMNS))


if __name__ == "__main__":
    main(sys.argv[1:])
