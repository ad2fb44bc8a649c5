"""Line counts of the tlab package: code, docstrings, comments and blank.

Each line of each module under src/tlab falls in exactly one class:
docstring (inside the span of a module, class or function docstring, as
ast reports it, its blank lines included), blank (whitespace only),
comment (starting with #) or code (everything else, trailing comments
included).

With --readme FILE it also reads FILE's "<code> today (<total> lines in
all)" and exits 1, naming both figures, when either differs from the
measured code and total columns.

Usage: python tests/line_counts.py [PACKAGE_DIR] [--readme FILE]
       (default PACKAGE_DIR: src/tlab)
"""

import argparse
import ast
import re
import sys
from pathlib import Path

KINDS = ("code", "docstrings", "comments", "blank")
FIGURES = re.compile(r"([\d,]+)\s+today\s+\(([\d,]+)\s+lines\s+in\s+all\)")


def docstring_lines(tree: ast.Module) -> set[int]:
    """1-based line numbers covered by the module's docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            counts["docstrings"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comments"] += 1
        else:
            counts["code"] += 1
    return counts


def readme_mismatch(text: str, code: int, total: int) -> str | None:
    """None when text states these code and total figures, else why not."""
    found = FIGURES.search(text)
    if found is None:
        return "no '<code> today (<total> lines in all)' figures found"
    said = tuple(int(g.replace(",", "")) for g in found.groups())
    if said != (code, total):
        return (f"says code {said[0]:,} and total {said[1]:,}; "
                f"measured code {code:,} and total {total:,}")
    return None


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="line_counts.py")
    parser.add_argument("package", nargs="?", type=Path,
                        default=Path(__file__).parent.parent / "src" / "tlab")
    parser.add_argument("--readme", type=Path)
    args = parser.parse_args(argv[1:])
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':16s} {'total':>6s} " + " ".join(f"{k:>10s}" for k in KINDS))
    for path in sorted(args.package.glob("*.py")):
        counts = count(path)
        for k in KINDS:
            total[k] += counts[k]
        print(f"{path.name:16s} {sum(counts.values()):6d} "
              + " ".join(f"{counts[k]:10d}" for k in KINDS))
    print(f"{'total':16s} {sum(total.values()):6d} " + " ".join(f"{total[k]:10d}" for k in KINDS))
    if args.readme is not None:
        why = readme_mismatch(args.readme.read_text(), total["code"], sum(total.values()))
        if why is not None:
            print(f"{args.readme}: {why}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
