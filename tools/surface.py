"""Print the size and option surface of each module of a source tree.

Run from the repository root:

    python3 tools/surface.py [DIRECTORY]

    python3 tools/surface.py --names [DIRECTORY]

``DIRECTORY`` defaults to ``src/mfcontrol``.  For each ``*.py`` file in it
this prints one line: the module, its total lines, its code lines (lines
that are not blank, not only a comment and not part of a docstring), its
options, the optional parameters of its public functions and methods plus
the defaulted fields of its dataclasses, and its public names, the length
of its ``__all__``.  A last line sums the columns.  A function or class is
public when its name does not start with an underscore; a method counts
when its class is public too.  With ``--names`` it prints instead one line
``module name`` per entry of each ``__all__``, for a diff against another
tree.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _code_lines(source: str, tree: ast.Module) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(tree))


def _optional_parameters(fn) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _options(tree: ast.Module) -> int:
    count = 0
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                count += _optional_parameters(node)
        elif isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                             for s in node.body)
            if node.name.startswith("_"):
                continue
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    count += _optional_parameters(item)
    return count


def _public_names(tree: ast.Module) -> list:
    """The entries of the module's ``__all__`` (none when it has none)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def surface(path: Path) -> tuple:
    """(total lines, code lines, options, public names) of one module."""
    source = path.read_text()
    tree = ast.parse(source)
    return (len(source.splitlines()), _code_lines(source, tree), _options(tree),
            len(_public_names(tree)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("directory", nargs="?", type=Path, default=ROOT / "src" / "mfcontrol")
    ap.add_argument("--names", action="store_true", help="print each module's __all__ entries")
    args = ap.parse_args(argv)
    paths = sorted(args.directory.glob("*.py"))
    if not paths:
        ap.error(f"no Python modules in {args.directory}")
    if args.names:
        for path in paths:
            for name in _public_names(ast.parse(path.read_text())):
                print(path.stem, name)
        return 0
    rows = [(path.name, *surface(path)) for path in paths]
    rows.append(("total", *(sum(col) for col in list(zip(*rows))[1:])))
    print(f"{'module':<20} {'lines':>6} {'code':>6} {'options':>7} {'public':>6}")
    for name, total, code, options, public in rows:
        print(f"{name:<20} {total:>6} {code:>6} {options:>7} {public:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
