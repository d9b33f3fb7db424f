"""Every public top-level function and class of the package, and every
public method and property of a public class, is reached by the package
itself or by the acceptance suite; code reached only by its own unit tests
is deleted rather than kept. Dunder methods are exempt."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "actdiag"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_public_definition_is_used():
    modules = {p: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}
    used = set()
    for tree in [*modules.values(), _parse(ROOT / "tests" / "test_acceptance.py")]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    public = [(f"{path.stem}.{node.name}", node)
              for path, tree in modules.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    members = [(f"{name}.{member.name}", member)
               for name, node in public if isinstance(node, ast.ClassDef)
               for member in node.body if isinstance(member, ast.FunctionDef)
               and not member.name.startswith("_")]
    unused = [name for name, node in public + members if node.name not in used]
    assert unused == []
