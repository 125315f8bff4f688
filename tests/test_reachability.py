"""Every public function of the package is reached by the program itself.

A public function must be named by the CLI, by a corpus fact, by another
module of the package, by an acceptance criterion or by the benchmark; a
check that only its own unit tests call reproduces nothing.  The scan reads
the source with ``ast``: a reference is a name or an attribute (a ``def``
is neither), and in the benchmark also a string, since its tracer looks
functions up by name.
"""

import ast
import inspect
from pathlib import Path

import specsplit

PACKAGE = Path(specsplit.__file__).parent
REPO = Path(__file__).parent.parent

# public functions that no command, fact, criterion or benchmark job runs
ALLOWED = {
    "subspace_angle": "the measure the tests compare invariant-subspace bases with",
    "resolvent": "the certified dense solve the tests check the resolvent kernel against",
}


def names_in(path: Path) -> set[str]:
    strings = path.parent.name == "perfbench"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def public_functions() -> set[str]:
    return {name for name, obj in vars(specsplit).items() if inspect.isfunction(obj) and not name.startswith("_")}


def test_every_public_function_is_reached():
    readers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    readers += [REPO / "tests" / "test_acceptance.py", *sorted((REPO / "perfbench").glob("*.py"))]
    reached = set().union(*map(names_in, readers))
    assert sorted(public_functions() - reached) == sorted(ALLOWED)


def test_allowlist_names_public_functions():
    assert set(ALLOWED) <= set(public_functions())
