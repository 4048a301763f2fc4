"""Every top-level function and class of the package, and every method, is
named somewhere else in the program (src/kgdial) or by the benchmark
(perfbench/), or is a test oracle listed below with its reason. Package
code that only tests reach fails here, by name, in well under a second.

A name counts where code uses it (a name, an attribute, an import) or where
a string that is not a docstring spells it, as perfbench's tracer does with
``"ToyEncoder.forward"``. Dunder methods are called by Python itself."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "kgdial").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "perfbench").rglob("*.py"))

# package code kept because tests check the program against it
ORACLES = {
    "bleu_n": "sentence BLEU; consensus's sim-bleu features must equal it "
              "bit for bit, and criterion 1 checks it against a brute force",
    "entity_recall": "tracking recall, criterion 6's score and the tracking "
                     "row of ROADMAP item 5's attribution table",
    "finite_difference_check": "central differences; criterion 3 checks the "
                               "analytic gradients against them",
    "fuzzy_similarity": "one name's best-window similarity; fuzzy_match_entities "
                        "must select exactly the entities it scores over the "
                        "threshold",
    "mtl_forward": "the multi-task head on one instance, as criterion 2's "
                   "hand-computed equations state it",
    "parse_history": "the inverse of linearize_history, which the corpus "
                     "round-trip tests apply",
    "PhoneticIndex.exact_neighbors": "the exhaustive scan that criterion 8 "
                                     "measures the LSH index's recall against",
}


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                yield first.value


def _names_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {id(node) for node in _docstrings(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            yield from re.findall(r"[A-Za-z_]\w*", node.value)


def _definitions():
    """(module, qualified name) of every top-level function and class and
    every method of a top-level class."""
    for path in PACKAGE:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.stem, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not re.fullmatch(r"__\w+__", item.name)):
                        yield path.stem, f"{node.name}.{item.name}"


def test_every_package_name_is_used_by_the_program():
    used = {name for path in READERS for name in _names_used(path)}
    unused = [f"kgdial.{module}.{name}" for module, name in _definitions()
              if name not in ORACLES and name.rsplit(".", 1)[-1] not in used]
    assert not unused, (
        f"named nowhere in src/kgdial or perfbench/: {unused}; delete them, "
        "or list each in ORACLES with the reason tests need it")


def test_every_oracle_is_still_defined():
    assert set(ORACLES) <= {name for _, name in _definitions()}
