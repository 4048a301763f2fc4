"""Every top-level function and class of the package, and every method, is
named somewhere else in the program (src/kgdial) or by the benchmark
(perfbench/), or is a test oracle listed below with its reason. Package
code that only tests reach fails here, by name, in well under a second.

A name counts where code uses it (a name, an attribute, an import) or where
a string that is not a docstring spells it, as perfbench's tracer does with
``"ToyEncoder.forward"``. Dunder methods are called by Python itself.

Likewise every defaulted parameter of a package function or method, and
every field of a package dataclass with a default value, is set by some
call in the program or in the benchmark's scripts (perfbench/*.py), or is
listed in UNSET_DEFAULTS with its reason: a value only tests set is a
constant, not an option.

And every attribute that package code assigns on ``self``, and every
field of a package dataclass or ``NamedTuple``, is read somewhere in the
program or the benchmark: an attribute loaded by that name from any
object, or a string that is not a docstring spelling it. An attribute only
ever written, or only incremented, is dead state, and so is a field only
ever set."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "kgdial").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "perfbench").rglob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))

# package code kept because tests check the program against it
ORACLES = {
    "bleu_n": "sentence BLEU of two texts, corpus BLEU of the one pair; "
              "consensus's sim-bleu features must equal it bit for bit, and "
              "criterion 1 checks it against a brute force",
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


def _string_names(tree):
    """The identifiers spelled by the strings of ``tree`` that are not
    docstrings."""
    docstrings = {id(node) for node in _docstrings(tree)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in docstrings):
            yield from re.findall(r"[A-Za-z_]\w*", node.value)


def _names_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
    yield from _string_names(tree)


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


def _self_assignments(path):
    """Each attribute that code in ``path`` assigns on ``self``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            yield node.attr


def _attributes_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
    yield from _string_names(tree)


def _unread_attributes(writers=PACKAGE, readers=READERS) -> list[str]:
    read = {name for path in readers for name in _attributes_read(path)}
    return [f"kgdial.{path.stem}: self.{name}" for path in writers
            for name in dict.fromkeys(_self_assignments(path)) if name not in read]


def _is_record(node):
    """Whether the class ``node`` is a dataclass or a ``NamedTuple``."""
    return _is_dataclass(node) or any(getattr(b, "id", None) == "NamedTuple"
                                      for b in node.bases)


def _fields(path):
    """(class, field) of each field of a dataclass or ``NamedTuple`` that
    ``path`` defines."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ClassDef) and _is_record(node):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def _unread_fields(writers=PACKAGE, readers=READERS) -> list[str]:
    read = {name for path in readers for name in _attributes_read(path)}
    return [f"kgdial.{path.stem}.{cls}.{name}" for path in writers
            for cls, name in _fields(path) if name not in read]


def test_every_field_the_package_declares_is_read():
    unread = _unread_fields()
    assert not unread, (
        f"fields read nowhere in src/kgdial or perfbench/: {unread}; delete them")


def test_field_reads_are_loads_and_strings(tmp_path):
    # a is loaded and b spelled by a string; c is only set, d only named by
    # a docstring, and the plain class's e is no field
    module = tmp_path / "records.py"
    module.write_text(
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n"
        "@dataclass\n"
        "class Record:\n"
        "    a: int\n"
        "    c: int = 0\n"
        "class Pair(NamedTuple):\n"
        "    b: int\n"
        "    d: int\n"
        "class Plain:\n"
        "    e: int = 0\n"
        "def total(record, pair):\n"
        '    """pair.d is not counted here."""\n'
        "    return Record(1, c=2).a + getattr(pair, 'b')\n")
    assert _unread_fields([module], [module]) == [
        "kgdial.records.Record.c", "kgdial.records.Pair.d"]


def test_every_attribute_the_package_sets_is_read():
    unread = _unread_attributes()
    assert not unread, (
        f"assigned but read nowhere in src/kgdial or perfbench/: {unread}; "
        "delete them")


def test_attribute_reads_are_loads_and_strings(tmp_path):
    # a is loaded and b spelled by a string; c is read only by a docstring,
    # d never, and e is only incremented
    module = tmp_path / "holder.py"
    module.write_text(
        "class Holder:\n"
        "    def __init__(self):\n"
        "        self.a, self.b = 1, 2\n"
        "        self.c: int = 3\n"
        "        self.d = 4\n"
        "        self.e = 5\n"
        "        self.e += 1\n"
        "    def total(self):\n"
        '        """self.c is not counted here."""\n'
        "        return self.a + getattr(self, 'b')\n")
    assert _unread_attributes([module], [module]) == [
        "kgdial.holder: self.c", "kgdial.holder: self.d", "kgdial.holder: self.e"]


# defaulted parameters that no call in the program sets, each with the
# reason it stays a parameter
UNSET_DEFAULTS = {
    "main(argv)": "the console script calls main() and lets argparse read "
                  "sys.argv; tests pass the argument list",
    "bleu_n(n)": "oracle: the program reads every order from bleu_orders or "
                 "bleu_stats; tests check each order against a brute force",
    "finite_difference_check(epsilon)": "oracle: criterion 3's step size",
    "finite_difference_check(max_entries_per_param)": "oracle: criterion 3's "
                                                      "sample size",
    "finite_difference_check(seed)": "oracle: criterion 3's sample draw",
    "extract_sparse_features(variant)": "the tracer-wrapped reference the "
                                        "array features are checked against",
    "ToyEncoder.token_ids(boundary)": "the reference definition of the pair "
                                      "inputs the rankers build from ids",
    "tune_weights(init_weights)": "acceptance criterion 5 tunes from given "
                                  "weights",
    "TuneConfig.__init__(restarts)": "acceptance criterion 5 and the tuning "
                                     "tests run one or two restarts to stay fast",
    "MiniCorpusConfig.__init__(seeking_fraction)": "perfbench reads it from the "
                                                   "default config to size its "
                                                   "workloads",
    "MiniCorpusConfig.__init__(trailing_question_rate)": "perfbench reads it from "
                                                         "the default config to "
                                                         "size its workloads",
}


def _is_dataclass(node):
    return any(getattr(d, "id", None) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in node.decorator_list)


def _factory(node):
    """Whether ``node`` is a ``field(default_factory=...)`` call."""
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "field"
            and any(k.arg == "default_factory" for k in node.keywords))


class _DataclassInit(ast.FunctionDef):
    """The ``__init__`` a dataclass generates."""


def _dataclass_init(node):
    """The ``__init__`` a dataclass generates, as a function node: a
    parameter per field, in order, defaulted where the field is assigned
    a value (a default, or a ``field`` with a default or a factory)."""
    args, defaults = [ast.arg("self")], []
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            args.append(ast.arg(item.target.id))
            if item.value is not None:
                defaults.append(item.value)
    return _DataclassInit("__init__", ast.arguments(
        posonlyargs=[], args=args, kwonlyargs=[], kw_defaults=[], defaults=defaults),
        [], [])


def _scan(path):
    """The functions, the calls and the classes of one file. A function is
    (qualified name, node, offset), where offset is 1 if a call binds the
    first parameter itself (self or cls); a dataclass counts its generated
    ``__init__``. A call is (callee name, node, the function the call sits
    in as (qualified name, node), or None); the callee of
    ``super().__init__(...)`` in class C is ``super:C``, and of
    ``dataclasses.replace(obj, ...)`` it is ``replace``, which sets the
    fields it names of every dataclass. A class maps its name to the names
    of its bases."""
    functions, calls, classes = [], [], {}

    def visit(node, prefix, in_class, caller, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                qualified = f"{prefix}{child.name}"
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                functions.append((qualified, child, int(in_class and not static)))
                visit(child, f"{qualified}.", False, (qualified, child), owner)
            elif isinstance(child, ast.ClassDef):
                classes[child.name] = [getattr(b, "id", None) or getattr(b, "attr", None)
                                       for b in child.bases]
                if _is_dataclass(child):
                    functions.append((f"{prefix}{child.name}.__init__",
                                      _dataclass_init(child), 1))
                visit(child, f"{prefix}{child.name}.", True, caller, child.name)
            else:
                if isinstance(child, ast.Call):
                    name = (getattr(child.func, "id", None)
                            or getattr(child.func, "attr", None))
                    inner = getattr(child.func, "value", None)
                    if (name == "__init__" and isinstance(inner, ast.Call)
                            and getattr(inner.func, "id", None) == "super"):
                        name = f"super:{owner}"
                    if name:
                        calls.append((name, child, caller))
                visit(child, prefix, in_class, caller, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "", False, None, None)
    return functions, calls, classes


def _defaulted(node):
    """(name, position) of each defaulted parameter, keyword-only ones at
    position None, then ("**name", None) if the function takes ``**name``.
    A dataclass field built by a default factory is not an option."""
    positional = node.args.posonlyargs + node.args.args
    first = len(positional) - len(node.args.defaults)
    for position, (arg, default) in enumerate(
            zip(positional[first:], node.args.defaults), first):
        if not _factory(default):
            yield arg.arg, position
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield arg.arg, None
    if node.args.kwarg:
        yield f"**{node.args.kwarg.arg}", None


def _unset_defaults(callers=CALLERS, package=PACKAGE) -> list[str]:
    """``function(parameter)`` of every defaulted parameter of the package
    that no call in the program or the benchmark sets. A call sets a
    parameter by keyword, by position, through ``*args``, or through a
    ``**mapping``; a class call is a call of the ``__init__`` it runs, its
    own or the first one its bases define, and ``super().__init__`` in a
    class is a call of the first one its bases define. A mapping that
    forwards the calling function's own ``**`` parameter sets something
    only if that parameter is set itself."""
    functions, calls, bases = [], [], {}
    for path in callers:
        found, made, classes = _scan(path)
        functions += found if path in package else []
        calls += made
        bases.update(classes)
    inits = {qualified.rpartition(".")[0]: (qualified, node, offset)
             for qualified, node, offset in functions if qualified.endswith(".__init__")}

    def constructor(cls):
        """The class whose ``__init__`` a call of ``cls`` runs, or None."""
        return cls if cls in inits else inherited(cls)

    def inherited(cls):
        """The class whose ``__init__`` ``super().__init__`` in ``cls``
        runs, or None."""
        return next(filter(None, map(constructor, bases.get(cls, ()))), None)

    by_callee: dict = {}
    for qualified, node, offset in functions:
        owner, _, name = qualified.rpartition(".")
        by_callee.setdefault(owner if name == "__init__" else name,
                             []).append((qualified, node, offset))
    by_callee["replace"] = [f for f in functions if isinstance(f[1], _DataclassInit)]
    for cls in bases:
        if constructor(cls) not in (None, cls):
            by_callee.setdefault(cls, []).append(inits[constructor(cls)])
    calls = [(inherited(name[len("super:"):]) if name.startswith("super:") else name,
              call, caller) for name, call, caller in calls]
    passed: set = set()
    while True:
        before = len(passed)
        for name, call, caller in calls:
            keywords = {k.arg for k in call.keywords}
            star = any(isinstance(a, ast.Starred) for a in call.args)
            mapping = False
            for k in call.keywords:
                if k.arg is None:
                    own = (caller is not None and caller[1].args.kwarg
                           and isinstance(k.value, ast.Name)
                           and k.value.id == caller[1].args.kwarg.arg)
                    mapping |= not own or (caller[0], f"**{k.value.id}") in passed
            for qualified, node, offset in by_callee.get(name, ()):
                named = {a.arg for a in node.args.posonlyargs + node.args.args
                         + node.args.kwonlyargs}
                for param, position in _defaulted(node):
                    if param.startswith("**"):
                        hit = bool(keywords - named - {None})
                    elif name == "replace":  # replace(obj, **changes)
                        hit = param in keywords
                    else:
                        hit = param in keywords or (position is not None and (
                            star or position - offset < len(call.args)))
                    if hit or mapping:
                        passed.add((qualified, param))
        if len(passed) == before:
            break
    return [f"{qualified}({param})" for qualified, node, _ in functions
            for param, _ in _defaulted(node) if (qualified, param) not in passed]


def test_every_defaulted_parameter_is_set_by_the_program():
    unset = [name for name in _unset_defaults() if name not in UNSET_DEFAULTS]
    assert not unset, (
        f"no call in src/kgdial or perfbench/*.py sets {unset}; make each a "
        "constant, or list it in UNSET_DEFAULTS with the reason it stays")


def test_every_unset_default_is_still_unset():
    assert set(UNSET_DEFAULTS) <= set(_unset_defaults())


def test_dataclass_fields_are_defaulted_parameters(tmp_path):
    # Config(1) sets a by position and replace sets c; b is unset, d is
    # built by a factory and e has no default
    module = tmp_path / "configs.py"
    module.write_text(
        "from dataclasses import dataclass, field, replace\n"
        "@dataclass\n"
        "class Config:\n"
        "    e: int\n"
        "    a: int = 0\n"
        "    b: int = field(default=1)\n"
        "    c: int = 2\n"
        "    d: list = field(default_factory=list)\n"
        "class Plain:\n"
        "    f: int = 3\n"
        "def build():\n"
        "    return replace(Config(0, 1), c=3)\n")
    assert _unset_defaults([module], [module]) == ["Config.__init__(b)"]


def test_constructor_calls_reach_inherited_and_super_inits(tmp_path):
    # Child(1, 2) sets b through the __init__ it inherits, Other's
    # super().__init__ sets c; nothing sets Other's d
    module = tmp_path / "shapes.py"
    module.write_text(
        "class Base:\n"
        "    def __init__(self, a, b=None, c=None):\n"
        "        pass\n"
        "class Child(Base):\n"
        "    pass\n"
        "class Other(Base):\n"
        "    def __init__(self, a, d=None):\n"
        "        super().__init__(a, c=d)\n"
        "def build():\n"
        "    return Child(1, 2), Other(1)\n")
    assert _unset_defaults([module], [module]) == ["Other.__init__(d)"]
