"""Source and corpus hygiene checks; only the corpus check needs more than
the standard library (jsonschema)."""

import ast
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src/gsembed", "tests") for p in (ROOT / d).glob("*.py"))


def unused_imports(path: Path) -> list:
    """'file:line name' for each name an import binds and the module never
    reads."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


def test_no_unused_imports():
    assert SOURCES
    assert [u for p in SOURCES for u in unused_imports(p)] == []


def imported_modules(source: str) -> set:
    """The top-level package of every module that an absolute import
    statement names, and the module of the package that a relative one
    names, at top level or inside a function."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom):  # from . import name
            names.update(alias.name for alias in node.names)
    return names


def test_no_module_imports_dataclasses():
    # importing dataclasses loads inspect, about 10 ms of every command's
    # start; the records are plain classes on seqdsl._Record instead
    assert imported_modules("def f():\n    from dataclasses import replace\n"
                            "import os.path, inspect as i\n") == \
        {"dataclasses", "os", "inspect"}
    imports = {p.name: imported_modules(p.read_text())
               for p in sorted((ROOT / "src/gsembed").glob("*.py"))}
    assert "fractions" in imports["seqdsl.py"]
    assert [name for name, mods in imports.items() if "dataclasses" in mods] == []


def functools_names(source: str) -> set:
    """Every name that source imports from functools or reads as an
    attribute of it."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "functools":
            names.add(node.attr)
    return names


def test_no_module_imports_functools_cached_property():
    # Python 3.11's cached_property takes a class-wide lock on each first
    # read; the records use seqdsl._cached, which writes __dict__ directly
    assert functools_names("import functools\nfrom functools import lru_cache\n"
                           "x = functools.cached_property\n") == \
        {"lru_cache", "cached_property"}
    found = {p.name: functools_names(p.read_text())
             for p in sorted((ROOT / "src/gsembed").glob("*.py"))}
    assert "lru_cache" in found["embanalyzer.py"]
    assert [name for name, names in found.items() if "cached_property" in names] == []


def test_engine_and_lab_never_import_seqcore():
    # seqcore serves the seq commands alone; the engine reads the sign of
    # a criterion's rate, not its Boyd indices, so analyze, the lab and
    # reproduce start without it
    assert imported_modules("def f():\n    from .seqcore import boyd_indices\n"
                            "from . import seqdsl\n") == {"seqcore", "seqdsl"}
    imports = {name: imported_modules((ROOT / "src/gsembed" / name).read_text())
               for name in ("cli.py", "embanalyzer.py", "seqspacelab.py", "corpus.py")}
    assert [name for name, mods in imports.items() if "seqcore" in mods] == ["cli.py"]


def private_definitions(path: Path) -> list:
    """(name, line) of each function or class that a module defines at top
    level under a private name, dunders aside."""
    return [(node.name, node.lineno) for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_")
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def referenced_names(path: Path) -> set:
    """Every name that a module reads, looks up as an attribute or imports;
    a definition alone is no reference."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_no_uncalled_private_code():
    # a private function or class that no module of the program, its tests
    # or gsbench refers to has no caller, and is deleted
    scanned = sorted(p for d in ("src/gsembed", "tests", "gsbench")
                     for p in (ROOT / d).glob("*.py"))
    referenced = set().union(*(referenced_names(p) for p in scanned))
    defined = [(p, name, line) for p in sorted((ROOT / "src/gsembed").glob("*.py"))
               for name, line in private_definitions(p)]
    assert any(name == "_lp_norm" for _, name, _ in defined)
    assert [f"{p.relative_to(ROOT)}:{line} {name}" for p, name, line in defined
            if name not in referenced] == []


def cache_uses(source: str) -> tuple:
    """(bounded, others): the number of lru_cache calls whose maxsize is a
    MAX_* name, and the line of every other use of lru_cache or cache, a
    bare decorator or maxsize None included."""
    def cache_name(node):
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else None
        return name in ("lru_cache", "cache")

    nodes = list(ast.walk(ast.parse(source)))
    bounded = set()
    for node in nodes:
        if isinstance(node, ast.Call) and cache_name(node.func):
            size = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "maxsize"), None)
            if isinstance(size, ast.Name) and size.id.startswith("MAX_"):
                bounded.add(id(node.func))
    return len(bounded), sorted(node.lineno for node in nodes
                                if cache_name(node) and id(node) not in bounded)


def test_every_cache_is_bounded_by_a_limit():
    # an unbounded cache grows for the life of the process; a MAX_* size
    # is a limit, which the README tests above make document its value
    assert cache_uses(
        "import functools\nfrom functools import cache, lru_cache\n"
        "f = lru_cache(maxsize=MAX_A)(g)\nh = functools.lru_cache(MAX_B)(g)\n"
        "@cache\ndef a(): pass\n@functools.lru_cache\ndef b(): pass\n"
        "@lru_cache(maxsize=None)\ndef c(): pass\n@lru_cache(64)\ndef d(): pass\n"
        "@functools.cache\ndef e(): pass\n") == (2, [5, 7, 9, 11, 13])
    found = {p.name: cache_uses(p.read_text())
             for p in sorted((ROOT / "src/gsembed").glob("*.py"))}
    assert (found["seqdsl.py"][0], found["embanalyzer.py"][0]) == (1, 2)
    assert [f"{name}:{line}" for name, (_, lines) in found.items()
            for line in lines] == []


def calling_functions(source: str, name: str) -> list:
    """The innermost function around each call of name, as a name or a
    module attribute, and "<module>" for one outside every function."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and (
                    isinstance(child.func, ast.Name) and child.func.id == name or
                    isinstance(child.func, ast.Attribute) and child.func.attr == name):
                found.append(where)
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def test_exponent_laws_have_one_source():
    # each gap exponent is derived in one place, the pair law _pair, which
    # every criterion, target and section reads; a second builder of a law
    # would be a second formula
    assert calling_functions(
        "from m import f\ndef f(): pass\ndef g(x: f) -> f:\n"
        "    def h(): return m.f(1)\n    return f(h)\nx = [f, f()]\n", "f") == \
        ["h", "g", "<module>"]
    sources = {p: p.read_text() for d in ("src/gsembed", "tests", "gsbench")
               for p in sorted((ROOT / d).glob("*.py"))}
    assert [f"{p.relative_to(ROOT)}:{where}" for p, text in sources.items()
            for where in calling_functions(text, "_PairLaw")] == \
        ["src/gsembed/embanalyzer.py:_pair"]


def attribute_readers(source: str, attr: str) -> list:
    """The qualified name of the innermost function or class around each
    read of the attribute attr, such as "A.f" in a method f of A, and
    "<module>" for one outside every function and class."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == attr and \
                    isinstance(child.ctx, ast.Load):
                found.append(where)
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if where == "<module>" else f"{where}.{child.name}"
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def test_only_the_sides_read_the_scale():
    # a scale is a choice of sides: it decides which outer laws a problem's
    # criteria are tested against, and every verdict takes one path on B
    # and F; only the evidence of a verdict and the notes of an entropy law
    # tell the scales apart
    assert attribute_readers(
        "class A:\n    def f(self): return self.scale\n"
        "def g(p):\n    def h(): return p.scale\n    p.scale = 1\n    return h\n"
        "x = y.scale\n", "scale") == ["A.f", "g.h", "<module>"]
    readers = attribute_readers((ROOT / "src/gsembed/embanalyzer.py").read_text(), "scale")
    assert sorted(set(readers)) == ["EmbeddingProblem.sides", "_verdict", "entropy_rate"]


def dict_writers(source: str) -> list:
    """'line text' of each use of an object's __dict__, except self.__dict__
    in a method of a class, and obj.__dict__ in _cached.__get__.  A read
    counts too, since an alias of __dict__ writes through."""
    found = []

    def visit(node, method):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "__dict__":
                owner = ast.unparse(child.value)
                if not (method and owner == "self" or
                        method == ("_cached", "__get__") and owner == "obj"):
                    found.append(f"{child.lineno} {ast.unparse(child)}")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, (node.name, child.name)
                      if isinstance(node, ast.ClassDef) else None)
            else:
                visit(child, method)

    visit(ast.parse(source), None)
    return found


def test_records_write_only_their_own_dict():
    # a record's fields and cached properties are its own: only its
    # methods write its __dict__, and _cached.__get__ stores a value there;
    # a value written into another record would skip its constructor
    assert dict_writers(
        "class A:\n    def f(self, o):\n        self.__dict__['x'] = o\n"
        "        o.__dict__.update(y=1)\n        def g(self): self.__dict__\n"
        "class _cached:\n    def __get__(self, obj): obj.__dict__['z'] = 1\n"
        "def h(obj):\n    d = obj.__dict__\n") == \
        ["4 o.__dict__", "5 self.__dict__", "9 obj.__dict__"]
    found = {p.name: dict_writers(p.read_text())
             for p in sorted((ROOT / "src/gsembed").glob("*.py"))}
    assert "__dict__" in (ROOT / "src/gsembed/seqdsl.py").read_text()
    assert {name: lines for name, lines in found.items() if lines} == {}


def module_limits(path: Path) -> dict:
    """The MAX_* names that a module's top-level assignments bind, with
    their values; each is a constant expression such as 1 << 16."""
    tree = ast.parse(path.read_text())
    return {t.id: eval(compile(ast.Expression(node.value), str(path), "eval"), {})
            for node in tree.body if isinstance(node, ast.Assign)
            for t in node.targets
            if isinstance(t, ast.Name) and t.id.startswith("MAX_")}


def source_limits() -> dict:
    return {name: value for p in sorted((ROOT / "src/gsembed").glob("*.py"))
            for name, value in module_limits(p).items()}


def test_every_limit_is_documented():
    readme = (ROOT / "README.md").read_text()
    limits = source_limits()
    assert "MAX_SEARCH_N" in limits
    assert [name for name in limits if f"`{name}`" not in readme] == []


def test_every_documented_limit_exists():
    # README names no limit that the code has dropped or never had
    named = set(re.findall(r"`(MAX_\w+)`", (ROOT / "README.md").read_text()))
    assert "MAX_SEARCH_N" in named
    assert sorted(named - set(source_limits())) == []


def test_every_limit_sentence_states_its_value():
    # a README sentence that names a limit also gives its value, written
    # with or without thousands separators
    limits = source_limits()
    named = 0
    wrong = []
    for sentence in re.split(r"(?<=[.!?])\s+", (ROOT / "README.md").read_text()):
        numbers = re.findall(r"\d+", re.sub(r"(?<=\d)[,_](?=\d{3})", "", sentence))
        for name in re.findall(r"`(MAX_\w+)`", sentence):
            named += 1
            if str(limits.get(name)) not in numbers:
                wrong.append(f"{name}: {' '.join(sentence.split())}")
    assert named >= len(limits)
    assert wrong == []


def test_corpus_citations_name_the_route():
    # the corpus file has the shape of schemas.CORPUS_SCHEMA, and a case
    # cites the tag that its engine call returns, so a route that is
    # renamed or deleted leaves a stale citation here; band cases have no tag
    import jsonschema

    from gsembed import (EmbeddingProblem, compactness, entropy_rate,
                         nuclearity, schemas)
    from gsembed.corpus import load_cases

    jsonschema.validate(json.loads((ROOT / "src/gsembed/corpus.json").read_text()),
                        schemas.CORPUS_SCHEMA)

    ops = {"compactness": compactness, "nuclearity": nuclearity,
           "entropy_rate": entropy_rate}
    cases = [c for c in load_cases() if c.check["op"] != "band"]
    assert {c.check["op"] for c in cases} == set(ops)
    stale = []
    for c in cases:
        tag = ops[c.check["op"]](EmbeddingProblem.from_dict(c.check)).tag
        if c.citation != tag:
            stale.append(f"{c.id}: cites {c.citation}, returns {tag}")
    assert stale == []
