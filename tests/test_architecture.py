"""The package's one-way rules: each restricted name, and who may use it.

Each rule is one row of ``RULES``, checked on the ``ast`` of every module
in ``src/mementoset``. A new rule is a new row here.

A row's key names what is restricted:

- ``module.name`` (``time.sleep``, ``mementoset.canonical.redirect_steps``):
  every reference to that object, however it was imported (``import m as
  a``, ``from .m import n as a``, ``from . import m`` then ``m.n``, a
  re-export in ``__init__``) or renamed at module level (``a = m.n``). A
  load, a call and an import binding all count;
- the same with ``()``: only calling or raising it counts, for classes that
  other code still names in annotations and ``except`` clauses;
- a bare identifier (``raw_urim``): that spelling as a variable,
  attribute, parameter, keyword, definition or whole string constant;
- ``except Exception``: a handler that catches everything: bare, or naming
  ``Exception`` or ``BaseException``, alone or in a tuple;
- ``transport.request``: ``.request`` on any receiver named ``transport``.

A row allows the modules (``client``) and functions
(``client.ArchiveClient._attempt``) it lists, and what is nested in them.
Each use counts where it is: in its enclosing ``module.Class.function``, or
in the module for top-level code. An import binding is also allowed in a
scope that holds an allowed function, as ``client``'s import of
``redirect_steps`` for ``ArchiveClient.resolve_steps``, and in
``__init__``, which re-exports. A definition is not a use.
"""

import ast
import builtins
from pathlib import Path
from typing import NamedTuple

import pytest

import mementoset

PACKAGE = mementoset.__name__
SOURCE = Path(mementoset.__file__).parent
CATCH_ALL = "except Exception"
TRANSPORT_REQUEST = "transport.request"


class Rule(NamedTuple):
    allowed: tuple[str, ...]
    instead: str


WAITS = "waits belong to the client's StepLoop: run steps through mementoset.client"
TOKENIZE = (
    "TimeMaps become Mementos in one place: read them with mementoset.linkformat.TimeMapReader"
)
RAW_URIS = "derive raw URI-Ms only in ArchiveClient.fetch_raw_memento: download with it"

RULES = {
    CATCH_ALL: Rule((), "name the exceptions to handle"),
    "time.sleep": Rule(("client",), WAITS),
    "time.monotonic": Rule(("client",), WAITS),
    "mementoset.model.Memento()": Rule(("linkformat", "model", "pipeline"), TOKENIZE),
    "mementoset.linkformat.parse_link_entries": Rule(("linkformat", "model", "pipeline"), TOKENIZE),
    "mementoset.errors.RawAccessUnsupported()": Rule(
        ("client",),
        "raw access is the client's rule: call fetch_raw_memento and catch RawAccessUnsupported",
    ),
    "mementoset.model.raw_variant": Rule(("client.ArchiveClient.fetch_raw_memento",), RAW_URIS),
    "raw_urim": Rule((), "a memento stores no raw URI-M: " + RAW_URIS),
    TRANSPORT_REQUEST: Rule(
        ("client.ArchiveClient._attempt",),
        "send requests with ArchiveClient.request, or through its memory with _ask_steps",
    ),
    "mementoset.linkformat._PLAIN": Rule(
        ("linkformat.parse_link_entries",),
        "tokenize link-format with linkformat.parse_link_entries, the one code that matches _PLAIN",
    ),
    "mementoset.model._STAMP": Rule(
        ("model.wayback_split",),
        "a URI-M's Wayback stamp is placed one way: split it with model.wayback_split",
    ),
    "mementoset.canonical.redirect_steps": Rule(
        ("client.ArchiveClient.resolve_steps",),
        "resolve redirects with ArchiveClient.resolve, or resolve_steps inside a step generator",
    ),
    "mementoset.pipeline._record_to_dict": Rule(
        ("pipeline._encode",),
        "encode state records with the pipeline's _encode, through DiscoveryPipeline._text",
    ),
    "mementoset.discovery._resolve_steps": Rule(
        ("discovery.select_initial",),
        "candidates resolve only in select_initial's look-ahead window",
    ),
    "_answers": Rule(
        ("client.ArchiveClient",),
        "the client's memory is its own: ask through _ask_steps, seed with remember_resolved",
    ),
    "splitlines": Rule((), "a line ends at LF only: split lines with tsv.numbered_lines"),
    "mementoset.model._NOT_IN_URI": Rule(
        ("model.kept_uri",),
        "the characters a kept URI may hold are stated once: test them with model.kept_uri",
    ),
    "urllib.parse.urlsplit": Rule(
        ("model.parse_http_uri",),
        "an http(s) URI is parsed one way: read it with model.parse_http_uri"
        " (after model.absolute_uri for a URI-R as written)",
    ),
}


class Use(NamedTuple):
    what: str
    scope: str
    line: int
    binds: bool = False


def imported_names(tree: ast.Module) -> dict[str, str]:
    """Each name a module binds by import, and the dotted name it stands for."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = alias.name
                else:
                    head = alias.name.partition(".")[0]
                    names[head] = head
        elif isinstance(node, ast.ImportFrom):
            base = _import_base(node)
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = f"{base}.{alias.name}"
    return names


def _import_base(node: ast.ImportFrom) -> str:
    # The package is flat: a relative import names the package or one of its modules.
    if node.level:
        return ".".join(filter(None, (PACKAGE, node.module)))
    return node.module


class _Uses(ast.NodeVisitor):
    """Every use in one module, in the scope it is made in."""

    def __init__(self, module: str, tree: ast.Module, imports: dict[str, dict[str, str]]):
        self.module, self.imports = module, imports
        self.renamed: dict[str, str] = {}  # a top-level ``a = m.n``, resolved in order
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.value, (ast.Name, ast.Attribute)):
                dotted = self.dotted(node.value)
                for target in node.targets:
                    if dotted and isinstance(target, ast.Name):
                        self.renamed[target.id] = dotted
        self.scope = [module]
        self.found: list[Use] = []
        self.visit(tree)

    def use(self, what: str, node: ast.AST, binds: bool = False) -> None:
        self.found.append(Use(what, ".".join(self.scope), node.lineno, binds))

    def unalias(self, dotted: str) -> str:
        """``dotted`` with each re-export in the package followed to the
        module that defines it."""
        seen = set()
        while dotted not in seen:
            seen.add(dotted)
            parts = dotted.split(".")
            if parts[0] != PACKAGE or len(parts) < 2:
                break
            module, at = (parts[1], 2) if parts[1] in self.imports else ("__init__", 1)
            target = self.imports.get(module, {}).get(parts[at]) if len(parts) > at else None
            if target is None:
                break
            dotted = ".".join([target, *parts[at + 1 :]])
        return dotted

    def dotted(self, node: ast.expr) -> str | None:
        """The object a name or attribute chain refers to, or None."""
        if isinstance(node, ast.Attribute):
            base = self.dotted(node.value)
            return None if base is None else self.unalias(f"{base}.{node.attr}")
        if not isinstance(node, ast.Name):
            return None
        name = node.id
        if name in self.imports[self.module]:
            return self.unalias(self.imports[self.module][name])
        if name in self.renamed:
            return self.renamed[name]
        if hasattr(builtins, name):
            return f"builtins.{name}"
        return f"{PACKAGE}.{self.module}.{name}"

    def scoped(self, node, outer: list, inner: list) -> None:
        self.use(node.name, node)
        for child in outer:
            self.visit(child)
        self.scope.append(node.name)
        for child in inner:
            self.visit(child)
        self.scope.pop()

    def visit_FunctionDef(self, node):
        outer = [*node.decorator_list, node.args, *filter(None, [node.returns])]
        self.scoped(node, outer, node.body)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node):
        self.scoped(node, [*node.decorator_list, *node.bases, *node.keywords], node.body)

    def visit_Name(self, node):
        self.use(node.id, node)
        if isinstance(node.ctx, ast.Load):
            self.use(self.dotted(node), node)

    def visit_Attribute(self, node):
        self.use(node.attr, node)
        if node.attr == "request" and "transport" in (
            getattr(node.value, "id", None), getattr(node.value, "attr", None)
        ):
            self.use(TRANSPORT_REQUEST, node)
        if isinstance(node.ctx, ast.Load) and (dotted := self.dotted(node)):
            self.use(dotted, node)
        self.generic_visit(node)

    def visit_Call(self, node):
        if dotted := self.dotted(node.func):
            self.use(f"{dotted}()", node)
        self.generic_visit(node)

    def visit_Raise(self, node):
        if node.exc is not None and (dotted := self.dotted(node.exc)):
            self.use(f"{dotted}()", node)
        self.generic_visit(node)

    def visit_ExceptHandler(self, node):
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if node.type is None or {"builtins.Exception", "builtins.BaseException"} & {
            self.dotted(t) for t in caught
        }:
            self.use(CATCH_ALL, node)
        if node.name:
            self.use(node.name, node)
        self.generic_visit(node)

    def visit_Import(self, node):
        for alias in node.names:
            for name in filter(None, [*alias.name.split("."), alias.asname]):
                self.use(name, node)
            self.use(self.unalias(alias.name), node, binds=True)

    def visit_ImportFrom(self, node):
        base = _import_base(node)
        for alias in node.names:
            for name in filter(None, [alias.name, alias.asname]):
                self.use(name, node)
            self.use(self.unalias(f"{base}.{alias.name}"), node, binds=True)

    def visit_arg(self, node):
        self.use(node.arg, node)
        self.generic_visit(node)

    def visit_keyword(self, node):
        if node.arg:
            self.use(node.arg, node)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self.use(node.value, node)


def uses(module: str, tree: ast.Module, imports: dict[str, dict[str, str]]) -> list[Use]:
    return _Uses(module, tree, imports).found


def allowed(use: Use, rule: Rule) -> bool:
    if use.binds and use.scope == "__init__":
        return True
    return any(
        use.scope == scope
        or use.scope.startswith(f"{scope}.")
        or (use.binds and scope.startswith(f"{use.scope}."))
        for scope in rule.allowed
    )


def violations(module: str, tree: ast.Module, imports: dict[str, dict[str, str]]) -> list[str]:
    return [
        f"{module}.py:{use.line}: {use.what} in {use.scope}: {RULES[use.what].instead}"
        for use in uses(module, tree, imports)
        if use.what in RULES and not allowed(use, RULES[use.what])
    ]


@pytest.fixture(scope="module")
def package():
    """Each module's tree, and the names each binds by import."""
    trees = {
        path.stem: ast.parse(path.read_text("utf-8"), str(path)) for path in SOURCE.glob("*.py")
    }
    return trees, {module: imported_names(tree) for module, tree in trees.items()}


def test_every_module_keeps_every_rule(package):
    trees, imports = package
    found = [v for module, tree in trees.items() for v in violations(module, tree, imports)]
    assert not found, "\n".join(found)


def test_every_rule_with_an_allowed_use_finds_one(package):
    # A row whose name was renamed away would check nothing.
    trees, imports = package
    seen = {use.what for module, tree in trees.items() for use in uses(module, tree, imports)}
    assert [what for what, rule in RULES.items() if rule.allowed and what not in seen] == []


def case(module, what, *lines):
    source = "\n".join(lines)
    return pytest.param(module, source, what, id=f"{module}: {'; '.join(map(str.strip, lines))}")


REDIRECTS = "mementoset.canonical.redirect_steps"
PLAIN = "mementoset.linkformat._PLAIN"
STAMP = "mementoset.model._STAMP"
MEMENTO = "mementoset.model.Memento()"
RAW_ACCESS = "mementoset.errors.RawAccessUnsupported()"
RAW_VARIANT = "mementoset.model.raw_variant"
RECORD_TO_DICT = "mementoset.pipeline._record_to_dict"
NOT_IN_URI = "mementoset.model._NOT_IN_URI"
URLSPLIT = "urllib.parse.urlsplit"

# Each source, checked as the named module, breaks the rule it names.
BROKEN = [
    # Catch-all handlers: seven forms, one split over lines, one renamed.
    case("discovery", CATCH_ALL, "try:", "    f()", "except:", "    pass"),
    case("discovery", CATCH_ALL, "try:", "    f()", "except Exception:", "    pass"),
    case("discovery", CATCH_ALL, "try:", "    f()", "except BaseException:", "    raise"),
    case("discovery", CATCH_ALL, "try:", "    f()", "except Exception as exc:", "    log(exc)"),
    case("discovery", CATCH_ALL, "try:", "    f()", "except (ValueError, Exception):", "    pass"),
    case("sampler", CATCH_ALL,
         "try:", "    f()", "except (KeyError, BaseException) as e:", "    1"),
    case("model", CATCH_ALL,
         "import builtins", "try:", "    f()", "except builtins.Exception:", "    1"),
    case("discovery", CATCH_ALL,
         "try:", "    f()", "except (", "    ValueError,", "    Exception,", "):", "    pass"),
    case("discovery", CATCH_ALL, "Any = Exception", "try:", "    f()", "except Any:", "    pass"),
    # Waits outside the client.
    case("discovery", "time.sleep", "import time", "def f():", "    time.sleep(1)"),
    case("pipeline", "time.monotonic", "import time", "def f():", "    return time.monotonic()"),
    case("discovery", "time.sleep", "from time import sleep as _nap", "_nap(0)"),
    case("discovery", "time.sleep", "import time as t", "def f():", "    t.sleep(0)"),
    case("sampler", "time.sleep", "import time", "wait = time.sleep"),
    # Mementos built, or link-format tokenized, elsewhere.
    case("sampler", MEMENTO, "from .model import Memento", "def f(u, d):",
         "    return Memento(u, d, 'k', None)"),
    case("discovery", MEMENTO, "from .model import Memento as _M", "_M('u', None, 'k', None)"),
    case("client", MEMENTO, "from . import Memento", "M = Memento", "def f(u):",
         "    return M(u, None, 'k', None)"),
    case("sampler", "mementoset.linkformat.parse_link_entries",
         "from .linkformat import parse_link_entries", "def f(b):", "    parse_link_entries(b)"),
    # Raw access decided outside the client.
    case("sampler", RAW_ACCESS, "from .errors import RawAccessUnsupported", "def f(u):",
         "    raise RawAccessUnsupported(u)"),
    case("pipeline", RAW_ACCESS, "from . import errors", "def f(u):",
         "    raise errors.RawAccessUnsupported(u)"),
    case("sampler", RAW_ACCESS, "from .errors import RawAccessUnsupported as R", "def f():",
         "    raise R"),
    # Raw URI-Ms derived outside fetch_raw_memento, or stored.
    case("sampler", RAW_VARIANT, "from .model import raw_variant", "_ = raw_variant('x', None)"),
    case("model", RAW_VARIANT, "def other(urim):", "    return raw_variant(urim, None)"),
    case("client", RAW_VARIANT, "from .model import raw_variant", "class ArchiveClient:",
         "    def other(self, m):", "        return raw_variant(m.urim, None)"),
    case("model", "raw_urim", "class Memento:", "    raw_urim: str | None = None"),
    case("client", "raw_urim", "def f(m):", "    return m.raw_urim"),
    case("discovery", "raw_urim", "def f(memento):", "    return memento.raw_urim is None"),
    case("pipeline", "raw_urim", "def f(m):", "    return getattr(m, 'raw_urim')"),
    # Requests sent past the lanes and the memory.
    case("client", TRANSPORT_REQUEST, "class ArchiveClient:", "    def request(self, method, uri):",
         "        return self.transport.request(method, uri)"),
    case("discovery", TRANSPORT_REQUEST, "def f(client, uri):",
         "    return client.transport.request('GET', uri)"),
    # A second member loop.
    case("linkformat", PLAIN, "class TimeMapReducer:", "    def _visit(self, text, start):",
         "        return _PLAIN.match(text, start)"),
    case("sampler", PLAIN, "from .linkformat import _PLAIN as P"),
    case("model", PLAIN, "def f():", "    from . import linkformat", "    x = linkformat._PLAIN"),
    # A URI-M's stamp placed outside wayback_split.
    case("model", STAMP, "def stamp_of(urim):", "    return _STAMP.search(urim)[1]"),
    case("discovery", STAMP, "from .model import _STAMP", "def f(urim):",
         "    return _STAMP.split(urim, 1)"),
    case("linkformat", STAMP, "from .model import _STAMP", "class TimeMapReducer:",
         "    def _first(self, urim):", "        return _STAMP.split(urim, 1)"),
    case("discovery", STAMP, "from . import model", "def embedded_urir(urim):",
         "    return model._STAMP.search(urim)"),
    # A redirect walk outside the client's resolve_steps.
    case("canonical", REDIRECTS, "def other(uri):", "    return redirect_steps(uri)"),
    case("discovery", REDIRECTS, "from .canonical import redirect_steps as _walk", "def f(u):",
         "    return _walk(u)"),
    case("sampler", REDIRECTS, "def _sneak(u):",
         "    from .canonical import redirect_steps as walk", "    return walk(u)"),
    case("client", REDIRECTS, "from .canonical import redirect_steps",
         "WALK = redirect_steps('http://a.example/')"),
    case("sampler", REDIRECTS, "from . import canonical", "def f(u):",
         "    return canonical.redirect_steps(u)"),
    case("sampler", REDIRECTS, "import mementoset.canonical", "def f(u):",
         "    return mementoset.canonical.redirect_steps(u)"),
    case("sampler", REDIRECTS, "from .client import redirect_steps"),
    # State records encoded outside _encode.
    case("sampler", RECORD_TO_DICT, "from .pipeline import _record_to_dict", "def f(r):",
         "    return _record_to_dict(r)"),
    case("pipeline", RECORD_TO_DICT, "class DiscoveryPipeline:", "    def save_state(self, new):",
         "        return [_dumps(_record_to_dict(r)) for r in new]"),
    # Candidates resolved outside the look-ahead window.
    case("discovery", "mementoset.discovery._resolve_steps", "def other(uri, client):",
         "    return _resolve_steps(uri, client)"),
    # The client's memory read or written past its methods.
    case("pipeline", "_answers", "class DiscoveryPipeline:", "    def load_state(self, k, a):",
         "        self.client._answers[k] = a"),
    case("discovery", "_answers", "def f(client, key):", "    memory = client._answers",
         "    return memory.get(key)"),
    case("discovery", "_answers", "def f(client):", "    return getattr(client, '_answers')"),
    case("client", "_answers", "def peek(client, key):", "    return client._answers.get(key)"),
    # Lines split at other breaks than LF.
    case("discovery", "splitlines", "def f(text):", "    return text.splitlines()"),
    # The characters of a URI tested outside kept_uri.
    case("pipeline", NOT_IN_URI, "from .model import _NOT_IN_URI as P", "def f(urim):",
         "    return P.search(urim) is None"),
    case("model", NOT_IN_URI, "def _kept(urim):", "    return not _NOT_IN_URI.search(urim)"),
    # An http(s) URI parsed outside parse_http_uri.
    case("client", URLSPLIT, "from urllib.parse import urlsplit", "def _split(uri):",
         "    return urlsplit(uri).hostname"),
    case("discovery", URLSPLIT, "from urllib.parse import urlsplit as u", "def f(uri):",
         "    return u(uri).path"),
    case("model", URLSPLIT, "from urllib.parse import urlsplit", "HOST = urlsplit('http://a.example/').hostname"),
]


@pytest.mark.parametrize("module, source, what", BROKEN)
def test_a_broken_rule_fails(package, module, source, what):
    tree = ast.parse(source)
    _, imports = package
    found = violations(module, tree, {**imports, module: imported_names(tree)})
    assert any(f": {what} in " in v for v in found), found
