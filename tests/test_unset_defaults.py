"""Every defaulted parameter of a private function is set by some call.

A private function (one leading underscore) is called only from inside
the package, so a parameter whose default no call in ``src/privdeg``
overrides, by keyword or by position, is a knob that changes nothing,
such as a caller-supplied buffer that no caller supplies. Calls are
matched by name alone, and a call with ``*args`` or ``**kwargs`` counts
as setting every parameter it could reach.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "privdeg"


def _defaulted(fn: ast.FunctionDef, method: bool) -> list[tuple[int, str]]:
    """(position, name) of each defaulted parameter of fn, positions counted
    after self or cls; keyword-only ones have position None."""
    a = fn.args
    positional = a.posonlyargs + a.args
    if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                          for d in fn.decorator_list):
        positional = positional[1:]
    first = len(positional) - len(a.defaults)
    out = [(i, p.arg) for i, p in enumerate(positional) if i >= first]
    out += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def unset_defaults(sources: list[str]) -> list[str]:
    """'function.parameter' of each defaulted parameter of a private
    function in the sources that no call in them sets."""
    params: dict[str, list] = {}
    calls: dict[str, list[ast.Call]] = {}
    for source in sources:
        tree = ast.parse(source)
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                params.setdefault(node.name, []).extend(_defaulted(node, id(node) in methods))
            elif isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)

    def is_set(name: str, pos, param: str) -> bool:
        for call in calls.get(name, []):
            if any(k.arg in (None, param) for k in call.keywords):
                return True
            if pos is not None and (len(call.args) > pos or
                                    any(isinstance(x, ast.Starred) for x in call.args)):
                return True
        return False

    return sorted(f"{name}.{param}" for name, ps in params.items()
                  for pos, param in ps if not is_set(name, pos, param))


def test_checker_flags_only_unset_defaults():
    source = ("def _f(a, b=1, *, c=2, d=3):\n"
              "    return a\n"
              "def _g(x=0):\n"
              "    return x\n"
              "def _h(x=0, y=0):\n"
              "    return x\n"
              "def public(x=0):\n"
              "    return x\n"
              "class K:\n"
              "    def _m(self, s=1):\n"
              "        return s\n"
              "    def _n(self, s=1):\n"
              "        return self._m(s) + _f(0, c=1) + _g() + _h(*[1, 2])\n")
    assert unset_defaults([source]) == ["_f.b", "_f.d", "_g.x", "_n.s"]


def test_every_default_of_a_private_function_is_set():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unset_defaults(sources) == []
