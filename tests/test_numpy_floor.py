"""The package uses no numpy API newer than its declared floor, numpy 1.24.

pyproject declares ``numpy>=1.24``, while the suite may run on a much
newer numpy, where a name or keyword that 1.24 lacks passes every other
test (``reshape(copy=False)``, new in 2.1, once did). This check reads the
source of ``src/privdeg`` and fails on

* an attribute of numpy, or a name imported from it, that numpy added
  after 1.24, such as ``np.trapezoid`` or ``np.linalg.vecdot``;
* a keyword that numpy added after 1.24 to a function or method of that
  name, such as ``reshape(copy=...)`` or ``np.sort(stable=...)``, matched
  by the called name alone.

The tables list additions from numpy 1.25 to 2.4; a newer numpy's
additions go in them when the package starts to run on it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "privdeg"

# attribute path below the numpy module -> numpy version that added it
NEWER_NAMES = {
    "dtypes": "1.25", "exceptions": "1.25",
    **dict.fromkeys(
        ["acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "astype",
         "bitwise_count", "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift",
         "bool", "concat", "isdtype", "long", "ulong", "matrix_transpose", "permute_dims",
         "pow", "strings", "trapezoid", "unique_all", "unique_counts", "unique_inverse",
         "unique_values", "vecdot", "linalg.cross", "linalg.diagonal", "linalg.matmul",
         "linalg.matrix_norm", "linalg.matrix_transpose", "linalg.outer", "linalg.svdvals",
         "linalg.tensordot", "linalg.trace", "linalg.vecdot", "linalg.vector_norm"], "2.0"),
    **dict.fromkeys(["cumulative_prod", "cumulative_sum", "unstack"], "2.1"),
    **dict.fromkeys(["matvec", "vecmat"], "2.2"),
}

# called name -> {keyword: numpy version that added it}; "device" is new on
# every array-creation function in 2.0
NEWER_KEYWORDS = {
    "reshape": {"copy": "2.1", "shape": "2.1"},
    "sort": {"stable": "2.0"},
    "argsort": {"stable": "2.0"},
    "asarray": {"copy": "2.0"},
    "unique": {"sorted": "2.3"},
    "quantile": {"weights": "2.0"},
    "percentile": {"weights": "2.0"},
    "std": {"mean": "2.0", "correction": "2.0"},
    "var": {"mean": "2.0", "correction": "2.0"},
}
ANY_CALL_KEYWORDS = {"device": "2.0"}


def _dotted(node: ast.expr) -> list[str]:
    """['np', 'linalg', 'solve'] for np.linalg.solve; [] unless the chain
    ends in a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id] + parts[::-1] if isinstance(node, ast.Name) else []


def newer_than_floor(sources: dict[str, str]) -> list[str]:
    """'file:line: what' for each use of numpy API newer than 1.24 in the
    sources, a map of file name to text."""
    found = []
    for name, source in sources.items():
        tree = ast.parse(source)
        roots = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                 for a in n.names if a.name == "numpy"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy":
                for a in node.names:
                    if a.name in NEWER_NAMES:
                        found.append(f"{name}:{node.lineno}: numpy.{a.name} "
                                     f"(numpy {NEWER_NAMES[a.name]})")
            elif isinstance(node, ast.Attribute):
                parts = _dotted(node)
                path = ".".join(parts[1:])
                if parts and parts[0] in roots and path in NEWER_NAMES:
                    found.append(f"{name}:{node.lineno}: {parts[0]}.{path} "
                                 f"(numpy {NEWER_NAMES[path]})")
            elif isinstance(node, ast.Call):
                f = node.func
                called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                newer = {**NEWER_KEYWORDS.get(called, {}), **ANY_CALL_KEYWORDS}
                for k in node.keywords:
                    if k.arg in newer:
                        found.append(f"{name}:{node.lineno}: {called}({k.arg}=...) "
                                     f"(numpy {newer[k.arg]})")
    return sorted(found)


def test_checker_flags_only_api_newer_than_the_floor():
    source = ("import numpy as np\n"
              "import numpy\n"
              "from numpy import trapezoid, einsum\n"
              "a = np.zeros(4, device='cpu').reshape(2, 2, copy=False)\n"
              "b = numpy.linalg.vecdot(a, a) + np.linalg.solve(a, a)\n"
              "c = np.sort(a, stable=True, kind='stable') + a.reshape((4,), order='C')\n"
              "d = np.einsum('ii->i', a) + a.astype(float, copy=False)\n"
              "e = np.unique(a, return_counts=True, equal_nan=True), np.bool_, np.exceptions\n"
              "class K:\n"
              "    trapezoid = 1\n"
              "f = K.trapezoid + K().reshape_copy\n")
    assert newer_than_floor({"m.py": source}) == [
        "m.py:3: numpy.trapezoid (numpy 2.0)",
        "m.py:4: reshape(copy=...) (numpy 2.1)",
        "m.py:4: zeros(device=...) (numpy 2.0)",
        "m.py:5: numpy.linalg.vecdot (numpy 2.0)",
        "m.py:6: sort(stable=...) (numpy 2.0)",
        "m.py:8: np.exceptions (numpy 1.25)",
    ]


def test_package_uses_only_numpy_api_of_its_floor():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert newer_than_floor(sources) == []
