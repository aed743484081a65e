import ast
import io
import re
import tokenize
from pathlib import Path

from adsmax import constants as C

SRC = Path(C.__file__).parent
ROOT = SRC.parent.parent


def test_every_constant_is_read():
    names = [n for n in vars(C) if n.isupper()]
    code = "\n".join(p.read_text() for p in SRC.glob("*.py")
                     if p.name != "constants.py")
    unused = [n for n in names if not re.search(rf"\b{n}\b", code)]
    assert names and not unused


def test_every_public_name_is_read():
    # top-level functions, classes and constants of the package, against
    # every name loaded, attribute read or import in the library, the tests
    # and the benchmark
    defined = {}
    for p in SRC.glob("*.py"):
        for node in ast.parse(p.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for n in names:
                if not n.startswith("_"):
                    defined[n] = p.name
    read = set()
    for d in ("src", "tests", "adsbench"):
        for p in (ROOT / d).rglob("*.py"):
            for node in ast.walk(ast.parse(p.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    read.update(a.name for a in node.names)
    unused = sorted(f"{m}:{n}" for n, m in defined.items() if n not in read)
    assert defined and not unused


def test_no_exponent_literal_outside_constants():
    # tolerances and floors are written in exponent form; they belong in
    # constants.py under a name
    found = []
    for p in sorted(SRC.glob("*.py")):
        if p.name == "constants.py":
            continue
        for tok in tokenize.generate_tokens(io.StringIO(p.read_text()).readline):
            s = tok.string.lower()
            if tok.type == tokenize.NUMBER and "e" in s and not s.startswith("0x"):
                found.append(f"{p.name}:{tok.start[0]}: {tok.string}")
    assert not found
