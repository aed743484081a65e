import ast
import io
import os
import re
import subprocess
import sys
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


def public_names(methods=False):
    """Public top-level functions, classes and constants of the package, by
    module; with methods, also the public methods of its classes."""
    defined = {}
    for p in SRC.glob("*.py"):
        for node in ast.parse(p.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
                if methods and isinstance(node, ast.ClassDef):
                    names += [f.name for f in node.body
                              if isinstance(f, ast.FunctionDef)]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for n in names:
                if not n.startswith("_"):
                    defined[n] = p.name
    return defined


def names_read(d):
    """Every name loaded, attribute read or import under ROOT / d."""
    read = set()
    for p in (ROOT / d).rglob("*.py"):
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return read


def test_every_public_name_is_read():
    # in the library, the tests or the benchmark
    defined = public_names()
    read = names_read("src") | names_read("tests") | names_read("adsbench")
    unused = sorted(f"{m}:{n}" for n, m in defined.items() if n not in read)
    assert defined and not unused


# public names that no pipeline stage or bench path reads, each kept as a
# check of a fact of the paper or of the bench
PAPER_CHECKS = {
    "qs_modulus": "quasi-symmetry: 1 on Mobius maps, growing along the step family",
    "dod_envelopes": "the hull lies between the domain of dependence envelopes",
    "geodesic_exp": "timelike geodesics reach the antipode at pi and close up at 2pi",
    "lorentz_separation": "reverse triangle inequality; the dual plane lies at distance pi/2",
    "ruling_coords": "isometries act on the two ruling families separately",
    "disk_rotation": "a rotation of the disk fixes the centre of the reference plane",
    "leftright_to_P0": "the left and right isometries send a plane to the reference plane",
    "quality_report": "mesh angles stay above 20 degrees off the central fan",
    "flow_run": "the normal flow of the appendix converges",
    "flow_bound_checks": "the appendix bounds on H and on the flow displacement hold",
    "mean_curvature_pointwise": "closed-form H of planes, umbilic surfaces and the horosphere",
    "K_int": "Gauss equation: the angle-defect curvature of I matches -1 - det B",
    "plane_surface": "planes are maximal, and a plane's dual point is its normal",
    "equidistant": "principal curvatures evolve as tan(arctan k - r) along the normal flow",
    "from_knots": "every sampled monotone degree-1 map lifts to an achronal curve",
    "resample": "bench span: the traced run patches BoundaryCurve.resample by name",
}


def test_every_test_only_name_is_a_paper_check():
    defined = public_names(methods=True)
    pipeline = names_read("src") | names_read("adsbench")
    test_only = defined.keys() & (names_read("tests") - pipeline)
    assert sorted(test_only - PAPER_CHECKS.keys()) == []
    # every listed name exists, and no stage has started to read it
    assert sorted(PAPER_CHECKS.keys() - test_only) == []


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


def test_import_loads_no_interpolate():
    # scipy.interpolate pulls in scipy.optimize; only the test-only
    # `equidistant` reads it, and imports it where it does
    code = ("import sys\n"
            "import adsmax.boundary, adsmax.hull, adsmax.mesh, adsmax.surface,"
            " adsmax.solver\n"
            "print(*sorted(m for m in ('scipy.interpolate', 'scipy.optimize')"
            " if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
