import importlib
from pathlib import Path

from adsmax import boundary as B
from adsmax import hull as HU
from adsmax import solver as SV

BENCH = Path(__file__).resolve().parents[1] / "adsbench"


def test_traced_run_finds_every_patched_name(monkeypatch):
    # the traced bench run wraps library functions by name; dropping or
    # renaming one of them breaks it with AttributeError
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    originals = (B.BoundaryCurve.resample, HU.convex_hull, SV.spla)
    rec = spans.Recorder()
    try:
        spans.install(rec)
        assert HU.convex_hull is not originals[1]
    finally:
        rec.restore()
    assert (B.BoundaryCurve.resample, HU.convex_hull, SV.spla) == originals
