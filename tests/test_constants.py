import re
from pathlib import Path

from adsmax import constants as C

SRC = Path(C.__file__).parent


def test_every_constant_is_read():
    names = [n for n in vars(C) if n.isupper()]
    code = "\n".join(p.read_text() for p in SRC.glob("*.py")
                     if p.name != "constants.py")
    unused = [n for n in names if not re.search(rf"\b{n}\b", code)]
    assert names and not unused
