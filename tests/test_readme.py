"""The README's library tour runs, and every ``# ->`` comment in it gives the value its line returns."""

import re
from fractions import Fraction
from pathlib import Path

import numpy as np

from mononet import WeightPattern
from mononet.core import ExactStage

README = Path(__file__).resolve().parent.parent / "README.md"
# the names the tour's ``# ->`` values are written in
SHOWN = {"array": np.array, "dtype": np.dtype, "Fraction": Fraction,
         "WeightPattern": WeightPattern, "ExactStage": ExactStage}


def test_library_tour_returns_the_values_it_shows():
    tour = re.search(r"## Library tour\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    namespace, pending, checked = {}, [], []
    for line in tour.group(1).splitlines():
        code, arrow, shown = line.partition("# ->")
        if not arrow:
            pending.append(line)
            continue
        exec("\n".join(pending), namespace)
        pending = []
        # the value ends where a gloss starts: "64: 4 units ...", "0.4375 (= 2p^2 ...)"
        expected = eval(re.split(r": | \(", shown.strip(), maxsplit=1)[0], dict(SHOWN))
        got = eval(code, namespace)
        same = np.array_equal(got, expected) if isinstance(got, np.ndarray) else got == expected
        checked.append((code.strip(), same))
    exec("\n".join(pending), namespace)
    assert len(checked) == 13
    assert [code for code, same in checked if not same] == []
