"""`tests/mutants.py` runs tier-1 once per mutant, which takes minutes. Its list must follow
the code: a mutant whose old text no longer occurs exactly once in its file mutates nothing,
so this check fails in tier-1 already."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m[3] for m in MUTANTS])
def test_each_mutant_old_text_occurs_once_in_its_file(mutant):
    path, old, new, _why, first = mutant
    assert old != new and (ROOT / first).is_file()
    assert (ROOT / path).read_text().count(old) == 1
