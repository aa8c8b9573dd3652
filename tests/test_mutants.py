import sys

import pytest

from mutants import mutate


def counted_up(n):
    n += 1
    n += 1
    return n


class TestMutate:
    def test_the_mutant_replaces_the_function_until_undone(self):
        module, original = sys.modules[__name__], counted_up
        with pytest.MonkeyPatch.context() as mp:
            mutate(mp, module, "counted_up", "return n", "return -n")
            assert module.counted_up(0) == -2
        assert module.counted_up is original and counted_up(0) == 2

    def test_replacements_made_one_after_another_compose(self):
        module, original = sys.modules[__name__], counted_up
        with pytest.MonkeyPatch.context() as mp:
            mutate(mp, module, "counted_up", "n += 1\n    n", "n += 3\n    n")
            mutate(mp, module, "counted_up", "return n", "return -n")
            assert module.counted_up(0) == -4
        assert module.counted_up is original and counted_up(0) == 2

    @pytest.mark.parametrize("old, found", [("n += 2", 0), ("n += 1", 2)])
    def test_old_text_must_occur_exactly_once(self, monkeypatch, old, found):
        module = sys.modules[__name__]
        with pytest.raises(ValueError, match=f"occurs {found} times"):
            mutate(monkeypatch, module, "counted_up", old, "n -= 1")
        assert module.counted_up(0) == 2
