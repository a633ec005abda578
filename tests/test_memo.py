import importlib
import pkgutil

import gammaq
from gammaq import memo
from gammaq.memo import cached, clear_memos
from gammaq.tpoly import ZERO


def test_falsy_results_are_stored_and_served():
    table = memo.memo()
    calls = []

    @cached(table)
    def weight(n):
        calls.append(n)
        return ZERO if n else []

    assert weight(1) is ZERO and weight(1) is ZERO
    first = weight(0)
    assert first == [] and weight(0) is first
    assert calls == [1, 0]
    assert table == {(1,): ZERO, (0,): []}


def test_key_function_chooses_the_entry():
    table = memo.memo()
    calls = []

    @cached(table, key=lambda name, n: n)
    def square(name, n):
        calls.append(name)
        return n * n

    assert (square("a", 3), square("b", 3), square("c", 4)) == (9, 9, 16)
    assert calls == ["a", "c"]
    assert table == {3: 9, 4: 16}
    assert square.__name__ == "square"


def test_clear_memos_empties_what_cached_filled():
    table = memo.memo()
    calls = []

    @cached(table)
    def double(n):
        calls.append(n)
        return 2 * n

    double(5)
    assert table
    clear_memos()
    assert not table
    assert double(5) == 10 and calls == [5, 5]


def test_every_module_memo_is_registered():
    """perfbench's reset clears every module-level dict named *_memo, and
    clear_memos() clears the registry: both must reach the same dicts."""
    registered = {id(table) for table in memo._registry}
    found, missing = [], []
    for info in pkgutil.iter_modules(gammaq.__path__):
        module = importlib.import_module(f"gammaq.{info.name}")
        for name, value in vars(module).items():
            if name.endswith("_memo") and isinstance(value, dict):
                found.append(f"{info.name}.{name}")
                if id(value) not in registered:
                    missing.append(found[-1])
    assert missing == []
    assert "vertexops._weights_memo" in found and "qkostka._l_memo" in found
