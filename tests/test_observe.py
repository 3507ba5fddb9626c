"""``repro.observe.tap``: observer first, original last, undone by ``detach``."""

from __future__ import annotations

from repro.observe import tap


class _Box:
    def __init__(self) -> None:
        self.calls: list[tuple[str, int]] = []

    def put(self, item: int) -> int:
        self.calls.append(("put", item))
        return item + 1


def test_taps_nest_and_detach_restores_class_and_instance():
    box = _Box()
    detach_class = tap(_Box, "put", lambda self, item: self.calls.append(("class", item)))
    detach_box = tap(box, "put", lambda item: box.calls.append(("box", item)))
    assert box.put(1) == 2
    detach_box()
    detach_class()
    assert box.put(2) == 3
    assert box.calls == [("box", 1), ("class", 1), ("put", 1), ("put", 2)]
    assert "put" not in vars(box)
    assert _Box.put.__qualname__ == "_Box.put" and not hasattr(_Box.put, "__wrapped__")
