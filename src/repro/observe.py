"""Watching a call from outside the program: :func:`tap`.

Nothing under ``src/`` imports this module, so a run with nothing tapped
executes exactly the code it would without it.
"""

from __future__ import annotations

import functools
import typing as _t


def tap(target: _t.Any, name: str, observer: _t.Callable[..., object]) -> _t.Callable[[], None]:
    """Rebind ``target.name`` (on an instance or a class) so that a call
    runs ``observer(*args, **kwargs)`` first and the original last, and
    returns the original's result; return ``untap``, which undoes it.

    The original's call is the wrapper's last act, so a tapped
    ``Host.receive`` keeps ``Event.succeed_tail``'s contract.  The
    observer only looks: it schedules and mutates nothing.  On a class
    it gets ``self`` first; a generator method's observer runs at the
    call, not at the first resume.  The wrapper keeps the original's
    name, so a heap entry it is reads as the method.  Undo nested taps
    in reverse order (``contextlib.ExitStack.callback`` does)."""
    original = getattr(target, name)
    saved = vars(target).get(name)  # None: not target's own (an instance's method)

    @functools.wraps(original)
    def tapped(*args, **kwargs):
        observer(*args, **kwargs)
        return original(*args, **kwargs)

    def untap() -> None:
        if saved is None:
            delattr(target, name)
        else:
            setattr(target, name, saved)

    setattr(target, name, tapped)
    return untap
