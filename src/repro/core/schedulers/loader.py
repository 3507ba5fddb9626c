"""Dynamic scheduler loading (§IV-B).

"To keep our system flexible, the concrete scheduler implementation
can be defined in the controller's configuration and will be
dynamically loaded."  The configuration value is a
``package.module:ClassName`` string plus keyword parameters.
"""

from __future__ import annotations

import importlib
import typing as _t

from repro.core.schedulers.base import GlobalScheduler


class SchedulerLoadError(RuntimeError):
    """The configured scheduler could not be loaded."""


def load_scheduler(spec: str, **params: _t.Any) -> GlobalScheduler:
    """Instantiate the scheduler named by ``spec``.

    ``spec`` is ``"module.path:ClassName"``; bare class names resolve
    against the built-in scheduler module.
    """
    if ":" in spec:
        module_name, _, class_name = spec.partition(":")
    else:
        module_name, class_name = "repro.core.schedulers.builtin", spec

    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise SchedulerLoadError(f"cannot import {module_name!r}: {exc}") from exc

    cls = getattr(module, class_name, None)
    if cls is None:
        raise SchedulerLoadError(
            f"module {module_name!r} has no attribute {class_name!r}"
        )
    if not (isinstance(cls, type) and issubclass(cls, GlobalScheduler)):
        raise SchedulerLoadError(
            f"{module_name}:{class_name} is not a GlobalScheduler subclass"
        )
    try:
        return cls(**params)
    except TypeError as exc:
        raise SchedulerLoadError(
            f"cannot instantiate {class_name} with {params!r}: {exc}"
        ) from exc
