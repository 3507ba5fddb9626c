"""Common result container for experiment runners."""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.metrics import render_table


@dataclasses.dataclass
class ExperimentResult:
    """One regenerated table/figure."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[_t.Any]]
    #: Shape expectations from the paper, stated as prose.
    paper_shape: str = ""
    #: Free-form extra data (raw samples, series) for tests/figures.
    extras: dict[str, _t.Any] = dataclasses.field(default_factory=dict)

    def render(self) -> str:
        text = render_table(
            self.headers, self.rows, title=f"{self.experiment_id}: {self.title}"
        )
        if self.paper_shape:
            text += f"\n\npaper shape: {self.paper_shape}"
        return text

    def cell(self, row_key: _t.Any, header: str) -> _t.Any:
        """Value addressed by first-column key and header name."""
        index = self._header_index(header)
        for row in self.rows:
            if row[0] == row_key:
                return row[index]
        raise KeyError(
            f"{self.experiment_id}: no row with key {row_key!r}; "
            f"available: {', '.join(repr(row[0]) for row in self.rows)}"
        )

    def _header_index(self, header: str) -> int:
        try:
            return self.headers.index(header)
        except ValueError:
            raise KeyError(
                f"{self.experiment_id}: no column {header!r}; "
                f"available: {', '.join(repr(h) for h in self.headers)}"
            ) from None
