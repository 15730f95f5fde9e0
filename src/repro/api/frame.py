"""Typed columnar result frames for study outcomes.

A :class:`ResultFrame` is a struct-of-arrays table — one row per
executed spec, one column per spec field, meta-axis value, and metric
— replacing the per-driver bespoke result dataclasses with one
container that slices, groups, pivots, and serializes.

Determinism contract
--------------------
Every reduction is computed over values in **row order** (which is
spec order, which is sweep declaration order) using sequential
left-to-right accumulation — the same floating-point operation
sequence the legacy drivers' ``total += x`` loops performed — so a
frame-derived table is bit-identical to the hand-rolled aggregation
it replaced, and identical across worker counts and backends.
Groups appear in first-appearance row order, never sorted.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields as dc_fields
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..campaign.spec import ScenarioResult
from ..errors import SchedulingError

__all__ = ["ResultFrame", "GroupedFrame", "PivotTable"]


def _ordered_sum(values: Iterable[float]) -> float:
    """Sequential left-to-right float accumulation (no pairwise/numpy
    reassociation) — the determinism anchor for every aggregate."""
    total = 0.0
    for v in values:
        total += float(v)
    return total


def _make_column(values: List[Any]) -> np.ndarray:
    """Pack one column: numeric dtype when every value allows it."""
    if all(isinstance(v, bool) for v in values):
        return np.asarray(values, dtype=bool)
    if all(
        isinstance(v, int) and not isinstance(v, bool) for v in values
    ):
        return np.asarray(values, dtype=np.int64)
    if all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in values
    ):
        return np.asarray(values, dtype=float)
    col = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        col[i] = v
    return col


class ResultFrame:
    """An immutable columnar table of study results.

    Build one from campaign results with :meth:`from_results`; every
    transform returns a new frame.  Columns are numpy arrays —
    ``float64``/``int64``/``bool`` where possible, ``object``
    otherwise (names, tuples, ``None``).
    """

    def __init__(self, columns: Mapping[str, np.ndarray]) -> None:
        self._columns: Dict[str, np.ndarray] = dict(columns)
        sizes = {len(col) for col in self._columns.values()}
        if len(sizes) > 1:
            raise SchedulingError(
                f"ragged frame: column lengths {sorted(sizes)}"
            )

    # Construction -----------------------------------------------------
    @classmethod
    def from_results(
        cls,
        results: Sequence[ScenarioResult],
        *,
        extra: Optional[Sequence[Mapping[str, Any]]] = None,
    ) -> "ResultFrame":
        """One row per result: spec fields, then ``extra`` metadata
        (e.g. the sweep's meta axes), then metrics.

        Specs of mixed kinds are allowed; fields absent from a row's
        spec kind are ``None``.  Name collisions between the three
        column groups are an error — they would silently shadow data.
        """
        if extra is not None and len(extra) != len(results):
            raise SchedulingError(
                f"extra metadata length {len(extra)} != result count "
                f"{len(results)}"
            )
        spec_names: List[str] = []
        for r in results:
            for f in dc_fields(r.spec):
                if f.name not in spec_names:
                    spec_names.append(f.name)
        meta_names: List[str] = []
        for row in extra or ():
            for name in row:
                if name not in meta_names:
                    meta_names.append(name)
        # Metric columns are sorted: cached results round-trip their
        # metrics dict through sort_keys JSON, so insertion order is
        # not stable between fresh and cache-served runs — sorted
        # names are, keeping frames byte-identical either way.
        metric_names = sorted({name for r in results for name in r.metrics})
        clash = (set(spec_names) | set(meta_names)) & set(metric_names)
        clash |= set(spec_names) & set(meta_names)
        if clash:
            raise SchedulingError(
                f"column name collision: {sorted(clash)}"
            )
        columns: Dict[str, np.ndarray] = {}
        for name in spec_names:
            columns[name] = _make_column(
                [getattr(r.spec, name, None) for r in results]
            )
        for name in meta_names:
            columns[name] = _make_column(
                [row.get(name) for row in extra or ()]
            )
        for name in metric_names:
            columns[name] = _make_column(
                [r.metrics.get(name, math.nan) for r in results]
            )
        return cls(columns)

    # Introspection ----------------------------------------------------
    @property
    def column_names(self) -> Tuple[str, ...]:
        return tuple(self._columns)

    def __len__(self) -> int:
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise SchedulingError(
                f"no column {name!r}; have {list(self._columns)}"
            ) from None

    def row(self, index: int) -> Dict[str, Any]:
        return {
            name: col[index].item()
            if isinstance(col[index], np.generic)
            else col[index]
            for name, col in self._columns.items()
        }

    def to_rows(self) -> List[Dict[str, Any]]:
        return [self.row(i) for i in range(len(self))]

    def __repr__(self) -> str:
        return (
            f"ResultFrame({len(self)} rows x "
            f"{len(self._columns)} columns: {list(self._columns)})"
        )

    # Transforms -------------------------------------------------------
    def select(self, *names: str) -> "ResultFrame":
        return ResultFrame({name: self.column(name) for name in names})

    def where(self, mask: Sequence[bool]) -> "ResultFrame":
        mask_arr = np.asarray(mask, dtype=bool)
        if mask_arr.shape != (len(self),):
            raise SchedulingError(
                f"mask length {mask_arr.size} != row count {len(self)}"
            )
        return ResultFrame(
            {name: col[mask_arr] for name, col in self._columns.items()}
        )

    def filter(self, **equals) -> "ResultFrame":
        """Rows where every named column equals the given value."""
        mask = np.ones(len(self), dtype=bool)
        for name, value in equals.items():
            col = self.column(name)
            mask &= np.array(
                [col[i] == value for i in range(len(self))], dtype=bool
            )
        return self.where(mask)

    def exclude(self, **equals) -> "ResultFrame":
        """Rows where *not* every named column equals the value."""
        mask = np.ones(len(self), dtype=bool)
        for name, value in equals.items():
            col = self.column(name)
            mask &= np.array(
                [col[i] == value for i in range(len(self))], dtype=bool
            )
        return self.where(~mask)

    def with_column(
        self, name: str, values: Sequence[Any]
    ) -> "ResultFrame":
        if len(values) != len(self):
            raise SchedulingError(
                f"column {name!r} length {len(values)} != row count "
                f"{len(self)}"
            )
        columns = dict(self._columns)
        columns[name] = _make_column(list(values))
        return ResultFrame(columns)

    # Grouping ---------------------------------------------------------
    def group_by(self, *keys: str) -> "GroupedFrame":
        """Group rows by key columns, first-appearance order."""
        if not keys:
            raise SchedulingError("group_by() needs at least one key")
        key_cols = [self.column(k) for k in keys]
        order: List[Tuple] = []
        members: Dict[Tuple, List[int]] = {}
        for i in range(len(self)):
            key = tuple(
                c[i].item() if isinstance(c[i], np.generic) else c[i]
                for c in key_cols
            )
            if key not in members:
                members[key] = []
                order.append(key)
            members[key].append(i)
        return GroupedFrame(self, tuple(keys), order, members)

    def normalize(
        self,
        value: str,
        *,
        reference: Mapping[str, Any],
        within: Sequence[str],
        name: Optional[str] = None,
    ) -> "ResultFrame":
        """Add ``value / reference-row's value`` within each group.

        ``within`` names the columns identifying a group (e.g. one
        sweep point's replicates); ``reference`` picks exactly one row
        per group (e.g. ``{"scheme": "near-optimal"}``) whose value
        divides the others.  The reference value must be positive.
        """
        out_name = name if name is not None else f"{value}_rel"
        grouped = self.group_by(*within)
        vals = self.column(value)
        refs: Dict[Tuple, float] = {}
        for key in grouped.order:
            rows = grouped.members[key]
            matching = [
                i
                for i in rows
                if all(
                    self._columns[col][i] == want
                    for col, want in reference.items()
                )
            ]
            if len(matching) != 1:
                raise SchedulingError(
                    f"normalize: group {dict(zip(within, key))} has "
                    f"{len(matching)} reference rows matching "
                    f"{dict(reference)}, need exactly 1"
                )
            ref = float(vals[matching[0]])
            if ref <= 0:
                raise SchedulingError(
                    f"normalize: reference {value!r} must be positive, "
                    f"got {ref} in group {dict(zip(within, key))}"
                )
            refs[key] = ref
        normalized = []
        for key in grouped.order:
            for i in grouped.members[key]:
                normalized.append((i, float(vals[i]) / refs[key]))
        normalized.sort()
        return self.with_column(out_name, [v for _i, v in normalized])

    def mean_ci(
        self,
        value: str,
        *,
        by: Sequence[str] = (),
        confidence: float = 0.95,
    ) -> "ResultFrame":
        """Per-group mean with a Student-t confidence interval.

        Output columns: the ``by`` keys, ``n``, ``<value>`` (the
        mean), ``<value>_ci_lo`` / ``<value>_ci_hi``.  Single-row
        groups get a NaN interval.
        """
        from scipy import stats

        if by:
            grouped = self.group_by(*by)
            order, members = grouped.order, grouped.members
        else:
            order = [()]
            members = {(): list(range(len(self)))}
        vals = self.column(value)
        keys_out: Dict[str, List[Any]] = {k: [] for k in by}
        out: Dict[str, List[float]] = {
            "n": [],
            value: [],
            f"{value}_ci_lo": [],
            f"{value}_ci_hi": [],
        }
        for key in order:
            rows = members[key]
            n = len(rows)
            mean = _ordered_sum(vals[i] for i in rows) / n
            if n > 1:
                ss = _ordered_sum(
                    (float(vals[i]) - mean) ** 2 for i in rows
                )
                half = float(
                    stats.t.ppf(0.5 + confidence / 2.0, n - 1)
                ) * math.sqrt(ss / (n - 1)) / math.sqrt(n)
            else:
                half = math.nan
            for k, part in zip(by, key):
                keys_out[k].append(part)
            out["n"].append(n)
            out[value].append(mean)
            out[f"{value}_ci_lo"].append(mean - half)
            out[f"{value}_ci_hi"].append(mean + half)
        columns = {k: _make_column(v) for k, v in keys_out.items()}
        columns.update(
            {k: _make_column(v) for k, v in out.items()}
        )
        return ResultFrame(columns)

    def pivot(
        self,
        index: str,
        columns: str,
        values: str,
        *,
        agg: str = "mean",
    ) -> "PivotTable":
        """A 2-D table: one row per ``index`` value, one column per
        ``columns`` value, cells aggregating ``values`` (``"mean"``,
        ``"sum"`` or ``"first"``).  Label order is first appearance;
        empty cells are NaN."""
        if agg not in ("mean", "sum", "first"):
            raise SchedulingError(
                f"unknown pivot agg {agg!r}; known: mean, sum, first"
            )
        grouped = self.group_by(index, columns)
        row_labels: List[Any] = []
        col_labels: List[Any] = []
        for r, c in grouped.order:
            if r not in row_labels:
                row_labels.append(r)
            if c not in col_labels:
                col_labels.append(c)
        cells = np.full((len(row_labels), len(col_labels)), np.nan)
        vals = self.column(values)
        for (r, c), rows in grouped.members.items():
            if agg == "first":
                cell = float(vals[rows[0]])
            else:
                cell = _ordered_sum(vals[i] for i in rows)
                if agg == "mean":
                    cell /= len(rows)
            cells[row_labels.index(r), col_labels.index(c)] = cell
        return PivotTable(
            index=index,
            columns=columns,
            values=values,
            row_labels=tuple(row_labels),
            column_labels=tuple(col_labels),
            cells=cells,
        )

    # Serialization ----------------------------------------------------
    def to_csv(self, path: Optional[str] = None) -> str:
        """Deterministic CSV: ``repr`` floats (exact round-trip),
        JSON-encoded tuples.  Optionally also written to ``path``."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.column_names)
        for i in range(len(self)):
            row = []
            for name in self.column_names:
                v = self._columns[name][i]
                if isinstance(v, np.generic):
                    v = v.item()
                if isinstance(v, float):
                    row.append(repr(v))
                elif isinstance(v, tuple):
                    row.append(json.dumps(list(v)))
                elif v is None:
                    row.append("")
                else:
                    row.append(str(v))
            writer.writerow(row)
        text = buf.getvalue()
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text)
        return text

    def to_json(self) -> Dict:
        """JSON-ready ``{"columns": {name: [values]}, "float_columns":
        [names]}`` (column order preserved by the dict).  NaN is
        written as ``null``; ``float_columns`` names the float64
        columns, whose ``null`` reads back as NaN rather than ``None``.
        """
        columns: Dict[str, List] = {}
        for name in self.column_names:
            out: List[Any] = []
            for v in self._columns[name]:
                if isinstance(v, np.generic):
                    v = v.item()
                if isinstance(v, tuple):
                    v = list(v)
                if isinstance(v, float) and math.isnan(v):
                    v = None
                out.append(v)
            columns[name] = out
        float_columns = [
            name
            for name in self.column_names
            if self._columns[name].dtype.kind == "f"
        ]
        return {"columns": columns, "float_columns": float_columns}

    @classmethod
    def from_json(cls, data: Dict) -> "ResultFrame":
        floats = set(data.get("float_columns", ()))
        columns = {}
        for name, values in dict(data["columns"]).items():
            if name in floats:
                columns[name] = np.asarray(
                    [math.nan if v is None else v for v in values],
                    dtype=float,
                )
            else:
                columns[name] = _make_column(
                    [tuple(v) if isinstance(v, list) else v for v in values]
                )
        return cls(columns)

    def format(self, *, precision: int = 6) -> str:
        """A plain aligned-text rendering of the whole frame."""
        from ..analysis.tables import format_table

        rows = []
        for i in range(len(self)):
            row = []
            for name in self.column_names:
                v = self._columns[name][i]
                row.append(v.item() if isinstance(v, np.generic) else v)
            rows.append(row)
        return format_table(
            list(self.column_names), rows, precision=precision
        )


@dataclass
class GroupedFrame:
    """Rows of a frame grouped by key columns (first-appearance order).

    Aggregation methods reduce every numeric non-key column in row
    order and return a new :class:`ResultFrame` with the key columns,
    an ``n`` count column, and the aggregated columns.  ``min``,
    ``max`` and ``percentile`` select rather than accumulate, so their
    values do not depend on the order at all.
    """

    frame: ResultFrame
    keys: Tuple[str, ...]
    order: List[Tuple]
    members: Dict[Tuple, List[int]]

    def _numeric_columns(self) -> List[str]:
        return [
            name
            for name in self.frame.column_names
            if name not in self.keys
            and self.frame.column(name).dtype.kind in "fiu"
        ]

    def _aggregate(self, reduce_) -> ResultFrame:
        names = self._numeric_columns()
        columns: Dict[str, List[Any]] = {k: [] for k in self.keys}
        columns["n"] = []
        for name in names:
            columns[name] = []
        for key in self.order:
            rows = self.members[key]
            for k, part in zip(self.keys, key):
                columns[k].append(part)
            columns["n"].append(len(rows))
            for name in names:
                vals = self.frame.column(name)
                columns[name].append(reduce_(vals, rows))
        return ResultFrame(
            {k: _make_column(v) for k, v in columns.items()}
        )

    def mean(self) -> ResultFrame:
        return self._aggregate(
            lambda vals, rows: _ordered_sum(vals[i] for i in rows)
            / len(rows)
        )

    def sum(self) -> ResultFrame:
        return self._aggregate(
            lambda vals, rows: _ordered_sum(vals[i] for i in rows)
        )

    def first(self) -> ResultFrame:
        return self._aggregate(lambda vals, rows: float(vals[rows[0]]))

    def min(self) -> ResultFrame:
        return self._aggregate(lambda vals, rows: float(vals[rows].min()))

    def max(self) -> ResultFrame:
        return self._aggregate(lambda vals, rows: float(vals[rows].max()))

    def percentile(self, q: float) -> ResultFrame:
        """Per-group ``q``-th percentile (0-100, linear interpolation
        between the two nearest ranks, as ``numpy.percentile``)."""
        return self._aggregate(
            lambda vals, rows: float(np.percentile(vals[rows], q))
        )

    def series(self, value: str) -> Dict[Tuple, float]:
        """Group-key → mean-of-``value`` mapping, insertion-ordered."""
        vals = self.frame.column(value)
        return {
            key: _ordered_sum(vals[i] for i in self.members[key])
            / len(self.members[key])
            for key in self.order
        }


@dataclass(frozen=True)
class PivotTable:
    """The result of :meth:`ResultFrame.pivot`."""

    index: str
    columns: str
    values: str
    row_labels: Tuple
    column_labels: Tuple
    cells: np.ndarray

    def format(self, *, precision: int = 4) -> str:
        from ..analysis.tables import format_series

        return format_series(
            self.index,
            list(self.row_labels),
            {
                str(label): list(self.cells[:, j])
                for j, label in enumerate(self.column_labels)
            },
            title=f"{self.values} by {self.index} x {self.columns}",
            precision=precision,
        )
