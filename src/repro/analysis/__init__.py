"""Result aggregation and paper-style report rendering."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "tables": ("format_table",),
        "breakdown": ("normalize_breakdown", "breakdown_table"),
    },
)
