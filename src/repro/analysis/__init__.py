"""Experiment drivers and plain-text reporting.

:mod:`repro.analysis.experiments` regenerates the rows of the paper's Tables
1–3 (and the model-validation studies) from the synthetic benchmark suite;
:mod:`repro.analysis.report` renders them as aligned plain-text tables the
way the paper prints them.  The package re-exports only the report
helpers: the experiment drivers load the whole flow stack, so callers
import them from :mod:`repro.analysis.experiments` when they run tables.
"""

from repro.analysis.report import format_percentage, format_table, render_comparison

__all__ = [
    "format_table",
    "format_percentage",
    "render_comparison",
]
