"""Full reproduction report: every experiment's table plus validation.

``python -m repro report`` regenerates, from live measurements, the same
content EXPERIMENTS.md records — all paper tables/figures, the extension
studies, and the PASS/FAIL claim validation — as one self-contained text
document.  Useful for diffing after any model change.
"""

from __future__ import annotations

import repro.experiments  # noqa: F401  (imports populate the registry)
from repro.experiments.registry import ExperimentContext, all_experiments
from repro.tech.pdk import PDK
from repro.validate import format_validation, run_validation


def build_report(pdk: PDK | None = None) -> str:
    """Assemble the full reproduction report."""
    ctx = ExperimentContext.create(pdk=pdk)
    sections: list[str] = [
        "reproduction report — Ultra-Dense 3D Physical Design "
        "(DATE 2023)",
        "=" * 72,
    ]
    for exp in all_experiments():
        sections.append("")
        sections.append(f"--- {exp.name}: {exp.summary} ---")
        sections.append(exp.run_formatted(ctx))
    sections.append("")
    sections.append("--- validation ---")
    sections.append(format_validation(run_validation(ctx.pdk)))
    return "\n".join(sections)


def main() -> int:
    """Print the report; returns the validation failure count."""
    report = build_report()
    print(report)
    failures = report.count("[FAIL]")
    return failures
