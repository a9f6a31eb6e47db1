"""Tower reports: one JSON-able document per classifier run.

Reports are deterministic: identical inputs produce byte-identical JSON
(sorted keys, canonical polynomial text), which the golden-file tests pin.
"""

from __future__ import annotations

import json

from . import __version__
from .knots import InvariantUnavailable
from .towers import (
    PreconditionError,
    Tower,
    cech_h1,
    flow_attractor_verdict,
    genus_of_tower,
    homeo_attractor_verdict,
    is_unknotted_tower,
    r_of_toroidal,
    tower_alexander,
)

__all__ = ["build_report", "render_json", "render_text"]

SCHEMA_VERSION = 1


def build_report(tower: Tower) -> dict:
    """Run every public classifier; each reads the facts the tower keeps."""
    coh, genus = cech_h1(tower), genus_of_tower(tower)
    homeo = homeo_attractor_verdict(tower)
    flow = flow_attractor_verdict(tower)
    r = r_of_toroidal(tower)

    try:
        alexander: str | None = str(tower_alexander(tower))
        alexander_status = "ok"
    except PreconditionError as exc:
        alexander = None
        alexander_status = f"unavailable:{exc.reason}"
    except InvariantUnavailable:
        alexander = None
        alexander_status = "unavailable:UndeclaredInvariant"

    report = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "name": tower.name,
        "h1": coh.h1.value,
        "h2_trivial": True,
        "steinitz": None if coh.steinitz is None else str(coh.steinitz),
        "steinitz_note": (
            None
            if coh.steinitz is None
            else "supernatural refinement of h1; an extension beyond the trichotomy"
        ),
        "genus": str(genus),
        "genus_rule": genus.rule.value,
        "genus_justification": genus.justification,
        "unknotted": is_unknotted_tower(tower),
        "alexander": alexander,
        "alexander_status": alexander_status,
        "homeo_verdict": homeo.tag,
        "homeo_justification": homeo.justification,
        "homeo_note": homeo.note,
        "flow_verdict": flow.tag,
        "flow_justification": flow.justification,
        "flow_note": flow.note,
        "r": r.value,
        "r_justification": r.justification,
    }
    return report


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_text(report: dict) -> str:
    lines = [f"tower: {report['name']}"]
    for key in ("h1", "steinitz", "genus", "unknotted", "alexander", "homeo_verdict", "flow_verdict", "r"):
        value = report[key]
        if value is None:
            value = f"(none: {report.get(key + '_status', 'n/a')})" if key == "alexander" else "-"
        lines.append(f"  {key.replace('_', ' '):<14} {value}")
    for key in ("genus_justification", "homeo_justification", "flow_justification"):
        lines.append(f"  [{key.replace('_', ' ')}] {report[key]}")
    if report.get("flow_note"):
        lines.append(f"  [flow note] {report['flow_note']}")
    return "\n".join(lines) + "\n"
