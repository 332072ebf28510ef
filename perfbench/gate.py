"""Correctness gate for crtrans reports.

Every report must parse and satisfy the seed-independent invariants of its
document kind. For the default seed the SHA-256 of the report, with the
`version` field left out, must also equal the recorded digest: `version` comes
from installed package metadata, so it reads 0.0.0 from a source tree and the
package version once installed.
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Optional, Tuple

from workloads import Doc

SCHEMA = "crtrans-report/1"
CERTIFIED_TRUE = "certified_true"
NOT_CERTIFIED = ("certified_false", "unknown_at_truncation")

# `examples` lists the paper's families and map instances; the verdicts on the
# instances are the same at every degree, convention and rank seed it is run with.
EXAMPLE_FAMILIES = ["heisenberg(n)", "m_psi(psi_1, ..., psi_d)", "blowup(b, c)", "exp_model(k)"]
EXAMPLE_FALSE = {"flat_map_on_quadric", "singular_factor_map", "dilation_excluded_exp_2"}
EXAMPLE_INSTANCES = [
    "identity_on_quadric", "dilation_on_quadric", "flat_map_on_quadric",
    "graph_push_to_quadric", "singular_factor_map", "power_map_exp_2", "power_map_exp_3",
    "stretch_self_map_exp_1", "rotation_self_map_exp_1", "negation_self_map_exp_2",
    "quarter_turn_self_map_exp_2", "dilation_excluded_exp_2", "blowup_window_44_to_34",
    "blowup_window_31_to_21", "scaling_self_map_blowup_21", "flat_self_map_blowup_21",
]


def digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "version"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _status(verdict: Optional[dict]) -> Optional[str]:
    return None if verdict is None else verdict["status"]


def _examples(report: dict) -> List[str]:
    problems = []
    families = [f["name"] for f in report["families"]]
    if families != EXAMPLE_FAMILIES:
        problems.append(f"examples lists families {families}")
    instances = [(m["id"], _status(m["sends_into"])) for m in report["map_instances"]]
    expected = [(i, "certified_false" if i in EXAMPLE_FALSE else CERTIFIED_TRUE)
                for i in EXAMPLE_INSTANCES]
    if instances != expected:
        problems.append(f"examples instances {instances} != {expected}")
    return problems


def _degenerate(doc: Doc, r: dict) -> List[str]:
    """A degenerate graph's rank scans must run to their cap and stop below target."""
    problems = []
    for key in ("class_c", "holomorphically_nondegenerate"):
        verdict = r[key]
        if verdict["status"] not in NOT_CERTIFIED:
            problems.append(f"{key} is {verdict['status']} on a degenerate graph")
            continue
        want = {"k_max": doc.expect["k_max"], "rank_reached": doc.expect["rank_reached"][key],
                "target": doc.expect["target"][key]}
        if verdict["witness"] != want:
            problems.append(f"{key} witness {verdict['witness']} != {want}")
    return problems


def _invariants(doc: Doc, report: dict) -> List[str]:
    if report.get("errors"):
        return [f"errors: {report['errors']}"]
    if doc.check == "verify":
        problems = [] if report["falsified"] is False else ["verify reports a falsified row"]
        if report["counts"] != doc.expect["counts"]:
            problems.append(f"verify counts {report['counts']} != {doc.expect['counts']}")
        return problems
    if doc.check == "examples":
        return _examples(report)

    if not report["results"]:
        return ["no results"]
    problems = []
    for r in report["results"]:
        if doc.check == "checkmap":
            if _status(r["sends_into"]) != CERTIFIED_TRUE:
                problems.append(f"sends_into is {_status(r['sends_into'])}")
        elif doc.check == "prolong":
            if r["matches_direct_expansion"] is not True:
                problems.append("prolongation does not match the direct expansion")
        else:  # classify of a graph document
            if _status(r["validate"]) != CERTIFIED_TRUE:
                problems.append(f"validate is {_status(r['validate'])}")
            if doc.check == "classify_dense":
                # the generator makes the Levi form nondegenerate
                if r["classification"]["kind"] != "finite_type":
                    problems.append(f"classified {r['classification']['kind']}")
                if _status(r["class_c"]) != CERTIFIED_TRUE:
                    problems.append(f"class C is {_status(r['class_c'])}")
            else:
                problems += _degenerate(doc, r)
    return problems


def check(doc: Doc, returncode: int, stdout: bytes) -> Tuple[Optional[str], List[str]]:
    """Return the report digest (None if there is no report) and the problems found."""
    if returncode != 0:
        return None, [f"exit code {returncode}"]
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return None, [f"report is not JSON: {exc}"]
    if report.get("schema") != SCHEMA:
        return None, [f"schema {report.get('schema')!r}"]
    try:
        problems = _invariants(doc, report)
    except (KeyError, TypeError, IndexError) as exc:
        problems = [f"report lacks {exc}"]
    return digest(report), problems
