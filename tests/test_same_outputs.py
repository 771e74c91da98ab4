"""The numeric summary and decision list of tools/same_outputs.py."""

import importlib.util
import math
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def _run(code, report):
    return {"code": code, "stderr": "", "stdout": report}


def _invert_report(moment, admissible):
    return {
        "candidates": [{"T": [0.5], "admissible": admissible, "settled": True}],
        "chosen_T": [0.5] if admissible else None,
        "moment_numeric": moment,
    }


MAP_CSV = "# ctinv map v0.1.0\n# S = 0,1\n# res = 0.5\nL1,L2,admissible\n0,0.5,{}\n0.5,0.5,0\n"
POTENTIAL_CSV = "# ctinv potential v0.1.0\n# q0 = {}\nr,q\n0.1,-1\n0.2,{}\n"


def test_summary_separates_ulp_moves_from_flipped_verdicts():
    moved = 1.0 + math.ulp(1.0)
    commands = [
        ("invert ulp", _run(0, _invert_report(1.0, True)), _run(0, _invert_report(moved, True))),
        ("invert flip", _run(0, _invert_report(1.0, True)), _run(3, _invert_report(1.0, False))),
        ("specfun", _run(0, "J(1, 2) = 0.5\n"), _run(0, "J(1, 2) = 0.5\n")),
    ]
    csvs = {
        "map.csv": (MAP_CSV.format(1).encode(), MAP_CSV.format(0).encode()),
        "pot.csv": (
            POTENTIAL_CSV.format("2", "0.1").encode(),
            POTENTIAL_CSV.format("2", "0.10000000000000002").encode(),
        ),
    }
    assert same_outputs.summary_lines(commands, csvs) == [
        "numeric summary: 2 differing number path(s)",
        "  invert ulp  /moment_numeric  count 1  max|d| 2.22e-16  max rel 2.22e-16  max ulps 1",
        "  csv pot.csv  /q[*]  count 1  max|d| 1.39e-17  max rel 1.39e-16  max ulps 1",
        "decision changes: 4",
        "  invert flip: exit 0 -> 3",
        "  invert flip: /candidates[0]/admissible true -> false",
        "  invert flip: chosen candidate 0 -> None",
        "  csv map.csv: admissible flipped in 1 of 2 cells",
    ]


def test_summary_is_empty_for_equal_outputs():
    run = _run(0, _invert_report(1.0, True))
    csvs = {
        "map.csv": (MAP_CSV.format(1).encode(),) * 2,
        "pot.csv": (POTENTIAL_CSV.format("2", "nan").encode(),) * 2,
    }
    assert same_outputs.summary_lines([("invert", run, run)], csvs) == [
        "numeric summary: no differing number path(s)",
        "decision changes: none",
    ]
