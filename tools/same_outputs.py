"""Check that two ctinv source trees produce the same outputs.

    python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a `src` directory holding the `ctinv` package.  Every
command below runs once per tree, the two runs side by side in separate
subprocesses, each in its own scratch directory with identical relative
paths and with CTINV_CONFIG removed (built-in defaults unless a command
names a `--config` file of its own).  For each
command the script compares the exit code, stderr, the JSON report (or
plain stdout) and the bytes of every CSV written.  `timing_seconds` is
dropped from reports; the scratch directory and the source directory are
replaced by placeholders, and so are warning line numbers.  A report key
that only CHANGE_SRC has is listed as added and is not a difference, so
a change may add report fields.

After the exact comparison, which alone decides the exit status, a
summary follows.  For each JSON number path (list indices as `[*]`),
`name = value` line of plain stdout, CSV column and CSV metadata key
whose numbers differ it prints the count, max |d|, max relative d and max
ulps.  Then it lists the decision changes apart: exit codes,
`admissible`, `settled` and `zero_potential` values, the chosen
candidate, candidate counts, map cells whose flag flipped and CSVs whose
row count changed.  Exit status: 0 when every command matches, 1
otherwise.  Standard library only; takes a few minutes on two cores.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import difflib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

# inputs written into each scratch directory: phase files, configs, a CSV
PHASE_FILES = {
    "ref1.txt": "0 0.6283185307179586\n",
    "ref2.txt": "0 0.4389\n1 0.1246\n",
    "zero.txt": "0 0\n1 0\n",
    "no_t.txt": "0 1.4\n",
    "mid.txt": "0 0.4\n1 0.2\n",
    "reject.txt": "0 0.9\n1 0.4\n",
    "unsettled.txt": "0 0.4\n1 0.02\n",
    "odd.txt": "1 0.3\n",
    "seeds2.cfg": "seeds_per_axis = 2\n",
    "bigscan.cfg": "scan_resolution = 1000\n",
    "flags.cfg": "lambda_max = 50\nstep = 0.02\nmap_resolution = 0.25\nthreads = 2\n",
    "nan.csv": "r,q\n0.1,-1\n0.2,nan\n0.3,-0.9\n0.4,-0.8\n",
    # the phases of `forward --ws 1,1,0.4` for ell = 0, 1, 2, at full precision
    "ws3.txt": "0 0.4389083676698257\n1 0.12458338498661448\n2 0.02111002717304025\n",
}

# Run in order: `forward --potential` reads the CSV that `invert` wrote.
COMMANDS = [
    ["invert", "--phases", "ref1.txt", "--out", "ref1.csv"],
    ["invert", "--phases", "ref2.txt", "--out", "ref2.csv"],
    ["invert", "--phases", "zero.txt", "--out", "zero.csv"],
    ["invert", "--phases", "no_t.txt", "--out", "no_t.csv"],
    # too short for a tail fit: no tail in the CSV, a moment_note in the report
    ["invert", "--phases", "ref1.txt", "--lambda", "10", "--out", "short.csv"],
    # a 2-point seed lattice finds no T: exit 3 with best_seed_residual
    ["--config", "seeds2.cfg", "invert", "--phases", "ref2.txt"],
    ["roundtrip", "--phases", "ref1.txt"],
    ["roundtrip", "--phases", "ref2.txt", "--out", "ref2_rt.csv"],
    ["roundtrip", "--phases", "zero.txt"],
    ["roundtrip", "--phases", "mid.txt"],
    ["roundtrip", "--phases", "reject.txt"],
    ["roundtrip", "--phases", "unsettled.txt"],
    ["roundtrip", "--phases", "odd.txt"],  # even-ell parity leakage rows
    # |S| = 3 Woods-Saxon phases: the physical candidate does not settle, exit 4
    ["roundtrip", "--phases", "ws3.txt"],
    # too short for extraction: S and leakage rows both carry the error text
    ["roundtrip", "--phases", "ref1.txt", "--lambda", "10"],
    ["check", "--ells", "0", "--T=-0.4"],
    ["check", "--ells", "0", "--T", "2"],
    ["check", "--ells", "0,1", "--T=-0.3056,0.9295"],
    ["check", "--ells", "0.5", "--T", "0.2"],
    ["check", "--ells", "0", "--T", "0"],
    ["check", "--ells", "0,1", "--T=0.5,-0.2"],
    ["forward", "--ws", "1,1,0.4", "--ellmax", "8", "--out", "ws.csv"],
    # a repulsive barrier: phi passes 1e250 inside it (the integrator's
    # rescale branch) and leaves it near 1e183 (the scaled extraction fit)
    ["forward", "--ws=-1e4,6,0.4", "--ellmax", "1", "--out", "ws_barrier.csv"],
    ["forward", "--potential", "ref1.csv", "--ellmax", "2", "--out", "ref1_phases.csv"],
    # every channel fails: the phase CSV holds only "# ell N failed" lines
    ["forward", "--potential", "short.csv", "--ellmax", "1", "--out", "short_phases.csv"],
    # a non-finite sample is refused
    ["forward", "--potential", "nan.csv", "--ellmax", "1", "--out", "nan_phases.csv"],
    # an --out in a directory that does not exist: one line on stderr, exit 1
    ["forward", "--ws", "1,1,0.4", "--ellmax", "2", "--out", "missing/x.csv"],
    ["map", "--ells", "0,1", "--box=0,1,0,1", "--res", "0.25", "--threads", "2",
     "--out", "map_square.csv"],
    ["map", "--ells", "0,1", "--box=-0.4,-0.2,0.85,0.95", "--res", "0.1",
     "--out", "map_box.csv"],
    # lattices wider than one map tile (consistency.MAP_TILE = 9 values a side),
    # square and not, so the shared tables are dropped and rebuilt between tiles
    ["map", "--ells", "0,1", "--box=-0.3,1.9,-0.3,1.9", "--res", "0.2", "--lambda", "300",
     "--threads", "2", "--out", "map_tiles.csv"],
    ["map", "--ells", "0,1", "--box=-0.45,0.55,1.1,3.3", "--res", "0.2", "--lambda", "300",
     "--threads", "2", "--out", "map_tiles_box.csv"],
    # a scan step above every default scan radius
    ["--config", "bigscan.cfg", "map", "--ells", "0,1", "--box=0.2,0.6,0.2,0.6", "--res", "0.2",
     "--out", "map_bigscan.csv"],
    # flags over the config: the lattice step and threads from flags.cfg, then --res;
    # --lambda and --step over its lambda_max and step
    ["--config", "flags.cfg", "map", "--ells", "0,1", "--box=0,1,0,1", "--out", "map_cfg.csv"],
    ["--config", "flags.cfg", "map", "--ells", "0,1", "--box=0,1,0,1", "--res", "0.5",
     "--out", "map_cfg_res.csv"],
    ["--config", "flags.cfg", "invert", "--phases", "ref1.txt", "--lambda", "60", "--step", "0.01",
     "--out", "flags_ref1.csv"],
    ["--config", "flags.cfg", "forward", "--ws", "1,1,0.4", "--ellmax", "2", "--step", "0.01",
     "--out", "flags_ws.csv"],
    ["specfun", "--nu", "1.7", "--x", "5.0"],
]

WARNING_LINE = re.compile(r"(\.py):\d+:")


def run(src: str, work: str, argv: list[str]) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CTINV_CONFIG"}
    env["PYTHONPATH"] = src
    proc = subprocess.run(
        [sys.executable, "-m", "ctinv", *argv],
        cwd=work, env=env, capture_output=True, text=True,
    )

    def clean(text: str) -> str:
        text = text.replace(work, "<work>").replace(src, "<src>")
        return WARNING_LINE.sub(r"\1:<line>:", text)

    out = clean(proc.stdout)
    try:
        report = json.loads(out)
        report.pop("timing_seconds", None)
    except json.JSONDecodeError:
        report = out
    return {"code": proc.returncode, "stderr": clean(proc.stderr), "stdout": report}


def added_keys(old, new, path="") -> list[str]:
    """Paths of dict keys only `new` has; drops them from `new` in place."""
    found = []
    if isinstance(old, dict) and isinstance(new, dict):
        for key in [k for k in new if k not in old]:
            found.append(f"{path}/{key}")
            del new[key]
        for key in old.keys() & new.keys():
            found += added_keys(old[key], new[key], f"{path}/{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            found += added_keys(a, b, f"{path}[{i}]")
    return found


def csv_bytes(work: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(work)):
        if name.endswith(".csv"):
            with open(os.path.join(work, name), "rb") as fh:
                out[name] = fh.read()
    return out


def dump(value) -> list[str]:
    text = value if isinstance(value, str) else json.dumps(value, indent=2, sort_keys=True)
    return text.splitlines()


DECISION_KEYS = ("admissible", "settled", "zero_potential")


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def parse_value(text: str):
    """A number when the text is one, else the text itself."""
    try:
        return float(text)
    except ValueError:
        return text


def as_tree(value):
    """A report as JSON; plain stdout as {name: value} from its "name = value" lines."""
    if not isinstance(value, str):
        return value
    pairs = (line.partition(" = ") for line in value.splitlines())
    return {name: parse_value(text) for name, sep, text in pairs if sep}


def csv_tree(data: bytes) -> dict:
    """A CSV as {"# key": value(s), column: [values]}; "# ..." lines without " = " are skipped."""
    tree: dict = {}
    header = None
    for line in data.decode("utf-8").splitlines():
        if line.startswith("#"):
            key, sep, text = line[1:].partition(" = ")
            if sep:
                values = [parse_value(v) for v in text.split(",")]
                tree["# " + key.strip()] = values[0] if len(values) == 1 else values
        elif header is None:
            header = line.split(",")
            tree.update((name, []) for name in header)
        else:
            for name, cell in zip(header, line.split(",")):
                tree[name].append(parse_value(cell))
    return tree


def number_pairs(old, new, path=""):
    """(path, old, new) for each number both trees hold at one place, list indices as [*]."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() & new.keys()):
            yield from number_pairs(old[key], new[key], f"{path}/{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for a, b in zip(old, new):
            yield from number_pairs(a, b, f"{path}[*]")
    elif is_number(old) and is_number(new):
        yield path, old, new


def number_stats(old, new) -> dict[str, list]:
    """Per path of differing numbers: [count, max |d|, max relative d, max ulps]."""
    stats: dict[str, list] = {}
    for path, a, b in number_pairs(old, new):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        d = abs(b - a)
        big = max(abs(a), abs(b))
        if math.isfinite(d):
            row = [1, d, d / big, d / math.ulp(big)]
        else:
            row = [1, math.inf, math.inf, math.inf]
        if path in stats:
            row = [stats[path][0] + 1] + [max(x, y) for x, y in zip(stats[path][1:], row[1:])]
        stats[path] = row
    return stats


def decision_values(tree, path="") -> dict[str, object]:
    """Each DECISION_KEYS value in a report, by exact path."""
    found = {}
    if isinstance(tree, dict):
        for key, value in tree.items():
            if key in DECISION_KEYS:
                found[f"{path}/{key}"] = value
            found.update(decision_values(value, f"{path}/{key}"))
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            found.update(decision_values(value, f"{path}[{i}]"))
    return found


def chosen_index(report):
    """Position of chosen_T among the candidates' T, or None when no T is chosen."""
    cands = [c.get("T") for c in report.get("candidates", []) if isinstance(c, dict)]
    chosen = report.get("chosen_T")
    return cands.index(chosen) if chosen in cands else None


def decision_changes(parent: dict, change: dict) -> list[str]:
    """Decisions that differ between two runs of one command."""
    found = []
    if parent["code"] != change["code"]:
        found.append(f"exit {parent['code']} -> {change['code']}")
    old, new = parent["stdout"], change["stdout"]
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return found
    old_values, new_values = decision_values(old), decision_values(new)
    for path in sorted(old_values.keys() | new_values.keys()):
        a, b = old_values.get(path, "absent"), new_values.get(path, "absent")
        if a != b:
            found.append(f"{path} {json.dumps(a)} -> {json.dumps(b)}")
    n_old, n_new = (len(r.get("candidates") or []) for r in (old, new))
    if n_old != n_new:
        found.append(f"candidates {n_old} -> {n_new}")
    elif chosen_index(old) != chosen_index(new):
        found.append(f"chosen candidate {chosen_index(old)} -> {chosen_index(new)}")
    return found


def csv_decision_changes(old: dict, new: dict) -> list[str]:
    """Map cells whose flag flipped, or a changed row count."""
    rows = [
        max((len(v) for k, v in tree.items() if not k.startswith("# ")), default=0)
        for tree in (old, new)
    ]
    if rows[0] != rows[1]:
        return [f"data rows {rows[0]} -> {rows[1]}"]
    flips = sum(a != b for a, b in zip(old.get("admissible", []), new.get("admissible", [])))
    return [f"admissible flipped in {flips} of {rows[0]} cells"] if flips else []


def summary_lines(commands, csvs) -> list[str]:
    """The numeric summary and the decision changes.

    `commands` holds (label, parent, change) run results; `csvs` maps a
    CSV name to its (parent, change) bytes.
    """
    numbers, decisions = [], []

    def add(label, old, new, changes):
        for path, (n, d, rel, ulps) in number_stats(old, new).items():
            numbers.append(
                f"  {label}  {path}  count {n}  max|d| {d:.3g}  max rel {rel:.3g}"
                f"  max ulps {ulps:.3g}"
            )
        decisions.extend(f"  {label}: {text}" for text in changes)

    for label, parent, change in commands:
        old, new = as_tree(parent["stdout"]), as_tree(change["stdout"])
        add(label, old, new, decision_changes(parent, change))
    for name, (old, new) in sorted(csvs.items()):
        old, new = csv_tree(old), csv_tree(new)
        # the map's admissible column is a decision, not a number
        numbers_only = [{k: v for k, v in t.items() if k != "admissible"} for t in (old, new)]
        add(f"csv {name}", *numbers_only, csv_decision_changes(old, new))
    return [
        f"numeric summary: {len(numbers) or 'no'} differing number path(s)",
        *numbers,
        f"decision changes: {len(decisions) or 'none'}",
        *decisions,
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    args = parser.parse_args()
    srcs = [os.path.abspath(args.parent_src), os.path.abspath(args.change_src)]
    for src in srcs:
        if not os.path.isfile(os.path.join(src, "ctinv", "__init__.py")):
            sys.exit(f"same_outputs: no ctinv package under {src}")
    works = [tempfile.mkdtemp(prefix="same_outputs_") for _ in srcs]
    differences = 0
    results = []
    try:
        for work in works:
            for name, text in PHASE_FILES.items():
                with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                    fh.write(text)
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            for argv in COMMANDS:
                parent, change = pool.map(lambda sw: run(sw[0], sw[1], argv), zip(srcs, works))
                added = added_keys(parent["stdout"], change["stdout"])
                diffs = [
                    f"  {field}:\n" + "\n".join(
                        "    " + line
                        for line in difflib.unified_diff(
                            dump(parent[field]), dump(change[field]), "parent", "change", lineterm=""
                        )
                    )
                    for field in ("code", "stderr", "stdout")
                    if parent[field] != change[field]
                ]
                label = " ".join(argv)
                results.append((label, parent, change))
                print(f"{'DIFF' if diffs else 'same'}  exit {parent['code']}  {label}")
                if added:
                    paths = dict.fromkeys(re.sub(r"\[\d+\]", "[*]", p) for p in added)
                    print(f"  added: {', '.join(paths)}")
                for text in diffs:
                    print(text)
                differences += bool(diffs)
        old_csv, new_csv = (csv_bytes(work) for work in works)
        for name in sorted(old_csv.keys() | new_csv.keys()):
            same = old_csv.get(name) == new_csv.get(name)
            print(f"{'same' if same else 'DIFF'}  csv {name}")
            differences += not same
    finally:
        for work in works:
            shutil.rmtree(work, ignore_errors=True)
    print(f"{differences} difference(s)")
    both = {name: (old_csv[name], new_csv[name]) for name in old_csv.keys() & new_csv.keys()}
    print("\n".join(summary_lines(results, both)))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
