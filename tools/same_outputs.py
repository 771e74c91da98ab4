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
a change may add report fields.  Exit status: 0 when every command
matches, 1 otherwise.  Standard library only; takes a few minutes on two
cores.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import difflib
import json
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
    # too short for extraction: S and leakage rows both carry the error text
    ["roundtrip", "--phases", "ref1.txt", "--lambda", "10"],
    ["check", "--ells", "0", "--T=-0.4"],
    ["check", "--ells", "0", "--T", "2"],
    ["check", "--ells", "0,1", "--T=-0.3056,0.9295"],
    ["check", "--ells", "0.5", "--T", "0.2"],
    ["check", "--ells", "0", "--T", "0"],
    ["check", "--ells", "0,1", "--T=0.5,-0.2"],
    ["forward", "--ws", "1,1,0.4", "--ellmax", "8", "--out", "ws.csv"],
    ["forward", "--potential", "ref1.csv", "--ellmax", "2", "--out", "ref1_phases.csv"],
    # every channel fails: the phase CSV holds only "# ell N failed" lines
    ["forward", "--potential", "short.csv", "--ellmax", "1", "--out", "short_phases.csv"],
    # a non-finite sample is refused
    ["forward", "--potential", "nan.csv", "--ellmax", "1", "--out", "nan_phases.csv"],
    ["map", "--ells", "0,1", "--box=0,1,0,1", "--res", "0.25", "--threads", "2",
     "--out", "map_square.csv"],
    ["map", "--ells", "0,1", "--box=-0.4,-0.2,0.85,0.95", "--res", "0.1",
     "--out", "map_box.csv"],
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
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
