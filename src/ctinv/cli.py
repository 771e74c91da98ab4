"""Command-line front end: invert, forward, roundtrip, map, check, specfun.

File conventions: CSV data files carry "#"-prefixed "key = value" metadata
lines before the column header, numeric fields are written with 12
significant digits, and each command prints a JSON report to stdout.
Exit codes: 0 success, 2 usage/parse error, 3 no admissible T,
4 determinant scan unsettled, 1 any other deliberate failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import re
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .consistency import (
    SCAN_RESOLUTION,
    admissible_1d,
    admissibility_map,
    scan_zeros,
    select_physical,
)
from .ctcore import (
    K_RANGE,
    SEEDS_PER_AXIS,
    InputSet,
    ShiftedSet,
    _cos_cond,
    asymptotic_data,
    expansion_coeffs,
    moment_closed_form,
    phases_from_T,
    solve_T,
    sum_rules,
)
from .errors import CtinvError, DomainError, InternalInconsistencyError, ParseError, TailFitError
from .forward import SampledPotential, WoodsSaxon, extract_phase, phase_table
from .glm import (
    PotentialProfile,
    RadialGrid,
    TailFit,
    moment_numeric,
    potential,
    solve_kernel,
    transformed_wave,
)
from .specfun import bessel_jy, riccati

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_ADMISSIBLE = 3
EXIT_UNSETTLED = 4


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


@dataclass
class RunConfig:
    """Flat configuration; file keys and CLI flags share these names."""

    lambda_max: float = 400.0
    step: float = 0.005
    k_range: int = K_RANGE
    seeds_per_axis: int = SEEDS_PER_AXIS
    scan_resolution: float = SCAN_RESOLUTION
    map_resolution: float = 0.02
    forward_lambda: float = 60.0
    threads: int = 1


_CONFIG_ALIASES = {"lambda": "lambda_max", "h": "step"}


def _read_text(path: str, what: str = "") -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {what}{path}: {exc}")


def load_config(path: str | None) -> RunConfig:
    """Read a flat key=value config file; CTINV_CONFIG supplies the default path."""
    cfg = RunConfig()
    if path is None:
        path = os.environ.get("CTINV_CONFIG")
    if not path:
        return cfg
    text = _read_text(path, "config ")
    types = {f.name: f.type for f in fields(RunConfig)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value in {path}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        key = _CONFIG_ALIASES.get(key, key)
        if key not in types:
            raise ParseError(f"unknown config key {key!r} in {path}", line=lineno)
        try:
            caster = int if types[key] == "int" else float
            setattr(cfg, key, caster(value.strip()))
        except ValueError:
            raise ParseError(f"bad value for {key!r} in {path}", line=lineno)
    return cfg


def read_phase_file(path: str) -> InputSet:
    """Parse 'ell delta' lines (comma or whitespace separated, # comments)."""
    text = _read_text(path)
    ells: list[int] = []
    deltas: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise ParseError(f"expected 'ell delta', got {raw!r}", line=lineno)
        try:
            ell = int(parts[0])
            delta = float(parts[1])
        except ValueError:
            raise ParseError(f"malformed numbers in {raw!r}", line=lineno)
        ells.append(ell)
        deltas.append(delta)
    if not ells:
        raise ParseError(f"no phase shifts found in {path}")
    try:
        return InputSet(tuple(ells), tuple(deltas))
    except DomainError as exc:
        raise ParseError(f"invalid phase table in {path}: {exc}")


def _write_csv(path: str, kind: str, meta: dict[str, str], header: str, rows) -> None:
    """One CSV layout: a version line, "# key = value" metadata, the header, the rows."""
    lines = [f"# ctinv {kind} v{__version__}"]
    lines += [f"# {key} = {value}" for key, value in meta.items()]
    lines.append(header)
    lines += rows
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise CtinvError(f"cannot write {path}: {exc.strerror or exc}")


def _check_out(path: str) -> str:
    """`path`, refused with _write_csv's line when it cannot be opened for writing.

    Commands call it before their work, so an unwritable --out fails at once;
    it creates and changes no file.
    """
    parent = os.path.dirname(path) or "."
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        # the trailing separator makes a missing or non-directory parent fail as open() would
        os.stat(os.path.join(parent, ""))
        if not os.access(path if os.path.exists(path) else parent, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
    except OSError as exc:
        raise CtinvError(f"cannot write {path}: {exc.strerror or exc}")
    return path


def write_potential_csv(path: str, profile: PotentialProfile, input_set: InputSet) -> None:
    meta = {"S": ",".join(str(int(e)) for e in profile.ells)}
    meta["deltas"] = ",".join(_fmt(d) for d in input_set.deltas)
    if profile.Ls:
        meta["T"] = ",".join(_fmt(v) for v in profile.Ls)
    meta["h"] = _fmt(profile.h)
    meta["lambda"] = _fmt(profile.r_max)
    meta["q0"] = _fmt(profile.q_origin)
    if profile.tail is not None:
        for key in ("alpha", "beta", "gamma"):
            meta[key] = _fmt(getattr(profile.tail, key))
        meta["tail_rms"] = _fmt(profile.tail.rms)
    # one formatting pass over all pairs: "%.12g" % x is _fmt(x) for every float
    n = len(profile.r)
    block = "%.12g,%.12g\n" * n % tuple(np.column_stack((profile.r, profile.q)).ravel().tolist())
    _write_csv(path, "potential", meta, "r,q", [block[:-1]] if n else [])


def read_potential_csv(path: str):
    """Read a potential CSV back: (r, q, tail or None)."""
    text = _read_text(path)
    meta: dict[str, str] = {}
    rs: list[float] = []
    qs: list[float] = []
    seen_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
            continue
        if not seen_header:
            if line.lower().replace(" ", "") != "r,q":
                raise ParseError(f"expected header 'r,q', got {raw!r}", line=lineno)
            seen_header = True
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 'r,q' pair, got {raw!r}", line=lineno)
        try:
            rs.append(float(parts[0]))
            qs.append(float(parts[1]))
        except ValueError:
            raise ParseError(f"malformed numbers in {raw!r}", line=lineno)
    if len(rs) < 4:
        raise ParseError(f"fewer than 4 samples in {path}")
    tail = None
    if all(k in meta for k in ("alpha", "beta", "gamma")):
        try:
            tail = TailFit(
                float(meta["alpha"]),
                float(meta["beta"]),
                float(meta["gamma"]),
                float(meta.get("tail_rms", 0.0)),
            )
        except ValueError:
            raise ParseError(f"malformed tail coefficients in {path}")
    return np.asarray(rs), np.asarray(qs), tail


def write_phase_csv(path: str, table, meta: dict[str, str]) -> None:
    rows = [
        f"# ell {row.ell} failed: {row.error}"
        if row.error is not None
        else f"{row.ell},{_fmt(row.delta)},{_fmt(row.b_norm)},{_fmt(row.residual)}"
        for row in table.rows
    ]
    _write_csv(path, "phases", meta, "ell,delta,b_norm,residual", rows)


def write_map_csv(path: str, amap, meta: dict[str, str]) -> None:
    rows = [f"{_fmt(l1)},{_fmt(l2)},{flag}" for l1, l2, flag in amap.rows()]
    meta = {"S": ",".join(str(e) for e in amap.ells), **meta}
    _write_csv(path, "map", meta, "L1,L2,admissible", rows)


def _json_default(obj):
    """`default=` hook of json.dumps: numpy scalars and arrays as Python values."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _verdict_dict(verdict) -> dict:
    return {
        "admissible": verdict.admissible,
        "settled": verdict.settled,
        "zeros": list(verdict.zeros),
        "scan_r_max": verdict.r_max,
        "parity": verdict.parity,
    }


def _reconstruct(ells, shifted, grid, phases, report, tail_key) -> PotentialProfile:
    """Kernel -> potential -> q(0), numeric moment, tail fit and sum rules.

    Shared by invert, roundtrip and check: fills `report` (the tail fit
    under `tail_key`) and returns the potential profile.  Sum rules need
    integer S and one phase per channel; they are skipped when `phases`
    is None.  Their targets -2 alpha, -2 beta are read from the report's
    `tail_closed_form`, which the caller files first (_closed_forms).
    """
    kernel = solve_kernel(ells, shifted, grid)
    profile = potential(ells, shifted, grid, kernel=kernel)
    report["q_origin"] = profile.q_origin
    try:
        report["moment_numeric"] = moment_numeric(profile)
    except TailFitError as exc:
        report["moment_numeric"] = None
        report["moment_note"] = str(exc)
    if profile.tail is not None:
        report[tail_key] = asdict(profile.tail)
    report["sum_rules"] = None
    if phases is not None and report["tail_closed_form"] is not None:
        try:
            b_factors = [
                extract_phase(
                    grid.r, transformed_wave(ells, shifted, float(ell), grid, kernel), int(ell)
                ).b_norm
                for ell in ells
            ]
            rules = sum_rules(ells, shifted, phases, b_factors)
            tail = report["tail_closed_form"]
            target_cos, target_sin = -2.0 * tail["alpha"], -2.0 * tail["beta"]
            report["sum_rules"] = {
                **rules._asdict(),
                "b_factors": b_factors,
                "target_cos": target_cos,
                "target_sin": target_sin,
                "gap_cos": rules.residual_cos - target_cos,
                "gap_sin": rules.residual_sin - target_sin,
            }
        except CtinvError as exc:
            report["sum_rule_note"] = str(exc)
    return profile


def _closed_forms(s, t) -> dict:
    """Report entries that S and T give in closed form: tail amplitudes and first moment.

    At a singular M_cos the tail amplitudes are None and a tail_note says why.
    """
    try:
        asym = asymptotic_data(s, t)
        tail = {"tail_closed_form": {"alpha": asym.alpha, "beta": asym.beta}}
    except InternalInconsistencyError as exc:
        tail = {"tail_closed_form": None, "tail_note": str(exc)}
    return {**tail, "moment_closed_form": moment_closed_form(s, t)}


def _invert_pipeline(input_set: InputSet, cfg: RunConfig, out: str | None):
    """Shared by invert and roundtrip: returns (exit_code, report, profile)."""
    if out:
        _check_out(out)
    grid = RadialGrid(cfg.step, cfg.lambda_max)  # refused before the solve, as --out is
    report: dict = {
        "input": {"ells": list(input_set.ells), "deltas": list(input_set.deltas)},
        "grid": {"h": cfg.step, "lambda": cfg.lambda_max},
    }
    solve = solve_T(
        input_set,
        seeds_per_axis=cfg.seeds_per_axis,
        k_range=cfg.k_range,
    )
    report["zero_potential"] = solve.zero_potential
    if solve.zero_potential:
        profile = PotentialProfile(
            grid.r,
            np.zeros_like(grid.r),
            tuple(float(e) for e in input_set.ells),
            (),
            TailFit(0.0, 0.0, 0.0, 0.0),
            cfg.step,
            float(grid.r[-1]),
            0.0,
        )
        report.update(candidates=[], chosen_T=None, moment_closed_form=0.0, moment_numeric=0.0)
    else:
        if not solve.candidates:
            # every run that converged left the box, and those runs hold the smallest residuals
            rest = sorted(filter(math.isfinite, solve.seed_residuals))[solve.seeds_out_of_box :]
            report.update(
                candidates=[],
                chosen_T=None,
                seeds_tried=solve.seeds_tried,
                seeds_out_of_box=solve.seeds_out_of_box,
                best_seed_residual=rest[0] if rest else None,
            )
            return EXIT_NO_ADMISSIBLE, report, None
        sel = select_physical(input_set, solve.candidates, resolution=cfg.scan_resolution)
        report["candidates"] = [
            {"T": list(cand.Ls), "cos_cond": cond, **_verdict_dict(verdict)}
            for cand, cond, verdict in zip(solve.candidates, solve.cos_cond, sel.verdicts)
        ]
        report["ambiguous"] = sel.ambiguous
        if not sel.admissible:
            report["chosen_T"] = None
            return EXIT_UNSETTLED if sel.unsettled else EXIT_NO_ADMISSIBLE, report, None
        chosen = sel.admissible[0]
        report["chosen_T"] = list(chosen.Ls)
        report.update(_closed_forms(input_set, chosen))
        profile = _reconstruct(input_set.ells, chosen, grid, input_set.deltas, report, "tail")
        report["expansion_coeffs"] = list(expansion_coeffs(input_set, chosen))
    if out:
        write_potential_csv(out, profile, input_set)
        report["out"] = out
    return EXIT_OK, report, profile


def cmd_invert(args) -> tuple[int, dict | None]:
    cfg = _merged_config(args)
    input_set = read_phase_file(args.phases)
    code, report, _ = _invert_pipeline(input_set, cfg, args.out or "potential.csv")
    return code, report


def cmd_forward(args) -> tuple[int, dict | None]:
    cfg = _merged_config(args)
    if args.ellmax < 0:
        raise ParseError("--ellmax must be >= 0")
    if args.ws is not None:
        if len(args.ws) != 3:
            raise ParseError("--ws needs DEPTH,RADIUS,DIFFUSENESS")
        pot = WoodsSaxon(*args.ws)
        grid = RadialGrid(cfg.step, cfg.forward_lambda)
    else:
        r, q, tail = read_potential_csv(args.potential)
        pot = SampledPotential.from_arrays(r, q, tail, description=f"file:{args.potential}")
        grid = RadialGrid(cfg.step, float(r[-1]))
    out = _check_out(args.out or "phases.csv")
    table = phase_table(pot, range(args.ellmax + 1), grid)
    write_phase_csv(
        out,
        table,
        {
            "potential": table.source,
            "h": _fmt(grid.h),
            "lambda": _fmt(grid.r[-1]),
        },
    )
    report = {
        "potential": table.source,
        "grid": {"h": grid.h, "lambda": float(grid.r[-1])},
        "phases": [asdict(row) for row in table.rows],
        "out": out,
    }
    return EXIT_OK, report


def cmd_roundtrip(args) -> tuple[int, dict | None]:
    cfg = _merged_config(args)
    input_set = read_phase_file(args.phases)
    code, report, profile = _invert_pipeline(input_set, cfg, args.out)
    if code != EXIT_OK:
        return code, report
    if report.get("zero_potential"):
        report["max_phase_discrepancy"] = 0.0
        return EXIT_OK, report
    # when S has one parity, the channels of the other parity must stay empty
    parities = {int(ell) % 2 for ell in input_set.ells}
    top = int(max(input_set.ells)) + 2
    other = [ell for ell in range(top) if ell % 2 not in parities] if len(parities) == 1 else []
    table = phase_table(
        SampledPotential.from_profile(profile),
        list(input_set.ells) + other,
        RadialGrid(profile.h, profile.r_max),
    )
    # rows of S channels (leak = 0) compare with the input, leakage rows (1)
    # with 0; a failed channel makes its block's maximum None (JSON null)
    entries = ([], [])
    worst = [0.0, 0.0]
    for k, row in enumerate(table.rows):
        leak = int(k >= len(input_set))
        entry = {"ell": row.ell} if leak else {"ell": row.ell, "input": input_set.deltas[k]}
        entry["residual"] = row.residual
        if row.delta is None:
            entry["error"] = f"no phase for ell={row.ell}: {row.error}"
            dev = math.inf
        elif leak:
            entry["tan_delta"] = math.tan(row.delta)
            dev = abs(entry["tan_delta"])
        else:
            dev = abs(math.remainder(row.delta - input_set.deltas[k], math.pi))
            entry.update(recovered=row.delta, abs_diff=dev)
        entries[leak].append(entry)
        worst[leak] = max(worst[leak], dev)
    worst = [w if math.isfinite(w) else None for w in worst]
    report["phases"] = entries[0]
    report["max_phase_discrepancy"] = worst[0]
    if other:
        report["parity_leakage"] = {"ells": other, "rows": entries[1], "max_abs_tan": worst[1]}
    return EXIT_OK, report


def cmd_map(args) -> tuple[int, dict | None]:
    cfg = _merged_config(args)
    if len(args.ells) != 2:
        raise ParseError("map needs exactly two angular momenta, e.g. --ells 0,1")
    if len(args.box) != 4:
        raise ParseError("--box needs four numbers A,B,C,D")
    out = _check_out(args.out or "map.csv")
    amap = admissibility_map(
        args.ells,
        box=tuple(args.box),
        resolution=cfg.map_resolution,
        r_max=args.lam,
        scan_resolution=cfg.scan_resolution,
        threads=cfg.threads,
    )
    write_map_csv(out, amap, {"box": ",".join(map(_fmt, args.box)), "res": _fmt(cfg.map_resolution)})
    report = {
        "S": list(amap.ells),
        "cells": int(amap.admissible.size),
        "admissible_cells": int(np.count_nonzero(amap.admissible)),
        "errors": [f"({i},{j}) {msg}" for i, j, msg in amap.errors],
        "tables": amap.tables,
        "out": out,
    }
    return EXIT_OK, report


def cmd_check(args) -> tuple[int, dict | None]:
    cfg = _merged_config(args)
    ells = args.ells
    if len(ells) != len(args.T):
        raise ParseError("--ells and --T must have the same length")
    shifted = ShiftedSet(tuple(args.T))
    verdict = scan_zeros(ells, shifted, r_max=args.lam, resolution=cfg.scan_resolution)
    cond = _cos_cond(np.asarray(ells, dtype=float), [shifted])[0]
    report = {
        "S": list(ells),
        "T": list(shifted.Ls),
        "cos_cond": cond if math.isfinite(cond) else None,
        **_verdict_dict(verdict),
    }
    if len(ells) == 1:
        rule = report["single_channel_rule"] = admissible_1d(float(ells[0]), shifted.Ls[0])
        if verdict.settled and rule != verdict.admissible:
            # the rule is exact for one shift, so this scan looked settled without being so
            report.update(settled=False, admissible=False, scan_note=(
                f"the scan to r = {verdict.r_max:g} contradicts the exact"
                " single-channel rule |L - ell| <= 1"
            ))
    try:
        report["implied_phases"] = list(phases_from_T(ells, shifted))
    except CtinvError as exc:
        report["implied_phases"] = None
        report["phase_note"] = str(exc)
    report.update(_closed_forms(ells, shifted))
    report["moment_numeric"] = None
    report["sum_rules"] = None
    if report["admissible"]:
        integral_s = all(float(ell) == int(ell) for ell in ells)
        phases = report["implied_phases"] if integral_s else None
        grid = RadialGrid(cfg.step, cfg.lambda_max)
        _reconstruct(ells, shifted, grid, phases, report, "tail_fit")
    if not report["settled"]:
        return EXIT_UNSETTLED, report
    return (EXIT_OK if report["admissible"] else EXIT_NO_ADMISSIBLE), report


def cmd_specfun(args) -> tuple[int, dict | None]:
    # the Bessel lines print before riccati runs, so they survive its errors
    for names, fn in ((("J", "Y", "J'", "Y'"), bessel_jy), (("u", "u'", "v", "v'"), riccati)):
        for name, value in zip(names, fn(args.nu, args.x)):
            print(f"{name}({args.nu:g}, {args.x:g}) = {_fmt(value)}")
    return EXIT_OK, None


def _merged_config(args) -> RunConfig:
    """The config file's values, overridden by each flag whose dest names a field."""
    cfg = load_config(args.config)
    for f in fields(RunConfig):
        if getattr(args, f.name, None) is not None:
            setattr(cfg, f.name, getattr(args, f.name))
    return cfg


def _csv_list(cast, noun: str):
    """argparse type for a comma-separated list of `cast` values."""

    def parse(text: str) -> list:
        try:
            return [cast(tok) for tok in text.split(",") if tok.strip() != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}")

    return parse


_csv_ints = _csv_list(int, "integers")
_csv_floats = _csv_list(float, "numbers")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads '--T -0.3,0.9' as '--T=-0.3,0.9' and errs in one line.

    Any value that starts '-N' or '-.N' after a long flag is glued to it:
    argparse itself takes only '-N' and '-N.N', not comma lists or exponents.
    """

    def parse_known_args(self, args=None, namespace=None):
        joined: list[str] = []
        for arg in sys.argv[1:] if args is None else args:
            if joined and re.fullmatch(r"--[\w-]+", joined[-1]) and re.match(r"-\.?\d", arg):
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)

    def error(self, message):
        """Exit 2 with one stderr line, as every other input error does (no usage line)."""
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ctinv",
        description="Fixed-energy inverse scattering: phase shifts <-> potential.",
    )
    parser.add_argument("--config", help="key=value config file (or set CTINV_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)
    # flags shared between subcommands, each declared once
    step = argparse.ArgumentParser(add_help=False)
    step.add_argument("--step", type=float, help="grid step h")
    inversion = argparse.ArgumentParser(add_help=False)
    inversion.add_argument("--phases", required=True, help="file of 'ell delta' lines")
    inversion.add_argument(
        "--lambda", dest="lambda_max", type=float, help="outer radius of the grid"
    )
    inversion.add_argument("--k-range", dest="k_range", type=int, help="branch range for |S| = 1")
    scan = argparse.ArgumentParser(add_help=False)
    scan.add_argument("--lambda", dest="lam", type=float, help="scan radius (per cell for map)")

    p = sub.add_parser(
        "invert", parents=[inversion, step], help="reconstruct a potential from phase shifts"
    )
    p.add_argument("--out", help="potential CSV path (default potential.csv)")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("forward", parents=[step], help="phase shifts of a given potential")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--potential", help="potential CSV (r,q with # metadata)")
    group.add_argument(
        "--ws",
        type=_csv_floats,
        metavar="DEPTH,RADIUS,DIFFUSENESS",
        help="Woods-Saxon well parameters",
    )
    p.add_argument("--ellmax", required=True, type=int, help="compute ell = 0..ellmax")
    p.add_argument("--out", help="phases CSV path (default phases.csv)")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser(
        "roundtrip", parents=[inversion, step], help="invert, re-solve forward, compare phases"
    )
    p.add_argument("--out", help="also write the reconstructed potential CSV here")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("map", parents=[scan], help="admissibility map over (L1, L2) for |S| = 2")
    p.add_argument("--ells", required=True, type=_csv_ints, metavar="L1,L2")
    p.add_argument(
        "--box",
        type=_csv_floats,
        default=[-0.5, 6.0, -0.5, 6.0],
        metavar="A,B,C,D",
        help="rectangle [A,B] x [C,D] (default -0.5,6,-0.5,6)",
    )
    p.add_argument("--res", dest="map_resolution", type=float, help="lattice resolution (default 0.02)")
    p.add_argument("--threads", type=int, help="worker threads (>= 1)")
    p.add_argument("--out", help="map CSV path (default map.csv)")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("check", parents=[scan], help="scan one explicit (S, T) pair")
    p.add_argument("--ells", required=True, type=_csv_floats)
    p.add_argument("--T", required=True, type=_csv_floats)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("specfun", help="evaluate the special functions (debug)")
    p.add_argument("--nu", required=True, type=float)
    p.add_argument("--x", required=True, type=float)
    p.set_defaults(func=cmd_specfun)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        code, report = args.func(args)
    except ParseError as exc:
        print(f"ctinv: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CtinvError as exc:
        print(f"ctinv: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"ctinv: out of memory: {exc}", file=sys.stderr)
        return 1
    if report is not None:
        report.update(command=args.command, timing_seconds=time.perf_counter() - t0)
        print(json.dumps(report, default=_json_default, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
