"""Sweep-driving command line interface.

Subcommands: potential-z, ground-sweep, lateral, field-sweep, growth,
verify.  Every sweep runs serially, and all outputs are deterministic:
identical (config, version) pairs produce byte-identical files.

Each command yields its tables as (file-name suffix, ResultTable) pairs and
opens no file; main stamps the provenance on each table as it arrives and
writes it, so it is the only writer.  verify takes the tables in memory.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  Any
other exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load_config
from .constants import UEV_PER_MEV
from .dielectric import external_potential, perpendicular_potential
from .growth import (diffusion_length, gibbs_thomson_coefficient, gibbs_thomson_shift,
                     gravity_potential_difference)
from .lateral import (NODE_TOL_MEV, ModelInvalidError, PillarProfile, build_energy_curve,
                      curve_range, default_rho_max, fit_harmonic_field_model,
                      harmonic_field_model, lta_potential, near_zero_slopes, pillar_spectrum,
                      thickness_at)
from .perpendicular import NumericalFailure, mean_height, perpendicular_gap, solve_perpendicular
from .tables import ResultTable, parse_cell


def _out_path(cfg: RunConfig, suffix: str) -> str:
    stem, ext = os.path.splitext(cfg.out_path)
    return f"{stem}{suffix}{ext}" if suffix else cfg.out_path


def _write_effective_config(cfg: RunConfig):
    stem, _ = os.path.splitext(cfg.out_path)
    with open(stem + ".effective.ini", "w", newline="\n") as fh:
        fh.write(cfg.effective_text())


def _single_field(cfg: RunConfig, command: str) -> float:
    if len(cfg.E_ex) != 1:
        raise ConfigError(f"{command} needs exactly one E_ex")
    return cfg.E_ex[0]


def _curve_metadata(validation_error: float, nodes: int) -> dict:
    """Table metadata of an energy curve: its held-out error and node count."""
    return {"curve_validation_error_meV": f"{validation_error:.6e}", "curve_nodes": str(nodes)}


def cmd_potential_z(cfg: RunConfig):
    """Perpendicular potential profile V(z); one file per layer thickness.

    Every stack is built, so checked, before the first table.  z starts at
    cutoff_zc, above the barrier, so V_total is V_perp + V_ex."""
    e_ex = _single_field(cfg, "potential-z")
    z = np.linspace(cfg.cutoff_zc, cfg.z_max, cfg.z_samples)
    for stack in [cfg.stack(L, e_ex) for L in cfg.L]:
        v_perp = perpendicular_potential(stack, z)
        v_ex = external_potential(stack, z)
        table = ResultTable(columns=[("z", "nm"), ("V_perp", "meV"),
                                     ("V_ex", "meV"), ("V_total", "meV")],
                            metadata={"L_nm": f"{stack.thickness_L:g}"})
        table.add_columns(z, v_perp, v_ex, v_perp + v_ex)
        yield f"_L{stack.thickness_L:g}", table


def cmd_ground_sweep(cfg: RunConfig):
    """W^G, h_e and the perpendicular gap over the (L, E_ex) grid."""
    table = ResultTable(columns=[("L", "nm"), ("E_ex", "V/m"), ("W_G", "meV"),
                                 ("h_e", "nm"), ("gap", "meV"), ("bound", "")])
    for L, e_ex in sorted((L, e) for L in cfg.L for e in cfg.E_ex):
        sol = None
        if not (math.isinf(L) and e_ex != 0.0):  # bulk neon at a field: a flagged row
            sol = solve_perpendicular(cfg.stack(L, e_ex), n_states=2, z_max=cfg.z_max)
        if sol is not None and sol.is_bound():
            table.add_row(L, e_ex, float(sol.energies[0]), mean_height(sol),
                          perpendicular_gap(sol), True)
        else:
            table.add_row(L, e_ex, math.nan, math.nan, math.nan, False)
    yield "", table


def cmd_lateral(cfg: RunConfig):
    """Lateral potential profile plus the qubit spectrum per (R, delta_L)."""
    e_ex = _single_field(cfg, "lateral")
    l_range = curve_range(cfg.L0, max(cfg.delta_L))
    curve = build_energy_curve(cfg.stack(cfg.L0, e_ex), l_range, z_max=cfg.z_max)
    spectrum = ResultTable(
        columns=[("R", "nm"), ("delta_L", "nm"), ("alpha", ""),
                 ("U_alpha", "ueV"), ("delta_U", "ueV"), ("rho_e", "nm"),
                 ("rho_e_line", "nm"), ("bound", "")],
        metadata=_curve_metadata(curve.validation_error, curve.l_knots.size))
    # each spectrum starts from the one before it; a new R is a new mesh, so solves dense
    spec = None
    for R in sorted(cfg.R):
        for dL in sorted(cfg.delta_L):
            profile = PillarProfile(cfg.L0, dL, R, cfg.b)
            rho_max = default_rho_max(R) if cfg.rho_max is None else cfg.rho_max
            rho = np.linspace(rho_max / cfg.z_samples, rho_max, cfg.z_samples)
            v_par = np.asarray(lta_potential(curve, profile, rho))
            prof_table = ResultTable(
                columns=[("rho", "nm"), ("L_rho", "nm"), ("V_par", "meV")],
                metadata={"R_nm": f"{R:g}", "delta_L_nm": f"{dL:g}"})
            lr = np.asarray(thickness_at(profile, rho))
            prof_table.add_columns(rho, lr, v_par)
            yield f"_R{R:g}_dL{dL:g}", prof_table

            spec = pillar_spectrum(curve, profile, alpha_max=cfg.alpha_max,
                                   rho_max=rho_max, start=spec)
            for alpha in range(cfg.alpha_max + 1):
                spectrum.add_row(R, dL, alpha, UEV_PER_MEV * spec.u_alpha[alpha],
                                 spec.delta_u_uev, spec.rho_e, spec.rho_e_line,
                                 spec.bound)
    yield "_spectrum", spectrum


def cmd_field_sweep(cfg: RunConfig):
    """Delta U and rho_e versus external field for one pillar geometry.

    One energy curve and pillar spectrum per field, ascending, each curve and
    spectrum started from the last one built.  A field that fails numerically
    keeps a flagged NaN row and adds no curve; the bound fields feed the slopes
    and fit.  A fit the harmonic model cannot take keeps the table and states
    its reason in harmonic_fit_error.
    """
    if len(cfg.R) != 1 or len(cfg.delta_L) != 1:
        raise ConfigError("field-sweep needs exactly one R and one delta_L")
    l_range = curve_range(cfg.L0, max(cfg.delta_L))
    profile = PillarProfile(cfg.L0, cfg.delta_L[0], cfg.R[0], cfg.b)
    table = ResultTable(columns=[("E_ex", "V/m"), ("delta_U", "ueV"),
                                 ("rho_e", "nm"), ("rho_e_line", "nm"),
                                 ("bound", "")])
    curve, spec, curves, e_fit, du_fit = None, None, [], [], []
    for e_ex in sorted(cfg.E_ex):
        try:
            curve = build_energy_curve(cfg.stack(cfg.L0, e_ex), l_range, z_max=cfg.z_max,
                                       start=curve)
            spec = pillar_spectrum(curve, profile, alpha_max=cfg.alpha_max,
                                   rho_max=cfg.rho_max, start=spec)
        except NumericalFailure:
            table.add_row(e_ex, math.nan, math.nan, math.nan, False)
            continue
        table.add_row(e_ex, spec.delta_u_uev, spec.rho_e, spec.rho_e_line, spec.bound)
        curves.append(curve)
        if spec.bound:
            e_fit.append(e_ex)
            du_fit.append(spec.delta_u_uev)
    if curves:  # the worst curve over the fields
        table.metadata.update(_curve_metadata(max(c.validation_error for c in curves),
                                              max(c.l_knots.size for c in curves)))
    slope_neg, slope_pos = near_zero_slopes(e_fit, du_fit)
    if slope_neg and slope_pos:
        table.metadata["slope_neg_ueV_per_V_per_m"] = f"{slope_neg:.6e}"
        table.metadata["slope_pos_ueV_per_V_per_m"] = f"{slope_pos:.6e}"
        table.metadata["asymmetry_ratio"] = f"{abs(slope_neg) / abs(slope_pos):.6f}"
    if len(e_fit) >= 2:
        try:
            w0, b1 = fit_harmonic_field_model(e_fit, du_fit)
            resid = max(abs(harmonic_field_model(w0, b1, e) - du)
                        for e, du in zip(e_fit, du_fit))
        except ModelInvalidError as exc:  # the solved rows stand without the model
            table.metadata["harmonic_fit_error"] = str(exc)
        else:
            table.metadata["harmonic_fit_hbar_omega0_ueV"] = f"{w0:.6e}"
            table.metadata["harmonic_fit_beta1_ueV2_per_V_per_m"] = f"{b1:.6e}"
            table.metadata["harmonic_fit_max_residual_ueV"] = f"{resid:.6e}"
    yield "", table


def cmd_growth(cfg: RunConfig):
    """Gibbs-Thomson, diffusion-length and gravity estimates."""
    table = ResultTable(columns=[("quantity", ""), ("value", ""), ("unit", "")])
    table.add_row("gibbs_thomson_coefficient", gibbs_thomson_coefficient(), "K nm")
    for r_c in cfg.r_c:
        table.add_row(f"gibbs_thomson_shift_rc_{r_c:g}nm", gibbs_thomson_shift(r_c), "K")
    table.add_row(f"diffusion_length_t_{cfg.diffusion_time:g}s",
                  diffusion_length(cfg.diffusion_time), "nm")
    table.add_row(f"gravity_potential_dh_{cfg.delta_h:g}nm",
                  gravity_potential_difference(cfg.delta_h), "meV")
    yield "", table


def _table_identity(table: ResultTable) -> tuple:
    """Columns plus the metadata naming the thickness / pillar a table belongs to."""
    return table.columns, [table.metadata.get(k) for k in ("L_nm", "R_nm", "delta_L_nm")]


# provenance keys that verify does not compare: main stamps them, and the
# config hash is checked against the config before anything is regenerated
_UNCOMPARED_METADATA = ("tool", "version", "command", "config_sha256")


def cmd_verify(cfg: RunConfig, stored_path: str, rtol: float):
    """Re-run the stored table's command in memory and compare within rtol.

    The stored config_sha256 must be the config's own hash.  The run stops at
    the first table with the stored table's identity, which goes through one
    CSV round trip so both sides carry the printed precision.  Every row cell
    and every metadata key of either table but the provenance is compared:
    numbers within rtol, text exactly, and a key that one side lacks differs.
    Two curve validation errors at or below NODE_TOL_MEV, where node doubling
    stops, are rounding noise and match.
    """
    if not 0.0 <= rtol < math.inf:
        raise ConfigError(f"--rtol must be finite and >= 0, got {rtol!r}")
    try:
        with open(stored_path) as fh:
            stored = ResultTable.from_csv(fh.read())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read stored table {stored_path}: {exc}") from exc
    command = stored.metadata.get("command")
    if command not in _COMMANDS:
        raise ConfigError(f"stored table has no re-runnable command ({command!r})")
    if stored.metadata.get("config_sha256") != cfg.config_hash():
        raise ConfigError(f"stored table was made from another config (config_sha256 "
                          f"{stored.metadata.get('config_sha256')!r}, this config's "
                          f"{cfg.config_hash()!r})")
    identity = _table_identity(stored)
    fresh = next((ResultTable.from_csv(table.to_csv()) for _, table in _COMMANDS[command](cfg)
                  if _table_identity(table) == identity), None)
    if fresh is None:
        raise NumericalFailure("no regenerated table matches the stored schema and axes")
    if len(fresh.rows) != len(stored.rows):
        raise NumericalFailure(
            f"row count changed: {len(stored.rows)} stored vs {len(fresh.rows)} fresh")
    cells = [(f"row {i}", va, vb) for i, (a, b) in enumerate(zip(stored.rows, fresh.rows))
             for va, vb in zip(a, b)]
    for key in sorted(set(stored.metadata).union(fresh.metadata) - set(_UNCOMPARED_METADATA)):
        for side, table in (("stored", stored), ("regenerated", fresh)):
            if key not in table.metadata:
                raise NumericalFailure(f"metadata {key}: the {side} table has no such key")
        va, vb = parse_cell(stored.metadata[key]), parse_cell(fresh.metadata[key])
        if key == "curve_validation_error_meV" and all(
                isinstance(v, float) and abs(v) <= NODE_TOL_MEV for v in (va, vb)):
            continue  # both rounding noise of a converged curve
        cells.append((f"metadata {key}", va, vb))
    worst = 0.0
    for where, va, vb in cells:
        if isinstance(va, float) and isinstance(vb, float):
            if va == vb or (math.isnan(va) and math.isnan(vb)):
                continue
            err = abs(va - vb) / max(abs(va), abs(vb), 1e-300)
            if not err <= rtol:  # a NaN or inf on one side only is a mismatch
                raise NumericalFailure(f"{where}: {va!r} vs {vb!r} differ beyond rtol={rtol}")
            worst = max(worst, err)
        elif va != vb:
            raise NumericalFailure(f"{where}: {va!r} != {vb!r}")
    print(f"verify OK: {len(stored.rows)} rows, worst relative error {worst:.3e}")


_COMMANDS = {
    "potential-z": cmd_potential_z,
    "ground-sweep": cmd_ground_sweep,
    "lateral": cmd_lateral,
    "field-sweep": cmd_field_sweep,
    "growth": cmd_growth,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neontrap",
        description="Electron trapping above finite-thickness solid neon layers")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        _common_flags(p)
    v = sub.add_parser("verify")
    _common_flags(v)
    v.add_argument("stored", help="previously written CSV table to re-check")
    v.add_argument("--rtol", type=float, default=1e-9)
    return parser


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="run configuration file (INI)")
    p.add_argument("--out", help="output path (overrides [output] path)")
    p.add_argument("--format", help="output format, csv or json (overrides [output] format)")
    p.add_argument("--threads", type=int,
                   help="ignored, since every run is serial; kept because "
                        "perfbench/make_reference.py passes it")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        overrides = {"out_path": args.out or None, "out_format": args.format}
        cfg = dataclasses.replace(
            cfg, **{name: v for name, v in overrides.items() if v is not None})
        out_dir = os.path.dirname(cfg.out_path) or "."
        if args.command != "verify" and not os.path.isdir(out_dir):
            raise ConfigError(f"output directory {out_dir} does not exist")
        if args.command == "verify":
            cmd_verify(cfg, args.stored, args.rtol)
        else:
            provenance = {"tool": "neontrap", "version": __version__,
                          "command": args.command, "config_sha256": cfg.config_hash()}
            paths = []
            for suffix, table in _COMMANDS[args.command](cfg):
                table.metadata.update(provenance)
                path = _out_path(cfg, suffix)
                table.write(path, cfg.out_format)
                paths.append(path)
            _write_effective_config(cfg)
            for path in paths:
                print(path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
