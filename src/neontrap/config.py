"""Strict run-configuration parsing for the sweep CLI.

Config files are INI-style `key = value` sections.  Every physical value
carries an explicit unit string (`L = 10 nm`); unknown sections or keys,
missing units, and malformed values are rejected before any computation.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field, fields

from .constants import BARRIER_HEIGHT, CUTOFF_ZC, EPS_NEON, Z_MAX
from .tables import emit_quantity, parse_quantity


class ConfigError(ValueError):
    """Invalid or unparseable run configuration."""


def _key(section: str, kind, default, unit: str | None = None, key: str | None = None):
    """A RunConfig field that is config key `key` (default: the field's name) of [section].

    kind: float | float_or_auto (auto -> None) | float_list | int | str, or a
    tuple of the allowed strings.  unit is the unit its values are written in.
    A list default is copied for each instance.
    """
    meta = {"section": section, "kind": kind, "unit": unit, "key": key}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=meta)
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration; all lengths nm, fields V/m, energies meV.

    Each field declares its config key, and the field order is the section
    and key order of the `.effective.ini` echo.
    """

    substrate_type: str = _key("substrate", ("superconductor", "dielectric"), "superconductor",
                               key="type")
    eps_b: float = _key("substrate", "float", 12.0)
    eps_neon: float = _key("constants", "float", EPS_NEON)
    barrier_height: float = _key("constants", "float", BARRIER_HEIGHT, "meV")
    cutoff_zc: float = _key("constants", "float", CUTOFF_ZC, "nm")
    # accepted and echoed for old configs; the perpendicular mesh is fixed
    n_points: int = _key("grid", "int", 8192)
    z_max: float = _key("grid", "float", Z_MAX, "nm")
    z_samples: int = _key("grid", "int", 400)
    rho_max: float | None = _key("grid", "float_or_auto", None, "nm")
    # accepted and echoed for old configs; the radial mesh is built from R, b and rho_max
    n_points_radial: int = _key("grid", "int", 16384)
    L: list = _key("sweep", "float_list", [10.0], "nm")
    E_ex: list = _key("sweep", "float_list", [0.0], "V/m")
    L0: float = _key("sweep", "float", 10.0, "nm")
    delta_L: list = _key("sweep", "float_list", [0.5], "nm")
    R: list = _key("sweep", "float_list", [110.0], "nm")
    b: float = _key("sweep", "float", 2.0, "nm")
    n_knots: int = _key("sweep", "int", 60)
    alpha_max: int = _key("sweep", "int", 1)
    r_c: list = _key("growth", "float_list", [10.0, -10.0], "nm")
    diffusion_time: float = _key("growth", "float", 10e-6, "s")
    delta_h: float = _key("growth", "float", 25.0, "nm")
    out_path: str = _key("output", "str", "out.csv", key="path")
    out_format: str = _key("output", ("csv", "json"), "csv", key="format")
    # accepted and echoed for old configs; every run is serial
    threads: int = _key("parallel", "int", 0)

    def __post_init__(self):
        _validate(self)

    def effective_text(self) -> str:
        """Canonical resolved-config echo in field order; also the hash input."""
        blocks = {}
        for (section, key), f in _FIELDS.items():
            # eps_b means nothing unless the substrate is a dielectric
            if f.name == "eps_b" and self.substrate_type != "dielectric":
                continue
            value = _emit_value(f.metadata["kind"], f.metadata["unit"], getattr(self, f.name))
            blocks.setdefault(section, [f"[{section}]"]).append(f"{key} = {value}")
        return "\n\n".join("\n".join(lines) for lines in blocks.values()) + "\n"

    def config_hash(self) -> str:
        # neither the output destination nor [parallel] affects the numbers,
        # so the hash covers only the physics-relevant sections
        text = self.effective_text().split("[output]")[0]
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# (section, key) -> RunConfig field, in field order
_FIELDS = {(f.metadata["section"], f.metadata["key"] or f.name): f for f in fields(RunConfig)}


def _parse_value(section: str, key: str, raw: str):
    meta = _FIELDS[section, key].metadata
    kind, unit = meta["kind"], meta["unit"]

    def number(text: str) -> float:
        value = parse_quantity(text, unit)
        # nan means nothing, and inf only the bulk sentinel of [sweep] L
        if not math.isfinite(value) and (value != math.inf or (section, key) != ("sweep", "L")):
            raise ValueError(f"expected a finite value, got {text.strip()!r}")
        return value

    try:
        if kind == "float":
            return number(raw)
        if kind == "float_or_auto":
            return None if raw.strip() == "auto" else number(raw)
        if kind == "float_list":
            return [number(part) for part in raw.split(",")]
        if kind == "int":
            if not raw.strip().lstrip("+-").isdigit():
                raise ValueError(f"expected an integer, got {raw!r}")
            return int(raw)
        if isinstance(kind, tuple):
            val = raw.strip()
            if val not in kind:
                raise ValueError(f"expected one of {kind}, got {val!r}")
            return val
        return raw.strip()
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def _emit_value(kind, unit, value) -> str:
    """Text that `_parse_value` reads back as `value`."""
    if kind == "float_list":
        return ", ".join(emit_quantity(v, unit) for v in value)
    if kind == "float_or_auto" and value is None:
        return "auto"
    if kind in ("float", "float_or_auto"):
        return emit_quantity(value, unit)
    return str(value)


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (L vs l)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc

    if parser.defaults():
        raise ConfigError("unknown section [DEFAULT]: every key belongs to a named section")
    values = {}
    sections = {section for section, _ in _FIELDS}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) not in _FIELDS:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[_FIELDS[section, key].name] = _parse_value(section, key, raw)
    return RunConfig(**values)


def _validate(cfg: RunConfig):
    if cfg.substrate_type == "dielectric" and cfg.eps_b < 1.0:
        raise ConfigError("eps_b must be >= 1")
    if cfg.eps_neon <= 1.0:
        raise ConfigError("eps_neon must exceed 1")
    if cfg.barrier_height <= 0.0:
        # the neon surface must repel the electron, or it settles inside the layer
        raise ConfigError("barrier_height must be a positive energy")
    if cfg.cutoff_zc <= 0.0:
        raise ConfigError("cutoff_zc must be a positive length")
    if cfg.z_max <= cfg.cutoff_zc:
        raise ConfigError("z_max must exceed the cutoff distance")
    if cfg.z_samples < 1:
        raise ConfigError("z_samples must be >= 1")
    if any(l <= 0.0 for l in cfg.L):
        raise ConfigError("layer thicknesses must be positive (or inf for bulk)")
    if not (0.0 < min(cfg.delta_L) and max(cfg.delta_L) < cfg.L0):
        raise ConfigError("need 0 < delta_L < L0")
    if any(r <= 0.0 for r in cfg.R) or cfg.b <= 0.0:
        raise ConfigError("R and b must be positive")
    if cfg.rho_max is not None and cfg.rho_max <= 0.0:
        raise ConfigError("rho_max must be a positive length (or auto)")
    if cfg.n_knots < 20:
        raise ConfigError("n_knots must be >= 20")
    if cfg.alpha_max < 1:
        raise ConfigError("alpha_max must be >= 1")
    if any(r == 0.0 for r in cfg.r_c):
        raise ConfigError("curvature radii must be nonzero")
    if cfg.diffusion_time <= 0.0 or cfg.delta_h < 0.0:
        raise ConfigError("diffusion_time must be positive, delta_h non-negative")
    if cfg.threads < 0:
        raise ConfigError("threads must be >= 0")
