"""Strict run-configuration parsing for the sweep CLI.

Config files are INI-style `key = value` sections.  Every physical value
carries an explicit unit string (`L = 10 nm`); unknown sections or keys,
missing units, and malformed values are rejected before any computation.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field

from .perpendicular import MIN_GRID_POINTS
from .tables import emit_quantity, parse_quantity


class ConfigError(ValueError):
    """Invalid or unparseable run configuration."""


# section -> key -> (kind, unit): the one list of config keys.  Its order is
# the section and key order of the `.effective.ini` echo.
# kind: float | float_or_auto (auto -> None) | float_list | int | str | choice
_SCHEMA = {
    "substrate": {
        "type": ("choice", ("superconductor", "dielectric")),
        "eps_b": ("float", None),
    },
    "constants": {
        "eps_neon": ("float", None),
        "barrier_height": ("float", "meV"),
        "cutoff_zc": ("float", "nm"),
    },
    "grid": {
        "n_points": ("int", None),
        "z_max": ("float", "nm"),
        "z_samples": ("int", None),
        "rho_max": ("float_or_auto", "nm"),
        "n_points_radial": ("int", None),
    },
    "sweep": {
        "L": ("float_list", "nm"),
        "E_ex": ("float_list", "V/m"),
        "L0": ("float", "nm"),
        "delta_L": ("float_list", "nm"),
        "R": ("float_list", "nm"),
        "b": ("float", "nm"),
        "n_knots": ("int", None),
        "alpha_max": ("int", None),
    },
    "growth": {
        "r_c": ("float_list", "nm"),
        "diffusion_time": ("float", "s"),
        "delta_h": ("float", "nm"),
    },
    "output": {
        "path": ("str", None),
        "format": ("choice", ("csv", "json")),
    },
    "parallel": {
        "threads": ("int", None),
    },
}

# RunConfig fields whose name is not the key's
_DEST = {
    ("substrate", "type"): "substrate_type",
    ("output", "path"): "out_path",
    ("output", "format"): "out_format",
}

# keys echoed only while a field holds a value: eps_b means nothing
# unless the substrate is a dielectric
_ECHO_ONLY_IF = {("substrate", "eps_b"): ("substrate_type", "dielectric")}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration; all lengths nm, fields V/m, energies meV."""

    substrate_type: str = "superconductor"
    eps_b: float = 12.0
    eps_neon: float = 1.244
    barrier_height: float = 700.0
    cutoff_zc: float = 0.23
    n_points: int = 8192
    z_max: float = 40.0
    z_samples: int = 400
    rho_max: float | None = None
    n_points_radial: int = 16384
    L: list = field(default_factory=lambda: [10.0])
    E_ex: list = field(default_factory=lambda: [0.0])
    L0: float = 10.0
    delta_L: list = field(default_factory=lambda: [0.5])
    R: list = field(default_factory=lambda: [110.0])
    b: float = 2.0
    n_knots: int = 60
    alpha_max: int = 1
    r_c: list = field(default_factory=lambda: [10.0, -10.0])
    diffusion_time: float = 10e-6
    delta_h: float = 25.0
    out_path: str = "out.csv"
    out_format: str = "csv"
    threads: int = 0  # accepted and echoed for old configs; every run is serial

    def __post_init__(self):
        _validate(self)

    def effective_text(self) -> str:
        """Canonical resolved-config echo in `_SCHEMA` order; also the hash input."""
        blocks = []
        for section, keys in _SCHEMA.items():
            lines = [f"[{section}]"]
            for key, (kind, unit) in keys.items():
                only_if = _ECHO_ONLY_IF.get((section, key))
                if only_if and getattr(self, only_if[0]) != only_if[1]:
                    continue
                value = getattr(self, _DEST.get((section, key), key))
                lines.append(f"{key} = {_emit_value(kind, unit, value)}")
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks) + "\n"

    def config_hash(self) -> str:
        # neither the output destination nor [parallel] affects the numbers,
        # so the hash covers only the physics-relevant sections
        text = self.effective_text().split("[output]")[0]
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _parse_value(section: str, key: str, raw: str):
    kind, unit = _SCHEMA[section][key]

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
        if kind == "choice":
            val = raw.strip()
            if val not in unit:
                raise ValueError(f"expected one of {unit}, got {val!r}")
            return val
        return raw.strip()
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def _emit_value(kind: str, unit, value) -> str:
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

    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[_DEST.get((section, key), key)] = _parse_value(section, key, raw)
    return RunConfig(**values)


def _validate(cfg: RunConfig):
    if cfg.substrate_type == "dielectric" and cfg.eps_b < 1.0:
        raise ConfigError("eps_b must be >= 1")
    if cfg.eps_neon <= 1.0:
        raise ConfigError("eps_neon must exceed 1")
    if min(cfg.n_points, cfg.n_points_radial) < MIN_GRID_POINTS:
        raise ConfigError(f"grids need at least {MIN_GRID_POINTS} points")
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
