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
from .dielectric import Dielectric, DielectricStack, Superconductor
from .growth import diffusion_length, gibbs_thomson_shift, gravity_potential_difference
from .lateral import PillarProfile
from .tables import emit_quantity, parse_quantity


class ConfigError(ValueError):
    """Invalid or unparseable run configuration."""


def _checked(build, *args, **kwargs):
    """Call build(*args, **kwargs); a ValueError from its rules becomes a ConfigError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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

    def stack(self, thickness: float, e_ex: float = 0.0) -> DielectricStack:
        """The configured stack at thickness (nm) and e_ex (V/m), checked by its constructors."""
        sub = Superconductor() if self.substrate_type == "superconductor" \
            else _checked(Dielectric, self.eps_b)
        return _checked(DielectricStack, sub, thickness, eps_neon=self.eps_neon,
                        barrier_height=self.barrier_height, cutoff_zc=self.cutoff_zc, e_ex=e_ex)

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
    for (section, key), f in _FIELDS.items():
        if f.metadata["kind"] == "float_list" and not getattr(cfg, f.name):
            raise ConfigError(f"[{section}] {key} needs at least one value")
    # constructors and growth estimates state their rules; L > 0 is stricter (see DielectricStack)
    cfg.stack(cfg.L0)
    for dL in cfg.delta_L:
        for R in cfg.R:
            _checked(PillarProfile, cfg.L0, dL, R, cfg.b)
    if cfg.z_max <= cfg.cutoff_zc:
        raise ConfigError("z_max must exceed the cutoff distance")
    if cfg.z_samples < 1:
        raise ConfigError("z_samples must be >= 1")
    if any(l <= 0.0 for l in cfg.L):
        raise ConfigError("layer thicknesses must be positive (or inf for bulk)")
    if cfg.rho_max is not None and cfg.rho_max <= 0.0:
        raise ConfigError("rho_max must be a positive length (or auto)")
    if cfg.n_knots < 20:
        raise ConfigError("n_knots must be >= 20")
    if cfg.alpha_max < 1:
        raise ConfigError("alpha_max must be >= 1")
    for r_c in cfg.r_c:
        _checked(gibbs_thomson_shift, r_c)
    _checked(diffusion_length, cfg.diffusion_time)
    _checked(gravity_potential_difference, cfg.delta_h)
    if cfg.threads < 0:
        raise ConfigError("threads must be >= 0")
