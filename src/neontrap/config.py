"""Strict run-configuration parsing for the sweep CLI, and its exact echo.

Config files are INI-style `key = value` sections.  Every physical value
carries an explicit unit string (`L = 10 nm`); unknown sections or keys,
missing units, and malformed values are rejected before any computation.
This module states the whole text format: `.effective.ini` reads back equal.
"""

from __future__ import annotations

import configparser
import math
import numbers
from dataclasses import dataclass, field, fields

from .constants import BARRIER_HEIGHT, CUTOFF_ZC, EPS_NEON, Z_MAX
from .dielectric import Dielectric, DielectricStack, Superconductor
from .growth import diffusion_length, gibbs_thomson_shift, gravity_potential_difference
from .lateral import PillarProfile, curve_range
from .perpendicular import solver_mesh

# CPython's builtin SHA-256, _sha2 since 3.12 and _sha256 before: hashlib loads
# OpenSSL's libcrypto, about 3.5 MB of RSS and 3 ms per run, to hash one config
# text.  Both names are private to CPython, so hashlib's is the fallback.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


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
    tuple of the allowed strings; _validate enforces its rule for every
    RunConfig and stores each number as a Python int or float.  unit is the
    unit its values are written in.  A list default is copied for each instance.
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
    z_max: float = _key("grid", "float", Z_MAX, "nm")
    z_samples: int = _key("grid", "int", 400)
    rho_max: float | None = _key("grid", "float_or_auto", None, "nm")
    L: list = _key("sweep", "float_list", [10.0], "nm")
    E_ex: list = _key("sweep", "float_list", [0.0], "V/m")
    L0: float = _key("sweep", "float", 10.0, "nm")
    delta_L: list = _key("sweep", "float_list", [0.5], "nm")
    R: list = _key("sweep", "float_list", [110.0], "nm")
    b: float = _key("sweep", "float", 2.0, "nm")
    alpha_max: int = _key("sweep", "int", 1)
    r_c: list = _key("growth", "float_list", [10.0, -10.0], "nm")
    diffusion_time: float = _key("growth", "float", 10e-6, "s")
    delta_h: float = _key("growth", "float", 25.0, "nm")
    out_path: str = _key("output", "str", "out.csv", key="path")
    out_format: str = _key("output", ("csv", "json"), "csv", key="format")

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
        # the output destination does not affect the numbers, so the hash
        # covers only the physics-relevant sections before [output]
        text = self.effective_text().split("[output]")[0]
        return sha256(text.encode()).hexdigest()[:16]


# (section, key) -> RunConfig field, in field order
_FIELDS = {(f.metadata["section"], f.metadata["key"] or f.name): f for f in fields(RunConfig)}
# keys that once sized a mesh, a thread pool or the curve's node cap and now change no
# number; old configs, the committed benchmark configs among them, still carry them,
# so each must parse as an integer and is then dropped: neither echoed nor hashed
_RETIRED = {("grid", "n_points"), ("grid", "n_points_radial"), ("parallel", "threads"),
            ("sweep", "n_knots")}
# the echo's float spelling, 9 significant digits wherever they hold the value
# exactly: every pinned config_sha256 hashes this spelling
_ECHO_FMT = "%.8e"


def _parse_value(section: str, key: str, raw: str):
    f = _FIELDS.get((section, key))  # None for a retired key, which is an integer
    kind, unit = (f.metadata["kind"], f.metadata["unit"]) if f else ("int", None)
    try:
        if kind == "float_or_auto" and raw.strip() == "auto":
            return None
        if kind in ("float", "float_or_auto"):
            return _quantity(raw, unit)
        if kind == "float_list":
            return [_quantity(part, unit) for part in raw.split(",")]
        if kind == "int":
            if not raw.strip().lstrip("+-").isdigit():
                raise ValueError(f"expected an integer, got {raw!r}")
            return int(raw)
        return raw.strip()
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def _quantity(text: str, unit: str | None) -> float:
    """A bare number where unit is None, else "<value> <unit>" or "inf" (bulk)."""
    parts = text.split()
    if parts == ["inf"]:
        return math.inf
    if unit is None and len(parts) != 1:
        raise ValueError(f"expected a bare number, got {text!r}")
    if unit is not None and len(parts) != 2:
        raise ValueError(f"expected '<value> {unit}', got {text!r}")
    if len(parts) == 2 and parts[1] != unit:
        raise ValueError(f"expected unit {unit!r}, got {parts[1]!r} in {text!r}")
    return float(parts[0])


def _emit_value(kind, unit, value) -> str:
    """Text that `_parse_value` reads back as exactly `value`: each float in 9
    digits (_ECHO_FMT) where they read back equal and in full (repr) otherwise,
    so configs that differ in any digit echo, and hash, apart."""
    if kind == "float_or_auto" and value is None:
        return "auto"
    if kind not in ("float", "float_or_auto", "float_list"):
        return str(value)
    texts = []
    for v in value if kind == "float_list" else [value]:
        t = _ECHO_FMT % v
        if float(t) != v:
            t = repr(v)
        texts.append(t if unit is None or t == "inf" else f"{t} {unit}")
    return ", ".join(texts)


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
    sections = {section for section, _ in (*_FIELDS, *_RETIRED)}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) in _FIELDS:
                values[_FIELDS[section, key].name] = _parse_value(section, key, raw)
            elif (section, key) in _RETIRED:
                _parse_value(section, key, raw)  # checked, then dropped
            else:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    return RunConfig(**values)


def _validate(cfg: RunConfig):
    for (section, key), f in _FIELDS.items():
        kind, value, where = f.metadata["kind"], getattr(cfg, f.name), f"[{section}] {key}"
        if kind == "float_list" and not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list of numbers, got {value!r}")
        if kind == "float_list" and not value:
            raise ConfigError(f"{where} needs at least one value")
        if kind in ("int", "float", "float_list") or kind == "float_or_auto" and value is not None:
            number, cast, noun = (numbers.Integral, int, "an integer") if kind == "int" \
                else (numbers.Real, float, "a number")
            values = value if kind == "float_list" else [value]
            for v in values:
                if isinstance(v, bool) or not isinstance(v, number):
                    raise ConfigError(f"{where}: expected {noun}, got {v!r}")
                # nan means nothing, and inf only the bulk sentinel of [sweep] L
                if not -math.inf < v < math.inf and (v != math.inf or where != "[sweep] L"):
                    raise ConfigError(f"{where}: expected a finite value, got {v!r}")
            stored = [cast(v) for v in values]  # equal configs print equal table cells
            object.__setattr__(cfg, f.name, stored if kind == "float_list" else stored[0])
        elif isinstance(kind, tuple) and value not in kind:
            raise ConfigError(f"{where}: expected one of {kind}, got {value!r}")
    # constructors, the solver mesh (cached, so the solves reuse it), the curve
    # span (after the profiles, whose delta_L < L0 message comes first) and the
    # growth estimates state their rules; L > 0 is stricter (see DielectricStack)
    _checked(solver_mesh, cfg.stack(cfg.L0), cfg.z_max)
    for dL in cfg.delta_L:
        for R in cfg.R:
            _checked(PillarProfile, cfg.L0, dL, R, cfg.b)
    _checked(curve_range, cfg.L0, max(cfg.delta_L))
    if cfg.z_samples < 1:
        raise ConfigError("z_samples must be >= 1")
    if any(l <= 0.0 for l in cfg.L):
        raise ConfigError("layer thicknesses must be positive (or inf for bulk)")
    if cfg.rho_max is not None and cfg.rho_max <= 0.0:
        raise ConfigError("rho_max must be a positive length (or auto)")
    if cfg.alpha_max < 1:
        raise ConfigError("alpha_max must be >= 1")
    for r_c in cfg.r_c:
        _checked(gibbs_thomson_shift, r_c)
    _checked(diffusion_length, cfg.diffusion_time)
    _checked(gravity_potential_difference, cfg.delta_h)
