"""Experiment configuration: JSON document parsing, emission, and hashing.

The document uses bench units (nJ, ps, fs, nm) matching how the instrument is
driven; everything is converted to SI on parse. A bench value converts to the
same double as its SI literal: 6.0 nJ gives exactly 6e-9 J, the double
Python reads from "6e-9". Numbers must be finite, and so must their SI
values; NaN, Infinity and overflowing literals raise ParseError. Any subset
of keys may be given; missing keys take the defaults below, which describe
the reference switch: a 24 cm single-mode fiber pumped by 180 fs, 1030 nm
pulses switching 1550 nm photons, with a 2 ps pump/signal walk-off across
the fiber.

Each document field is one row of `_FIELDS`: its section, its key, the config
field it sets, its unit exponent and its default. `DEFAULT_DOCUMENT`, the
parser and the emitter are all derived from that table, so adding a field
means adding one row (and the field to its section's dataclass in `core`).
"""

from __future__ import annotations

import itertools
import json
import math
import re
import typing
import warnings
from collections import namedtuple

from .core import ExperimentConfig
from .errors import ParseError
from .photons import _check_noise_totals

# CPython's own SHA-256: `import hashlib` loads `_hashlib`, which maps
# OpenSSL's libcrypto (about 4 MB of RSS) for the same digest.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

# Each bench unit is a power of ten of its SI unit; these are the exponents.
_NJ = -9
_PS = -12
_FS = -15
_NM = -9
_PS2_PER_KM = -27
_PS3_PER_KM = -39
_PS_PER_M = -12
_UM2 = -12
_PS_PER_NM = _PS - _NM

# One row per document field. The exponent is the decimal exponent of the
# bench unit in SI (0 for a field already in SI); None marks an integer
# field, and a list default marks a list field. Section None is the top level.
# `_build` groups consecutive rows, so each section's rows stay together.
_Field = namedtuple("_Field", "section key name exponent default")
_FIELDS = tuple(
    _Field(*row)
    for row in (
        ("pump", "wavelength_nm", "center_wavelength", _NM, 1030.0),
        ("pump", "fwhm_fs", "fwhm_duration", _FS, 180.0),
        ("pump", "energy_nj", "energy", _NJ, 8.0),
        ("signal", "wavelength_nm", "center_wavelength", _NM, 1550.0),
        ("signal", "fwhm_fs", "fwhm_duration", _FS, 600.0),
        ("fiber", "length_m", "length", 0, 0.24),
        ("fiber", "beta2_pump_ps2_km", "beta2_pump", _PS2_PER_KM, 24.0),
        ("fiber", "beta3_pump_ps3_km", "beta3_pump", _PS3_PER_KM, 0.0),
        ("fiber", "beta2_signal_ps2_km", "beta2_signal", _PS2_PER_KM, -25.0),
        ("fiber", "walkoff_ps_m", "walkoff", _PS_PER_M, 8.333333333333334),
        ("fiber", "n2_m2_w", "n2", 0, 2.6e-20),
        ("fiber", "a_eff_um2", "a_eff", _UM2, 43.0),
        ("fiber", "alpha_per_m", "alpha", 0, 0.0),
        ("geometry", "theta_rad", "theta", 0, math.pi / 4.0),
        ("grid", "n_samples", "n_samples", None, 16384),
        ("grid", "window_ps", "window", _PS, 40.0),
        ("source", "mean_photon_number", "mean_photon_number", 0, 0.24),
        ("source", "max_photon_cutoff", "max_photon_cutoff", None, 60),
        ("detectors", "herald_efficiency", "herald_efficiency", 0, 0.5),
        ("detectors", "system_transmittance", "system_transmittance", 0, 0.32),
        ("detectors", "noise_per_pulse_switched", "noise_per_pulse_switched", 0, 1e-5),
        ("detectors", "noise_per_pulse_unswitched", "noise_per_pulse_unswitched", 0, 1e-5),
        ("detectors", "noise_window_multiplier", "noise_window_multiplier", 0, 1.0),
        ("tof", "dispersion_ps_nm", "dispersion", _PS_PER_NM, 1033.0),
        ("tof", "reference_wavelength_nm", "reference_wavelength", _NM, 1550.0),
        ("tof", "jitter_fwhm_ps", "jitter_fwhm", _PS, 20.0),
        ("sweep", "energies_nj", "energies", _NJ, [0.5 * i for i in range(29)]),
        ("sweep", "delays_ps", "delays", _PS, [round(-6.0 + 0.1 * i, 10) for i in range(121)]),
        ("solver", "steps", "steps", None, 256),
        ("monte_carlo", "pulses_per_delay", "pulses_per_delay", None, 200_000),
        (None, "rng_seed", "rng_seed", None, 12345),
    )
)

# Section name -> its config dataclass, read off ExperimentConfig's fields.
_SECTIONS = typing.get_type_hints(ExperimentConfig)


def _document(value_of) -> dict:
    """A config document holding `value_of(row)` under each row's key."""
    doc: dict = {}
    for row in _FIELDS:
        (doc.setdefault(row.section, {}) if row.section else doc)[row.key] = value_of(row)
    return doc


DEFAULT_DOCUMENT: dict = _document(lambda row: row.default)


def _merge(defaults, given, path, strict):
    """Overlay `given` on `defaults`, flagging keys the schema does not know."""
    if not isinstance(given, dict):
        raise ParseError(f"expected an object at '{path or '<root>'}'")
    merged = {}
    for key, default_value in defaults.items():
        if key in given and isinstance(default_value, dict):
            merged[key] = _merge(default_value, given[key], f"{path}{key}.", strict)
        elif key in given:
            merged[key] = given[key]
        else:
            merged[key] = default_value
    for key in given:
        if key not in defaults:
            message = f"unknown config key '{path}{key}'"
            if strict:
                raise ParseError(message)
            warnings.warn(message, stacklevel=3)
    return merged


class _Number(float):
    """A JSON float that keeps the literal it was read from.

    A literal can carry more digits than its double's shortest repr, and
    those digits can decide the double of the shifted literal.
    """

    def __new__(cls, literal: str):
        number = super().__new__(cls, literal)
        number.literal = literal
        return number


def _shifted_literal(value, exponent: int) -> str:
    """The number literal of `value` x 10**exponent.

    `value` is spelled as its document literal if it has one, else as its
    shortest repr, and the decimal exponent of that spelling is shifted.
    """
    text = value.literal if isinstance(value, _Number) else repr(value)
    mantissa, _, power = text.lower().partition("e")
    return f"{mantissa}e{int(power or 0) + exponent}"


def _shift(value, exponent: int) -> float:
    """The double nearest to `value` x 10**exponent.

    The result is the double of the shifted literal (6.0 nJ is 6e-9 J
    exactly), where `value * 10.0**exponent` can land one ulp off. A finite
    number never makes this raise; a result too large for a double is inf.
    """
    return float(_shifted_literal(value, exponent))


def _si(value, exponent: int, label: str) -> float:
    """A JSON number in bench units (10**exponent SI units) as an SI double."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"'{label}' must be a number")
    if isinstance(value, float) and not math.isfinite(value):
        raise ParseError(f"'{label}' must be finite, not {value}")
    si = _shift(value, exponent)
    if not math.isfinite(si):
        raise ParseError(f"'{label}' is too large to represent")
    return si


def _convert(row: _Field, value, label: str):
    """The config value of a document value: an integer, an SI double, or a
    tuple of SI doubles, as the row says."""
    if isinstance(row.default, list):
        if not isinstance(value, list) or not value or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) for v in value
        ):
            raise ParseError(f"'{label}' must be a non-empty list of numbers")
        return tuple(_si(v, row.exponent, f"{label}[{i}]") for i, v in enumerate(value))
    if row.exponent is None:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParseError(f"'{label}' must be an integer")
        return value
    return _si(value, row.exponent, label)


def _build(doc: dict) -> ExperimentConfig:
    """Fill each section's dataclass from its rows, in table order."""
    fields: dict = {}
    for section, rows in itertools.groupby(_FIELDS, key=lambda row: row.section):
        given = doc[section] if section else doc
        values = {
            row.name: _convert(row, given[row.key], f"{section}.{row.key}" if section else row.key)
            for row in rows
        }
        fields.update({section: _SECTIONS[section](**values)} if section else values)
    return ExperimentConfig(**fields)


def parse_config(text: str, strict: bool = True) -> ExperimentConfig:
    """Parse a JSON config document; missing keys take defaults.

    An empty document yields the all-defaults config. Unknown keys raise
    ParseError in strict mode and warn otherwise.

    Raises:
        ParseError: malformed JSON, wrong value type, or unknown key (strict).
        ValidationError: a field violates its physical invariant, or the
            Monte Carlo's pulse count could overflow its int64 noise totals.
    """
    if text.strip() == "":
        given: dict = {}
    else:
        try:
            given = json.loads(text, parse_float=_Number)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
        except ValueError as exc:  # an integer literal past Python's digit limit
            raise ParseError(f"invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ParseError("invalid JSON: nested too deeply") from exc
    if not isinstance(given, dict):
        raise ParseError("config document must be a JSON object")
    config = _build(_merge(DEFAULT_DOCUMENT, given, "", strict))
    _check_noise_totals(config.detectors, config.monte_carlo.pulses_per_delay)
    return config


def default_config() -> ExperimentConfig:
    """The all-defaults experiment configuration."""
    return parse_config("")


def _inverse(value: float, exponent: int) -> float | str:
    """Bench-unit value x that parses back to the SI `value` exactly.

    Shifting the exponent back usually gives x, and the shortest one (7.5e-9 J
    is 7.5 nJ); where it lands one ulp off the forward conversion, nudging by
    an ulp restores an exact parse/emit round trip. Near the top of the double
    range the shift back can round to inf, whose neighbour below is x. Where
    no double's shortest repr shifts to `value` (32135522.020932112e-9 m needs
    17 digits, but the nearest nm double prints with 16), x is the shifted
    literal itself, as a string that `emit_config` writes unquoted.
    """
    x = _shift(value, -exponent)
    for candidate in (x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf)):
        if math.isfinite(candidate) and _shift(candidate, exponent) == value:
            return candidate
    return _shifted_literal(value, -exponent)


def _emitted(row: _Field, config: ExperimentConfig):
    """The document value of one row's config field, in bench units."""
    value = getattr(getattr(config, row.section) if row.section else config, row.name)
    if row.exponent in (None, 0):  # an integer, or a number already in SI
        return value
    if isinstance(row.default, list):
        return [_inverse(v, row.exponent) for v in value]
    return _inverse(value, row.exponent)


def emit_config(config: ExperimentConfig) -> str:
    """Serialize a config back to the JSON document schema (bench units)."""
    doc = _document(lambda row: _emitted(row, config))
    text = json.dumps(doc, indent=2, sort_keys=True)
    # Every document value is a number, so a quoted value is a literal from
    # `_inverse`; unquoting it writes it as the number it spells.
    return re.sub(r'"(-?\d[^"]*)"', r"\1", text) + "\n"


def text_hash(text: str) -> str:
    """64-bit content hash of a serialized config document, as hex."""
    return sha256(text.encode("utf-8")).hexdigest()[:16]


def config_hash(config: ExperimentConfig) -> str:
    """64-bit content hash of the canonical serialized config, as hex."""
    return text_hash(emit_config(config))
