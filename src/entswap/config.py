"""Flat key-value config files with explicit unit suffixes.

Lab-facing parameters are written the way they are quoted on hardware:

    # comment lines and blanks are ignored
    g = 20 MHz            # coupling rate as an ordinary frequency (g/2pi)
    q_a = 4e5             # dimensionless quality factor
    lambda_a = 1550 nm
    eta_sfg = 500000 %/W/cm^2
    accept = 6 GHz*cm
    length = 1 cm
    eps_a = 0.2
    clock = 1 GHz
    outputs = f_nlo,f_lo_unbalanced

Numeric values carry at most one unit token and must be finite: ``nan`` and
``inf`` are rejected here, for flags, files and presets alike.  Anything
that does not parse as a number is kept as a raw string (sweep variables,
output lists).  Every key is read by ``read``, in the unit its kind in
``KEY_KINDS`` declares; a key not listed there is dimensionless.  All
conversions happen there, at the boundary: frequencies become Hz (and are
multiplied by 2*pi only where a device model needs angular units),
wavelengths nm and lengths cm, and the percent sign in the
normalized-efficiency unit becomes a factor of 1/100, which is the single
most dangerous conversion in the whole parameter set.  A converted value
that overflows a float is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .photon_stats import Link, SwapScenario, check_nonnegative, check_positive, epsilon_from_p
from .sfg_device import (
    CavityParams,
    WaveguideParams,
    kappa_from_q,
    omega_from_wavelength_nm,
    sfg_coupling_from_shg,
    sfg_efficiency_from_shg,
)

_FREQUENCY_HZ = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9, "THz": 1e12}


@dataclass(frozen=True)
class Quantity:
    """A parsed numeric entry: magnitude plus the unit token as written."""

    value: float
    unit: str | None


ConfigValue = Quantity | str


def parse_config_text(text: str, source: str = "<config>") -> dict[str, ConfigValue]:
    """Parse ``key = value [unit]`` lines into a dict, later keys winning."""
    entries: dict[str, ConfigValue] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value_part = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        tokens = value_part.split()
        if not tokens:
            raise ConfigError(f"{source}:{lineno}: key {key!r} has no value")
        try:
            magnitude = float(tokens[0])
        except ValueError:
            entries[key] = value_part.strip()
            continue
        if not math.isfinite(magnitude):
            raise ConfigError(f"{source}:{lineno}: key {key!r} must be finite, got {tokens[0]!r}")
        if len(tokens) == 1:
            entries[key] = Quantity(magnitude, None)
        elif len(tokens) == 2:
            entries[key] = Quantity(magnitude, tokens[1])
        else:
            raise ConfigError(
                f"{source}:{lineno}: key {key!r} has more than one unit token: {value_part!r}"
            )
    return entries


def parse_config_file(path: str) -> dict[str, ConfigValue]:
    try:
        # utf-8-sig drops the byte-order mark an editor may write before the first key.
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config_text(text, source=path)


# Each key's kind; a key not listed is dimensionless (a bare number or a %).
KEY_KINDS = {
    **dict.fromkeys(("clock", "g", "g_shg", "freq_a", "freq_b", "freq_c"), "frequency"),
    **dict.fromkeys(("lambda", "lambda_a", "lambda_b", "lambda_c"), "wavelength"),
    "length": "length",
    "accept": "acceptance",
    **dict.fromkeys(("eta_sfg", "eta_shg"), "efficiency"),
    **dict.fromkeys(("points", "seed", "scenarios", "samples", "n_max", "workers"), "count"),
    **dict.fromkeys(("variable", "scale", "outputs"), "word"),
}
# Each numeric kind's unit table: every unit token the kind accepts, None
# standing for a bare number, with its factor to the kind's unit.
_UNITS = {
    "dimensionless": {None: 1.0, "%": 1e-2},
    "count": {None: 1.0},
    "frequency": {None: 1.0, **_FREQUENCY_HZ},
    "wavelength": {"nm": 1.0, "um": 1e3, "mm": 1e6, "cm": 1e7, "m": 1e9},
    "length": {"nm": 1e-7, "um": 1e-4, "mm": 0.1, "cm": 1.0, "m": 100.0},
    "acceptance": {f"{unit}*cm": factor for unit, factor in _FREQUENCY_HZ.items()},
    "efficiency": {"%/W/cm^2": 1e-2, "1/W/cm^2": 1.0, "/W/cm^2": 1.0},
}


def read(entries: dict[str, ConfigValue], key: str) -> float | str:
    """``key``'s entry in the unit of its kind in ``KEY_KINDS``, written in one of
    the units of the kind's row of ``_UNITS``: a frequency in Hz (a bare number is
    Hz), a wavelength in nm, a length in cm, an acceptance in Hz*cm, an efficiency
    in 1/(W cm^2), a count (a bare number) as an int, a word as a string."""
    if key not in entries:
        raise ConfigError(f"missing key {key!r}")
    q, kind = entries[key], KEY_KINDS.get(key, "dimensionless")
    if kind == "word":
        if isinstance(q, Quantity):
            raise ConfigError(f"key {key!r} must be a word, got a number")
        return q
    if not isinstance(q, Quantity):
        raise ConfigError(f"key {key!r} must be numeric, got {q!r}")
    table = _UNITS[kind]
    if q.unit not in table:
        *rest, last = ("no unit" if unit is None else unit for unit in table)
        accepted = f"{', '.join(rest)} or {last}" if rest else last
        got = "no unit" if q.unit is None else repr(q.unit)
        raise ConfigError(f"key {key!r} takes {accepted}, got {got}")
    value = q.value * table[q.unit]
    # The parser checks the magnitude only; a unit factor can still overflow it.
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r} overflows a float once converted, got {q.value!r} {q.unit}")
    if kind != "count":
        return value
    if not (value >= 0.0 and value.is_integer()):
        raise ConfigError(f"key {key!r} must be a whole number >= 0, got {value!r}")
    # Whole numbers from 2**53 on are not all floats: a seed of 2**53 + 1
    # would parse as 2**53 and silently select another stream.
    if value >= 2.0**53:
        raise ConfigError(f"key {key!r} must be below 2**53 to be read exactly, got {value!r}")
    return int(value)


def resolve(entries: dict[str, ConfigValue], defaults: dict[str, float]) -> dict[str, float]:
    """Every key of ``defaults``, read from ``entries`` where given."""
    return {key: read(entries, key) if key in entries else default
            for key, default in defaults.items()}


LINK_DEFAULTS = {"eta_a": 1.0, "eta_b": 1.0, "p_sfg": 1e-3, "clock": 1e9}
# The keys resolve_link, build_cavity and build_waveguide read.
LINK_KEYS = ("eps_a", "eps_b", "p_a", "p_b", *LINK_DEFAULTS)
CAVITY_KEYS = ("g", "g_shg", *(f"{k}_{m}" for k in ("lambda", "freq", "q", "qe") for m in "abc"))
WAVEGUIDE_KEYS = ("eta_sfg", "eta_shg", "accept", "length", "lambda")


def check_known(entries: dict[str, ConfigValue], known: tuple[str, ...]) -> None:
    """Refuse every key a command does not read, so that a misspelt key fails
    instead of leaving its default in place."""
    unknown = sorted(set(entries).difference(known))
    if unknown:
        plural = "s" if len(unknown) > 1 else ""
        raise ConfigError(
            f"unknown key{plural} {', '.join(map(repr, unknown))}; "
            f"this command reads {', '.join(sorted(known))}"
        )


def _either(entries: dict[str, ConfigValue], first: str, second: str, what: str) -> str:
    """Which of two alternative keys is given; exactly one of them must be."""
    if first in entries and second in entries:
        raise ConfigError(f"give either {first!r} or {second!r}, not both")
    if first not in entries and second not in entries:
        raise ConfigError(f"missing {what} {first!r} or {second!r}")
    return first if first in entries else second


def _source_epsilon(entries: dict[str, ConfigValue], side: str) -> float:
    key = _either(entries, f"eps_{side}", f"p_{side}", "source parameter")
    value = read(entries, key)
    return value if key.startswith("eps") else epsilon_from_p(value)


def resolve_link(entries: dict[str, ConfigValue], swept: dict[str, float] | None = None) -> Link:
    """The link every command reads: each source from eps_x or p_x (not both), the rest
    from LINK_DEFAULTS when absent.  Fields in ``swept`` (a sweep's grid) are not read."""
    swept = swept or {}
    values = {f"eps_{s}": _source_epsilon(entries, s) for s in "ab" if f"eps_{s}" not in swept}
    values.update(resolve(entries, {k: v for k, v in LINK_DEFAULTS.items() if k not in swept}))
    values.update(swept)
    p_sfg, clock = values.pop("p_sfg"), values.pop("clock")
    return Link(SwapScenario(**values), p_sfg, clock)


def _device_value(entries: dict[str, ConfigValue], key: str, check) -> float:
    """``read(entries, key)``, refused under ``key`` unless ``check`` passes it as written
    (so that the message quotes the file) and then converted (a unit's factor can take a
    positive value to 0)."""
    value = read(entries, key)
    check(entries[key].value, key)
    check(value, key)
    return value


def _mode_omega(entries: dict[str, ConfigValue], mode: str) -> float:
    key = _either(entries, f"lambda_{mode}", f"freq_{mode}", "mode frequency")
    if key.startswith("lambda"):
        return omega_from_wavelength_nm(_device_value(entries, key, check_positive))
    return 2.0 * math.pi * _device_value(entries, key, check_positive)


def build_cavity(entries: dict[str, ConfigValue]) -> CavityParams:
    """Cavity from lab-convention keys.

    Needs g (or g_shg) as an ordinary frequency, lambda_a/lambda_b (or
    freq_a/freq_b) and quality factors q_a, q_b, q_c.  The sum-frequency mode
    defaults to omega_a + omega_b unless lambda_c/freq_c is given; external
    quality factors qe_x default to 2*q_x (half the loss through the port) and
    may not be below q_x; drives are on resonance.
    """
    key = _either(entries, "g", "g_shg", "coupling rate")
    g = 2.0 * math.pi * _device_value(entries, key, check_nonnegative)
    if key == "g_shg":
        g = sfg_coupling_from_shg(g)

    omega_a = _mode_omega(entries, "a")
    omega_b = _mode_omega(entries, "b")
    if "lambda_c" in entries or "freq_c" in entries:
        omega_c = _mode_omega(entries, "c")
    else:
        omega_c = omega_a + omega_b

    kappas = {}
    for mode, omega in (("a", omega_a), ("b", omega_b), ("c", omega_c)):
        q_key, qe_key = f"q_{mode}", f"qe_{mode}"
        q = _device_value(entries, q_key, check_positive)
        kappas[mode] = kappa_from_q(omega, q)
        if qe_key in entries:
            qe = _device_value(entries, qe_key, check_positive)
            # The port's loss is part of the total: kappa_xe <= kappa_x is qe_x >= q_x.
            if qe < q:
                raise ConfigError(f"need {qe_key} >= {q_key}, got {qe_key} = {qe!r} "
                                  f"vs {q_key} = {q!r}")
            kappas[mode + "e"] = kappa_from_q(omega, qe)
        else:
            kappas[mode + "e"] = kappas[mode] / 2.0

    return CavityParams(
        g=g,
        omega_a=omega_a,
        omega_b=omega_b,
        omega_c=omega_c,
        kappa_a=kappas["a"],
        kappa_b=kappas["b"],
        kappa_c=kappas["c"],
        kappa_ae=kappas["ae"],
        kappa_be=kappas["be"],
        kappa_ce=kappas["ce"],
    )


def build_waveguide(entries: dict[str, ConfigValue]) -> WaveguideParams:
    """Waveguide from keys eta_sfg (or eta_shg), accept, length, lambda."""
    key = _either(entries, "eta_sfg", "eta_shg", "normalized efficiency")
    eta = _device_value(entries, key, check_positive)
    if key == "eta_shg":
        eta = sfg_efficiency_from_shg(eta)
    wavelength_nm = _device_value(entries, "lambda", check_positive)
    photon_frequency = omega_from_wavelength_nm(wavelength_nm) / (2.0 * math.pi)
    return WaveguideParams(
        eta_sfg_norm=eta,
        spectral_acceptance=_device_value(entries, "accept", check_positive),
        length=_device_value(entries, "length", check_nonnegative),
        photon_frequency=photon_frequency,
    )
