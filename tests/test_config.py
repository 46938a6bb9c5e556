import math

import pytest

from entswap.cli import RATE_DEFAULTS, VERIFY_DEFAULTS
from entswap.config import (
    CAVITY_KEYS,
    KEY_KINDS,
    LINK_KEYS,
    WAVEGUIDE_KEYS,
    Quantity,
    build_cavity,
    build_waveguide,
    parse_config_file,
    parse_config_text,
    read,
    resolve,
    resolve_link,
    _UNITS,
)
from entswap.errors import ConfigError
from entswap.sweep import SPEC_KEYS


class TestParsing:
    def test_numbers_units_and_strings(self):
        entries = parse_config_text(
            """
            # a comment
            g = 20 MHz
            q_a = 4e5
            scale = log   # trailing comment
            outputs = f_nlo,f_lo_unbalanced
            """
        )
        assert entries["g"] == Quantity(20.0, "MHz")
        assert entries["q_a"] == Quantity(4e5, None)
        assert entries["scale"] == "log"
        assert entries["outputs"] == "f_nlo,f_lo_unbalanced"

    def test_later_entries_win(self):
        entries = parse_config_text("x = 1\nx = 2")
        assert entries["x"] == Quantity(2.0, None)

    def test_missing_equals_is_an_error(self):
        with pytest.raises(ConfigError):
            parse_config_text("just words")

    def test_extra_unit_tokens_rejected(self):
        with pytest.raises(ConfigError, match="lambda_a"):
            parse_config_text("lambda_a = 1550 nm extra")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError, match="q_a"):
            parse_config_text("q_a = ")

    def test_a_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_bytes(b"p_sfg = 1e-4\nclock = 10 MHz\n")
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert parse_config_file(str(bom)) == parse_config_file(str(plain))

    def test_a_file_that_is_not_utf8_is_refused(self, tmp_path):
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes("lambda_a = 1550 nm # \u00b5m\n".encode("latin-1"))
        with pytest.raises(ConfigError, match="cannot read config file"):
            parse_config_file(str(latin1))


class TestConversions:
    def test_frequency_scaling(self):
        entries = parse_config_text("freq_a = 5 GHz\nfreq_b = 2 THz\nfreq_c = 7")
        assert read(entries, "freq_a") == 5e9
        assert read(entries, "freq_b") == 2e12
        assert read(entries, "freq_c") == 7.0

    def test_bad_frequency_unit_names_the_key(self):
        entries = parse_config_text("clock = 3 nm")
        with pytest.raises(ConfigError, match="clock"):
            read(entries, "clock")

    def test_lengths(self):
        assert read(parse_config_text("length = 1 cm"), "length") == 1.0
        assert read(parse_config_text("length = 10 mm"), "length") == pytest.approx(1.0)
        assert read(parse_config_text("lambda = 1550 nm"), "lambda") == pytest.approx(1550.0)

    def test_a_wavelength_is_scaled_once(self):
        # Through cm and back to nm, 1.31 um read 1310.0000000000002.
        for value in (1.55, 1.31):
            entries = parse_config_text(f"lambda = {value} um")
            assert read(entries, "lambda") == value * 1000.0

    def test_percent_efficiency_is_the_dangerous_conversion(self):
        entries = parse_config_text("eta_sfg = 500000 %/W/cm^2\neta_shg = 5000 1/W/cm^2")
        assert read(entries, "eta_sfg") == pytest.approx(5000.0)
        assert read(entries, "eta_shg") == pytest.approx(5000.0)

    def test_acceptance_units(self):
        entries = parse_config_text("accept = 6 GHz*cm")
        assert read(entries, "accept") == pytest.approx(6e9)

    def test_dimensionless_and_percent(self):
        entries = parse_config_text("eta_a = 0.5\neta_b = 50 %")
        assert read(entries, "eta_a") == 0.5
        assert read(entries, "eta_b") == pytest.approx(0.5)
        with pytest.raises(ConfigError, match="eps_a"):
            read(parse_config_text("eps_a = 5 MHz"), "eps_a")

    def test_string_accessor(self):
        entries = parse_config_text("scale = fast\nvariable = 3")
        assert read(entries, "scale") == "fast"
        with pytest.raises(ConfigError, match="variable"):
            read(entries, "variable")

    @pytest.mark.parametrize(
        "text", ["length = 1e308 m", "lambda = 1e302 m", "accept = 1e308 THz*cm", "g = 1e305 THz"]
    )
    def test_a_conversion_that_overflows_is_refused(self, text):
        # Each magnitude is finite, so only the unit factor takes it past a float.
        key = text.split()[0]
        with pytest.raises(ConfigError, match=f"key '{key}' overflows a float"):
            read(parse_config_text(text), key)


# Every unit token of every kind's row, None standing for a bare number.
ALL_UNITS = sorted({unit for table in _UNITS.values() for unit in table}, key=str)


class TestKinds:
    @pytest.mark.parametrize("key", [*(k for k, kind in KEY_KINDS.items() if kind != "word"),
                                     "eta_a"])
    def test_read_takes_exactly_the_units_of_its_kind(self, key):
        table = _UNITS[KEY_KINDS.get(key, "dimensionless")]
        for unit in ALL_UNITS:
            entries = parse_config_text(f"{key} = 2" + ("" if unit is None else f" {unit}"))
            if unit in table:
                assert read(entries, key) == 2.0 * table[unit]
                continue
            names = ["no unit" if name is None else name for name in table]
            listed = f"{', '.join(names[:-1])} or {names[-1]}" if len(names) > 1 else names[0]
            got = "no unit" if unit is None else repr(unit)
            with pytest.raises(ConfigError) as info:
                read(entries, key)
            assert str(info.value) == f"key {key!r} takes {listed}, got {got}"

    def test_every_kind_names_a_key_some_command_reads(self):
        read_keys = {*LINK_KEYS, *CAVITY_KEYS, *WAVEGUIDE_KEYS, *SPEC_KEYS,
                     *VERIFY_DEFAULTS, *RATE_DEFAULTS}
        assert set(KEY_KINDS) <= read_keys, sorted(set(KEY_KINDS) - read_keys)

    def test_an_int_default_does_not_make_a_count(self):
        assert resolve(parse_config_text("eta_a = 0.5"), {"eta_a": 1}) == {"eta_a": 0.5}


class TestCounts:
    def test_whole_numbers_below_2_53_are_exact(self):
        assert read(parse_config_text("seed = 9007199254740991"), "seed") == 2**53 - 1
        assert read(parse_config_text("samples = 2e5"), "samples") == 200_000

    @pytest.mark.parametrize("text", ["9007199254740992", "9007199254740993", "1e300"])
    def test_counts_from_2_53_are_refused(self, text):
        # 9007199254740993 parses as 2**53: as a seed it would select another stream.
        with pytest.raises(ConfigError, match="key 'seed' must be below 2\\*\\*53"):
            read(parse_config_text(f"seed = {text}"), "seed")

    @pytest.mark.parametrize("key", [key for key, kind in KEY_KINDS.items() if kind == "count"])
    def test_a_count_takes_no_percent(self, key):
        # "300 %" used to read as 3, as if a count were a dimensionless fraction.
        with pytest.raises(ConfigError, match=f"key '{key}' takes no unit, got '%'"):
            read(parse_config_text(f"{key} = 300 %"), key)

    def test_resolve_reads_by_default(self):
        entries = parse_config_text("clock = 2 MHz\nseed = 7\ndelta = 2 %")
        defaults = {"clock": 1e9, "seed": 0, "delta": 0.01, "p_sfg": 0.05}
        values = resolve(entries, defaults)
        assert values == {"clock": 2e6, "seed": 7, "delta": 0.02, "p_sfg": 0.05}
        assert type(values["seed"]) is int
        with pytest.raises(ConfigError, match="key 'seed' must be a whole number"):
            resolve(parse_config_text("seed = 2.5"), defaults)
        with pytest.raises(ConfigError, match="key 'delta' takes no unit or %, got 'GHz'"):
            resolve(parse_config_text("delta = 1 GHz"), defaults)


class TestScenarioBuilder:
    def test_from_epsilons(self):
        scen = resolve_link(parse_config_text("eps_a = 0.2\neps_b = 0.1\neta_a = 0.5")).scenario
        assert scen.eps_a == 0.2
        assert scen.eps_b == 0.1
        assert scen.eta_a == 0.5
        assert scen.eta_b == 1.0

    def test_from_pair_probabilities(self):
        scen = resolve_link(parse_config_text("p_a = 0.09\np_b = 0.25")).scenario
        assert scen.eps_a == pytest.approx(0.1, abs=1e-12)
        assert scen.eps_b == pytest.approx(0.5, abs=1e-12)

    def test_conflicting_source_keys(self):
        with pytest.raises(ConfigError, match="eps_a"):
            resolve_link(parse_config_text("eps_a = 0.2\np_a = 0.1\neps_b = 0.1"))

    def test_missing_source(self):
        with pytest.raises(ConfigError, match="eps_b"):
            resolve_link(parse_config_text("eps_a = 0.2"))


class TestCavityBuilder:
    BASE = """
    g = 20 MHz
    lambda_a = 1550 nm
    lambda_b = 1550 nm
    lambda_c = 775 nm
    q_a = 4e5
    q_b = 4e5
    q_c = 1e5
    """

    def test_lab_units_to_angular(self):
        cav = build_cavity(parse_config_text(self.BASE))
        assert cav.g == pytest.approx(2 * math.pi * 20e6)
        assert cav.omega_a == pytest.approx(2 * math.pi * 193.414e12, rel=1e-4)
        assert cav.kappa_a == pytest.approx(cav.omega_a / 4e5)
        assert cav.kappa_ae == pytest.approx(cav.kappa_a / 2)

    def test_sum_frequency_defaults_to_matching(self):
        text = "\n".join(
            line for line in self.BASE.splitlines() if "lambda_c" not in line
        )
        cav = build_cavity(parse_config_text(text))
        assert cav.omega_c == cav.omega_a + cav.omega_b

    def test_shg_coupling_conversion(self):
        text = self.BASE.replace("g = 20 MHz", "g_shg = 10 MHz")
        cav = build_cavity(parse_config_text(text))
        assert cav.g == pytest.approx(2 * math.pi * 20e6)

    def test_conflicting_couplings(self):
        with pytest.raises(ConfigError, match="g"):
            build_cavity(parse_config_text(self.BASE + "g_shg = 10 MHz"))

    def test_missing_quality_factor(self):
        text = "\n".join(line for line in self.BASE.splitlines() if "q_c" not in line)
        with pytest.raises(ConfigError, match="q_c"):
            build_cavity(parse_config_text(text))

    def test_explicit_external_quality_factor(self):
        cav = build_cavity(parse_config_text(self.BASE + "qe_a = 4e5"))
        assert cav.kappa_ae == pytest.approx(cav.kappa_a)

    @pytest.mark.parametrize("mode, q", [("a", "400000.0"), ("b", "400000.0"), ("c", "100000.0")])
    def test_external_quality_factor_below_the_total_names_both_keys(self, mode, q):
        with pytest.raises(ConfigError, match=f"^need qe_{mode} >= q_{mode}, "
                                              f"got qe_{mode} = 50000.0 vs q_{mode} = {q}$"):
            build_cavity(parse_config_text(self.BASE + f"qe_{mode} = 5e4"))


class TestWaveguideBuilder:
    BASE = """
    eta_sfg = 500000 %/W/cm^2
    accept = 6 GHz*cm
    length = 1 cm
    lambda = 1550 nm
    """

    def test_lab_units(self):
        wg = build_waveguide(parse_config_text(self.BASE))
        assert wg.eta_sfg_norm == pytest.approx(5000.0)
        assert wg.spectral_acceptance == pytest.approx(6e9)
        assert wg.length == 1.0
        assert wg.photon_frequency == pytest.approx(193.414e12, rel=1e-4)

    def test_shg_efficiency_conversion(self):
        text = self.BASE.replace(
            "eta_sfg = 500000 %/W/cm^2", "eta_shg = 125000 %/W/cm^2"
        )
        wg = build_waveguide(parse_config_text(text))
        assert wg.eta_sfg_norm == pytest.approx(5000.0)

    def test_missing_key_named(self):
        text = "\n".join(line for line in self.BASE.splitlines() if "accept" not in line)
        with pytest.raises(ConfigError, match="accept"):
            build_waveguide(parse_config_text(text))
