import pytest

from entswap.config import build_cavity, build_waveguide, read, resolve_link
from entswap.errors import ConfigError
from entswap.presets import DEMONSTRATED_RING_P_SFG, get_preset, preset_names
from entswap.sfg_device import p_sfg_cavity, p_sfg_waveguide


class TestCatalog:
    def test_expected_presets_exist(self):
        names = preset_names()
        for required in ("fig2", "ingap-ring", "ingap-wg", "satellite", "lnoi-ring"):
            assert required in names

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            get_preset("does-not-exist")


class TestSweepPreset:
    def test_grid_definition(self):
        params = get_preset("fig2")
        assert read(params, "start") == pytest.approx(1e-3)
        assert read(params, "stop") == pytest.approx(0.25)
        assert read(params, "points") == 200
        assert params["scale"] == "log"
        assert params["variable"] == "p"


class TestDevicePresets:
    def test_microring_design_point(self):
        cav = build_cavity(get_preset("ingap-ring"))
        assert p_sfg_cavity(cav) == pytest.approx(8.554e-4, rel=1e-3)

    def test_waveguide_design_point(self):
        wg = build_waveguide(get_preset("ingap-wg"))
        assert p_sfg_waveguide(wg) == pytest.approx(2.4157e-5, rel=1e-3)

    def test_lnoi_order_of_magnitude_only(self):
        params = get_preset("lnoi-ring")
        assert read(params, "p_sfg") == pytest.approx(1e-4)
        assert "g" not in params and "q_a" not in params

    def test_demonstrated_reference_scale(self):
        assert DEMONSTRATED_RING_P_SFG == 4e-5


class TestSatellitePreset:
    def test_strong_asymmetry(self):
        params = get_preset("satellite")
        scen = resolve_link(params).scenario
        assert scen.eta_a == 1.0
        assert scen.eta_b == 1e-5
        assert read(params, "p_sfg") == 1e-3

    def test_evaluates_without_warnings(self):
        import warnings

        from entswap.nlo_bsm import fidelity_nlo

        params = get_preset("satellite")
        scen = resolve_link(params).scenario
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fidelity_nlo(scen)
