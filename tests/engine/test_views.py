"""SwitchView must be indistinguishable from NEMSSwitch to its callers."""

import numpy as np
import pytest

from repro.core.device import NEMSSwitch
from repro.engine.state import WearState
from repro.errors import ConfigurationError, DeviceWornOutError
from tests.differential._reference import SwitchLike

LIFETIMES = [0.0, 0.4, 1.0, 2.5, 3.0]


def _paired(lifetime):
    state = WearState(np.array([[[lifetime]]]), 1)
    return state.view(0, 0, 0), NEMSSwitch(lifetime)


class TestIdentity:
    def test_views_are_cached_by_coordinate(self):
        state = WearState(np.ones((2, 2, 2)), 1)
        assert state.view(0, 1, 1) is state.view(0, 1, 1)
        assert state.view(0, 1, 1) is not state.view(1, 1, 1)
        bank = state.bank_views(0, 0)
        assert bank[0] is state.view(0, 0, 0)

    def test_out_of_range_coordinates_rejected(self):
        state = WearState(np.ones((1, 1, 2)), 1)
        with pytest.raises(ConfigurationError):
            state.view(0, 0, 2)

    def test_switch_ids_are_unique_and_stable(self):
        state = WearState(np.ones((1, 1, 3)), 1)
        ids = [view.switch_id for view in state.bank_views(0, 0)]
        assert len(set(ids)) == 3
        assert [v.switch_id for v in state.bank_views(0, 0)] == ids

    def test_satisfies_the_switch_protocol(self):
        state = WearState(np.ones((1, 1, 1)), 1)
        assert isinstance(state.view(0, 0, 0), SwitchLike)
        assert isinstance(NEMSSwitch(1.0), SwitchLike)


class TestActuationParity:
    @pytest.mark.parametrize("lifetime", LIFETIMES)
    def test_actuate_sequence_matches_nemsswitch(self, lifetime):
        view, switch = _paired(lifetime)
        for _ in range(8):
            assert view.actuate() == switch.actuate()
            assert view.cycles_used == switch.cycles_used
            assert view.is_failed == switch.is_failed
            assert view.remaining_cycles == switch.remaining_cycles

    def test_actuate_writes_through_to_the_state(self):
        state = WearState(np.full((1, 1, 2), 3.0), 1)
        state.view(0, 0, 1).actuate()
        assert state.used[0, 0].tolist() == [0, 1]

    def test_actuate_or_raise(self):
        view, _ = _paired(1.0)
        view.actuate_or_raise()
        with pytest.raises(DeviceWornOutError):
            view.actuate_or_raise()


class TestFaultSurface:
    def test_force_fail_matches_nemsswitch(self):
        view, switch = _paired(5.0)
        view.actuate(), switch.actuate()
        view.force_fail(), switch.force_fail()
        assert view.is_failed and switch.is_failed
        assert view.lifetime_cycles == switch.lifetime_cycles == 1.0
        assert not view.actuate() and not switch.actuate()

    def test_add_wear(self):
        view, switch = _paired(5.0)
        view.add_wear(3), switch.add_wear(3)
        assert view.cycles_used == switch.cycles_used == 3
        with pytest.raises(ConfigurationError):
            view.add_wear(-1)

    def test_setters_validate_and_write_through(self):
        state = WearState(np.full((1, 1, 1), 4.0), 1)
        view = state.view(0, 0, 0)
        view.lifetime_cycles = 2.0
        view.cycles_used = 2
        assert state.lifetime[0, 0, 0] == 2.0
        assert view.is_failed
        with pytest.raises(ConfigurationError):
            view.lifetime_cycles = -1.0
