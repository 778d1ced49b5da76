"""The one anytime driver and the shared execution-field helpers.

``drive_valuation`` runs both ``repro run`` cells and service jobs, and
``validate_execution`` / ``execution_from_dict`` / ``fleet_fields_to_dict`` /
``configure_execution`` serve both ``ExperimentPlan`` and ``JobSpec``; these
tests pin their contracts directly, independent of either caller.
"""

import json
import os
from types import SimpleNamespace

import pytest

from helpers import monotone_game
from repro.core import IPSS
from repro.experiments.pipeline import (
    ValuationInterrupted,
    configure_execution,
    drive_valuation,
    execution_from_dict,
    fleet_fields_to_dict,
    load_estimator_checkpoint,
    validate_execution,
)

N = 6
GAMMA = 24


class _Stop(ValuationInterrupted):
    pass


def _stop_after(count):
    seen = []

    def observe(snapshot):
        seen.append(snapshot)
        if len(seen) >= count:
            raise _Stop

    return observe, seen


def _drive(tmp_path, algorithm=None, messages=None, **kwargs):
    return drive_valuation(
        algorithm or IPSS(total_rounds=GAMMA, seed=1),
        monotone_game(N, seed=2),
        str(tmp_path / "cell.state.json"),
        "IPSS",
        (messages if messages is not None else []).append,
        **kwargs,
    )


class TestDriveValuation:
    def test_matches_plain_run_and_counts_trainings(self, tmp_path):
        reference = IPSS(total_rounds=GAMMA, seed=1).run(monotone_game(N, seed=2), N)
        driven = _drive(tmp_path)
        assert not driven.continued
        assert driven.result.values.tolist() == reference.values.tolist()
        assert driven.fl_trainings == reference.utility_evaluations > 0

    def test_checkpoint_is_saved_before_the_observer_interrupts(self, tmp_path):
        observe, seen = _stop_after(2)
        with pytest.raises(_Stop) as raised:
            _drive(tmp_path, on_snapshot=observe)
        with open(tmp_path / "cell.state.json", "r", encoding="utf-8") as handle:
            saved = json.load(handle)
        assert saved["chunk_index"] == seen[-1].chunk_index == 2
        assert raised.value.fl_trainings == seen[-1].evaluations > 0

    def test_resume_is_bitwise_and_counts_only_new_trainings(self, tmp_path):
        reference = _drive(tmp_path / "reference")
        observe, _ = _stop_after(2)
        with pytest.raises(_Stop) as raised:
            _drive(tmp_path, on_snapshot=observe)
        messages = []
        resumed = _drive(tmp_path, messages=messages)
        assert resumed.continued
        assert any("continuing IPSS from checkpoint" in m for m in messages)
        assert resumed.result.values.tolist() == reference.result.values.tolist()
        assert (
            raised.value.fl_trainings + resumed.fl_trainings
            == reference.fl_trainings
        )

    def test_checkpoint_every_zero_writes_no_checkpoint(self, tmp_path):
        observe, _ = _stop_after(2)
        with pytest.raises(_Stop):
            _drive(tmp_path, checkpoint_every=0, on_snapshot=observe)
        assert not os.path.exists(tmp_path / "cell.state.json")

    def test_stale_checkpoint_restarts_from_scratch(self, tmp_path):
        observe, _ = _stop_after(2)
        with pytest.raises(_Stop):
            _drive(tmp_path, on_snapshot=observe)
        messages = []
        driven = _drive(
            tmp_path, algorithm=IPSS(total_rounds=GAMMA + 1, seed=1), messages=messages
        )
        reference = IPSS(total_rounds=GAMMA + 1, seed=1).run(monotone_game(N, seed=2), N)
        assert not driven.continued
        assert any("ignoring stale checkpoint" in m for m in messages)
        assert driven.result.values.tolist() == reference.values.tolist()
        assert driven.fl_trainings == reference.utility_evaluations


class TestFormatOneCheckpoint:
    """A checkpoint from before the array-backed IPSS payload (format 1)."""

    # Recorded mid phase 2 by the format-1 code: IPSS(total_rounds=30,
    # partial_chunk_size=8, seed=3) on monotone_game(8, seed=5), chunk 3,
    # with the balanced sample stored as a list of frozensets.
    V1_PATH = os.path.join(
        os.path.dirname(__file__), "..", "data", "ipss_checkpoint_v1.json"
    )

    @staticmethod
    def _algorithm():
        return IPSS(total_rounds=30, partial_chunk_size=8, seed=3)

    def _copy(self, tmp_path):
        path = tmp_path / "cell.state.json"
        with open(self.V1_PATH, "r", encoding="utf-8") as handle:
            saved = json.load(handle)
        assert saved["state_format"] == 1
        assert saved["payload"]["partial"][0]["__t"] == "fs"
        path.write_text(json.dumps(saved), encoding="utf-8")
        return str(path)

    def test_is_ignored_as_unreadable(self, tmp_path):
        messages = []
        state = load_estimator_checkpoint(
            self._copy(tmp_path), self._algorithm(), 8, messages.append
        )
        assert state is None
        assert any("ignoring unreadable checkpoint" in m for m in messages)

    def test_driver_restarts_and_matches_a_fresh_run(self, tmp_path):
        checkpoint = self._copy(tmp_path)
        messages = []
        driven = drive_valuation(
            self._algorithm(),
            monotone_game(8, seed=5),
            checkpoint,
            "IPSS",
            messages.append,
        )
        fresh = self._algorithm().run(monotone_game(8, seed=5), 8)
        assert not driven.continued
        assert any("ignoring unreadable checkpoint" in m for m in messages)
        assert driven.result.values.tobytes() == fresh.values.tobytes()
        assert driven.fl_trainings == fresh.utility_evaluations == 30


def _execution(**overrides):
    fields = dict(
        backend=None,
        n_workers=1,
        queue_dir=None,
        spawn_workers=0,
        worker_backend=None,
        lease_seconds=30.0,
    )
    fields.update(overrides)
    return SimpleNamespace(**fields)


class TestExecutionFields:
    def test_defaults_are_valid(self):
        validate_execution(_execution())
        validate_execution(_execution(backend="fleet", queue_dir="q", worker_backend="process"))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"n_workers": 0}, "n_workers"),
            ({"backend": "bogus"}, "unknown backend"),
            ({"backend": "fleet"}, "queue directory"),
            ({"spawn_workers": -1}, "spawn_workers"),
            ({"lease_seconds": 0.0}, "lease_seconds"),
            ({"worker_backend": "fleet"}, "unknown worker backend"),
            ({"backend": "thread"}, "unknown backend"),
            ({"worker_backend": "thread"}, "unknown worker backend"),
        ],
    )
    def test_each_field_is_checked(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            validate_execution(_execution(**overrides))

    def test_from_dict_fills_defaults(self):
        assert execution_from_dict({}) == vars(_execution())

    def test_fleet_fields_round_trip_only_off_default(self):
        assert fleet_fields_to_dict(_execution()) == {}
        custom = _execution(
            backend="fleet",
            queue_dir="q",
            spawn_workers=2,
            worker_backend="process",
            lease_seconds=5.0,
        )
        wire = {"backend": "fleet", **fleet_fields_to_dict(custom)}
        assert execution_from_dict(wire) == vars(custom)


class _RecordingUtility:
    def __init__(self):
        self.calls = []

    def set_n_workers(self, n_workers, executor=None):
        self.calls.append(("set_n_workers", n_workers, executor))

    def set_telemetry(self, telemetry):
        self.calls.append(("set_telemetry", telemetry))


class TestConfigureExecution:
    def test_default_execution_leaves_the_oracle_alone(self):
        utility = _RecordingUtility()
        configure_execution(utility, _execution(), print)
        assert utility.calls == []

    def test_named_backend_and_telemetry(self):
        utility = _RecordingUtility()
        telemetry = object()
        configure_execution(
            utility, _execution(backend="process", n_workers=2), print, telemetry
        )
        assert utility.calls == [
            ("set_n_workers", 2, "process"),
            ("set_telemetry", telemetry),
        ]

    def test_fleet_backend_builds_the_executor(self, tmp_path):
        from repro.fleet.coordinator import FleetExecutor

        utility = _RecordingUtility()
        configure_execution(
            utility,
            _execution(backend="fleet", queue_dir=str(tmp_path / "q"), lease_seconds=5.0),
            print,
        )
        ((call, n_workers, executor),) = utility.calls
        try:
            assert (call, n_workers) == ("set_n_workers", 1)
            assert isinstance(executor, FleetExecutor)
        finally:
            executor.close()
