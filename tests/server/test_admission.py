"""Unit tests for bounded-lane admission control and request deadlines."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.errors import AdmissionError, ConfigurationError
from repro.server.admission import LANES, AdmissionController, Deadline


class OffsetLoop(asyncio.SelectorEventLoop):
    """An event loop whose clock runs 1000s ahead of ``time.monotonic``.

    Loops are free to pick any monotonic reference; this one exaggerates
    the skew so a deadline comparing timestamps across the two clocks
    fails loudly instead of flaking.
    """

    def time(self) -> float:
        return super().time() + 1000.0


class TestDeadline:
    def test_none_means_no_deadline(self):
        deadline = Deadline(None)
        assert deadline.remaining() is None
        assert not deadline.expired

    def test_remaining_counts_down_and_clamps_at_zero(self):
        deadline = Deadline(0.01)
        first = deadline.remaining()
        assert 0.0 < first <= 0.01
        time.sleep(0.02)
        assert deadline.remaining() == 0.0
        assert deadline.expired

    @pytest.mark.parametrize("seconds", [0, -1.5])
    def test_non_positive_budget_is_rejected(self, seconds):
        with pytest.raises(ConfigurationError, match="deadline"):
            Deadline(seconds)

    def test_pinned_to_construction_clock_across_loop_boundary(self):
        """Regression: a Deadline built before the loop starts (the
        CLI/serve startup path) must not compare its start timestamp
        against a different clock once the loop is running.  With the
        clocks 1000s apart, the old per-call clock choice reads either
        already-expired or never-expiring."""
        deadline = Deadline(5.0)  # no running loop: pins time.monotonic

        async def read() -> float:
            return deadline.remaining()

        loop = OffsetLoop()
        try:
            remaining = loop.run_until_complete(read())
        finally:
            loop.close()
        assert 4.0 < remaining <= 5.0
        assert not deadline.expired

    def test_constructed_inside_loop_uses_loop_clock(self):
        loop = OffsetLoop()

        async def build_and_read() -> float:
            deadline = Deadline(5.0)
            await asyncio.sleep(0)
            return deadline.remaining()

        try:
            remaining = loop.run_until_complete(build_and_read())
        finally:
            loop.close()
        assert 4.0 < remaining <= 5.0


class TestAdmissionControllerConfig:
    def test_default_capacity_on_every_lane(self):
        controller = AdmissionController()
        assert set(controller.lanes) == set(LANES)
        assert all(
            lane.capacity == AdmissionController.DEFAULT_CAPACITY
            for lane in controller.lanes.values()
        )

    def test_int_capacity_applies_to_all_lanes(self):
        controller = AdmissionController(3)
        assert all(lane.capacity == 3 for lane in controller.lanes.values())

    def test_dict_capacity_with_default_fallback(self):
        controller = AdmissionController({"update": 1, "topk": 5})
        assert controller.lanes["update"].capacity == 1
        assert controller.lanes["topk"].capacity == 5
        assert (
            controller.lanes["batch"].capacity
            == AdmissionController.DEFAULT_CAPACITY
        )

    def test_unknown_lane_in_dict_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown admission lanes"):
            AdmissionController({"nope": 4})

    @pytest.mark.parametrize("capacity", [0, -2, {"topk": 0}])
    def test_non_positive_capacity_is_rejected(self, capacity):
        with pytest.raises(ConfigurationError, match="positive"):
            AdmissionController(capacity)

    def test_non_positive_retry_after_is_rejected(self):
        with pytest.raises(ConfigurationError, match="retry_after"):
            AdmissionController(retry_after=0)


class TestAdmit:
    def test_admit_tracks_in_flight_and_peak(self):
        controller = AdmissionController(2)
        lane = controller.lanes["topk"]
        with controller.admit("topk"):
            assert lane.in_flight == 1
            with controller.admit("topk"):
                assert lane.in_flight == 2
        assert lane.in_flight == 0
        assert lane.peak_in_flight == 2
        assert lane.admitted == 2
        assert lane.shed == 0

    def test_full_lane_sheds_synchronously(self):
        controller = AdmissionController(1, retry_after=2.5)
        with controller.admit("single_source"):
            with pytest.raises(AdmissionError) as exc_info:
                with controller.admit("single_source"):
                    pass
        error = exc_info.value
        assert error.lane == "single_source"
        assert error.capacity == 1
        assert error.retry_after == 2.5
        assert "retry after 2.5s" in str(error)
        assert controller.lanes["single_source"].shed == 1
        # the shed never occupied the lane
        assert controller.lanes["single_source"].in_flight == 0

    def test_lanes_are_independent(self):
        controller = AdmissionController({"update": 1})
        with controller.admit("update"):
            # reads keep flowing while the update lane is full
            with controller.admit("single_source"):
                pass
            with pytest.raises(AdmissionError):
                with controller.admit("update"):
                    pass

    def test_slot_released_when_the_request_raises(self):
        controller = AdmissionController(1)
        with pytest.raises(RuntimeError):
            with controller.admit("batch"):
                raise RuntimeError("handler blew up")
        assert controller.lanes["batch"].in_flight == 0

    def test_unknown_lane_is_rejected(self):
        controller = AdmissionController()
        with pytest.raises(ConfigurationError, match="unknown admission lane"):
            with controller.admit("nope"):
                pass


class TestCompletedAccounting:
    def test_normal_exit_settles_as_completed(self):
        controller = AdmissionController()
        with controller.admit("topk"):
            pass
        lane = controller.lanes["topk"]
        assert lane.completed == 1
        assert lane.timeouts == 0
        assert lane.admitted == lane.completed + lane.timeouts

    def test_permit_timeout_settles_as_timeout_not_completed(self):
        controller = AdmissionController()
        with controller.admit("topk") as permit:
            permit.record_timeout()
        lane = controller.lanes["topk"]
        assert lane.timeouts == 1
        assert lane.completed == 0
        assert lane.admitted == lane.completed + lane.timeouts

    def test_raised_block_still_settles_exactly_once(self):
        controller = AdmissionController()
        with pytest.raises(RuntimeError):
            with controller.admit("batch"):
                raise RuntimeError("handler blew up")
        lane = controller.lanes["batch"]
        assert lane.completed == 1
        assert lane.admitted == lane.completed + lane.timeouts

    def test_invariant_under_concurrent_admits_and_expiries(self):
        """The ISSUE's broken invariant: admitted-then-cancelled requests
        must land in exactly one terminal counter, even when admits, sheds,
        deadline expiries, and clean completions interleave."""
        controller = AdmissionController(8)

        async def request(i: int) -> None:
            await asyncio.sleep((i % 5) * 0.004)  # stagger arrivals
            work = 0.05 if i % 3 == 0 else 0.0
            try:
                with controller.admit("batch") as permit:
                    try:
                        await asyncio.wait_for(
                            asyncio.sleep(work), timeout=0.01
                        )
                    except (asyncio.TimeoutError, TimeoutError):
                        permit.record_timeout()
            except AdmissionError:
                pass

        asyncio.run(self._run_requests(request, count=60))
        lane = controller.lanes["batch"]
        assert lane.in_flight == 0
        assert lane.timeouts > 0
        assert lane.completed > 0
        assert lane.admitted == lane.completed + lane.timeouts
        assert lane.admitted + lane.shed == 60

    @staticmethod
    async def _run_requests(request, count: int) -> None:
        await asyncio.gather(*(request(i) for i in range(count)))

    def test_completed_in_metrics(self):
        controller = AdmissionController()
        with controller.admit("single_source"):
            pass
        with controller.admit("single_source") as permit:
            permit.record_timeout()
        metrics = controller.metrics()
        assert metrics["admission_single_source_completed"] == 1
        assert metrics["admission_single_source_timeouts"] == 1
        assert metrics["admission_single_source_admitted"] == 2


class TestMetrics:
    def test_flat_counters_for_every_lane(self):
        controller = AdmissionController(1)
        with controller.admit("topk"):
            pass
        with controller.admit("topk") as permit:
            with pytest.raises(AdmissionError):
                with controller.admit("topk"):
                    pass
            permit.record_timeout()
        metrics = controller.metrics()
        assert metrics["admission_topk_capacity"] == 1
        assert metrics["admission_topk_admitted"] == 2
        assert metrics["admission_topk_shed"] == 1
        assert metrics["admission_topk_timeouts"] == 1
        assert metrics["admission_topk_peak_in_flight"] == 1
        assert metrics["admission_topk_in_flight"] == 0
        for lane in LANES:
            assert f"admission_{lane}_admitted" in metrics
