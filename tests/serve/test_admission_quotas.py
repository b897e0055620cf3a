"""Tests for admission control (inflight budget) and per-tenant quotas."""

import pytest

from repro.serve.admission import MIN_RETRY_AFTER, AdmissionController
from repro.serve.protocol import Overloaded, QuotaExceeded
from repro.serve.quotas import MAX_TENANTS, TenantQuotas, TokenBucket


class FakeClock:
    """Deterministic monotonic clock the tests advance explicitly."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestAdmissionController:
    def test_admits_until_the_budget_is_full(self):
        controller = AdmissionController(max_inflight=3)
        tickets = [controller.admit() for _ in range(3)]
        assert controller.inflight == 3
        with pytest.raises(Overloaded):
            controller.admit()
        for ticket in tickets:
            ticket.release()
        assert controller.idle

    def test_release_is_idempotent(self):
        controller = AdmissionController(max_inflight=2)
        ticket = controller.admit()
        ticket.release()
        ticket.release()
        assert controller.inflight == 0
        # A double release must not free slots it never held.
        other = controller.admit(2)
        with pytest.raises(Overloaded):
            controller.admit()
        other.release()

    def test_ticket_releases_via_context_manager(self):
        controller = AdmissionController(max_inflight=1)
        with controller.admit():
            assert controller.inflight == 1
        assert controller.idle

    def test_batch_cost_counts_against_the_budget(self):
        controller = AdmissionController(max_inflight=10)
        ticket = controller.admit(8)
        with pytest.raises(Overloaded):
            controller.admit(3)
        assert controller.admit(2).cost == 2
        ticket.release()

    def test_oversized_request_admits_only_when_idle(self):
        controller = AdmissionController(max_inflight=4)
        # Rejecting a batch larger than the whole budget forever would be
        # a livelock; it runs alone instead.
        big = controller.admit(10)
        with pytest.raises(Overloaded):
            controller.admit(1)
        big.release()
        assert controller.admit(1).cost == 1

    def test_retry_after_has_a_floor_and_tracks_service_time(self):
        controller = AdmissionController(max_inflight=2, base_retry_after=0.0)
        assert controller.retry_after() == MIN_RETRY_AFTER
        for _ in range(50):
            controller.observe_service_time(2.0)
        assert controller.retry_after() == pytest.approx(2.0, rel=0.1)

    def test_first_observation_replaces_the_synthetic_seed(self):
        # base_retry_after seeds the hint before any traffic, but it is a
        # guess, not a sample — the first real observation must replace it
        # outright instead of blending with it.
        controller = AdmissionController(max_inflight=2, base_retry_after=10.0)
        assert controller.retry_after() == 10.0
        controller.observe_service_time(0.5)
        assert controller.retry_after() == pytest.approx(0.5)

    def test_second_observation_blends_with_ewma_alpha(self):
        from repro.serve.admission import EWMA_ALPHA

        controller = AdmissionController(max_inflight=2, base_retry_after=10.0)
        controller.observe_service_time(1.0)
        controller.observe_service_time(2.0)
        # first sample 1.0, second blends: 1.0 + alpha * (2.0 - 1.0)
        assert controller.retry_after() == pytest.approx(1.0 + EWMA_ALPHA * 1.0)

    def test_shed_error_carries_the_retry_hint(self):
        controller = AdmissionController(max_inflight=1)
        controller.admit()
        with pytest.raises(Overloaded) as excinfo:
            controller.admit()
        assert excinfo.value.retry_after >= MIN_RETRY_AFTER
        assert excinfo.value.status == 429

    def test_stats_expose_the_accounting(self):
        controller = AdmissionController(max_inflight=2)
        controller.admit(2)
        with pytest.raises(Overloaded):
            controller.admit()
        stats = controller.stats()
        assert stats["admitted"] == 1
        assert stats["admitted_cost"] == 2
        assert stats["shed"] == 1
        assert stats["inflight"] == 2

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock)
        for _ in range(4):
            assert bucket.try_take() == 0.0
        wait = bucket.try_take()
        assert wait == pytest.approx(0.5)
        clock.advance(0.5)
        assert bucket.try_take() == 0.0

    def test_tokens_cap_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        clock.advance(100.0)
        assert bucket.tokens == 3.0

    def test_oversized_cost_charges_the_full_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=5.0, clock=clock)
        # A cost above burst can never be covered outright; it drains the
        # bucket instead of being rejected forever.
        assert bucket.try_take(50) == 0.0
        assert bucket.tokens == 0.0
        wait = bucket.try_take(50)
        assert wait == pytest.approx(5.0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=0)


class TestTenantQuotas:
    def test_disabled_quotas_always_pass(self):
        quotas = TenantQuotas(rate=None)
        assert not quotas.enabled
        for _ in range(1000):
            quotas.check("anyone")

    def test_tenants_throttle_independently(self):
        clock = FakeClock()
        quotas = TenantQuotas(rate=1.0, burst=2.0, clock=clock)
        quotas.check("alice")
        quotas.check("alice")
        with pytest.raises(QuotaExceeded) as excinfo:
            quotas.check("alice")
        assert excinfo.value.retry_after == pytest.approx(1.0)
        # Bob's bucket is untouched by Alice's exhaustion.
        quotas.check("bob")
        clock.advance(1.0)
        quotas.check("alice")

    def test_burst_defaults_to_twice_the_rate(self):
        clock = FakeClock()
        quotas = TenantQuotas(rate=3.0, clock=clock)
        for _ in range(6):
            quotas.check("alice")
        with pytest.raises(QuotaExceeded):
            quotas.check("alice")

    def test_overrides_take_precedence(self):
        clock = FakeClock()
        quotas = TenantQuotas(
            rate=1.0, burst=1.0, overrides={"vip": (100.0, 50.0)}, clock=clock
        )
        assert quotas.enabled
        for _ in range(50):
            quotas.check("vip")
        quotas.check("basic")
        with pytest.raises(QuotaExceeded):
            quotas.check("basic")

    def test_stats_track_granted_and_throttled(self):
        clock = FakeClock()
        quotas = TenantQuotas(rate=1.0, burst=1.0, clock=clock)
        quotas.check("alice")
        with pytest.raises(QuotaExceeded):
            quotas.check("alice")
        stats = quotas.stats()
        assert stats["alice"]["granted"] == 1
        assert stats["alice"]["throttled"] == 1
        assert stats["alice"]["tokens"] == 0.0

    def test_tenant_table_stays_bounded(self):
        # One record per tenant, evicted least recently seen first: a
        # stream of distinct X-Tenant values cannot grow the table.
        clock = FakeClock()
        quotas = TenantQuotas(rate=1.0, burst=1.0, clock=clock)
        tenants = [f"tenant{index}" for index in range(2 * MAX_TENANTS)]
        for tenant in tenants:
            quotas.check(tenant)
            with pytest.raises(QuotaExceeded):
                quotas.check(tenant)
        stats = quotas.stats()
        newest = tenants[-MAX_TENANTS:]
        assert sorted(stats) == sorted(newest)
        for tenant in newest:
            assert stats[tenant] == {"granted": 1.0, "throttled": 1.0, "tokens": 0.0}
