"""Tenant contracts: spec validation, quota meters, and the registry."""

from __future__ import annotations

import pytest

from repro.elastic import ServingPhase
from repro.serving.tenancy import (
    SLO_CLASSES,
    TenantRegistry,
    TenantSpec,
    TokenBucket,
    split_phases,
)


class TestTenantSpec:
    def test_defaults(self):
        spec = TenantSpec("t")
        assert spec.slo_class == "best_effort"
        assert spec.slo == SLO_CLASSES["best_effort"]
        assert spec.weight == 1.0
        assert spec.quota_rps is None and spec.bucket() is None
        assert not spec.premium

    def test_zero_weight_rejected_at_construction(self):
        # A zero-weight tenant would never be dispatched while any other
        # tenant is backlogged — the contract is rejected up front, not
        # discovered as starvation at runtime.
        with pytest.raises(ValueError, match="weight must be > 0"):
            TenantSpec("t", weight=0.0)
        with pytest.raises(ValueError, match="weight must be > 0"):
            TenantSpec("t", weight=-2.0)
        with pytest.raises(ValueError):
            TenantRegistry.from_spec("a:weight=0")

    @pytest.mark.parametrize("kwargs", [
        dict(tenant_id=""),
        dict(tenant_id="t", slo_class="platinum"),
        dict(tenant_id="t", quota_rps=0.0),
        dict(tenant_id="t", burst=4.0),            # burst needs a quota
        dict(tenant_id="t", quota_rps=100.0, burst=0.5),
        dict(tenant_id="t", slo_p99=0.0),
        dict(tenant_id="t", share=0.0),
    ])
    def test_bad_contracts_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TenantSpec(**kwargs)

    def test_slo_override_beats_class_default(self):
        spec = TenantSpec("t", slo_class="premium", slo_p99=0.020)
        assert spec.premium and spec.slo == 0.020

    def test_default_burst_is_tenth_of_quota_with_floor(self):
        assert TenantSpec("t", quota_rps=500.0).bucket().burst == 50.0
        assert TenantSpec("t", quota_rps=5.0).bucket().burst == 1.0


class TestTokenBucket:
    def test_starts_full_and_exhausts(self):
        bucket = TokenBucket(rate_rps=10.0, burst=3.0)
        assert [bucket.take(0.0) for _ in range(4)] == [True] * 3 + [False]

    def test_continuous_refill_caps_at_burst(self):
        bucket = TokenBucket(rate_rps=10.0, burst=3.0)
        for _ in range(3):
            bucket.take(0.0)
        assert not bucket.take(0.05)    # only 0.5 tokens back
        # the failed take above still refilled: 0.5 + 0.5 >= 1 at t=0.10
        assert bucket.take(0.10)
        assert bucket.take(100.0)       # long idle refills to burst, not more
        assert bucket.tokens == pytest.approx(2.0)

    def test_decisions_replay_bit_identically(self):
        arrivals = [i * 0.013 for i in range(200)]

        def run():
            bucket = TokenBucket(rate_rps=40.0, burst=4.0)
            return [bucket.take(t) for t in arrivals]

        assert run() == run()

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_rps=0.0, burst=2.0)
        with pytest.raises(ValueError):
            TokenBucket(rate_rps=10.0, burst=0.5)


class TestTenantRegistry:
    def test_preserves_order_and_lookup(self):
        registry = TenantRegistry(
            [TenantSpec("b"), TenantSpec("a"), TenantSpec("c")])
        assert registry.tenant_ids == ["b", "a", "c"]
        assert "a" in registry and "zz" not in registry
        assert registry["a"].tenant_id == "a"
        with pytest.raises(KeyError):
            registry["zz"]
        with pytest.raises(KeyError):
            registry[None]

    def test_duplicates_and_empty_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TenantRegistry([TenantSpec("a"), TenantSpec("a")])
        with pytest.raises(ValueError, match="at least one"):
            TenantRegistry([])

    def test_shares_normalize(self):
        registry = TenantRegistry([TenantSpec("a", share=1.0),
                                   TenantSpec("b", share=3.0)])
        assert registry.shares() == {"a": 0.25, "b": 0.75}

    def test_from_spec_full_grammar(self):
        registry = TenantRegistry.from_spec(
            "prem:class=premium,weight=4,quota=300,burst=16,p99=25,share=1;"
            "batch:weight=1,share=2; spare")
        prem = registry["prem"]
        assert prem.premium and prem.weight == 4.0
        assert prem.quota_rps == 300.0 and prem.burst == 16.0
        assert prem.slo == pytest.approx(0.025)   # p99 is milliseconds
        assert registry["batch"].slo_class == "best_effort"
        assert registry["spare"].weight == 1.0
        assert registry.tenant_ids == ["prem", "batch", "spare"]

    @pytest.mark.parametrize("spec,fragment", [
        (":weight=1", "no name"),
        ("a:weight", "key=value"),
        ("a:speed=4", "unknown key"),
        ("a:weight=fast", "must be a number"),
        ("a:class=platinum", "unknown SLO class"),
        ("", "at least one"),
    ])
    def test_from_spec_bad_fragments(self, spec, fragment):
        with pytest.raises(ValueError, match=fragment):
            TenantRegistry.from_spec(spec)

    @pytest.mark.parametrize("key", ["share", "weight", "quota", "burst",
                                     "p99"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_from_spec_rejects_non_finite_numbers(self, key, value):
        """``share=inf`` once split the trace into a NaN rate for its
        tenant and a zero rate for the rest: a run that served nothing
        and reported full attainment."""
        field = {"quota": "quota_rps", "p99": "slo_p99"}.get(key, key)
        quota = ",quota=10" if key == "burst" else ""  # burst needs a quota
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TenantRegistry.from_spec(f"a:{key}={value}{quota};b")

    def test_journal_round_trip(self):
        # to_dict -> from_dict must preserve every field an audit needs.
        registry = TenantRegistry.from_spec(
            "prem:class=premium,weight=4,quota=300,p99=25;batch:share=2")
        rebuilt = TenantRegistry.from_dict(registry.to_dict())
        assert rebuilt.tenant_ids == registry.tenant_ids
        for tenant_id in registry.tenant_ids:
            a, b = registry[tenant_id], rebuilt[tenant_id]
            assert (a.slo, a.weight, a.quota_rps, a.share) == \
                (b.slo, b.weight, b.quota_rps, b.share)
            assert a.premium == b.premium

    def test_from_dict_takes_the_order_the_sorted_payload_lost(self):
        registry = TenantRegistry.from_spec("prem:class=premium;batch;mid")
        payload = dict(sorted(registry.to_dict().items()))  # as on disk
        rebuilt = TenantRegistry.from_dict(payload, registry.tenant_ids)
        assert rebuilt.tenant_ids == ["prem", "batch", "mid"]
        # No order (a journal from before the header carried one): key order.
        assert TenantRegistry.from_dict(payload).tenant_ids == \
            ["batch", "mid", "prem"]
        for order in (["prem", "batch"], ["prem", "batch", "mid", "mid"],
                      ["prem", "batch", "ghost"]):
            with pytest.raises(ValueError, match="tenant order"):
                TenantRegistry.from_dict(payload, order)

    def test_describe_names_every_tenant(self):
        registry = TenantRegistry.from_spec("prem:class=premium;batch")
        text = registry.describe()
        assert "prem" in text and "batch" in text and "unlimited" in text


class TestSplitPhases:
    def test_rates_split_by_normalized_share(self):
        registry = TenantRegistry([TenantSpec("a", share=1.0),
                                   TenantSpec("b", share=3.0)])
        phases = [ServingPhase(1.0, 400.0), ServingPhase(0.5, 800.0)]
        split = split_phases(phases, registry)
        assert [p.rate for p in split["a"]] == [100.0, 200.0]
        assert [p.rate for p in split["b"]] == [300.0, 600.0]
        assert all(p.duration == q.duration
                   for p, q in zip(split["a"], phases))
