#include "core/simulation.h"

#include <algorithm>

#include "common/logging.h"
#include "multitenant/tenant_stats.h"

namespace hybridtier {
namespace {

constexpr TimeNs kOpOverheadNs = 60;     // Non-memory work per op.

}  // namespace

Simulation::Simulation(const SimulationConfig& config, Workload* workload,
                       TieringPolicy* policy)
    : config_(config),
      workload_(workload),
      policy_(policy) {
  HT_ASSERT(workload != nullptr && policy != nullptr,
            "simulation needs a workload and a policy");
  HT_ASSERT(config.fast_tier_fraction > 0.0 &&
                config.fast_tier_fraction <= 1.0,
            "fast tier fraction must be in (0,1], got ",
            config.fast_tier_fraction);

  const uint64_t footprint_pages = workload->footprint_pages();
  const uint64_t units_per_page =
      config.mode == PageMode::kHuge ? kPagesPerHugePage : 1;
  footprint_units_ =
      std::max<uint64_t>(1, (footprint_pages + units_per_page - 1) /
                                units_per_page);
  fast_capacity_units_ = std::max<uint64_t>(
      16, static_cast<uint64_t>(config.fast_tier_fraction *
                                static_cast<double>(footprint_units_)));
  fast_capacity_units_ = std::min(fast_capacity_units_, footprint_units_);

  const FaultSchedule fault_schedule = config.faults.empty()
                                          ? FaultSchedule{}
                                          : ParseFaultSpec(config.faults);
  const Topology topology = config.topology.empty()
                                ? DefaultTopology()
                                : ParseTopologySpec(config.topology);
  memory_ = std::make_unique<TieredMemory>(
      footprint_units_, fast_capacity_units_, footprint_units_,
      config.allocation, topology.endpoint_count(),
      topology.interleave_units);
  perf_ = std::make_unique<PerfModel>(
      PerfModelConfig{}, DefaultFastTier(fast_capacity_units_), topology);
  // An outage or degradation with the unbounded-backlog queue model
  // would integrate delay forever (no drain during the fault), so any
  // fault schedule runs on the bounded queue.
  if (!fault_schedule.empty()) perf_->BoundQueue();
  hierarchy_ = std::make_unique<CacheHierarchy>();
  migration_ =
      std::make_unique<MigrationEngine>(memory_.get(), perf_.get(),
                                        config.mode);

  // Resolve the telemetry sinks before Bind: the migration engine's
  // track registers first (stable tid), and the policy sees the trace
  // through its context so it can register its own tracks in Bind.
  metrics_ = config.telemetry.metrics;
  trace_ = config.telemetry.trace;
  stages_ = config.telemetry.stages;
  attr_ = config.telemetry.attribution;
  audit_ = config.telemetry.audit;
  observed_ = attr_ != nullptr || audit_ != nullptr || metrics_ != nullptr;
  if (audit_ != nullptr) {
    // The audit hangs off the migration engine so policies reach it
    // through migration().audit() without a new context field; the
    // labeler's per-unit stamps are sized to the footprint here.
    audit_->Configure(footprint_units_);
    migration_->SetAudit(audit_);
  }
  if (trace_ != nullptr) {
    migration_->SetTrace(trace_, trace_->Track("migration"));
    sampler_track_ = trace_->Track("sampler");
  }

  // Multi-tenant workloads carry per-op attribution; when present, the
  // run also produces per-tenant results. The tenant layout becomes the
  // memory's accounting regions before Bind: per-tenant occupancy reads
  // (every stats interval, and the fair-share wrapper's quota checks)
  // are O(1) region tallies instead of O(footprint) residency rescans.
  tenant_source_ = dynamic_cast<TenantTagSource*>(workload);
  if (tenant_source_ != nullptr) {
    std::vector<PageRange> regions;
    regions.reserve(tenant_source_->tenant_count());
    for (uint32_t t = 0; t < tenant_source_->tenant_count(); ++t) {
      regions.push_back(tenant_source_->tenant_units(t, config.mode));
    }
    memory_->DefineRegions(regions);
  }

  PolicyContext context;
  context.memory = memory_.get();
  context.migration = migration_.get();
  context.metadata_sink = &metadata_counter_;
  context.perf = perf_.get();
  context.trace = trace_;
  context.mode = config.mode;
  context.footprint_units = footprint_units_;
  context.fast_capacity_units = fast_capacity_units_;
  policy_->Bind(context);

  // Resolve the dispatch mode once, after Bind.
  access_interest_ = policy_->access_interest();
  access_events_.reserve(256);
  sample_buffer_.reserve(1024);

  // One sample source per tenant, so a high-access-rate tenant cannot
  // crowd the sample stream that feeds the other tenants' demand
  // estimators; a single-tenant run is one source at the global period.
  SamplerConfig sampler_config;  // kSamplePeriod, kSampleBuffer.
  sampler_config.seed = config.seed;
  sampler_ = std::make_unique<AccessSampler>(
      sampler_config,
      tenant_source_ != nullptr ? tenant_source_->tenant_count() : 1);
  if (tenant_source_ != nullptr) {
    const uint32_t tenants = tenant_source_->tenant_count();
    tenant_states_.resize(tenants);
    // O(active) interval accounting: tenants present at t=0 (windowless
    // ones for the whole run) start in `present_`; everyone enters and
    // leaves it as the stats clock crosses their residency edges.
    for (uint32_t t = 0; t < tenants; ++t) {
      if (tenant_source_->tenant_active_at(t, 0)) present_.push_back(t);
    }
    presence_ = ResidencySchedule(*tenant_source_);
  }
  quota_stats_ = dynamic_cast<const TenantQuotaStatsSource*>(policy_);
  if (attr_ != nullptr) {
    attr_->Configure(perf_->EndpointCount(),
                     tenant_source_ != nullptr
                         ? tenant_source_->tenant_count()
                         : 1);
  }
  if (!fault_schedule.empty()) {
    // After Bind so health transitions reach a bound policy, before
    // Advance(0) so a schedule starting at t=0 applies immediately.
    fault_runtime_ = std::make_unique<FaultRuntime>(
        fault_schedule, config.fault_runtime, memory_.get(), perf_.get(),
        migration_.get(), policy_, trace_);
    fault_runtime_->Advance(0);
  }
  if (config.watchdog) {
    watchdog_ = std::make_unique<InvariantWatchdog>(memory_.get(), attr_);
    if (const auto* source =
            dynamic_cast<const InvariantSource*>(policy_)) {
      watchdog_->RegisterSource("policy", source);
    }
  }
  SetupTelemetry();
}

void Simulation::SetupTelemetry() {
  if (trace_ != nullptr) {
    last_periods_.resize(sampler_->sources());
    for (uint32_t t = 0; t < last_periods_.size(); ++t) {
      last_periods_[t] = sampler_->period(t);
    }
  }
  if (metrics_ == nullptr) return;
  MetricRegistry& m = *metrics_;

  // Engine volume and memory-system counters: probes read the live run
  // state the simulation already maintains — no double bookkeeping on
  // the hot path, one read per stats interval.
  m.AddProbe("sim/ops", [this] { return static_cast<double>(ops_); });
  m.AddProbe("sim/accesses",
             [this] { return static_cast<double>(accesses_); });
  m.AddProbe("mem/fast_fill_accesses", [this] {
    return static_cast<double>(result_.fast_mem_accesses);
  });
  m.AddProbe("mem/slow_fill_accesses", [this] {
    return static_cast<double>(result_.slow_mem_accesses);
  });
  m.AddProbe("mem/hint_faults",
             [this] { return static_cast<double>(result_.hint_faults); });
  m.AddProbe("mem/fast_used_units", [this] {
    return static_cast<double>(memory_->UsedPages(Tier::kFast));
  });

  // Per-endpoint device counters: traffic and residency probes plus a
  // queue-delay histogram per slow endpoint (observed on slow demand
  // fills in the hot loop). Registered for every layout — the default
  // single-endpoint run reports its one device as endpoint 0.
  endpoint_queue_hist_.reserve(perf_->EndpointCount());
  for (uint32_t e = 0; e < perf_->EndpointCount(); ++e) {
    const std::string prefix =
        "mem/endpoint" + std::to_string(e) + "/";
    m.AddProbe(prefix + "bytes", [this, e] {
      return static_cast<double>(perf_->EndpointBytes(e));
    });
    m.AddProbe(prefix + "accesses", [this, e] {
      return static_cast<double>(perf_->EndpointAccesses(e));
    });
    m.AddProbe(prefix + "resident_units", [this, e] {
      return static_cast<double>(memory_->EndpointResident(e));
    });
    endpoint_queue_hist_.push_back(
        m.AddHistogram(prefix + "queue_delay_ns"));
    if (fault_runtime_ != nullptr) {
      // Health as a numeric series (EndpointHealth enum value). Only
      // registered with a fault runtime so fault-free metric layouts
      // stay byte-identical to the pre-fault columns.
      m.AddProbe(prefix + "state", [this, e] {
        return static_cast<double>(
            static_cast<uint32_t>(fault_runtime_->state(e)));
      });
    }
  }

  if (fault_runtime_ != nullptr) {
    m.AddProbe("fault/transitions", [this] {
      return static_cast<double>(fault_runtime_->stats().transitions);
    });
    m.AddProbe("fault/endpoints_downed", [this] {
      return static_cast<double>(fault_runtime_->stats().endpoints_downed);
    });
    m.AddProbe("fault/endpoints_recovered", [this] {
      return static_cast<double>(
          fault_runtime_->stats().endpoints_recovered);
    });
    m.AddProbe("fault/stalled_accesses", [this] {
      return static_cast<double>(fault_runtime_->stats().stalled_accesses);
    });
    m.AddProbe("fault/evacuated_pages", [this] {
      return static_cast<double>(fault_runtime_->stats().evacuated_pages);
    });
    m.AddProbe("fault/spilled_pages", [this] {
      return static_cast<double>(fault_runtime_->stats().spilled_pages);
    });
    m.AddProbe("fault/evac_retries", [this] {
      return static_cast<double>(fault_runtime_->stats().evac_retries);
    });
  }
  if (watchdog_ != nullptr) {
    m.AddProbe("fault/watchdog_checks", [this] {
      return static_cast<double>(watchdog_->checks_run());
    });
    m.AddProbe("fault/watchdog_violations", [this] {
      return static_cast<double>(watchdog_->violations());
    });
  }

  m.AddProbe("migration/promotion_batches", [this] {
    return static_cast<double>(migration_->stats().promotion_batches);
  });
  m.AddProbe("migration/promoted_pages", [this] {
    return static_cast<double>(migration_->stats().promoted_pages);
  });
  m.AddProbe("migration/demotion_batches", [this] {
    return static_cast<double>(migration_->stats().demotion_batches);
  });
  m.AddProbe("migration/demoted_pages", [this] {
    return static_cast<double>(migration_->stats().demoted_pages);
  });
  m.AddProbe("migration/failed_promotions", [this] {
    return static_cast<double>(migration_->stats().failed_promotions);
  });
  m.AddProbe("migration/time_ns", [this] {
    return static_cast<double>(migration_->stats().migration_time_ns);
  });

  m.AddProbe("cache/l1_app_misses", [this] {
    return static_cast<double>(hierarchy_->L1Misses(AccessOwner::kApp));
  });
  m.AddProbe("cache/l1_tiering_misses", [this] {
    return static_cast<double>(hierarchy_->L1Misses(AccessOwner::kTiering));
  });
  m.AddProbe("cache/llc_app_misses", [this] {
    return static_cast<double>(hierarchy_->LlcMisses(AccessOwner::kApp));
  });
  m.AddProbe("cache/llc_tiering_misses", [this] {
    return static_cast<double>(
        hierarchy_->LlcMisses(AccessOwner::kTiering));
  });

  m.AddProbe("sampler/samples_taken", [this] {
    return static_cast<double>(sampler_->samples_taken());
  });
  m.AddProbe("sampler/samples_dropped", [this] {
    return static_cast<double>(sampler_->samples_dropped());
  });
  m.AddProbe("policy/metadata_touches", [this] {
    return static_cast<double>(metadata_counter_.touches());
  });
  m.AddProbe("policy/metadata_bytes", [this] {
    return static_cast<double>(policy_->MetadataBytes());
  });
  if (trace_ != nullptr) {
    // The trace cap drops deterministically; surfacing the count as a
    // metric lets sweeps assert nothing silently fell off the record.
    m.AddProbe("obs/trace/dropped_events", [this] {
      return static_cast<double>(trace_->dropped_events());
    });
  }

  if (attr_ != nullptr) {
    // Latency decomposition: one cumulative-ns series per component
    // plus the total they must sum to. All counters are uint64 ns well
    // below 2^53, so the identity holds exactly in the double-valued
    // metric series too (tests EXPECT_EQ on snapshot values).
    for (uint32_t c = 0;
         c < static_cast<uint32_t>(LatencyComponent::kCount); ++c) {
      const LatencyComponent component = static_cast<LatencyComponent>(c);
      m.AddProbe(
          std::string("attr/") + LatencyComponentName(component) + "_ns",
          [this, component] {
            return static_cast<double>(attr_->component_ns(component));
          });
    }
    m.AddProbe("attr/total_op_latency_ns", [this] {
      return static_cast<double>(attr_->op_latency_ns());
    });
    for (uint32_t e = 0; e < perf_->EndpointCount(); ++e) {
      const std::string prefix =
          "attr/endpoint" + std::to_string(e) + "/";
      m.AddProbe(prefix + "slow_idle_ns", [this, e] {
        return static_cast<double>(attr_->endpoint_slow_idle_ns(e));
      });
      m.AddProbe(prefix + "slow_queue_ns", [this, e] {
        return static_cast<double>(attr_->endpoint_slow_queue_ns(e));
      });
    }
  }

  if (audit_ != nullptr) {
    m.AddProbe("audit/total_batches", [this] {
      return static_cast<double>(audit_->total_batches());
    });
    m.AddProbe("audit/premature_demotions", [this] {
      return static_cast<double>(audit_->premature_demotions());
    });
    m.AddProbe("audit/late_promotions", [this] {
      return static_cast<double>(audit_->late_promotions());
    });
    m.AddProbe("audit/quota_truncated_pages", [this] {
      return static_cast<double>(audit_->quota_truncated_pages());
    });
    m.AddProbe("audit/cooling_epochs", [this] {
      return static_cast<double>(audit_->cooling_epochs());
    });
    m.AddProbe("audit/endpoint_reorders", [this] {
      return static_cast<double>(audit_->endpoint_reorders());
    });
    m.AddProbe("audit/dropped_records", [this] {
      return static_cast<double>(audit_->dropped_records());
    });
    for (uint32_t r = 0;
         r < static_cast<uint32_t>(MigrationReason::kCount); ++r) {
      const MigrationReason reason = static_cast<MigrationReason>(r);
      const std::string prefix =
          std::string("audit/reason/") + MigrationReasonName(reason) + "/";
      m.AddProbe(prefix + "batches", [this, reason] {
        return static_cast<double>(audit_->batches(reason));
      });
      m.AddProbe(prefix + "promoted_pages", [this, reason] {
        return static_cast<double>(audit_->promoted_pages(reason));
      });
      m.AddProbe(prefix + "demoted_pages", [this, reason] {
        return static_cast<double>(audit_->demoted_pages(reason));
      });
    }
  }

  if (tenant_source_ != nullptr) {
    // Fleet-scale telemetry cap: per-tenant probe sets only for the K
    // heaviest tenants (ties by admission order), everyone else rolled
    // up into one "tenant/other/" aggregate. Results and timelines are
    // unaffected — this caps only the metric surface.
    const uint32_t count = tenant_source_->tenant_count();
    std::vector<uint32_t> order(count);
    for (uint32_t t = 0; t < count; ++t) order[t] = t;
    const uint32_t top_k =
        config_.tenant_metrics_top_k == 0
            ? count
            : std::min(count, config_.tenant_metrics_top_k);
    std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
      const double wa = tenant_source_->tenant_weight(a);
      const double wb = tenant_source_->tenant_weight(b);
      return wa != wb ? wa > wb : a < b;
    });
    std::vector<uint32_t> selected(order.begin(), order.begin() + top_k);
    std::vector<uint32_t> other(order.begin() + top_k, order.end());
    // Register in admission order so metric columns stay stable when K
    // covers the whole fleet (the historical layout).
    std::sort(selected.begin(), selected.end());
    std::sort(other.begin(), other.end());
    for (const uint32_t t : selected) {
      const std::string prefix =
          "tenant/" + std::string(tenant_source_->tenant_name(t)) + "/";
      m.AddProbe(prefix + "fast_units", [this, t] {
        return static_cast<double>(memory_->RegionResident(t, Tier::kFast));
      });
      m.AddProbe(prefix + "accesses", [this, t] {
        return static_cast<double>(tenant_states_[t].accesses);
      });
      m.AddProbe(prefix + "sample_period", [this, t] {
        return static_cast<double>(sampler_->period(t));
      });
      if (quota_stats_ != nullptr) {
        m.AddProbe(prefix + "quota_units", [this, t] {
          TenantQuotaStats stats;
          return quota_stats_->GetTenantQuotaStats(t, &stats)
                     ? static_cast<double>(stats.quota_units)
                     : 0.0;
        });
        m.AddProbe(prefix + "marginal_utility", [this, t] {
          TenantQuotaStats stats;
          return quota_stats_->GetTenantQuotaStats(t, &stats)
                     ? stats.marginal_utility
                     : 0.0;
        });
        m.AddProbe(prefix + "shadow_samples", [this, t] {
          TenantQuotaStats stats;
          return quota_stats_->GetTenantQuotaStats(t, &stats)
                     ? static_cast<double>(stats.shadow_samples)
                     : 0.0;
        });
      }
    }
    if (!other.empty()) {
      m.AddProbe("tenant/other/count", [other] {
        return static_cast<double>(other.size());
      });
      m.AddProbe("tenant/other/fast_units", [this, other] {
        uint64_t total = 0;
        for (const uint32_t t : other) {
          total += memory_->RegionResident(t, Tier::kFast);
        }
        return static_cast<double>(total);
      });
      m.AddProbe("tenant/other/accesses", [this, other] {
        uint64_t total = 0;
        for (const uint32_t t : other) total += tenant_states_[t].accesses;
        return static_cast<double>(total);
      });
      if (quota_stats_ != nullptr) {
        m.AddProbe("tenant/other/quota_units", [this, other] {
          uint64_t total = 0;
          for (const uint32_t t : other) {
            TenantQuotaStats stats;
            if (quota_stats_->GetTenantQuotaStats(t, &stats)) {
              total += stats.quota_units;
            }
          }
          return static_cast<double>(total);
        });
      }
    }
  }

  op_latency_hist_ = m.AddHistogram("sim/op_latency_ns");
}

void Simulation::EmitSamplerAdaptEvents(TimeNs at) {
  for (uint32_t t = 0; t < last_periods_.size(); ++t) {
    const uint64_t period = sampler_->period(t);
    if (period != last_periods_[t]) {
      trace_->Instant(sampler_track_, "period_adapt", at,
                      {{"tenant", static_cast<double>(t)},
                       {"period", static_cast<double>(period)}});
      last_periods_[t] = period;
    }
  }
}

Simulation::~Simulation() = default;

namespace {
/** Inserts `value` into ascending `set` (no-op if already there). */
void InsertSorted(std::vector<uint32_t>* set, uint32_t value) {
  const auto it = std::lower_bound(set->begin(), set->end(), value);
  if (it == set->end() || *it != value) set->insert(it, value);
}

/** Removes `value` from ascending `set` (no-op if absent). */
void EraseSorted(std::vector<uint32_t>* set, uint32_t value) {
  const auto it = std::lower_bound(set->begin(), set->end(), value);
  if (it != set->end() && *it == value) set->erase(it);
}
}  // namespace

void Simulation::AdvancePresence(TimeNs at) {
  presence_.PopDue(at, [this](const ResidencySchedule::Edge& edge) {
    if (edge.arrival) {
      // A re-arrival may land while the previous window's pages are
      // still draining; the tenant rejoins the present walk either way.
      EraseSorted(&draining_, edge.tenant);
      InsertSorted(&present_, edge.tenant);
    } else {
      EraseSorted(&present_, edge.tenant);
      InsertSorted(&draining_, edge.tenant);
    }
  });
}

void Simulation::RecordTimelinePoint(TimeNs at) {
  // Each point reads the ops that started in its interval, however long
  // they ran. An interval in which no op started (an idle churn gap, or
  // the points a long op spans) reads 0: an idle machine is not a slow
  // one.
  const std::vector<double> interval =
      interval_latencies_.Quantiles({0.5, 0.99});
  result_.latency_timeline.Add(at, interval[0]);
  result_.p99_timeline.Add(at, interval[1]);
  interval_latencies_.Clear();

  const uint64_t l1_app = hierarchy_->L1Misses(AccessOwner::kApp);
  const uint64_t l1_tier = hierarchy_->L1Misses(AccessOwner::kTiering);
  const uint64_t llc_app = hierarchy_->LlcMisses(AccessOwner::kApp);
  const uint64_t llc_tier = hierarchy_->LlcMisses(AccessOwner::kTiering);

  const uint64_t d_l1_app = l1_app - last_l1_app_misses_;
  const uint64_t d_l1_tier = l1_tier - last_l1_tiering_misses_;
  const uint64_t d_llc_app = llc_app - last_llc_app_misses_;
  const uint64_t d_llc_tier = llc_tier - last_llc_tiering_misses_;
  last_l1_app_misses_ = l1_app;
  last_l1_tiering_misses_ = l1_tier;
  last_llc_app_misses_ = llc_app;
  last_llc_tiering_misses_ = llc_tier;

  const uint64_t l1_total = d_l1_app + d_l1_tier;
  const uint64_t llc_total = d_llc_app + d_llc_tier;
  result_.tiering_l1_share_timeline.Add(
      at, l1_total ? static_cast<double>(d_l1_tier) /
                         static_cast<double>(l1_total)
                   : 0.0);
  result_.tiering_llc_share_timeline.Add(
      at, llc_total ? static_cast<double>(d_llc_tier) /
                          static_cast<double>(llc_total)
                    : 0.0);
  result_.fast_used_timeline.Add(
      at, static_cast<double>(memory_->UsedPages(Tier::kFast)) /
              static_cast<double>(
                  std::max<uint64_t>(1, fast_capacity_units_)));

  if (tenant_source_ != nullptr) {
    // Per-tenant adaptation series: fast-tier occupancy share and the
    // interval's latency median, plus the weighted fairness index
    // over the tenants present right now (absent tenants hold nothing
    // and would misread as unfairness). The walk covers only present
    // and still-draining tenants — O(active), not O(fleet) — so the
    // timelines are sparse: a tenant has no points before its first
    // arrival or after its drain completes (absence == nothing
    // resident, which time-indexed readers already treat as zero).
    AdvancePresence(at);
    const double capacity =
        static_cast<double>(std::max<uint64_t>(1, fast_capacity_units_));
    scratch_shares_.clear();
    scratch_weights_.clear();
    for (const uint32_t t : present_) {
      TenantState& state = tenant_states_[t];
      const double share =
          static_cast<double>(memory_->RegionResident(t, Tier::kFast)) /
          capacity;
      state.occupancy_timeline.Add(at, share);
      state.latency_timeline.Add(at, state.interval_latencies.Median());
      state.interval_latencies.Clear();
      scratch_shares_.push_back(share);
      scratch_weights_.push_back(tenant_source_->tenant_weight(t));
    }
    result_.stats_tenant_visits += present_.size() + draining_.size();
    // Departed tenants keep reporting occupancy while the policy drains
    // their region, then leave the walk after one explicit zero point
    // (benches detect "drained by t" from that point).
    for (size_t i = 0; i < draining_.size();) {
      const uint32_t t = draining_[i];
      TenantState& state = tenant_states_[t];
      const uint64_t fast_resident =
          memory_->RegionResident(t, Tier::kFast);
      state.occupancy_timeline.Add(
          at, static_cast<double>(fast_resident) / capacity);
      // Ops the tenant started before its departure edge.
      state.latency_timeline.Add(at, state.interval_latencies.Median());
      state.interval_latencies.Clear();
      if (fast_resident == 0) {
        draining_.erase(draining_.begin() + static_cast<ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    result_.weighted_fairness_timeline.Add(
        at, WeightedJainFairnessIndex(scratch_shares_, scratch_weights_));
  }

  // Close the labeler's interval before the metric snapshot so the
  // mis-tiering counters a snapshot reads reflect this interval.
  if (audit_ != nullptr) audit_->AdvanceInterval(at);
  if (trace_ != nullptr) EmitSamplerAdaptEvents(at);
  if (metrics_ != nullptr) metrics_->Snapshot(at);

  // Corruption aborts at the interval it happened, with the failed
  // check's recount report, instead of surfacing as a wrong figure.
  if (watchdog_ != nullptr && !watchdog_->RunChecks(at)) [[unlikely]] {
    HT_FATAL("invariant watchdog tripped: ", watchdog_->last_error());
  }
}

void Simulation::FlushMetadataTraffic() {
  if (metadata_counter_.empty()) return;
  hierarchy_->ReplayTiering(metadata_counter_.lines(),
                            metadata_counter_.repeats());
  metadata_counter_.Clear();
}

void Simulation::ObserveAccess(uint32_t tenant, PageId unit,
                               const TouchResult& touch, HitLevel level,
                               TimeNs latency) {
  if (touch.hint_fault) {
    latency -= perf_->HintFaultLatency();
    if (attr_ != nullptr) {
      attr_->AddHintFault(tenant, perf_->HintFaultLatency());
    }
  }
  if (level != HitLevel::kMemory) {
    if (attr_ == nullptr) return;
    if (level == HitLevel::kL1) {
      attr_->AddL1Hit(tenant, latency);
    } else {
      attr_->AddLlcHit(tenant, latency);
    }
    return;
  }
  // The timing model returns idle latency + queue delay, so subtracting
  // the idle part partitions each fill with no remainder (see the
  // decomposition contract in mem/perf_model.h).
  if (touch.tier == Tier::kFast) {
    if (attr_ != nullptr) {
      const TimeNs idle = perf_->FastIdleLatency();
      attr_->AddFastFill(tenant, idle, latency - idle);
    }
    return;
  }
  if (audit_ != nullptr) audit_->OnSlowFill(unit, now_);
  if (perf_->EndpointDown(touch.endpoint)) {
    // Access to a failed device: the timing model returned the constant
    // fault stall, which belongs to no idle/queue split — the whole
    // latency is one component, keeping Σ components == Σ latency
    // exact through an outage.
    if (attr_ != nullptr) attr_->AddFaultStall(tenant, latency);
    return;
  }
  const TimeNs idle = perf_->EndpointIdleLatency(touch.endpoint);
  if (!endpoint_queue_hist_.empty()) {
    endpoint_queue_hist_[touch.endpoint]->Observe(latency - idle);
  }
  if (attr_ != nullptr) {
    attr_->AddSlowFill(tenant, touch.endpoint, idle, latency - idle);
  }
}

void Simulation::ObserveOp(uint32_t tenant, TimeNs migration_stall,
                           TimeNs op_latency) {
  if (attr_ != nullptr) {
    attr_->AddOpOverhead(tenant, kOpOverheadNs);
    attr_->AddMigrationStall(tenant, migration_stall);
    attr_->CloseOp(tenant, op_latency);
  }
  if (op_latency_hist_ != nullptr) op_latency_hist_->Observe(op_latency);
}

void Simulation::RunOpImpl(const OpTrace& op, TenantState* tenant,
                           StageProfiler* laps) {
  // The op's tenant index: its sample source and its key on the
  // diagnosis seam (0 in single-tenant runs).
  const uint32_t tenant_id =
      tenant == nullptr
          ? 0
          : static_cast<uint32_t>(tenant - tenant_states_.data());

  now_ += op.think_time_ns;  // Idle stall preceding the accesses.
  TimeNs op_latency = kOpOverheadNs;
  now_ += kOpOverheadNs;

  const MemoryAccess* accesses = op.accesses.data();
  const size_t count = op.accesses.size();
  const PageMode mode = config_.mode;
  const bool inline_policy = access_interest_ == AccessInterest::kInline;
  const bool batch_policy = access_interest_ == AccessInterest::kBatched;

  for (size_t i = 0; i < count; ++i) {
    const MemoryAccess& access = accesses[i];
    const PageId unit = TrackingUnitOfAddr(access.addr, mode);
    const TouchResult touch = memory_->Touch(unit, now_);

    TimeNs latency;
    const HitLevel level =
        hierarchy_->Access(access.addr, AccessOwner::kApp);
    if (level == HitLevel::kMemory) {
      latency = perf_->MemoryAccess(touch.tier, touch.endpoint, now_);
      if (touch.tier == Tier::kFast) {
        ++result_.fast_mem_accesses;
        if (tenant != nullptr) ++tenant->fast_mem_accesses;
      } else {
        ++result_.slow_mem_accesses;
        if (tenant != nullptr) ++tenant->slow_mem_accesses;
      }
    } else {
      latency = level == HitLevel::kL1 ? perf_->L1Latency()
                                       : perf_->LlcLatency();
    }
    if (touch.hint_fault) [[unlikely]] {
      latency += perf_->HintFaultLatency();
      ++result_.hint_faults;
    }
    if (observed_) [[unlikely]] {
      ObserveAccess(tenant_id, unit, touch, level, latency);
    }

    if (inline_policy) {
      // Per-access dispatch: the policy may migrate or touch metadata
      // here, and the next access must observe both.
      policy_->OnAccess(unit, touch, now_);
      if (!metadata_counter_.empty()) FlushMetadataTraffic();
    } else if (batch_policy) {
      access_events_.push_back(TouchEvent{unit, touch, now_});
    }
    // Policies with no access interest (the sample-driven designs) pay
    // nothing here at all.

    sampler_->OnAccess(tenant_id, unit, touch.tier, now_);

    now_ += latency;
    op_latency += latency;
  }
  accesses_ += count;
  if (laps != nullptr) laps->Lap(Stage::kCache);

  if (batch_policy) {
    // One virtual dispatch for the whole op; events carry the same
    // (unit, touch, now) triples the per-access path would have seen.
    policy_->OnAccessBatch(access_events_);
    access_events_.clear();
    FlushMetadataTraffic();
    if (laps != nullptr) laps->Lap(Stage::kPolicy);
  }

  // Drain the PEBS buffer to the policy (the tiering thread's loop).
  sample_buffer_.clear();
  sampler_->Drain(&sample_buffer_, sample_buffer_.capacity());
  if (laps != nullptr) laps->Lap(Stage::kSampler);
  for (const SampleRecord& sample : sample_buffer_) {
    policy_->OnSample(sample);
  }
  FlushMetadataTraffic();
  if (laps != nullptr) laps->Lap(Stage::kPolicy);

  // Periodic policy maintenance. The fault runtime advances first so
  // the policy's tick sees the health state (and any evacuation moves)
  // as of its own timestamp.
  while (now_ >= next_tick_) {
    if (fault_runtime_ != nullptr) [[unlikely]] {
      fault_runtime_->Advance(next_tick_);
    }
    policy_->Tick(next_tick_);
    FlushMetadataTraffic();
    next_tick_ += kTickIntervalNs;
  }

  // Application-visible migration stalls: each move_pages batch the
  // policy issued since the last op sends TLB-shootdown IPIs to the
  // app's cores (see kTlbBatchStallNs in perf_model.h).
  const MigrationStats& mig = migration_->stats();
  const uint64_t batches = mig.promotion_batches + mig.demotion_batches;
  const uint64_t pages = mig.promoted_pages + mig.demoted_pages;
  const TimeNs stall =
      (batches - last_migration_batches_) * kTlbBatchStallNs +
      (pages - last_migration_pages_) * kTlbPageStallNs;
  now_ += stall;
  op_latency += stall;
  last_migration_batches_ = batches;
  last_migration_pages_ = pages;
  if (laps != nullptr) laps->Lap(Stage::kMigration);

  ++ops_;
  latencies_.Add(op_latency);
  interval_latencies_.Add(op_latency);
  if (tenant != nullptr) {
    ++tenant->ops;
    tenant->accesses += count;
    tenant->latencies.Add(op_latency);
    tenant->interval_latencies.Add(op_latency);
  }
  if (observed_) [[unlikely]] ObserveOp(tenant_id, stall, op_latency);
  if (laps != nullptr) laps->Lap(Stage::kAccounting);
}

SimulationResult Simulation::Run() {
  OpTrace op;

  next_tick_ = kTickIntervalNs;
  next_stats_ = config_.stats_interval_ns;
  bool warmed_up = config_.warmup_accesses == 0;

  // Application initialization: touch the whole footprint once, in
  // address order, before the access stream starts. Real workloads
  // allocate and populate their heaps (cache slabs, graph CSR, training
  // matrices) before steady state, so first-touch placement is
  // address-ordered, not popularity-ordered. Tenants that have not
  // arrived yet do not exist yet — their regions stay unallocated until
  // their own first touches.
  if (tenant_source_ != nullptr) {
    for (uint32_t t = 0; t < tenant_source_->tenant_count(); ++t) {
      if (!tenant_source_->tenant_active_at(t, 0)) continue;
      const PageRange range = tenant_source_->tenant_units(t, config_.mode);
      for (PageId unit = range.begin; unit < range.end; ++unit) {
        memory_->Touch(unit, now_);
      }
    }
  } else {
    for (PageId unit = 0; unit < footprint_units_; ++unit) {
      memory_->Touch(unit, now_);
    }
  }

  while (accesses_ < config_.max_accesses) {
    if (config_.max_time_ns != 0 && now_ >= config_.max_time_ns) break;

    // Sampled stage profiling: decide before generation so NextOp
    // (live draw or trace replay) is attributed too. An unsampled op
    // pays one null test per phase boundary; an idle gap is not an op
    // and records no laps.
    StageProfiler* const laps =
        stages_ != nullptr && stages_->BeginOp() ? stages_ : nullptr;

    if (!workload_->NextOp(now_, &op)) break;

    if (op.accesses.empty()) {
      // Pure idle gap (no tenant runnable before the next arrival):
      // virtual time passes and the policy keeps ticking, but no
      // operation is recorded — an idle machine is not a slow one. The
      // jump is clamped at the run budget so a distant arrival cannot
      // drag the tick loop past the configured end of the run.
      TimeNs target =
          now_ + std::max<TimeNs>(op.think_time_ns, kOpOverheadNs);
      if (config_.max_time_ns != 0) {
        target = std::min(target, config_.max_time_ns);
      }
      now_ = std::max(now_ + 1, target);
      // Interleave ticks and stats in schedule order so each timeline
      // point samples the policy state as of its own timestamp, not the
      // state at the end of the gap. A gap spanning thousands of
      // intervals (a distant arrival) replays only its leading and
      // trailing edges: the policy still sees the departure promptly
      // and fresh state before the arrival, without a tick per empty
      // millisecond in between.
      constexpr uint64_t kGapEdgeEvents = 64;
      uint64_t gap_events = 0;
      while (next_tick_ <= now_ || next_stats_ <= now_) {
        if (++gap_events == kGapEdgeEvents) {
          const auto skip_forward = [this](TimeNs next, TimeNs interval) {
            if (next > now_) return next;
            const uint64_t remaining = (now_ - next) / interval;
            if (remaining <= kGapEdgeEvents) return next;
            return next + (remaining - kGapEdgeEvents) * interval;
          };
          next_tick_ = skip_forward(next_tick_, kTickIntervalNs);
          next_stats_ =
              skip_forward(next_stats_, config_.stats_interval_ns);
        }
        if (next_tick_ <= next_stats_) {
          if (fault_runtime_ != nullptr) [[unlikely]] {
            fault_runtime_->Advance(next_tick_);
          }
          policy_->Tick(next_tick_);
          // Replay the tick's metadata traffic before the next timeline
          // point reads the hierarchy's counters.
          FlushMetadataTraffic();
          next_tick_ += kTickIntervalNs;
        } else {
          RecordTimelinePoint(next_stats_);
          next_stats_ += config_.stats_interval_ns;
        }
      }
      // Migrations issued by ticks inside the gap (e.g. a departure
      // releasing its region) stall no application — nothing is
      // running. Absorb them so the first op after the gap is not
      // charged for them.
      last_migration_batches_ = migration_->stats().promotion_batches +
                                migration_->stats().demotion_batches;
      last_migration_pages_ = migration_->stats().promoted_pages +
                              migration_->stats().demoted_pages;
      continue;
    }
    if (laps != nullptr) laps->Lap(Stage::kGeneration);

    TenantState* tenant =
        tenant_source_ == nullptr
            ? nullptr
            : &tenant_states_[tenant_source_->last_tenant()];
    RunOpImpl(op, tenant, laps);

    while (now_ >= next_stats_) {
      RecordTimelinePoint(next_stats_);
      next_stats_ += config_.stats_interval_ns;
    }

    if (!warmed_up && accesses_ >= config_.warmup_accesses) {
      warmed_up = true;
      result_.warmup_end_ns = now_;
      hierarchy_->ResetStats();
      latencies_.Clear();
      result_.fast_mem_accesses = 0;
      result_.slow_mem_accesses = 0;
      result_.hint_faults = 0;
      // Mirror the global resets: volume counters (ops/accesses) keep
      // counting the whole run, measurement stats start over.
      for (TenantState& state : tenant_states_) {
        state.fast_mem_accesses = 0;
        state.slow_mem_accesses = 0;
        state.latencies.Clear();
      }
      last_l1_app_misses_ = 0;
      last_l1_tiering_misses_ = 0;
      last_llc_app_misses_ = 0;
      last_llc_tiering_misses_ = 0;
    }
    if (laps != nullptr) laps->EndOp(op.accesses.size());
  }

  result_.ops = ops_;
  result_.accesses = accesses_;
  result_.duration_ns = now_;
  result_.throughput_mops =
      now_ == 0 ? 0.0
                : static_cast<double>(ops_) * 1000.0 /
                      static_cast<double>(now_);
  const std::vector<double> run = latencies_.Quantiles({0.5, 0.99});
  result_.median_latency_ns = run[0];
  result_.p99_latency_ns = run[1];
  result_.mean_latency_ns = latencies_.Mean();
  result_.migration = migration_->stats();
  if (fault_runtime_ != nullptr) {
    // One final advance at the run's end time: transitions scheduled
    // inside the last partial tick interval still apply, and pending
    // evacuations get a last drain pass before residency is reported.
    fault_runtime_->Advance(now_);
    result_.fault = fault_runtime_->stats();
  }
  result_.l1_app_misses = hierarchy_->L1Misses(AccessOwner::kApp);
  result_.l1_tiering_misses = hierarchy_->L1Misses(AccessOwner::kTiering);
  result_.llc_app_misses = hierarchy_->LlcMisses(AccessOwner::kApp);
  result_.llc_tiering_misses =
      hierarchy_->LlcMisses(AccessOwner::kTiering);
  result_.metadata_bytes = policy_->MetadataBytes();
  result_.samples_taken = sampler_->samples_taken();
  result_.samples_dropped = sampler_->samples_dropped();
  // Close the labeler's trailing partial interval, then the metric
  // series, at the final virtual timestamp (a no-op when the run ended
  // exactly on a stats boundary).
  if (audit_ != nullptr) audit_->AdvanceInterval(now_);
  if (metrics_ != nullptr) metrics_->Snapshot(now_);
  if (watchdog_ != nullptr && !watchdog_->RunChecks(now_)) {
    HT_FATAL("invariant watchdog tripped at end of run: ",
             watchdog_->last_error());
  }
  FinalizeTenantResults();
  return result_;
}

void Simulation::FinalizeTenantResults() {
  if (tenant_source_ == nullptr) return;
  // The quota controller's per-tenant view, when the policy has one
  // (resolved once at construction).
  const TenantQuotaStatsSource* quota_stats = quota_stats_;
  std::vector<double> occupancies;
  std::vector<double> present_occupancies;
  std::vector<double> present_weights;
  for (uint32_t t = 0; t < tenant_source_->tenant_count(); ++t) {
    TenantState& state = tenant_states_[t];
    TenantResult tenant;
    tenant.name = tenant_source_->tenant_name(t);
    tenant.weight = tenant_source_->tenant_weight(t);
    tenant.ops = state.ops;
    tenant.accesses = state.accesses;
    tenant.fast_mem_accesses = state.fast_mem_accesses;
    tenant.slow_mem_accesses = state.slow_mem_accesses;
    tenant.throughput_mops =
        now_ == 0 ? 0.0
                  : static_cast<double>(state.ops) * 1000.0 /
                        static_cast<double>(now_);
    const std::vector<double> quantiles =
        state.latencies.Quantiles({0.5, 0.99});
    tenant.median_latency_ns = quantiles[0];
    tenant.p99_latency_ns = quantiles[1];
    tenant.mean_latency_ns = state.latencies.Mean();

    const PageRange range = tenant_source_->tenant_units(t, config_.mode);
    tenant.footprint_units = range.size();
    tenant.fast_resident_units = memory_->RegionResident(t, Tier::kFast);
    tenant.occupancy_timeline = std::move(state.occupancy_timeline);
    tenant.latency_timeline = std::move(state.latency_timeline);

    if (quota_stats != nullptr) {
      TenantQuotaStats stats;
      if (quota_stats->GetTenantQuotaStats(t, &stats)) {
        tenant.quota_units = stats.quota_units;
        tenant.shadow_samples = stats.shadow_samples;
        tenant.marginal_utility = stats.marginal_utility;
      }
    }
    tenant.sample_period = sampler_->period(t);

    occupancies.push_back(static_cast<double>(tenant.fast_resident_units));
    if (tenant_source_->tenant_active_at(t, now_)) {
      present_occupancies.push_back(
          static_cast<double>(tenant.fast_resident_units));
      present_weights.push_back(tenant.weight);
    }
    result_.tenants.push_back(std::move(tenant));
  }
  result_.jain_fairness = JainFairnessIndex(occupancies);
  result_.weighted_jain_fairness =
      WeightedJainFairnessIndex(present_occupancies, present_weights);
}

SimulationResult RunSimulation(const SimulationConfig& config,
                               Workload* workload, TieringPolicy* policy) {
  Simulation simulation(config, workload, policy);
  return simulation.Run();
}

}  // namespace hybridtier
