#include "fault/fault_runtime.h"

#include <algorithm>

#include "common/logging.h"

namespace hybridtier {
namespace {

constexpr TimeNs kRetryBackoffNs = 1 * kMillisecond;  // First retry delay.
constexpr TimeNs kMaxBackoffNs = 64 * kMillisecond;   // Backoff cap.
constexpr double kRecoveryDegrade = 2.0;  // Service factor while recovering.

}  // namespace

FaultRuntime::FaultRuntime(const FaultSchedule& schedule,
                           const FaultRuntimeConfig& config,
                           TieredMemory* memory, PerfModel* perf,
                           MigrationEngine* migration,
                           TieringPolicy* policy, TraceEmitter* trace)
    : health_(schedule, memory->endpoint_count(), config.recovery_ns,
              kRecoveryDegrade),
      config_(config),
      memory_(memory),
      perf_(perf),
      migration_(migration),
      policy_(policy),
      trace_(trace),
      evacuations_(memory->endpoint_count()) {
  HT_ASSERT(memory != nullptr && perf != nullptr && migration != nullptr,
            "fault runtime needs memory, perf model, and migration engine");
  HT_ASSERT(schedule.empty() ||
                schedule.MaxEndpoint() < memory->endpoint_count(),
            "fault schedule names endpoint ", schedule.MaxEndpoint(),
            " but the layout has ", memory->endpoint_count());
  HT_ASSERT(config.evac_batch > 0 && config.spill_batch > 0,
            "fault evacuation batches must be positive");
  if (trace_ != nullptr) trace_track_ = trace_->Track("faults");
}

void FaultRuntime::ApplyTransition(uint32_t endpoint,
                                   EndpointHealth old_state,
                                   EndpointHealth new_state, double factor,
                                   TimeNs now) {
  ++stats_.transitions;
  const bool was_down = old_state == EndpointHealth::kDown;
  const bool is_down = new_state == EndpointHealth::kDown;
  perf_->SetEndpointDown(endpoint, is_down);
  // Down beats degrade while active; on any non-down state the service
  // factor (1.0 when healthy) replaces whatever was in effect.
  if (!is_down) perf_->SetEndpointDegrade(endpoint, factor);
  if (is_down && !was_down) {
    ++stats_.endpoints_downed;
    Evacuation& evac = evacuations_[endpoint];
    evac.active = config_.evacuate;
    evac.stripe = 0;
    evac.backoff_ns = 0;
    evac.retry_at_ns = 0;
  }
  if (was_down && !is_down) {
    ++stats_.endpoints_recovered;
    evacuations_[endpoint].active = false;
  }
  if (policy_ != nullptr) {
    policy_->OnEndpointHealth(endpoint, new_state, now);
  }
  if (trace_ != nullptr) [[unlikely]] {
    trace_->Instant(trace_track_, EndpointHealthName(new_state), now,
                    {{"endpoint", static_cast<double>(endpoint)},
                     {"factor", factor}});
  }
}

uint64_t FaultRuntime::Spill(uint64_t needed, TimeNs now) {
  needed = std::min<uint64_t>(needed, config_.spill_batch);
  if (needed == 0) return 0;
  batch_.clear();
  const uint64_t total = memory_->total_pages();
  // Resume the fast-victim scan where the last spill stopped; wrap once.
  uint64_t scanned = 0;
  PageId pos = static_cast<PageId>(spill_cursor_ % total);
  constexpr uint64_t kChunk = 4096;
  while (scanned < total && batch_.size() < needed) {
    const uint64_t len = std::min<uint64_t>(kChunk, total - pos);
    memory_->ScanResident(pos, len, Tier::kFast, [&](PageId page) {
      if (batch_.size() >= needed) return;
      const uint32_t home = memory_->EndpointOf(page);
      if (health_.state(home) == EndpointHealth::kDown) return;
      batch_.push_back(page);
    });
    scanned += len;
    pos += len;
    if (pos >= total) pos = 0;
  }
  spill_cursor_ = pos;
  if (batch_.empty()) return 0;
  const MigrationStats& before = migration_->stats();
  const uint64_t demoted_before = before.demoted_pages;
  migration_->Demote(batch_, now, MigrationReason::kFaultSpill);
  const uint64_t demoted =
      migration_->stats().demoted_pages - demoted_before;
  stats_.spilled_pages += demoted;
  return demoted;
}

void FaultRuntime::RunEvacuation(uint32_t endpoint, Evacuation& evac,
                                 TimeNs now) {
  if (memory_->EndpointResident(endpoint) == 0) return;
  if (now < evac.retry_at_ns) return;

  // Make room first: without free fast units the promotes would all
  // fail. Spill healthy-homed fast pages, then retry with backoff if
  // the fast tier still has no headroom.
  const uint64_t want = std::min<uint64_t>(
      config_.evac_batch, memory_->EndpointResident(endpoint));
  if (memory_->FreePages(Tier::kFast) < want) {
    Spill(want - memory_->FreePages(Tier::kFast), now);
  }
  const uint64_t room = memory_->FreePages(Tier::kFast);
  if (room == 0) {
    ++stats_.evac_retries;
    evac.backoff_ns = evac.backoff_ns == 0
                          ? kRetryBackoffNs
                          : std::min(evac.backoff_ns * 2, kMaxBackoffNs);
    evac.retry_at_ns = now + evac.backoff_ns;
    if (trace_ != nullptr) [[unlikely]] {
      trace_->Instant(trace_track_, "evac_backoff", now,
                      {{"endpoint", static_cast<double>(endpoint)},
                       {"backoff_ns",
                        static_cast<double>(evac.backoff_ns)}});
    }
    return;
  }
  evac.backoff_ns = 0;
  evac.retry_at_ns = 0;

  // Collect up to min(batch, room) of the endpoint's slow residents by
  // walking its interleave stripes from the resume cursor. The cursor
  // wraps so late arrivals (slow overflow allocations landing on the
  // dead device) are caught on the next pass.
  const uint64_t target = std::min(want, room);
  const uint64_t total = memory_->total_pages();
  const uint32_t endpoints = memory_->endpoint_count();
  const uint64_t gran = memory_->interleave_units();
  const uint64_t stripes =
      endpoints == 1 ? 1 : (total / gran / endpoints) + 2;
  batch_.clear();
  uint64_t walked = 0;
  while (walked < stripes && batch_.size() < target) {
    const uint64_t k = (evac.stripe + walked) % stripes;
    ++walked;
    const PageId start = endpoints == 1
                             ? static_cast<PageId>(k)
                             : static_cast<PageId>((k * endpoints +
                                                    endpoint) *
                                                   gran);
    if (start >= total) continue;
    const uint64_t len = endpoints == 1 ? total : gran;
    memory_->ScanResident(start, len, Tier::kSlow, [&](PageId page) {
      if (batch_.size() >= target) return;
      if (memory_->EndpointOf(page) == endpoint) batch_.push_back(page);
    });
  }
  evac.stripe = (evac.stripe + walked) % stripes;
  if (batch_.empty()) return;

  const uint64_t promoted_before = migration_->stats().promoted_pages;
  const TimeNs cost =
      migration_->Promote(batch_, now, MigrationReason::kFaultEvacuation);
  const uint64_t promoted =
      migration_->stats().promoted_pages - promoted_before;
  stats_.evacuated_pages += promoted;
  if (promoted > 0 && policy_ != nullptr) {
    policy_->OnExternalMigration(now);
  }
  if (trace_ != nullptr) [[unlikely]] {
    trace_->Span(trace_track_, "evacuate", now, now + cost,
                 {{"endpoint", static_cast<double>(endpoint)},
                  {"pages", static_cast<double>(promoted)}});
  }
}

void FaultRuntime::Advance(TimeNs now) {
  health_.Advance(now, [&](uint32_t endpoint, EndpointHealth old_state,
                           EndpointHealth new_state, double factor) {
    ApplyTransition(endpoint, old_state, new_state, factor, now);
  });
  for (uint32_t e = 0; e < evacuations_.size(); ++e) {
    if (evacuations_[e].active) RunEvacuation(e, evacuations_[e], now);
  }
}

FaultStats FaultRuntime::stats() const {
  FaultStats out = stats_;
  out.stalled_accesses = 0;
  for (uint32_t e = 0; e < perf_->EndpointCount(); ++e) {
    out.stalled_accesses += perf_->EndpointStalledAccesses(e);
  }
  return out;
}

}  // namespace hybridtier
