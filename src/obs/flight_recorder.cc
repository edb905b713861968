#include "obs/flight_recorder.h"

#include <algorithm>
#include <bit>

#include "obs/json.h"
#include "obs/metrics.h"

namespace twig::obs {

namespace {

size_t RoundUpPow2(size_t n, size_t minimum) {
  n = std::max(n, minimum);
  return std::bit_ceil(n);
}

}  // namespace

SpanRing::SpanRing(size_t entries)
    : capacity_(RoundUpPow2(entries, 8)),
      mask_(capacity_ - 1),
      slots_(std::make_unique<Slot[]>(capacity_)) {
  // Slot i's first writer is generation i and expects seq == 2*i.
  for (size_t i = 0; i < capacity_; ++i) {
    slots_[i].seq.store(2 * static_cast<uint64_t>(i),
                        std::memory_order_relaxed);
  }
}

bool SpanRing::Record(const SpanRecord& span) {
  const uint64_t pos = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[pos & mask_];
  // Exclusive claim: only the writer that flips 2*pos -> 2*pos+1 may
  // touch the payload. The CAS fails only when the previous
  // generation's writer is still inside (the ring lapped it); acquire
  // on success keeps our payload stores from being observed before the
  // odd sequence value.
  uint64_t expected = 2 * pos;
  if (!slot.seq.compare_exchange_strong(expected, 2 * pos + 1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  slot.request_id.store(span.request_id, std::memory_order_relaxed);
  const size_t len = std::min(span.query.size(), kSpanQueryBytes);
  for (size_t i = 0; i < len; ++i) {
    slot.query[i].store(span.query[i], std::memory_order_relaxed);
  }
  slot.query_len.store(static_cast<uint8_t>(len), std::memory_order_relaxed);
  slot.series.store(span.series, std::memory_order_relaxed);
  slot.outcome.store(static_cast<uint8_t>(span.outcome),
                     std::memory_order_relaxed);
  for (size_t s = 0; s < kSpanStageCount; ++s) {
    slot.offset_ns[s].store(span.offset_ns[s], std::memory_order_relaxed);
  }
  slot.estimate.store(span.estimate, std::memory_order_relaxed);
  slot.snapshot_version.store(span.snapshot_version,
                              std::memory_order_relaxed);
  slot.accuracy_sampled.store(span.accuracy_sampled,
                              std::memory_order_relaxed);
  slot.relative_error.store(span.relative_error, std::memory_order_relaxed);
  slot.fault_injected.store(span.fault_injected, std::memory_order_relaxed);
  // Release: the payload is visible to any reader that sees this
  // sequence value. 2*(pos + capacity) is both "stable" for readers of
  // generation pos and the expected value for the slot's next writer.
  slot.seq.store(2 * (pos + capacity_), std::memory_order_release);
  return true;
}

std::vector<SpanRecord> SpanRing::Snapshot() const {
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t begin = head > capacity_ ? head - capacity_ : 0;
  std::vector<SpanRecord> out;
  out.reserve(static_cast<size_t>(head - begin));
  for (uint64_t pos = begin; pos < head; ++pos) {
    Slot& slot = slots_[pos & mask_];
    const uint64_t stable = 2 * (pos + capacity_);
    const uint64_t before = slot.seq.load(std::memory_order_acquire);
    if (before != stable) continue;  // unwritten, mid-write, or lapped
    SpanRecord record;
    record.request_id = slot.request_id.load(std::memory_order_relaxed);
    const size_t len = std::min<size_t>(
        slot.query_len.load(std::memory_order_relaxed), kSpanQueryBytes);
    record.query.resize(len);
    for (size_t i = 0; i < len; ++i) {
      record.query[i] = slot.query[i].load(std::memory_order_relaxed);
    }
    record.series = slot.series.load(std::memory_order_relaxed);
    record.outcome = static_cast<SpanOutcome>(
        std::min<uint8_t>(slot.outcome.load(std::memory_order_relaxed),
                          static_cast<uint8_t>(SpanOutcome::kCount) - 1));
    for (size_t s = 0; s < kSpanStageCount; ++s) {
      record.offset_ns[s] = slot.offset_ns[s].load(std::memory_order_relaxed);
    }
    record.estimate = slot.estimate.load(std::memory_order_relaxed);
    record.snapshot_version =
        slot.snapshot_version.load(std::memory_order_relaxed);
    record.accuracy_sampled =
        slot.accuracy_sampled.load(std::memory_order_relaxed);
    record.relative_error =
        slot.relative_error.load(std::memory_order_relaxed);
    record.fault_injected =
        slot.fault_injected.load(std::memory_order_relaxed);
    // Re-validate: if a writer claimed the slot while we copied, the
    // sequence moved off the stable value and the copy may be torn. A
    // release read-modify-write that leaves the value unchanged keeps
    // the copy's loads before it and reads the latest sequence: if it
    // precedes a writer's acquire CAS, that writer's stores come after
    // our loads; if it follows, it reads a later sequence and we skip.
    // (Boehm, "Can seqlocks get along with programming language memory
    // models?", 2012; unlike a standalone fence, TSan models it.)
    if (slot.seq.fetch_add(0, std::memory_order_release) != before) continue;
    out.push_back(std::move(record));
  }
  return out;
}

uint64_t SpanRing::recorded() const {
  const uint64_t claims = head_.load(std::memory_order_relaxed);
  const uint64_t drops = dropped_.load(std::memory_order_relaxed);
  return claims >= drops ? claims - drops : 0;
}

FlightRecorder::FlightRecorder(const FlightRecorderOptions& options)
    : slow_threshold_ns_(options.slow_threshold_ns),
      spans_(options.entries),
      slow_(options.slow_entries) {}

void FlightRecorder::Record(const SpanRecord& span) {
  spans_.Record(span);
  if (slow_threshold_ns_ > 0 && span.total_ns() >= slow_threshold_ns_) {
    slow_.Record(span);
  }
}

FlightRecorder::Stats FlightRecorder::stats() const {
  Stats stats;
  stats.recorded = spans_.recorded();
  stats.dropped = spans_.dropped() + slow_.dropped();
  stats.slow_recorded = slow_.recorded();
  stats.capacity = spans_.capacity();
  stats.slow_capacity = slow_.capacity();
  stats.slow_threshold_ns = slow_threshold_ns_;
  return stats;
}

std::string FlightRecorder::ToJsonArray(
    const std::vector<SpanRecord>& records) {
  JsonWriter w;
  w.BeginArray();
  for (const SpanRecord& record : records) w.RawValue(SpanRecordToJson(record));
  w.EndArray();
  return std::move(w).str();
}

std::string SpanRecordToJson(const SpanRecord& record) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id");
  w.Uint(record.request_id);
  w.Key("query");
  w.String(record.query);
  w.Key("algo");
  w.String(record.series < kLatencySeries ? kLatencySeriesNames[record.series]
                                          : "?");
  w.Key("outcome");
  w.String(SpanOutcomeName(record.outcome));
  w.Key("version");
  w.Uint(record.snapshot_version);
  w.Key("estimate");
  w.Double(record.estimate);
  w.Key("total_us");
  w.Double(static_cast<double>(record.total_ns()) / 1e3);
  w.Key("stages_us");
  w.BeginObject();
  for (size_t s = 0; s < kSpanStageCount; ++s) {
    if (record.offset_ns[s] == kSpanStageUnset) continue;
    w.Key(SpanStageName(static_cast<SpanStage>(s)));
    w.Double(static_cast<double>(record.offset_ns[s]) / 1e3);
  }
  w.EndObject();
  if (record.accuracy_sampled) {
    w.Key("relative_error");
    w.Double(record.relative_error);
  }
  if (record.fault_injected) {
    w.Key("fault_injected");
    w.Bool(true);
  }
  w.EndObject();
  return std::move(w).str();
}

}  // namespace twig::obs
