/// \file metrics.hpp
/// The observability layer's metric primitives: counters, gauges and
/// log-scale histograms, plus the named Registry that owns them.
///
/// Design constraints (DESIGN.md §7 determinism, docs/OBSERVABILITY.md):
///   * recording is allocation-free once warm — Counter/Gauge are single
///     integers, and a Histogram allocates only when a value lands outside
///     the bucket range it already stores, so the hot loops
///     (Session::push, SessionMultiplexer rounds, serve::Service::pump)
///     settle into recording without touching the allocator;
///   * everything here is OBSERVATIONAL — no timing value ever feeds an
///     algorithm decision, so results stay bit-identical whether telemetry
///     is on, off, or compiled out;
///   * no internal locking — every metric is owned by exactly one
///     single-threaded recording site (the multiplexer records after its
///     parallel rounds join; the service loop is single-threaded).
///
/// Histogram buckets are log2-with-linear-subdivision ("HDR-lite"): values
/// 0..7 get exact unit buckets, every later power-of-two octave is split
/// into 8 linear sub-buckets (relative quantile error <= 1/8), and values
/// at or above 2^48 land in one overflow bucket. percentile() is
/// nearest-rank over the bucket upper bounds, clamped to the exact observed
/// max — so p100 is always the true maximum and small-value distributions
/// are reported exactly. merge() is elementwise and therefore associative
/// and commutative (covered by tests/test_obs.cpp).
///
/// A Histogram stores only its occupied bucket range [lo, lo + n): an
/// empty one holds no buckets, and one whose samples span a few octaves
/// holds a few dozen. The range widens on demand and never narrows until
/// reset(); every result is that of the full 369-bucket array.
#pragma once

#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/json.hpp"

namespace mobsrv::obs {

/// Monotonic wall-clock nanoseconds (steady_clock). Observational only.
[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Compact percentile snapshot of a Histogram — what rides in MuxTotals,
/// stats/metrics frames and the NDJSON metrics snapshot.
struct HistogramSummary {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;  ///< sum of recorded values (same unit as them)
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t max = 0;
};

/// Log-scale histogram over unsigned values (latency ns, step counts, ...).
/// It costs 8 bytes per bucket between its lowest and highest sample, so a
/// per-tenant histogram that never records costs nothing beyond the object.
/// record() is branch-light and allocates only to widen the stored range.
class Histogram {
 public:
  /// Linear sub-buckets per power-of-two octave (2^3 = 8).
  static constexpr int kSubBits = 3;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  /// Largest bucketed exponent: values < 2^(kMaxExp+1) are bucketed with
  /// <= 1/8 relative error, larger ones land in the overflow bucket
  /// (2^48 ns is ~78 hours — far past any sane latency).
  static constexpr int kMaxExp = 47;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kSub) +
      static_cast<std::size_t>(kMaxExp - kSubBits + 1) * static_cast<std::size_t>(kSub) + 1;

  /// Bucket index of \p value: 0..7 exact, then (octave, sub-bucket),
  /// overflow last.
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t value) noexcept {
    if (value < kSub) return static_cast<std::size_t>(value);
    const int exp = 63 - std::countl_zero(value);  // floor(log2(value)), >= kSubBits
    if (exp > kMaxExp) return kBuckets - 1;
    const std::uint64_t sub = (value >> (exp - kSubBits)) - kSub;
    return static_cast<std::size_t>(kSub) +
           static_cast<std::size_t>(exp - kSubBits) * static_cast<std::size_t>(kSub) +
           static_cast<std::size_t>(sub);
  }

  /// Inclusive upper bound of bucket \p index (UINT64_MAX for overflow):
  /// the largest value bucket_index maps there.
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t index) noexcept;

  void record(std::uint64_t value) {
    const std::size_t index = bucket_index(value);
    // One unsigned compare: an index below lo_ wraps past the stored size.
    if (index - lo_ >= buckets_.size()) widen(index, index + 1);
    ++buckets_[index - lo_];
    ++count_;
    sum_ += value;
    if (value > max_) max_ = value;
  }

  /// Elementwise merge (associative + commutative).
  void merge(const Histogram& other);

  /// Empties the histogram; the bucket storage is kept for reuse.
  void reset() noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  /// Samples in bucket \p index (< kBuckets, else std::out_of_range); 0
  /// outside the stored range.
  [[nodiscard]] std::uint64_t bucket_count(std::size_t index) const;

  /// Nearest-rank percentile (q in [0, 1]): the upper bound of the bucket
  /// holding the ceil(q * count)-th smallest value, clamped to the exact
  /// observed max. 0 on an empty histogram.
  [[nodiscard]] std::uint64_t percentile(double q) const noexcept;

  [[nodiscard]] HistogramSummary summary() const noexcept {
    return {count_, sum_, percentile(0.50), percentile(0.90), percentile(0.99), max_};
  }

  /// Equal when every logical bucket and the count, sum and max agree,
  /// however each side's stored range was widened.
  friend bool operator==(const Histogram& a, const Histogram& b) noexcept;

 private:
  /// Widens the stored range to cover bucket indices [first, last).
  void widen(std::size_t first, std::size_t last);
  /// Bucket \p index's count, 0 outside the stored range.
  [[nodiscard]] std::uint64_t stored(std::size_t index) const noexcept {
    return index - lo_ < buckets_.size() ? buckets_[index - lo_] : 0;
  }

  std::vector<std::uint64_t> buckets_;  ///< buckets_[i] counts bucket lo_ + i
  std::size_t lo_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// A level that can go up and down (open tenants, queue depth, ...).
class Gauge {
 public:
  void set(std::int64_t value) noexcept { value_ = value; }
  void add(std::int64_t delta) noexcept { value_ += delta; }
  /// set(max(current, value)) — high-water-mark maintenance.
  void raise_to(std::int64_t value) noexcept {
    if (value > value_) value_ = value;
  }
  [[nodiscard]] std::int64_t value() const noexcept { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Named metric store. Registration returns a stable reference (entries
/// live behind unique_ptr and are never removed); re-registering a name
/// returns the existing metric and rejects a kind mismatch loudly. Names
/// are the stable public contract — docs/OBSERVABILITY.md catalogs every
/// one, and tools/check_metrics_docs.py cross-checks both directions.
class Registry {
 public:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Entry {
    std::string name;
    std::string unit;
    std::string help;
    Kind kind = Kind::kCounter;
    std::unique_ptr<Counter> counter;      ///< set iff kCounter
    std::unique_ptr<Gauge> gauge;          ///< set iff kGauge
    std::unique_ptr<Histogram> histogram;  ///< set iff kHistogram
  };

  Counter& counter(std::string name, std::string unit, std::string help);
  Gauge& gauge(std::string name, std::string unit, std::string help);
  Histogram& histogram(std::string name, std::string unit, std::string help);

  [[nodiscard]] const std::vector<std::unique_ptr<Entry>>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] const Entry* find(std::string_view name) const noexcept;

  /// One JSON object per metric, in registration order:
  /// {"name","type","unit","value"} for counters/gauges,
  /// {"name","type","unit","count","sum","p50","p90","p99","max"} for
  /// histograms.
  [[nodiscard]] io::Json::Array to_json() const;

 private:
  Entry& entry(std::string name, std::string unit, std::string help, Kind kind);

  std::vector<std::unique_ptr<Entry>> entries_;
};

[[nodiscard]] const char* kind_name(Registry::Kind kind) noexcept;

/// {"count","sum","p50","p90","p99","max"} — the shared wire shape for
/// histogram summaries (stats/metrics frames, NDJSON snapshot).
[[nodiscard]] io::Json summary_to_json(const HistogramSummary& summary);

/// The value members of one registry entry appended to \p doc (the shared
/// builder for the metrics frame and the NDJSON snapshot lines).
void append_metric_values(io::Json& doc, const Registry::Entry& entry);

}  // namespace mobsrv::obs
