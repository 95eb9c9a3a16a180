#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/contracts.hpp"

namespace mobsrv::obs {

std::uint64_t Histogram::bucket_upper(std::size_t index) noexcept {
  if (index < kSub) return index;
  if (index >= kBuckets - 1) return std::numeric_limits<std::uint64_t>::max();
  const std::size_t off = index - static_cast<std::size_t>(kSub);
  const int exp = kSubBits + static_cast<int>(off / kSub);
  const std::uint64_t sub = off % kSub;
  // Bucket covers [ (kSub+sub) << (exp-kSubBits), (kSub+sub+1) << (exp-kSubBits) ).
  return ((kSub + sub + 1) << (exp - kSubBits)) - 1;
}

void Histogram::widen(std::size_t first, std::size_t last) {
  if (buckets_.empty()) {
    lo_ = first;
    buckets_.assign(last - first, 0);
    return;
  }
  if (last > lo_ + buckets_.size()) buckets_.resize(last - lo_, 0);
  if (first < lo_) {
    buckets_.insert(buckets_.begin(), lo_ - first, 0);
    lo_ = first;
  }
}

std::uint64_t Histogram::bucket_count(std::size_t index) const {
  if (index >= kBuckets) throw std::out_of_range("histogram bucket index out of range");
  return stored(index);
}

void Histogram::merge(const Histogram& other) {
  if (!other.buckets_.empty()) {
    widen(other.lo_, other.lo_ + other.buckets_.size());
    const std::size_t offset = other.lo_ - lo_;
    for (std::size_t i = 0; i < other.buckets_.size(); ++i)
      buckets_[offset + i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.max_ > max_) max_ = other.max_;
}

void Histogram::reset() noexcept {
  buckets_.clear();
  lo_ = 0;
  count_ = 0;
  sum_ = 0;
  max_ = 0;
}

bool operator==(const Histogram& a, const Histogram& b) noexcept {
  if (a.count_ != b.count_ || a.sum_ != b.sum_ || a.max_ != b.max_) return false;
  const std::size_t first = std::min(a.lo_, b.lo_);
  const std::size_t last = std::max(a.lo_ + a.buckets_.size(), b.lo_ + b.buckets_.size());
  for (std::size_t index = first; index < last; ++index)
    if (a.stored(index) != b.stored(index)) return false;
  return true;
}

std::uint64_t Histogram::percentile(double q) const noexcept {
  if (count_ == 0) return 0;
  const double scaled = std::ceil(q * static_cast<double>(count_));
  const std::uint64_t rank =
      scaled < 1.0 ? 1
                   : (scaled > static_cast<double>(count_) ? count_
                                                           : static_cast<std::uint64_t>(scaled));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank) return std::min(bucket_upper(lo_ + i), max_);
  }
  return max_;  // unreachable: cumulative reaches count_ >= rank
}

Registry::Entry& Registry::entry(std::string name, std::string unit, std::string help,
                                 Kind kind) {
  for (auto& existing : entries_) {
    if (existing->name != name) continue;
    MOBSRV_CHECK_MSG(existing->kind == kind,
                     "metric \"" + name + "\" re-registered as a different kind");
    return *existing;
  }
  auto fresh = std::make_unique<Entry>();
  fresh->name = std::move(name);
  fresh->unit = std::move(unit);
  fresh->help = std::move(help);
  fresh->kind = kind;
  switch (kind) {
    case Kind::kCounter:
      fresh->counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      fresh->gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      fresh->histogram = std::make_unique<Histogram>();
      break;
  }
  entries_.push_back(std::move(fresh));
  return *entries_.back();
}

Counter& Registry::counter(std::string name, std::string unit, std::string help) {
  return *entry(std::move(name), std::move(unit), std::move(help), Kind::kCounter).counter;
}

Gauge& Registry::gauge(std::string name, std::string unit, std::string help) {
  return *entry(std::move(name), std::move(unit), std::move(help), Kind::kGauge).gauge;
}

Histogram& Registry::histogram(std::string name, std::string unit, std::string help) {
  return *entry(std::move(name), std::move(unit), std::move(help), Kind::kHistogram).histogram;
}

const Registry::Entry* Registry::find(std::string_view name) const noexcept {
  for (const auto& entry : entries_)
    if (entry->name == name) return entry.get();
  return nullptr;
}

const char* kind_name(Registry::Kind kind) noexcept {
  switch (kind) {
    case Registry::Kind::kCounter:
      return "counter";
    case Registry::Kind::kGauge:
      return "gauge";
    case Registry::Kind::kHistogram:
      return "histogram";
  }
  return "counter";
}

io::Json summary_to_json(const HistogramSummary& summary) {
  io::Json doc = io::Json::object();
  doc.set("count", summary.count);
  doc.set("sum", summary.sum);
  doc.set("p50", summary.p50);
  doc.set("p90", summary.p90);
  doc.set("p99", summary.p99);
  doc.set("max", summary.max);
  return doc;
}

void append_metric_values(io::Json& doc, const Registry::Entry& entry) {
  switch (entry.kind) {
    case Registry::Kind::kCounter:
      doc.set("value", entry.counter->value());
      break;
    case Registry::Kind::kGauge:
      doc.set("value", entry.gauge->value());
      break;
    case Registry::Kind::kHistogram: {
      const HistogramSummary summary = entry.histogram->summary();
      doc.set("count", summary.count);
      doc.set("sum", summary.sum);
      doc.set("p50", summary.p50);
      doc.set("p90", summary.p90);
      doc.set("p99", summary.p99);
      doc.set("max", summary.max);
      break;
    }
  }
}

io::Json::Array Registry::to_json() const {
  io::Json::Array metrics;
  metrics.reserve(entries_.size());
  for (const auto& entry : entries_) {
    io::Json doc = io::Json::object();
    doc.set("name", entry->name);
    doc.set("type", kind_name(entry->kind));
    doc.set("unit", entry->unit);
    append_metric_values(doc, *entry);
    metrics.push_back(std::move(doc));
  }
  return metrics;
}

}  // namespace mobsrv::obs
