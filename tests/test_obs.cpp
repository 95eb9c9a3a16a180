// Tests for the obs layer: histogram bucket boundaries, nearest-rank
// percentile exactness on known distributions, merge associativity, the
// overflow bucket, the occupied-range storage against a dense reference,
// counter/gauge semantics, registry registration rules, and the bounded
// event journal.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/contracts.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "serve/telemetry.hpp"
#include "stats/rng.hpp"

namespace mobsrv {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::HistogramSummary;
using obs::Journal;
using obs::Registry;

TEST(Histogram, SmallValuesGetExactUnitBuckets) {
  // Values 0..7 land in their own bucket, so small-count percentiles are
  // exact, not log-rounded.
  for (std::uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(Histogram::bucket_index(v), v);
    EXPECT_EQ(Histogram::bucket_upper(static_cast<std::size_t>(v)), v);
  }
}

TEST(Histogram, BucketUpperBoundsAreInclusiveAndMonotonic) {
  std::uint64_t previous = 0;
  for (std::size_t i = 0; i < Histogram::kBuckets - 1; ++i) {
    const std::uint64_t upper = Histogram::bucket_upper(i);
    if (i > 0) {
      EXPECT_GT(upper, previous) << "bucket " << i;
    }
    // The upper bound itself maps back into the bucket...
    EXPECT_EQ(Histogram::bucket_index(upper), i);
    // ...and the next value starts the next bucket.
    EXPECT_EQ(Histogram::bucket_index(upper + 1), i + 1);
    previous = upper;
  }
}

TEST(Histogram, PowersOfTwoLandOnSubBucketBoundaries) {
  for (int exp = 3; exp < 47; ++exp) {
    const std::uint64_t v = std::uint64_t{1} << exp;
    const std::size_t index = Histogram::bucket_index(v);
    // A power of two opens its octave: the previous value is in an earlier
    // bucket.
    EXPECT_EQ(Histogram::bucket_index(v - 1), index - 1) << "2^" << exp;
    // Relative bucket width stays under 1/8 (kSubBits=3 => 8 sub-buckets).
    const std::uint64_t upper = Histogram::bucket_upper(index);
    EXPECT_LT(static_cast<double>(upper - v) / static_cast<double>(v), 0.125);
  }
}

TEST(Histogram, OverflowBucketCatchesHugeValues) {
  Histogram h;
  const std::uint64_t huge = std::uint64_t{1} << 50;
  h.record(huge);
  h.record(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(h.count(), 2u);
  // Percentiles from the overflow bucket clamp to the observed max, never
  // report a fictitious 2^64.
  EXPECT_EQ(h.percentile(0.5), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(h.max(), std::numeric_limits<std::uint64_t>::max());
}

TEST(Histogram, NearestRankPercentilesAreExactOnSmallValues) {
  // Values < 8 are bucketed exactly, so nearest-rank answers are exact.
  Histogram h;
  for (std::uint64_t v : {1, 1, 2, 3}) h.record(v);
  EXPECT_EQ(h.percentile(0.50), 1u);  // rank ceil(0.5*4)=2 -> second 1
  EXPECT_EQ(h.percentile(0.75), 2u);
  EXPECT_EQ(h.percentile(1.00), 3u);
  EXPECT_EQ(h.percentile(0.01), 1u);

  Histogram uniform;
  for (std::uint64_t v = 1; v <= 100; ++v) uniform.record(v % 8);
  // 100 values cycling 0..7: ranks are exact because buckets are exact.
  EXPECT_EQ(uniform.percentile(0.5), 3u);
}

TEST(Histogram, SummaryMatchesDirectQueries) {
  Histogram h;
  std::uint64_t sum = 0;
  for (std::uint64_t v = 0; v < 1000; ++v) {
    h.record(v * 37);
    sum += v * 37;
  }
  const HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.sum, sum);
  EXPECT_EQ(s.p50, h.percentile(0.50));
  EXPECT_EQ(s.p90, h.percentile(0.90));
  EXPECT_EQ(s.p99, h.percentile(0.99));
  EXPECT_EQ(s.max, 999u * 37u);
  // Percentiles never exceed the true max even with log-scale buckets.
  EXPECT_LE(s.p99, s.max);
}

TEST(Histogram, MergeIsAssociativeAndCommutative) {
  // Three histograms with interleaved pseudo-random-ish values.
  Histogram a;
  Histogram b;
  Histogram c;
  for (std::uint64_t v = 0; v < 300; ++v) {
    const std::uint64_t value = (v * 2654435761u) % 1000003;
    (v % 3 == 0 ? a : v % 3 == 1 ? b : c).record(value);
  }

  Histogram ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);

  Histogram a_bc = b;
  a_bc.merge(c);
  a_bc.merge(a);

  EXPECT_EQ(ab_c, a_bc);
  EXPECT_EQ(ab_c.count(), 300u);
  EXPECT_EQ(ab_c.summary().p99, a_bc.summary().p99);
}

TEST(Histogram, ResetAndEmptyBehaviour) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.percentile(0.99), 0u);
  EXPECT_EQ(h.summary().count, 0u);
  h.record(42);
  EXPECT_FALSE(h.empty());
  h.reset();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

/// The dense 369-bucket histogram the occupied-range storage must agree
/// with: every bucket stored, percentiles by a walk over all of them.
struct DenseHistogram {
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  void record(std::uint64_t value) {
    ++buckets[Histogram::bucket_index(value)];
    ++count;
    sum += value;
    max = std::max(max, value);
  }
  void merge(const DenseHistogram& other) {
    for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] += other.buckets[i];
    count += other.count;
    sum += other.sum;
    max = std::max(max, other.max);
  }
  [[nodiscard]] std::uint64_t percentile(double q) const {
    if (count == 0) return 0;
    const double scaled = std::ceil(q * static_cast<double>(count));
    const std::uint64_t rank =
        scaled < 1.0 ? 1
                     : (scaled > static_cast<double>(count) ? count
                                                            : static_cast<std::uint64_t>(scaled));
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      cumulative += buckets[i];
      if (cumulative >= rank) return std::min(Histogram::bucket_upper(i), max);
    }
    return max;
  }
};

void expect_matches(const Histogram& h, const DenseHistogram& ref) {
  ASSERT_EQ(h.count(), ref.count);
  EXPECT_EQ(h.sum(), ref.sum);
  EXPECT_EQ(h.max(), ref.max);
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i)
    ASSERT_EQ(h.bucket_count(i), ref.buckets[i]) << "bucket " << i;
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0})
    EXPECT_EQ(h.percentile(q), ref.percentile(q)) << "q " << q;
  const HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, ref.count);
  EXPECT_EQ(s.sum, ref.sum);
  EXPECT_EQ(s.p50, ref.percentile(0.50));
  EXPECT_EQ(s.p90, ref.percentile(0.90));
  EXPECT_EQ(s.p99, ref.percentile(0.99));
  EXPECT_EQ(s.max, ref.max);
}

/// Seeded values that touch every kind of bucket: the exact unit buckets
/// 0..7, both sides of every octave edge, log-uniform values in between,
/// and values at or above 2^48 (the overflow bucket).
std::vector<std::uint64_t> edge_values(std::uint64_t seed) {
  std::vector<std::uint64_t> values;
  for (std::uint64_t v = 0; v < 8; ++v) values.push_back(v);
  for (int exp = 3; exp <= 63; ++exp) {
    const std::uint64_t edge = std::uint64_t{1} << exp;
    values.insert(values.end(), {edge - 1, edge, edge + 1});
  }
  values.push_back(std::numeric_limits<std::uint64_t>::max());
  stats::Rng rng(seed);
  for (int i = 0; i < 400; ++i) {
    const int exp = static_cast<int>(rng.uniform_int(0, 50));
    values.push_back(rng() >> (63 - exp));  // below 2^(exp+1)
  }
  return values;
}

/// Values whose buckets all lie in [bucket_index(lo), bucket_index(hi)].
std::vector<std::uint64_t> values_between(std::uint64_t lo, std::uint64_t hi, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 200; ++i)
    values.push_back(static_cast<std::uint64_t>(
        rng.uniform_int(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi))));
  return values;
}

TEST(HistogramDifferential, EveryInsertionOrderMatchesTheDenseReference) {
  std::vector<std::uint64_t> values = edge_values(7);
  DenseHistogram ref;
  for (const std::uint64_t v : values) ref.record(v);

  std::sort(values.begin(), values.end());
  Histogram ascending;
  for (const std::uint64_t v : values) ascending.record(v);
  Histogram descending;
  for (auto it = values.rbegin(); it != values.rend(); ++it) descending.record(*it);
  stats::Rng rng(11);
  std::shuffle(values.begin(), values.end(), rng);
  Histogram shuffled;
  for (const std::uint64_t v : values) shuffled.record(v);

  expect_matches(ascending, ref);
  expect_matches(descending, ref);
  expect_matches(shuffled, ref);
  // Same content, stored ranges widened in different orders: still equal.
  EXPECT_EQ(ascending, descending);
  EXPECT_EQ(ascending, shuffled);
  Histogram other = shuffled;
  other.record(5);
  EXPECT_FALSE(other == shuffled);
}

TEST(HistogramDifferential, MergesOfDisjointOverlappingAndEmptyRanges) {
  const std::vector<std::pair<std::vector<std::uint64_t>, std::vector<std::uint64_t>>> cases = {
      {values_between(0, 40, 1), values_between(1'000'000, 9'000'000, 2)},     // disjoint, a low
      {values_between(1'000'000, 9'000'000, 3), values_between(0, 40, 4)},     // disjoint, a high
      {values_between(100, 50'000, 5), values_between(10'000, 900'000, 6)},    // overlapping
      {values_between(100, 50'000, 7), values_between(200, 300, 8)},           // b inside a
      {edge_values(9), {}},                                                   // b empty
      {{}, edge_values(10)},                                                  // a empty
      {{}, {}},                                                               // both empty
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    Histogram a;
    Histogram b;
    DenseHistogram ref;
    for (const std::uint64_t v : cases[c].first) {
      a.record(v);
      ref.record(v);
    }
    for (const std::uint64_t v : cases[c].second) b.record(v);
    DenseHistogram ref_b;
    for (const std::uint64_t v : cases[c].second) ref_b.record(v);
    ref.merge(ref_b);

    Histogram ab = a;
    ab.merge(b);
    Histogram ba = b;
    ba.merge(a);
    expect_matches(ab, ref);
    expect_matches(ba, ref);
    EXPECT_EQ(ab, ba);
  }
}

TEST(HistogramDifferential, ResetThenReuseForgetsTheOldRange) {
  Histogram h;
  for (const std::uint64_t v : edge_values(12)) h.record(v);
  h.reset();
  expect_matches(h, DenseHistogram{});
  EXPECT_EQ(h, Histogram{});

  DenseHistogram ref;
  for (const std::uint64_t v : values_between(5'000, 6'000, 13)) {
    h.record(v);
    ref.record(v);
  }
  expect_matches(h, ref);
}

TEST(HistogramDifferential, BucketCountOutsideTheStoredRangeIsZero) {
  Histogram h;
  EXPECT_EQ(h.bucket_count(0), 0u);
  EXPECT_EQ(h.bucket_count(Histogram::kBuckets - 1), 0u);
  for (const std::uint64_t v : values_between(1'000, 2'000, 14)) h.record(v);
  const std::size_t lo = Histogram::bucket_index(1'000);
  const std::size_t hi = Histogram::bucket_index(2'000);
  EXPECT_EQ(h.bucket_count(lo - 1), 0u);
  EXPECT_EQ(h.bucket_count(hi + 1), 0u);
  EXPECT_EQ(h.bucket_count(0), 0u);
  EXPECT_EQ(h.bucket_count(Histogram::kBuckets - 1), 0u);
  std::uint64_t stored = 0;
  for (std::size_t i = lo; i <= hi; ++i) stored += h.bucket_count(i);
  EXPECT_EQ(stored, h.count());
  EXPECT_THROW((void)h.bucket_count(Histogram::kBuckets), std::out_of_range);
}

TEST(HistogramDifferential, EmptyTenantRowStaysSmall) {
  // A per-tenant row with no samples holds no buckets: an inline bucket
  // array (369 x 8 bytes) would blow this bound tenfold.
  EXPECT_LE(sizeof(serve::TenantTelemetry), 256u);
  EXPECT_LE(sizeof(Histogram), 64u);
}

TEST(CounterGauge, Semantics) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.inc();
  counter.inc(41);
  EXPECT_EQ(counter.value(), 42u);

  Gauge gauge;
  gauge.set(5);
  gauge.add(-8);
  EXPECT_EQ(gauge.value(), -3);
  gauge.raise_to(10);
  EXPECT_EQ(gauge.value(), 10);
  gauge.raise_to(7);  // never lowers
  EXPECT_EQ(gauge.value(), 10);
}

TEST(Registry, ReRegistrationReturnsTheSameInstrument) {
  Registry registry;
  Counter& first = registry.counter("x.total", "items", "help");
  first.inc(3);
  Counter& second = registry.counter("x.total", "items", "help");
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(second.value(), 3u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(Registry, KindMismatchFailsLoudly) {
  Registry registry;
  registry.counter("x.total", "items", "help");
  EXPECT_THROW(registry.gauge("x.total", "items", "help"), ContractViolation);
}

TEST(Registry, ToJsonPreservesRegistrationOrderAndValues) {
  Registry registry;
  registry.counter("a.total", "items", "first").inc(7);
  registry.gauge("b.now", "items", "second").set(-2);
  registry.histogram("c.ns", "ns", "third").record(5);

  const io::Json::Array metrics = registry.to_json();
  ASSERT_EQ(metrics.size(), 3u);
  EXPECT_EQ(metrics[0].at("name").as_string(), "a.total");
  EXPECT_EQ(metrics[0].at("type").as_string(), "counter");
  EXPECT_EQ(metrics[0].at("value").as_uint64(), 7u);
  EXPECT_EQ(metrics[1].at("name").as_string(), "b.now");
  EXPECT_EQ(metrics[1].at("value").as_int64(), -2);
  EXPECT_EQ(metrics[2].at("name").as_string(), "c.ns");
  EXPECT_EQ(metrics[2].at("count").as_uint64(), 1u);
  EXPECT_EQ(metrics[2].at("p50").as_uint64(), 5u);
}

TEST(Journal, RecordsAndIteratesOldestFirst) {
  Journal journal(8);
  journal.record(obs::EventType::kOpen, "t1", "mtc");
  journal.record(obs::EventType::kBusy, "t1");
  journal.record(obs::EventType::kDrain);
  const std::vector<obs::Event> events = journal.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].type, obs::EventType::kOpen);
  EXPECT_EQ(events[0].tenant, "t1");
  EXPECT_EQ(events[0].detail, "mtc");
  EXPECT_EQ(events[2].type, obs::EventType::kDrain);
  EXPECT_EQ(journal.dropped(), 0u);
}

TEST(Journal, BoundedRingEvictsOldestAndCountsDrops) {
  Journal journal(4);
  for (int i = 0; i < 10; ++i) journal.record(obs::EventType::kBusy, "t");
  EXPECT_EQ(journal.total(), 10u);
  EXPECT_EQ(journal.dropped(), 6u);
  const std::vector<obs::Event> events = journal.events();
  ASSERT_EQ(events.size(), 4u);
  // Seq numbers stay continuous: the retained window is the newest 4.
  EXPECT_EQ(events.front().seq, 6u);
  EXPECT_EQ(events.back().seq, 9u);
  // at(seq) reads the same retained window in place.
  for (std::uint64_t seq = journal.dropped(); seq < journal.total(); ++seq)
    EXPECT_EQ(journal.at(seq).seq, seq);
}

TEST(Journal, EventToJsonSchema) {
  Journal journal(2);
  journal.record(obs::EventType::kError, "bad-tenant", "speed violation");
  const io::Json doc = Journal::event_to_json(journal.events().front());
  EXPECT_EQ(doc.at("seq").as_uint64(), 0u);
  EXPECT_GT(doc.at("ms").as_uint64(), 0u);
  EXPECT_EQ(doc.at("event").as_string(), "error");
  EXPECT_EQ(doc.at("tenant").as_string(), "bad-tenant");
  EXPECT_EQ(doc.at("detail").as_string(), "speed violation");

  // Service-wide events omit the empty tenant/detail members.
  journal.record(obs::EventType::kDrain);
  const io::Json drain = Journal::event_to_json(journal.events().back());
  EXPECT_EQ(drain.find("tenant"), nullptr);
  EXPECT_EQ(drain.find("detail"), nullptr);
}

}  // namespace
}  // namespace mobsrv
