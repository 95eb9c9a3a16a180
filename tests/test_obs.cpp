// Tests for the obs layer: histogram bucket boundaries, nearest-rank
// percentile exactness on known distributions, merge associativity, the
// overflow bucket, counter/gauge semantics, registry registration rules,
// and the bounded event journal.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/contracts.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

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
