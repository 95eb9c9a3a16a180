// Tests for the MSRVSS2 segmented snapshot codec (serve/snapshot.hpp):
//   * base + delta chains merge in order (open/close/upsert semantics);
//   * incremental saves cost O(progress): delta bytes scale with the
//     number of dirty slots, not the population — the acceptance assert;
//   * a torn trailing segment (crash mid-append) is silently dropped, a
//     complete segment with a bad CRC fails loudly;
//   * monolithic v1 snapshot files are still readable;
//   * inspect_snapshot reports the chain shape the compaction policy uses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/session_multiplexer.hpp"
#include "io/bytes.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/snapshot.hpp"
#include "serve/tenant_table.hpp"
#include "trace/checkpoint.hpp"

namespace mobsrv {
namespace {

namespace fs = std::filesystem;
using serve::ServiceSnapshot;
using serve::SnapshotFileInfo;
using serve::SnapshotSegment;

/// A real tenant table + mux, the way Service drives them: valid specs,
/// growable workloads, genuine engine checkpoint records.
struct Harness {
  par::ThreadPool pool{2};
  core::SessionMultiplexer mux{pool};
  serve::TenantTable table;

  serve::Tenant& open(const std::string& name, std::size_t steps) {
    serve::TenantSpec spec;
    spec.tenant = name;
    spec.algorithm = "MtC";
    spec.dim = 2;
    spec.speed_factor = 1.5;
    spec.starts = {sim::Point::zero(2)};
    serve::Tenant& tenant = table.admit(std::move(spec), mux);
    feed(tenant, steps);
    return tenant;
  }

  void feed(serve::Tenant& tenant, std::size_t steps) {
    sim::RequestBatch batch;
    batch.requests = {geo::Point{1.25, -0.5}};
    for (std::size_t t = 0; t < steps; ++t) tenant.workload->push_step(batch);
    mux.poke(tenant.slot);
  }

  [[nodiscard]] SnapshotSegment base_segment() const {
    SnapshotSegment segment;
    for (const auto& tenant : table.entries()) {
      segment.opened.push_back(tenant->spec);
      segment.opened_slots.push_back(tenant->slot);
      segment.record_slots.push_back(tenant->slot);
      segment.records.push_back(mux.checkpoint_slot(tenant->slot));
    }
    return segment;
  }

  [[nodiscard]] SnapshotSegment dirty_delta() const {
    SnapshotSegment segment;
    for (const std::size_t slot : mux.dirty_slots()) {
      segment.record_slots.push_back(slot);
      segment.records.push_back(mux.checkpoint_slot(slot));
    }
    return segment;
  }
};

class ServeSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mobsrv_snap_" + std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(ServeSnapshotTest, BaseThenDeltasMergeInOrder) {
  Harness h;
  h.open("alpha", 6);
  h.open("beta", 6);
  h.mux.drain();
  h.mux.mark_saved();
  const fs::path path = dir_ / "chain.msrvss";
  serve::write_snapshot_base(path, h.base_segment());

  // Only alpha steps: the delta carries exactly one record.
  h.feed(*h.table.find("alpha"), 3);
  h.mux.drain();
  SnapshotSegment delta = h.dirty_delta();
  ASSERT_EQ(delta.records.size(), 1u);
  EXPECT_EQ(delta.records[0].tenant, "alpha");
  h.mux.mark_saved();
  serve::append_snapshot_delta(path, delta);

  // A newly opened tenant rides a later delta (spec + record together);
  // beta closes in the same one.
  serve::Tenant& gamma = h.open("gamma", 4);
  h.mux.drain();
  SnapshotSegment churn;
  churn.opened.push_back(gamma.spec);
  churn.opened_slots.push_back(gamma.slot);
  churn.closed_slots.push_back(h.table.find("beta")->slot);
  h.mux.close(h.table.find("beta")->slot);
  h.table.erase("beta");
  for (const std::size_t slot : h.mux.dirty_slots()) {
    churn.record_slots.push_back(slot);
    churn.records.push_back(h.mux.checkpoint_slot(slot));
  }
  serve::append_snapshot_delta(path, churn);

  const ServiceSnapshot merged = serve::read_snapshot(path);
  ASSERT_EQ(merged.tenants.size(), 2u);
  EXPECT_EQ(merged.tenants[0].tenant, "alpha");
  EXPECT_EQ(merged.tenants[1].tenant, "gamma");
  EXPECT_EQ(merged.records[0].cursor, 9u);  // 6 base + 3 delta
  EXPECT_EQ(merged.records[1].cursor, 4u);
  // The engine state round-trips bit-exactly through the chain.
  const core::SessionCheckpointRecord live = h.mux.checkpoint_slot(h.table.find("alpha")->slot);
  EXPECT_EQ(trace::encode_checkpoint({merged.records[0]}), trace::encode_checkpoint({live}));
}

TEST_F(ServeSnapshotTest, DeltaBytesScaleWithProgressNotPopulation) {
  // The acceptance assert: an incremental save re-serialises the dirty
  // slots only, so its size tracks steps-since-save, not session count.
  Harness h;
  constexpr std::size_t kTenants = 32;
  for (std::size_t t = 0; t < kTenants; ++t)
    h.open("tenant-" + std::to_string(t), 4);
  h.mux.drain();
  h.mux.mark_saved();
  const fs::path path = dir_ / "scale.msrvss";
  const std::uint64_t base_bytes = serve::write_snapshot_base(path, h.base_segment());

  h.feed(*h.table.find("tenant-0"), 2);
  h.mux.drain();
  const SnapshotSegment one_dirty = h.dirty_delta();
  ASSERT_EQ(one_dirty.records.size(), 1u);
  const std::uint64_t one_bytes = serve::append_snapshot_delta(path, one_dirty);
  h.mux.mark_saved();

  for (std::size_t t = 0; t < 8; ++t) h.feed(*h.table.find("tenant-" + std::to_string(t)), 2);
  h.mux.drain();
  const SnapshotSegment eight_dirty = h.dirty_delta();
  ASSERT_EQ(eight_dirty.records.size(), 8u);
  const std::uint64_t eight_bytes = serve::append_snapshot_delta(path, eight_dirty);
  h.mux.mark_saved();

  EXPECT_LT(one_bytes, eight_bytes);
  EXPECT_LT(eight_bytes, base_bytes);
  EXPECT_LT(one_bytes * 4, base_bytes)
      << "a one-slot delta must be far smaller than a " << kTenants << "-session base";

  // The merged chain still reflects every save.
  const ServiceSnapshot merged = serve::read_snapshot(path);
  ASSERT_EQ(merged.tenants.size(), kTenants);
  EXPECT_EQ(merged.records[0].cursor, 8u);   // 4 + 2 + 2
  EXPECT_EQ(merged.records[7].cursor, 6u);   // 4 + 2
  EXPECT_EQ(merged.records[20].cursor, 4u);  // untouched since the base
}

TEST_F(ServeSnapshotTest, TornTrailingSegmentIsDroppedBadCrcIsLoud) {
  Harness h;
  h.open("alpha", 5);
  h.mux.drain();
  h.mux.mark_saved();
  const fs::path path = dir_ / "torn.msrvss";
  serve::write_snapshot_base(path, h.base_segment());
  h.feed(*h.table.find("alpha"), 2);
  h.mux.drain();
  serve::append_snapshot_delta(path, h.dirty_delta());

  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  const auto write_variant = [&](const std::string& name, const std::string& content) {
    const fs::path variant = dir_ / name;
    std::ofstream out(variant, std::ios::binary);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    return variant;
  };

  // Chop the delta mid-payload: a crash mid-append. The reader falls back
  // to the base — the previous save, a valid quiescent point.
  const ServiceSnapshot fallback =
      serve::read_snapshot(write_variant("chopped", bytes.substr(0, bytes.size() - 5)));
  ASSERT_EQ(fallback.tenants.size(), 1u);
  EXPECT_EQ(fallback.records[0].cursor, 5u);

  // A COMPLETE segment whose CRC lies is corruption, never dropped.
  std::string corrupt = bytes;
  corrupt[bytes.size() - 3] ^= 0x40;  // inside the final delta's payload
  EXPECT_THROW(serve::read_snapshot(write_variant("bad-crc", corrupt)), trace::TraceError);

  // A chain whose first complete segment is a delta has no quiescent point.
  const std::string headerless = bytes.substr(0, 12);  // magic + version only
  EXPECT_THROW(serve::read_snapshot(write_variant("no-segment", headerless)),
               trace::TraceError);
}

TEST_F(ServeSnapshotTest, FlipInThePayloadsSubWordTailFailsTheCrc) {
  // The CRC folds 8-byte words and finishes the last payload_size % 8
  // bytes one at a time; a flip there must fail as loudly as one in a word.
  // Tenant names of 1..4 characters change the payload size by 2 bytes
  // each, so at least one of them leaves a tail.
  for (std::size_t name_length = 1; name_length <= 4; ++name_length) {
    Harness h;
    h.open(std::string(name_length, 'n'), 3);
    h.mux.drain();
    const std::string segment = serve::encode_snapshot_segment(h.base_segment(), /*base=*/true);
    const std::size_t payload_size = segment.size() - 13;  // u8 tag + u64 size + u32 crc
    const std::size_t tail = payload_size % 8;
    if (tail == 0) continue;
    const fs::path path = dir_ / "tail.msrvss";
    serve::write_snapshot_base(path, h.base_segment());
    const std::string bytes = trace::read_bytes(path);
    ASSERT_EQ(bytes.size(), 12 + segment.size());  // magic + u32 version, then the segment
    for (std::size_t at = bytes.size() - tail; at < bytes.size(); ++at) {
      std::string corrupt = bytes;
      corrupt[at] ^= 0x01;
      try {
        (void)serve::read_snapshot_bytes(corrupt, "tail");
        ADD_FAILURE() << "flip at byte " << at << " was not detected";
      } catch (const trace::TraceError& error) {
        EXPECT_NE(std::string(error.what()).find("CRC mismatch"), std::string::npos)
            << error.what();
      }
    }
    return;
  }
  FAIL() << "no tenant name length left a sub-word payload tail";
}

TEST_F(ServeSnapshotTest, MonolithicV1FilesStillReadable) {
  Harness h;
  h.open("legacy", 7);
  h.mux.drain();
  ServiceSnapshot snapshot;
  for (const auto& tenant : h.table.entries()) snapshot.tenants.push_back(tenant->spec);
  snapshot.records = h.mux.checkpoint();
  const fs::path path = dir_ / "legacy.msrvss";
  serve::write_snapshot(path, snapshot);  // the v1 writer

  const ServiceSnapshot back = serve::read_snapshot(path);
  ASSERT_EQ(back.tenants.size(), 1u);
  EXPECT_EQ(back.tenants[0].tenant, "legacy");
  EXPECT_EQ(back.records[0].cursor, 7u);
  const SnapshotFileInfo info = serve::inspect_snapshot(path);
  EXPECT_EQ(info.version, 1u);
  EXPECT_EQ(info.segments, 1u);
  EXPECT_EQ(info.base_bytes, fs::file_size(path));
  EXPECT_EQ(info.delta_bytes, 0u);
}

TEST_F(ServeSnapshotTest, InspectReportsChainShape) {
  Harness h;
  h.open("alpha", 4);
  h.mux.drain();
  h.mux.mark_saved();
  const fs::path path = dir_ / "shape.msrvss";
  const std::uint64_t base_bytes = serve::write_snapshot_base(path, h.base_segment());
  std::uint64_t delta_bytes = 0;
  for (int saves = 0; saves < 3; ++saves) {
    h.feed(*h.table.find("alpha"), 1);
    h.mux.drain();
    delta_bytes += serve::append_snapshot_delta(path, h.dirty_delta());
    h.mux.mark_saved();
  }
  const SnapshotFileInfo info = serve::inspect_snapshot(path);
  EXPECT_EQ(info.version, serve::kSnapshotVersionV2);
  EXPECT_EQ(info.segments, 4u);
  EXPECT_EQ(info.base_bytes, base_bytes);
  EXPECT_EQ(info.delta_bytes, delta_bytes);

  // A fresh base (compaction) resets the chain.
  const std::uint64_t compacted = serve::write_snapshot_base(path, h.base_segment());
  const SnapshotFileInfo after = serve::inspect_snapshot(path);
  EXPECT_EQ(after.segments, 1u);
  EXPECT_EQ(after.base_bytes, compacted);
  EXPECT_EQ(after.delta_bytes, 0u);

  // Appending to a missing or non-MSRVSS2 file fails loudly.
  EXPECT_THROW(serve::append_snapshot_delta(dir_ / "missing.msrvss", h.dirty_delta()),
               trace::TraceError);
}

// ---------------------------------------------------------------------------
// Torture: the crash-consistency contract, enumerated rather than sampled.
// `mobsrv_trace chaos` runs the same sweeps against arbitrary chains in CI;
// these in-process versions pin the invariants on a known chain so a
// regression is caught in `ctest`, not only in the fuzz job.

/// A base + two deltas, returning the raw chain bytes and the byte offset of
/// every complete-segment boundary (positions a crashed writer could have
/// legitimately left the file at).
struct TortureChain {
  std::string bytes;
  std::vector<std::uint64_t> boundaries;
  std::vector<std::string> prefix_states;  // canonical encoding per boundary
};

TortureChain build_torture_chain(Harness& h, const fs::path& path) {
  TortureChain chain;
  h.open("alpha", 5);
  h.open("beta", 3);
  h.mux.drain();
  h.mux.mark_saved();
  serve::write_snapshot_base(path, h.base_segment());
  chain.boundaries.push_back(fs::file_size(path));
  for (int saves = 0; saves < 2; ++saves) {
    h.feed(*h.table.find("alpha"), 2);
    h.mux.drain();
    serve::append_snapshot_delta(path, h.dirty_delta());
    h.mux.mark_saved();
    chain.boundaries.push_back(fs::file_size(path));
  }
  std::ifstream in(path, std::ios::binary);
  chain.bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  for (const std::uint64_t boundary : chain.boundaries)
    chain.prefix_states.push_back(serve::encode_snapshot(
        serve::read_snapshot_bytes(chain.bytes.substr(0, boundary), "prefix")));
  return chain;
}

TEST_F(ServeSnapshotTest, TruncationAtEveryByteOffsetLoadsThePrefixOrFailsLoudly) {
  Harness h;
  const TortureChain chain = build_torture_chain(h, dir_ / "sweep.msrvss");
  ASSERT_EQ(chain.boundaries.back(), chain.bytes.size());

  for (std::size_t len = 0; len <= chain.bytes.size(); ++len) {
    // The longest complete prefix a crash at `len` preserves, if any.
    int prefix = -1;
    for (std::size_t b = 0; b < chain.boundaries.size(); ++b)
      if (chain.boundaries[b] <= len) prefix = static_cast<int>(b);
    const std::string cut = chain.bytes.substr(0, len);
    if (prefix < 0) {
      // No complete segment survives: the reader must refuse, loudly.
      EXPECT_THROW((void)serve::read_snapshot_bytes(cut, "cut"), trace::TraceError)
          << "truncation to " << len << " bytes was accepted";
      continue;
    }
    // A torn tail is a crash mid-append: silently dropped, and the result
    // is bit-identical to the last completed save.
    std::string state;
    ASSERT_NO_THROW(state = serve::encode_snapshot(serve::read_snapshot_bytes(cut, "cut")))
        << "truncation to " << len << " bytes failed loudly past a complete segment";
    EXPECT_EQ(state, chain.prefix_states[static_cast<std::size_t>(prefix)])
        << "truncation to " << len << " bytes loaded a state that is not the longest prefix";
  }
}

TEST_F(ServeSnapshotTest, BitFlipsNeverLoadAStateOutsideTheChain) {
  Harness h;
  const TortureChain chain = build_torture_chain(h, dir_ / "flips.msrvss");

  // Flipping a size field can legitimately tear the tail (the reader sees a
  // truncated chain), so the contract is: every single-bit flip either fails
  // with TraceError or loads to SOME complete-prefix state — never a novel
  // state, never a foreign exception. One bit per byte keeps the sweep
  // byte-granular without exploding to 8x runtime; the rotating bit index
  // still exercises every bit position.
  for (std::size_t offset = 0; offset < chain.bytes.size(); ++offset) {
    std::string mutated = chain.bytes;
    mutated[offset] = static_cast<char>(mutated[offset] ^ (1u << (offset % 8)));
    try {
      const std::string state =
          serve::encode_snapshot(serve::read_snapshot_bytes(mutated, "flip"));
      EXPECT_NE(std::find(chain.prefix_states.begin(), chain.prefix_states.end(), state),
                chain.prefix_states.end())
          << "bit flip at byte " << offset << " loaded a state outside the chain";
    } catch (const trace::TraceError&) {
      // Loud rejection is the expected outcome for most flips.
    }
    // Any other exception type escapes and fails the test — that is the point.
  }
}

/// A spec and record built by hand (not from a run, so no engine change
/// can move them).
serve::TenantSpec pinned_spec(const std::string& name, std::size_t k) {
  serve::TenantSpec spec;
  spec.tenant = name;
  spec.algorithm = k == 1 ? "MtC" : "GreedyCenter";
  spec.seed = 11;
  spec.dim = 2;
  spec.fleet_size = k;
  spec.speed_factor = 1.5;
  spec.params.move_cost_weight = 2.0;
  for (std::size_t i = 0; i < k; ++i) spec.starts.push_back(geo::Point{0.5 * double(i), -0.25});
  return spec;
}

core::SessionCheckpointRecord pinned_record(const serve::TenantSpec& spec, std::size_t cursor) {
  core::SessionCheckpointRecord record;
  record.tenant = spec.tenant;
  record.algorithm = spec.algorithm;
  record.algo_seed = spec.seed;
  record.cursor = cursor;
  record.horizon = cursor + 2;
  sim::SessionCheckpoint& engine = record.engine;
  engine.params = spec.params;
  engine.speed_factor = spec.speed_factor;
  engine.policy = spec.policy;
  engine.step = cursor;
  engine.move_cost = 0.125 * double(cursor);
  engine.service_cost = 1.0 / 3.0;
  engine.servers = spec.starts;
  engine.server_move.assign(spec.starts.size(), 0.0625);
  engine.algorithm = spec.algorithm;
  engine.algorithm_state.words = {cursor};
  engine.algorithm_state.reals = {-0.5};
  engine.algorithm_state.points = {geo::Point{1.25, -0.5}};
  return record;
}

/// The segment encoder's output, pinned by size and CRC-32. A round trip
/// cannot see an encoder and decoder that change together; this can.
TEST_F(ServeSnapshotTest, SegmentEncodingIsPinned) {
  SnapshotSegment base;
  for (std::uint64_t slot = 0; slot < 2; ++slot) {
    base.opened.push_back(pinned_spec("tenant-" + std::to_string(slot), slot == 0 ? 1 : 4));
    base.opened_slots.push_back(slot);
    base.record_slots.push_back(slot);
    base.records.push_back(pinned_record(base.opened.back(), 3 + slot));
  }
  SnapshotSegment delta;
  delta.opened.push_back(pinned_spec("tenant-2", 1));
  delta.opened_slots.push_back(2);
  delta.closed_slots.push_back(1);
  delta.record_slots = {0, 2};
  delta.records = {pinned_record(base.opened[0], 7), pinned_record(delta.opened[0], 1)};

  const std::string base_bytes = serve::encode_snapshot_segment(base, /*base=*/true);
  EXPECT_EQ(base_bytes.size(), 985u);
  EXPECT_EQ(io::crc32(base_bytes), 0xEC2C4563u);
  const std::string delta_bytes = serve::encode_snapshot_segment(delta, /*base=*/false);
  EXPECT_EQ(delta_bytes.size(), 689u);
  EXPECT_EQ(io::crc32(delta_bytes), 0xFF18A930u);

  const fs::path path = dir_ / "pinned.msrvss";
  serve::write_encoded_base(path, base_bytes);
  serve::append_encoded_delta(path, delta_bytes);
  const ServiceSnapshot merged = serve::read_snapshot(path);
  ASSERT_EQ(merged.tenants.size(), 2u);
  EXPECT_EQ(merged.tenants[1].tenant, "tenant-2");
  EXPECT_EQ(trace::encode_checkpoint(merged.records), trace::encode_checkpoint(delta.records));
}

}  // namespace
}  // namespace mobsrv
