// Unit tests for trace/codec: JSONL <-> binary round-trip equality, codec
// sniffing, and loud rejection of corrupt or truncated files.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "io/bytes.hpp"
#include "stats/rng.hpp"
#include "trace/codec.hpp"

namespace mobsrv::trace {
namespace {

namespace fs = std::filesystem;

class TraceCodecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mobsrv_codec_" + std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

/// A 2-D trace exercising every optional section: irregular batches, a
/// moving client, an adversary solution, and two recorded runs (one with
/// per-step costs, one without).
TraceFile make_full_trace() {
  stats::Rng rng(42);
  sim::ModelParams params;
  params.move_cost_weight = 4.0;
  params.max_step = 1.0;
  params.order = sim::ServiceOrder::kServeThenMove;
  std::vector<sim::RequestBatch> steps(5);
  for (std::size_t t = 0; t < steps.size(); ++t)
    for (std::size_t i = 0; i < t; ++i)  // batch sizes 0..4, awkward doubles
      steps[t].requests.push_back(sim::Point{rng.uniform(-3.0, 3.0), 1.0 / 3.0 * double(i + 1)});

  TraceFile file(TraceMeta{"unit-test", "test", 0xfeedfacecafebeefULL},
                 sim::Instance(sim::Point{0.1, -0.25}, params, steps));

  sim::MovingClientInstance mc;
  mc.start = sim::Point{0.1, -0.25};
  mc.server_speed = 1.0;
  mc.agent_speed = 0.75;
  mc.move_cost_weight = 4.0;
  sim::AgentPath path;
  sim::Point pos = mc.start;
  for (std::size_t t = 0; t < steps.size(); ++t) {
    pos = pos + sim::Point{0.5, 0.1};
    path.positions.push_back(pos);
  }
  mc.agents.push_back(path);
  file.moving_client = mc;

  AdversaryInfo adv;
  adv.cost = 17.125;
  for (std::size_t t = 0; t <= steps.size(); ++t)
    adv.positions.push_back(sim::Point{0.3 * double(t), 0.0});
  file.adversary = adv;

  RecordedRun run1;
  run1.algorithm = "MtC";
  run1.algo_seed = 7;
  run1.speed_factor = 1.5;
  run1.policy = sim::SpeedLimitPolicy::kClamp;
  run1.total_cost = 12.34;
  run1.move_cost = 4.0;
  run1.service_cost = 8.34;
  for (std::size_t t = 0; t <= steps.size(); ++t)
    run1.positions.push_back(sim::Point{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)});
  for (std::size_t t = 0; t < steps.size(); ++t)
    run1.step_costs.push_back(sim::StepCost{rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0)});
  file.runs.push_back(run1);

  RecordedRun run2;
  run2.algorithm = "Lazy";
  run2.total_cost = run2.service_cost = 99.5;
  for (std::size_t t = 0; t <= steps.size(); ++t) run2.positions.push_back(sim::Point{0.1, -0.25});
  file.runs.push_back(run2);
  return file;
}

void write_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(TraceCodecTest, JsonlRoundTripIsIdentical) {
  const TraceFile original = make_full_trace();
  const fs::path path = dir_ / "t.jsonl";
  write_trace(path, original);
  EXPECT_TRUE(identical(original, read_trace(path)));
}

TEST_F(TraceCodecTest, BinaryRoundTripIsIdentical) {
  const TraceFile original = make_full_trace();
  const fs::path path = dir_ / "t.mtb";
  write_trace(path, original);
  EXPECT_TRUE(identical(original, read_trace(path)));
}

TEST_F(TraceCodecTest, CodecsAreInterchangeable) {
  const TraceFile original = make_full_trace();
  const fs::path jsonl = dir_ / "t.jsonl";
  const fs::path binary = dir_ / "t.mtb";
  write_trace(jsonl, original);
  // jsonl -> memory -> binary -> memory must stay identical.
  const TraceFile from_jsonl = read_trace(jsonl);
  write_trace(binary, from_jsonl);
  const TraceFile from_binary = read_trace(binary);
  EXPECT_TRUE(identical(original, from_binary));
  // The binary form is the compact one.
  EXPECT_LT(fs::file_size(binary), fs::file_size(jsonl));
}

TEST_F(TraceCodecTest, CodecForPath) {
  EXPECT_EQ(codec_for_path("a/b.jsonl"), Codec::kJsonl);
  EXPECT_EQ(codec_for_path("a/b.mtb"), Codec::kBinary);
  EXPECT_THROW((void)codec_for_path("a/b.txt"), TraceError);
}

TEST_F(TraceCodecTest, MissingFileIsALoudError) {
  try {
    (void)read_trace(dir_ / "nope.jsonl");
    FAIL() << "expected TraceError";
  } catch (const TraceError& error) {
    EXPECT_NE(std::string(error.what()).find("nope.jsonl"), std::string::npos);
  }
}

TEST_F(TraceCodecTest, TruncatedJsonlIsRejectedWithStepCount) {
  const std::string bytes = encode_trace(make_full_trace(), Codec::kJsonl);
  // Cut in the middle of the batch lines.
  const std::size_t first_nl = bytes.find('\n');
  const std::size_t second_nl = bytes.find('\n', first_nl + 1);
  try {
    (void)decode_trace(bytes.substr(0, second_nl + 1), "cut.jsonl");
    FAIL() << "expected TraceError";
  } catch (const TraceError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("cut.jsonl"), std::string::npos);
    EXPECT_NE(what.find("truncated"), std::string::npos);
  }
}

TEST_F(TraceCodecTest, MissingEndMarkerIsRejected) {
  std::string bytes = encode_trace(make_full_trace(), Codec::kJsonl);
  // Drop the final end-marker line.
  const std::size_t cut = bytes.rfind('\n', bytes.size() - 2);
  try {
    (void)decode_trace(bytes.substr(0, cut + 1), "noend.jsonl");
    FAIL() << "expected TraceError";
  } catch (const TraceError& error) {
    EXPECT_NE(std::string(error.what()).find("end marker"), std::string::npos);
  }
}

TEST_F(TraceCodecTest, CorruptJsonLineIsRejectedWithLineInfo) {
  std::string bytes = encode_trace(make_full_trace(), Codec::kJsonl);
  bytes[bytes.find('\n') + 1] = '%';  // mangle the first batch line
  try {
    (void)decode_trace(bytes, "bad.jsonl");
    FAIL() << "expected TraceError";
  } catch (const TraceError& error) {
    EXPECT_NE(std::string(error.what()).find("corrupt"), std::string::npos);
  }
}

TEST_F(TraceCodecTest, TruncatedBinaryIsRejected) {
  const std::string bytes = encode_trace(make_full_trace(), Codec::kBinary);
  for (const std::size_t keep : {bytes.size() / 4, bytes.size() / 2, bytes.size() - 3}) {
    try {
      (void)decode_trace(bytes.substr(0, keep), "cut.mtb");
      FAIL() << "expected TraceError for prefix of " << keep << " bytes";
    } catch (const TraceError& error) {
      EXPECT_NE(std::string(error.what()).find("cut.mtb"), std::string::npos);
    }
  }
}

/// Decodes \p bytes and swallows TraceError: the only failure a damaged
/// file may produce. Any other exception escapes into the caller's
/// EXPECT_NO_THROW, and an out-of-bounds read trips asan/ubsan.
void decode_or_trace_error(const std::string& bytes) {
  try {
    (void)decode_trace(bytes, "sweep.mtb");
  } catch (const TraceError&) {
  }
}

TEST_F(TraceCodecTest, EveryTruncationOfABinaryTraceIsATraceError) {
  const std::string bytes = encode_trace(make_full_trace(), Codec::kBinary);
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    EXPECT_THROW((void)decode_trace(bytes.substr(0, keep), "cut.mtb"), TraceError) << keep;
  }
}

TEST_F(TraceCodecTest, EverySingleBitFlipOfABinaryTraceDecodesOrIsATraceError) {
  const std::string bytes = encode_trace(make_full_trace(), Codec::kBinary);
  std::string mutant = bytes;
  for (std::size_t offset = 0; offset < bytes.size(); ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      mutant[offset] = static_cast<char>(bytes[offset] ^ (1 << bit));
      EXPECT_NO_THROW(decode_or_trace_error(mutant)) << offset << "." << bit;
    }
    mutant[offset] = bytes[offset];
  }
}

/// The binary encoder's output, pinned by size and CRC-32. A round trip
/// cannot see an encoder and decoder that change together; this can.
TEST_F(TraceCodecTest, BinaryEncodingIsPinned) {
  const std::string bytes = encode_trace(make_full_trace(), Codec::kBinary);
  EXPECT_EQ(bytes.size(), 965u);
  EXPECT_EQ(io::crc32(bytes), 0x82ADE9FBu);
}

TEST_F(TraceCodecTest, BadMagicIsRejected) {
  std::string bytes = encode_trace(make_full_trace(), Codec::kBinary);
  bytes[0] = 'X';
  EXPECT_THROW((void)decode_trace(bytes, "junk.mtb"), TraceError);
  const fs::path path = dir_ / "junk.mtb";
  write_bytes(path, "XYZW not a trace at all");
  EXPECT_THROW((void)read_trace(path), TraceError);
}

TEST_F(TraceCodecTest, VersionMismatchIsExplicit) {
  std::string bytes = encode_trace(make_full_trace(), Codec::kBinary);
  bytes[8] = 99;  // version field follows the 8-byte magic
  try {
    (void)decode_trace(bytes, "v99.mtb");
    FAIL() << "expected TraceError";
  } catch (const TraceError& error) {
    EXPECT_NE(std::string(error.what()).find("version"), std::string::npos);
  }
}

TEST_F(TraceCodecTest, InvalidModelParamsAreRejected) {
  // D < 1 violates the model; the decoder must reject it as corrupt data
  // rather than crash with a bare contract violation.
  std::string bytes = encode_trace(make_full_trace(), Codec::kJsonl);
  const std::size_t d_pos = bytes.find("\"D\":4");
  ASSERT_NE(d_pos, std::string::npos);
  bytes.replace(d_pos, 5, "\"D\":0");
  EXPECT_THROW((void)decode_trace(bytes, "badD.jsonl"), TraceError);
}

TEST_F(TraceCodecTest, EmptyFileIsRejected) {
  EXPECT_THROW((void)decode_trace("", "empty"), TraceError);
}

TEST_F(TraceCodecTest, MinimalInstanceWithoutOptionalSections) {
  sim::ModelParams params;
  std::vector<sim::RequestBatch> steps(3);
  steps[1].requests.push_back(sim::Point{2.0});
  TraceFile file(TraceMeta{"mini", "test", 1}, sim::Instance(sim::Point{0.0}, params, steps));
  for (const Codec codec : {Codec::kJsonl, Codec::kBinary}) {
    const TraceFile back = decode_trace(encode_trace(file, codec), "mini");
    EXPECT_TRUE(identical(file, back)) << to_string(codec);
    EXPECT_FALSE(back.moving_client.has_value());
    EXPECT_FALSE(back.adversary.has_value());
    EXPECT_TRUE(back.runs.empty());
  }
}

}  // namespace
}  // namespace mobsrv::trace
