#include "trace/checkpoint.hpp"

#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "fault/injector.hpp"
#include "io/bytes.hpp"

namespace mobsrv::trace {

namespace {

constexpr std::string_view kMagic = "MSCKPT1\n";

enum RecordTag : std::uint8_t {
  kRecordSession = 1,
  kRecordEnd = 0xFF,
};

using io::put_f64, io::put_str, io::put_u32, io::put_u64, io::put_u8;

void put_point(std::string& out, const sim::Point& p) {
  put_u8(out, static_cast<std::uint8_t>(p.dim()));
  for (int i = 0; i < p.dim(); ++i) put_f64(out, p[i]);
}

void put_points(std::string& out, const std::vector<sim::Point>& points) {
  put_u64(out, points.size());
  for (const sim::Point& p : points) put_point(out, p);
}

void encode_record(std::string& payload, const core::SessionCheckpointRecord& record) {
  put_str(payload, record.tenant);
  put_str(payload, record.algorithm);
  put_u64(payload, record.algo_seed);
  put_u64(payload, record.cursor);
  put_u64(payload, record.horizon);

  const sim::SessionCheckpoint& engine = record.engine;
  put_u8(payload, engine.params.order == sim::ServiceOrder::kMoveThenServe ? 0 : 1);
  put_f64(payload, engine.params.move_cost_weight);
  put_f64(payload, engine.params.max_step);
  put_f64(payload, engine.speed_factor);
  put_u8(payload, engine.policy == sim::SpeedLimitPolicy::kThrow ? 0 : 1);
  put_u64(payload, engine.step);
  put_f64(payload, engine.move_cost);
  put_f64(payload, engine.service_cost);
  put_points(payload, engine.servers);
  put_u64(payload, engine.server_move.size());
  for (double move : engine.server_move) put_f64(payload, move);
  put_str(payload, engine.algorithm);
  const sim::AlgorithmState& state = engine.algorithm_state;
  put_u64(payload, state.words.size());
  for (std::uint64_t w : state.words) put_u64(payload, w);
  put_u64(payload, state.reals.size());
  for (double r : state.reals) put_f64(payload, r);
  put_points(payload, state.points);
}

sim::Point read_point(io::ByteReader& r) {
  const int dim = r.u8();
  if (dim < 1 || dim > sim::Point::kMaxDim)
    fail(r.origin(), "corrupt session record: point dimension " + std::to_string(dim) +
                         " out of range [1, " + std::to_string(sim::Point::kMaxDim) + "]");
  sim::Point p(dim);
  for (int i = 0; i < dim; ++i) p[i] = r.f64();
  return p;
}

std::vector<sim::Point> read_points(io::ByteReader& r) {
  const std::uint64_t n = r.count("point", 9);
  std::vector<sim::Point> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(read_point(r));
  return out;
}

core::SessionCheckpointRecord decode_record(io::ByteReader& r) {
  core::SessionCheckpointRecord record;
  record.tenant = r.str();
  record.algorithm = r.str();
  record.algo_seed = r.u64();
  record.cursor = r.u64();
  record.horizon = r.u64();
  if (record.cursor > record.horizon)
    fail(r.origin(), "corrupt session record: cursor " + std::to_string(record.cursor) +
                         " beyond horizon " + std::to_string(record.horizon));

  sim::SessionCheckpoint& engine = record.engine;
  engine.params.order =
      r.u8() == 0 ? sim::ServiceOrder::kMoveThenServe : sim::ServiceOrder::kServeThenMove;
  engine.params.move_cost_weight = r.f64();
  engine.params.max_step = r.f64();
  engine.speed_factor = r.f64();
  engine.policy = r.u8() == 0 ? sim::SpeedLimitPolicy::kThrow : sim::SpeedLimitPolicy::kClamp;
  engine.step = r.u64();
  engine.move_cost = r.f64();
  engine.service_cost = r.f64();
  engine.servers = read_points(r);
  const std::uint64_t splits = r.count("move-split", 8);
  engine.server_move.reserve(splits);
  for (std::uint64_t i = 0; i < splits; ++i) engine.server_move.push_back(r.f64());
  engine.algorithm = r.str();
  sim::AlgorithmState& state = engine.algorithm_state;
  const std::uint64_t words = r.count("state word", 8);
  state.words.reserve(words);
  for (std::uint64_t i = 0; i < words; ++i) state.words.push_back(r.u64());
  const std::uint64_t reals = r.count("state real", 8);
  state.reals.reserve(reals);
  for (std::uint64_t i = 0; i < reals; ++i) state.reals.push_back(r.f64());
  state.points = read_points(r);

  if (engine.servers.empty())
    fail(r.origin(), "corrupt session record: no server positions");
  if (engine.server_move.size() != engine.servers.size())
    fail(r.origin(), "corrupt session record: per-server move split holds " +
                         std::to_string(engine.server_move.size()) + " entries for " +
                         std::to_string(engine.servers.size()) + " servers");
  if (engine.step != record.cursor)
    fail(r.origin(), "corrupt session record: engine step " + std::to_string(engine.step) +
                         " disagrees with cursor " + std::to_string(record.cursor));
  return record;
}

}  // namespace

std::string encode_checkpoint(const std::vector<core::SessionCheckpointRecord>& records) {
  std::string out;
  out.append(kMagic);
  put_u32(out, kCheckpointVersion);
  put_u64(out, records.size());

  std::string payload;
  for (const core::SessionCheckpointRecord& record : records) {
    payload.clear();
    encode_record(payload, record);
    put_u8(out, kRecordSession);
    put_u64(out, payload.size());
    out += payload;
  }
  put_u8(out, kRecordEnd);
  put_u64(out, 0);
  return out;
}

std::vector<core::SessionCheckpointRecord> decode_checkpoint(std::string_view bytes,
                                                             const std::string& origin) {
  if (!bytes.starts_with(kMagic)) fail(origin, "not a mobsrv checkpoint file (bad magic)");
  io::ByteReader r(bytes, origin, fail);
  r.take(kMagic.size());
  r.set_context("version");
  const std::uint32_t version = r.u32();
  if (version != kCheckpointVersion)
    fail(origin, "unsupported checkpoint format version " + std::to_string(version) +
                     " (this build reads version " + std::to_string(kCheckpointVersion) + ")");
  r.set_context("record count");
  const std::uint64_t expected = r.u64();
  if (expected > bytes.size())
    fail(origin, "corrupt header: implausible record count " + std::to_string(expected));

  std::vector<core::SessionCheckpointRecord> records;
  records.reserve(expected);
  bool saw_end = false;
  while (!saw_end) {
    r.set_context("record header");
    const std::uint8_t tag = r.u8();
    const std::uint64_t size = r.u64();
    if (size > r.remaining())
      fail(origin, "truncated: record (tag " + std::to_string(tag) + ") declares " +
                       std::to_string(size) + " bytes but only " +
                       std::to_string(r.remaining()) + " remain");
    const std::size_t record_start = r.pos();
    switch (tag) {
      case kRecordSession:
        r.set_context("session record");
        records.push_back(decode_record(r));
        break;
      case kRecordEnd:
        if (size != 0) fail(origin, "corrupt end record");
        saw_end = true;
        break;
      default:
        fail(origin, "unknown record tag " + std::to_string(tag) +
                         " (corrupt file or newer format)");
    }
    if (tag != kRecordEnd && r.pos() - record_start != size)
      fail(origin, "corrupt session record: payload declares " + std::to_string(size) +
                       " bytes, decoder consumed " + std::to_string(r.pos() - record_start));
  }
  if (r.remaining() != 0) fail(origin, "trailing data after end record");
  if (records.size() != expected)
    fail(origin, "corrupt file: header announces " + std::to_string(expected) +
                     " sessions, found " + std::to_string(records.size()));
  return records;
}

void fsync_path(const std::filesystem::path& path, bool directory) {
#if defined(__unix__) || defined(__APPLE__)
  const int flags = directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY;
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) {
    // Some filesystems refuse to open directories for fsync; the file-level
    // sync already happened, so a directory open failure is best-effort.
    if (directory) return;
    throw TraceError(path.string() + ": cannot open for fsync");
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0 && !directory) throw TraceError(path.string() + ": fsync failed");
#else
  (void)path;
  (void)directory;
#endif
}

void write_checkpoint(const std::filesystem::path& path,
                      const std::vector<core::SessionCheckpointRecord>& records) {
  write_bytes_atomic(path, encode_checkpoint(records));
}

void write_bytes_atomic(const std::filesystem::path& path, const std::string& bytes,
                        const AtomicWriteOptions& options) {
  write_bytes_atomic(path, {std::string_view(bytes)}, options);
}

void write_bytes_atomic(const std::filesystem::path& path,
                        std::initializer_list<std::string_view> pieces,
                        const AtomicWriteOptions& options) {
  std::filesystem::path tmp = path;
  tmp += ".tmp";
  {
    if (options.faults != nullptr && options.write_site != nullptr)
      options.faults->hit(options.write_site);
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw TraceError(tmp.string() + ": cannot open for writing");
    for (const std::string_view piece : pieces)
      out.write(piece.data(), static_cast<std::streamsize>(piece.size()));
    out.flush();
    if (!out) {
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      throw TraceError(tmp.string() + ": write failed");
    }
  }
  if (options.durable) {
    try {
      if (options.faults != nullptr && options.fsync_site != nullptr)
        options.faults->hit(options.fsync_site);
      fsync_path(tmp, /*directory=*/false);
    } catch (...) {
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      throw;
    }
  }
  if (options.faults != nullptr && options.rename_site != nullptr) {
    try {
      options.faults->hit(options.rename_site);
    } catch (...) {
      std::error_code ignored;
      std::filesystem::remove(tmp, ignored);
      throw;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw TraceError(path.string() + ": atomic rename failed: " + ec.message());
  }
  // The rename is only on disk once the directory entry is — fsync the
  // parent, or a power cut can roll the whole save back.
  if (options.durable) {
    if (options.faults != nullptr && options.fsync_site != nullptr)
      options.faults->hit(options.fsync_site);
    const std::filesystem::path parent = path.has_parent_path()
                                             ? path.parent_path()
                                             : std::filesystem::path(".");
    fsync_path(parent, /*directory=*/true);
  }
}

std::vector<core::SessionCheckpointRecord> read_checkpoint(const std::filesystem::path& path) {
  return decode_checkpoint(read_bytes(path), path.string());
}

}  // namespace mobsrv::trace
