#include "serve/snapshot.hpp"

#include <fstream>
#include <map>
#include <utility>

#include "fault/injector.hpp"
#include "io/bytes.hpp"

namespace mobsrv::serve {

namespace {

constexpr std::string_view kMagicV1 = "MSRVSS1\n";
constexpr std::string_view kMagicV2 = "MSRVSS2\n";
constexpr std::uint8_t kEndTag = 0xFF;
constexpr std::uint8_t kSegmentBase = 1;
constexpr std::uint8_t kSegmentDelta = 2;
/// magic + u32 version.
constexpr std::size_t kHeaderSize = kMagicV2.size() + 4;
/// u8 tag + u64 payload size + u32 crc.
constexpr std::size_t kSegmentHeaderSize = 1 + 8 + 4;

using io::put_u32, io::put_u64;
using trace::fail;
using trace::TraceError;

/// A u64 length, then that many bytes.
std::string_view section(io::ByteReader& r, const char* what) {
  r.set_context(what);
  const std::uint64_t n = r.u64();
  if (n > r.remaining())
    fail(r.origin(), std::string("truncated: ") + what + " declares " + std::to_string(n) +
                         " bytes but only " + std::to_string(r.remaining()) + " remain");
  return r.take(n);
}

/// Segment payload codec, shared by base and delta (a base is "everything
/// changed"): JSON table changes, the records' slot ids, the checkpoint
/// bytes, end tag.
std::string encode_segment_payload(const SnapshotSegment& segment) {
  MOBSRV_CHECK_MSG(segment.opened.size() == segment.opened_slots.size(),
                   "segment opened specs and slot ids disagree");
  MOBSRV_CHECK_MSG(segment.records.size() == segment.record_slots.size(),
                   "segment records and slot ids disagree");
  io::Json table = io::Json::object();
  table.set("v", kSnapshotVersionV2);
  io::Json opened = io::Json::array();
  for (std::size_t i = 0; i < segment.opened.size(); ++i) {
    io::Json entry = tenant_spec_to_json(segment.opened[i]);
    entry.set("slot", segment.opened_slots[i]);
    opened.push_back(std::move(entry));
  }
  table.set("opened", std::move(opened));
  io::Json closed = io::Json::array();
  for (const std::uint64_t slot : segment.closed_slots) closed.push_back(slot);
  table.set("closed", std::move(closed));
  const std::string json = table.dump();
  const std::string checkpoint = trace::encode_checkpoint(segment.records);

  std::string out;
  put_u64(out, json.size());
  out += json;
  put_u64(out, segment.record_slots.size());
  for (const std::uint64_t slot : segment.record_slots) put_u64(out, slot);
  put_u64(out, checkpoint.size());
  out += checkpoint;
  out.push_back(static_cast<char>(kEndTag));
  return out;
}

SnapshotSegment decode_segment_payload(std::string_view payload, const std::string& origin) {
  io::ByteReader r(payload, origin, fail);
  SnapshotSegment segment;
  const std::string_view json = section(r, "segment table");
  try {
    const io::Json table = io::Json::parse(json);
    const io::Json* v = table.find("v");
    if (v == nullptr || v->as_uint64() != kSnapshotVersionV2)
      fail(origin, "segment table version disagrees with the file header");
    const io::Json::Array& opened = table.at("opened").as_array();
    segment.opened.reserve(opened.size());
    segment.opened_slots.reserve(opened.size());
    for (const io::Json& entry : opened) {
      const io::Json* slot = entry.find("slot");
      if (slot == nullptr) fail(origin, "opened tenant without a slot id");
      segment.opened.push_back(snapshot_spec_from_json(entry));
      segment.opened_slots.push_back(slot->as_uint64());
    }
    for (const io::Json& slot : table.at("closed").as_array())
      segment.closed_slots.push_back(slot.as_uint64());
  } catch (const TraceError&) {
    throw;
  } catch (const std::exception& error) {
    fail(origin, std::string("corrupt segment table: ") + error.what());
  }
  r.set_context("segment record slots");
  const std::uint64_t n_records = r.count("record slot", 8);
  segment.record_slots.reserve(n_records);
  for (std::uint64_t i = 0; i < n_records; ++i) segment.record_slots.push_back(r.u64());
  const std::string_view checkpoint = section(r, "segment checkpoint");
  r.set_context("segment end tag");
  if (r.u8() != kEndTag) fail(origin, "corrupt segment end tag");
  if (r.remaining() != 0) fail(origin, "trailing data after segment end tag");
  segment.records = trace::decode_checkpoint(checkpoint, origin);
  if (segment.records.size() != segment.record_slots.size())
    fail(origin, "segment lists " + std::to_string(segment.record_slots.size()) +
                     " record slots but the checkpoint holds " +
                     std::to_string(segment.records.size()) + " sessions");
  return segment;
}

}  // namespace

std::string encode_snapshot_segment(const SnapshotSegment& segment, bool base) {
  const std::string payload = encode_segment_payload(segment);
  std::string out;
  out.push_back(static_cast<char>(base ? kSegmentBase : kSegmentDelta));
  put_u64(out, payload.size());
  put_u32(out, io::crc32(payload));
  out += payload;
  return out;
}

namespace {

/// Walks an MSRVSS2 chain, yielding each COMPLETE segment's (tag, payload,
/// encoded size). A torn trailing segment (header or payload cut short by
/// a crash mid-append) ends the walk silently; a bad CRC on a complete
/// segment fails loudly.
template <typename Visit>
void walk_segments(io::ByteReader& r, Visit&& visit) {
  while (r.remaining() > 0) {
    if (r.remaining() < kSegmentHeaderSize) return;  // torn trailing header
    const std::uint8_t tag = r.u8();
    if (tag != kSegmentBase && tag != kSegmentDelta)
      fail(r.origin(), "unknown segment tag " + std::to_string(tag));
    const std::uint64_t size = r.u64();
    const std::uint32_t crc = r.u32();
    if (size > r.remaining()) return;  // torn trailing payload
    const std::string_view payload = r.take(size);
    if (io::crc32(payload) != crc)
      fail(r.origin(), "segment CRC mismatch (corrupt snapshot chain)");
    visit(tag, payload, kSegmentHeaderSize + size);
  }
}

/// Replays an MSRVSS2 chain into the merged tenant/record state.
ServiceSnapshot merge_chain(const std::string& bytes, const std::string& origin) {
  io::ByteReader r(bytes, origin, fail);
  r.take(kMagicV2.size());
  r.set_context("version");
  const std::uint32_t version = r.u32();
  if (version != kSnapshotVersionV2)
    fail(origin, "unsupported snapshot format version " + std::to_string(version) +
                     " (this build reads versions 1 and " +
                     std::to_string(kSnapshotVersionV2) + ")");

  std::map<std::uint64_t, TenantSpec> specs;
  std::map<std::uint64_t, core::SessionCheckpointRecord> records;
  std::size_t index = 0;
  walk_segments(r, [&](std::uint8_t tag, std::string_view payload, std::uint64_t) {
    const std::string where = origin + " segment " + std::to_string(index++);
    if (index == 1 && tag != kSegmentBase)
      fail(origin, "chain does not start with a base segment");
    if (tag == kSegmentBase) {
      specs.clear();
      records.clear();
    }
    SnapshotSegment segment = decode_segment_payload(payload, where);
    for (const std::uint64_t slot : segment.closed_slots) {
      if (specs.erase(slot) == 0)
        fail(where, "closes slot " + std::to_string(slot) + " which is not open");
      records.erase(slot);
    }
    for (std::size_t i = 0; i < segment.opened.size(); ++i) {
      const std::uint64_t slot = segment.opened_slots[i];
      if (!specs.emplace(slot, std::move(segment.opened[i])).second)
        fail(where, "opens slot " + std::to_string(slot) + " twice");
    }
    for (std::size_t i = 0; i < segment.records.size(); ++i) {
      const std::uint64_t slot = segment.record_slots[i];
      const auto spec = specs.find(slot);
      if (spec == specs.end())
        fail(where, "checkpoint record for unknown slot " + std::to_string(slot));
      if (spec->second.tenant != segment.records[i].tenant)
        fail(where, "slot " + std::to_string(slot) + " is \"" + spec->second.tenant +
                        "\" but the record is for \"" + segment.records[i].tenant + "\"");
      records.insert_or_assign(slot, std::move(segment.records[i]));
    }
  });
  if (index == 0) fail(origin, "snapshot chain holds no complete segment");

  ServiceSnapshot snapshot;
  snapshot.tenants.reserve(specs.size());
  snapshot.records.reserve(specs.size());
  for (auto& [slot, spec] : specs) {
    const auto record = records.find(slot);
    if (record == records.end())
      fail(origin, "open tenant \"" + spec.tenant + "\" (slot " + std::to_string(slot) +
                       ") has no checkpoint record in the chain");
    snapshot.tenants.push_back(std::move(spec));
    snapshot.records.push_back(std::move(record->second));
  }
  return snapshot;
}

}  // namespace

std::string encode_snapshot(const ServiceSnapshot& snapshot) {
  MOBSRV_CHECK_MSG(snapshot.tenants.size() == snapshot.records.size(),
                   "snapshot tenant table and checkpoint records disagree");
  io::Json table = io::Json::object();
  table.set("v", kSnapshotVersion);
  io::Json tenants = io::Json::array();
  for (const TenantSpec& spec : snapshot.tenants) tenants.push_back(tenant_spec_to_json(spec));
  table.set("tenants", std::move(tenants));
  const std::string json = table.dump();
  const std::string checkpoint = trace::encode_checkpoint(snapshot.records);

  std::string out;
  out.append(kMagicV1);
  put_u32(out, kSnapshotVersion);
  put_u64(out, json.size());
  out += json;
  put_u64(out, checkpoint.size());
  out += checkpoint;
  out.push_back(static_cast<char>(kEndTag));
  return out;
}

ServiceSnapshot decode_snapshot(const std::string& bytes, const std::string& origin) {
  if (!bytes.starts_with(kMagicV1))
    fail(origin, "not a mobsrv_serve snapshot file (bad magic)");
  io::ByteReader r(bytes, origin, fail);
  r.take(kMagicV1.size());
  r.set_context("version");
  const std::uint32_t version = r.u32();
  if (version != kSnapshotVersion)
    fail(origin, "unsupported snapshot format version " + std::to_string(version) +
                     " (this build reads version " + std::to_string(kSnapshotVersion) + ")");

  const std::string_view json = section(r, "tenant table");
  const std::string_view checkpoint = section(r, "checkpoint section");
  r.set_context("end tag");
  if (r.u8() != kEndTag) fail(origin, "corrupt end tag");
  if (r.remaining() != 0) fail(origin, "trailing data after end tag");

  ServiceSnapshot snapshot;
  try {
    const io::Json table = io::Json::parse(json);
    const io::Json* v = table.find("v");
    if (v == nullptr || v->as_uint64() != kSnapshotVersion)
      fail(origin, "tenant table version disagrees with the file header");
    for (const io::Json& entry : table.at("tenants").as_array())
      snapshot.tenants.push_back(tenant_spec_from_json(entry));
  } catch (const TraceError&) {
    throw;
  } catch (const std::exception& error) {
    fail(origin, std::string("corrupt tenant table: ") + error.what());
  }
  snapshot.records = trace::decode_checkpoint(checkpoint, origin);

  if (snapshot.tenants.size() != snapshot.records.size())
    fail(origin, "tenant table holds " + std::to_string(snapshot.tenants.size()) +
                     " tenants but the checkpoint holds " +
                     std::to_string(snapshot.records.size()) + " sessions");
  for (std::size_t i = 0; i < snapshot.tenants.size(); ++i)
    if (snapshot.tenants[i].tenant != snapshot.records[i].tenant)
      fail(origin, "tenant table entry " + std::to_string(i) + " is \"" +
                       snapshot.tenants[i].tenant + "\" but the checkpoint record is for \"" +
                       snapshot.records[i].tenant + "\"");
  return snapshot;
}

void write_snapshot(const std::filesystem::path& path, const ServiceSnapshot& snapshot) {
  trace::write_bytes_atomic(path, encode_snapshot(snapshot));
}

std::uint64_t write_snapshot_base(const std::filesystem::path& path,
                                  const SnapshotSegment& base,
                                  const SnapshotWriteOptions& options) {
  const std::string segment = encode_snapshot_segment(base, /*base=*/true);
  write_encoded_base(path, segment, options);
  return segment.size();
}

void write_encoded_base(const std::filesystem::path& path, const std::string& segment,
                        const SnapshotWriteOptions& options) {
  std::string header;
  header.reserve(kHeaderSize);
  header.append(kMagicV2);
  put_u32(header, kSnapshotVersionV2);
  trace::AtomicWriteOptions aw;
  aw.durable = options.durable;
  aw.faults = options.faults;
  aw.write_site = fault::kSiteSnapshotBaseWrite;
  aw.fsync_site = fault::kSiteSnapshotFsync;
  aw.rename_site = fault::kSiteSnapshotRename;
  trace::write_bytes_atomic(path, {header, segment}, aw);
}

std::uint64_t append_snapshot_delta(const std::filesystem::path& path,
                                    const SnapshotSegment& delta,
                                    const SnapshotWriteOptions& options) {
  const std::string segment = encode_snapshot_segment(delta, /*base=*/false);
  append_encoded_delta(path, segment, options);
  return segment.size();
}

void append_encoded_delta(const std::filesystem::path& path, const std::string& segment,
                          const SnapshotWriteOptions& options) {
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw TraceError(path.string() + ": cannot append a delta (no base written?)");
    char magic[kMagicV2.size()] = {};
    in.read(magic, sizeof(magic));
    if (in.gcount() != sizeof(magic) || std::string_view(magic, sizeof(magic)) != kMagicV2)
      fail(path.string(), "cannot append a delta: not an MSRVSS2 snapshot chain");
  }
  if (options.faults != nullptr) options.faults->hit(fault::kSiteSnapshotDeltaAppend);
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) throw TraceError(path.string() + ": cannot open for append");
  out.write(segment.data(), static_cast<std::streamsize>(segment.size()));
  out.flush();
  if (!out) throw TraceError(path.string() + ": delta append failed");
  out.close();
  if (options.durable) {
    // A torn append is fine (the reader drops it); an append the OS never
    // wrote back is not — after this fsync the delta survives power loss.
    if (options.faults != nullptr) options.faults->hit(fault::kSiteSnapshotFsync);
    trace::fsync_path(path);
  }
}

ServiceSnapshot read_snapshot(const std::filesystem::path& path) {
  return read_snapshot_bytes(trace::read_bytes(path), path.string());
}

ServiceSnapshot read_snapshot_bytes(const std::string& bytes, const std::string& origin) {
  if (bytes.starts_with(kMagicV2)) return merge_chain(bytes, origin);
  return decode_snapshot(bytes, origin);
}

SnapshotFileInfo inspect_snapshot(const std::filesystem::path& path) {
  const std::string bytes = trace::read_bytes(path);
  SnapshotFileInfo info;
  if (!bytes.starts_with(kMagicV2)) {
    // v1 (or garbage — decode_snapshot is the loud check): one monolithic
    // "segment" spanning the whole file.
    (void)decode_snapshot(bytes, path.string());
    info.version = kSnapshotVersion;
    info.segments = 1;
    info.base_bytes = bytes.size();
    return info;
  }
  io::ByteReader r(bytes, path.string(), fail);
  r.take(kMagicV2.size());
  r.set_context("version");
  info.version = r.u32();
  walk_segments(r, [&](std::uint8_t tag, std::string_view, std::uint64_t size) {
    ++info.segments;
    if (tag == kSegmentBase && info.segments == 1) {
      info.base_bytes = size;
    } else if (tag == kSegmentBase) {
      // A mid-chain base (compaction rewrites the file, so this would be
      // unusual) resets the accounting like the merge does.
      info.base_bytes = size;
      info.delta_bytes = 0;
    } else {
      info.delta_bytes += size;
    }
  });
  if (info.segments == 0) fail(path.string(), "snapshot chain holds no complete segment");
  return info;
}

}  // namespace mobsrv::serve
