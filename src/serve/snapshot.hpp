/// \file snapshot.hpp
/// The mobsrv_serve snapshot file: tenant table + engine checkpoint.
///
/// A service restart needs two things the engine checkpoint alone does not
/// carry: WHO the tenants are (their admission specs — algorithm, fleet
/// size, engine options, start layout) and the engine state itself. A
/// snapshot file bundles both. Restoring re-admits every tenant from its
/// spec and hands the records to SessionMultiplexer::restore, after which
/// the service continues bit-identically — proven end to end by the
/// kill/restore tests.
///
/// Two on-disk formats, one reader (read_snapshot sniffs the magic):
///
/// * **MSRVSS1** (v1, PR 6): one monolithic image — JSON tenant table +
///   checkpoint codec bytes, length-prefixed, end tag. Written by
///   write_snapshot via trace::write_bytes_atomic; every save re-serialises
///   every session (O(sessions)).
/// * **MSRVSS2** (v2): an append-only segment chain. The file is
///   "MSRVSS2\n" + u32 version, then segments, each framed as
///   `u8 tag (1=base, 2=delta) | u64 payload_size | u32 crc32 | payload`.
///   A BASE segment carries the whole state (every open tenant + record);
///   a DELTA carries only the changes since the previous segment: tenants
///   opened, slots closed, and the engine records of DIRTY slots (stepped
///   since the last save). Saves therefore cost O(progress since last
///   save). Slot ids are the writing process's dense multiplexer ids — an
///   id space that is only consistent within one process lifetime, which
///   is why every process writes a fresh base on its first save.
///
/// Crash discipline: a base goes through trace::write_bytes_atomic (temp
/// file + rename); deltas are appended and flushed. A crash mid-append
/// leaves a TORN TRAILING segment, which the reader silently drops — the
/// file still resumes from the previous save, a valid quiescent point. A
/// complete segment with a bad CRC is real corruption and fails loudly
/// with a TraceError, as do truncated/corrupt v1 files, version
/// mismatches, and chains whose merged state is inconsistent (a record
/// for an unknown slot, an open tenant with no record).
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "serve/frames.hpp"
#include "trace/checkpoint.hpp"

namespace mobsrv::serve {

/// Monolithic (v1) format version; v1 readers accept only this version.
inline constexpr std::uint32_t kSnapshotVersion = 1;
/// Segmented (v2) format version written by write_snapshot_base.
inline constexpr std::uint32_t kSnapshotVersionV2 = 2;

/// Everything a restarted service needs: the open tenants' admission specs
/// and the matching engine checkpoint records, both in slot order
/// (tenants[i] owns records[i]). This is the MERGED view — read_snapshot
/// returns it for both formats.
struct ServiceSnapshot {
  std::vector<TenantSpec> tenants;
  std::vector<core::SessionCheckpointRecord> records;
};

/// One MSRVSS2 segment: the table changes and dirty engine records since
/// the previous segment. A base is simply "everything changed": every open
/// tenant in `opened`, every open slot's record, `closed_slots` empty.
struct SnapshotSegment {
  std::vector<TenantSpec> opened;           ///< specs admitted since the last segment
  std::vector<std::uint64_t> opened_slots;  ///< mux slot id per `opened` entry
  std::vector<std::uint64_t> closed_slots;  ///< slots closed since the last segment
  std::vector<std::uint64_t> record_slots;  ///< mux slot id per `records` entry
  std::vector<core::SessionCheckpointRecord> records;  ///< dirty slots' engine state
};

/// What a segment chain looks like on disk — the compaction policy and the
/// incremental-bytes tests read this instead of re-parsing the file.
struct SnapshotFileInfo {
  std::uint32_t version = 0;     ///< 1 or 2
  std::size_t segments = 0;      ///< complete segments (v1 counts as 1)
  std::uint64_t base_bytes = 0;  ///< encoded size of the base segment (v1: whole file)
  std::uint64_t delta_bytes = 0; ///< summed encoded size of the delta segments
};

/// In-memory v1 encode/decode. decode throws TraceError on corrupt/
/// truncated input, version mismatch, or a tenant table that disagrees
/// with the checkpoint records (count or name mismatch).
[[nodiscard]] std::string encode_snapshot(const ServiceSnapshot& snapshot);
[[nodiscard]] ServiceSnapshot decode_snapshot(const std::string& bytes,
                                              const std::string& origin);

/// Durability and fault-injection knobs shared by the snapshot writers.
/// Defaults match production: crash- and power-loss-durable, no faults.
struct SnapshotWriteOptions {
  bool durable = true;              ///< fsync file (and dir on base renames)
  fault::Injector* faults = nullptr;  ///< null = disabled, zero cost
};

/// Atomically serialises \p snapshot to \p path in the monolithic v1
/// format (temp file + rename: periodic-save crashes never corrupt).
/// Throws TraceError on I/O failure.
void write_snapshot(const std::filesystem::path& path, const ServiceSnapshot& snapshot);

/// Encodes one framed MSRVSS2 segment (tag + size + crc + payload). Its
/// size is the checkpoint-bytes meter. The service encodes on its frame
/// thread and hands the bytes to its background writer.
[[nodiscard]] std::string encode_snapshot_segment(const SnapshotSegment& segment, bool base);

/// Starts a fresh MSRVSS2 chain at \p path: header + one base segment,
/// written atomically (an existing file — either format — is replaced).
/// Returns the encoded segment size in bytes (the checkpoint-bytes meter).
/// Fault sites: snapshot.base_write, snapshot.fsync, snapshot.rename.
std::uint64_t write_snapshot_base(const std::filesystem::path& path,
                                  const SnapshotSegment& base,
                                  const SnapshotWriteOptions& options = {});
/// write_snapshot_base for a segment already encoded by
/// encode_snapshot_segment(base, true).
void write_encoded_base(const std::filesystem::path& path, const std::string& segment,
                        const SnapshotWriteOptions& options = {});

/// Appends one delta segment to an existing MSRVSS2 chain, flushes, and
/// (options.durable) fsyncs the file. Returns the encoded segment size in
/// bytes. Throws TraceError if the file is missing or is not an MSRVSS2
/// file. Fault sites: snapshot.delta_append, snapshot.fsync.
std::uint64_t append_snapshot_delta(const std::filesystem::path& path,
                                    const SnapshotSegment& delta,
                                    const SnapshotWriteOptions& options = {});
/// append_snapshot_delta for a segment already encoded by
/// encode_snapshot_segment(delta, false).
void append_encoded_delta(const std::filesystem::path& path, const std::string& segment,
                          const SnapshotWriteOptions& options = {});

/// Reads a snapshot file of either format and returns the merged state.
/// For MSRVSS2 the segment chain is replayed in order (base resets, deltas
/// open/close/upsert); a torn trailing segment is dropped. Throws
/// TraceError on missing/corrupt input or an inconsistent chain.
[[nodiscard]] ServiceSnapshot read_snapshot(const std::filesystem::path& path);

/// read_snapshot on in-memory bytes (\p origin names the source in
/// errors). The chaos fuzzer's workhorse: mutated chains go through the
/// exact production decode path without touching disk.
[[nodiscard]] ServiceSnapshot read_snapshot_bytes(const std::string& bytes,
                                                  const std::string& origin);

/// Segment-chain shape of a snapshot file (either format), torn trailing
/// segment excluded. Throws TraceError on missing/unreadable files.
[[nodiscard]] SnapshotFileInfo inspect_snapshot(const std::filesystem::path& path);

}  // namespace mobsrv::serve
