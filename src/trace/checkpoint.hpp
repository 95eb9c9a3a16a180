/// \file checkpoint.hpp
/// Versioned on-disk codec for session checkpoints.
///
/// A checkpoint file captures the full resumable state of a
/// core::SessionMultiplexer (or a single session — a one-record file):
/// per slot, the spec identity (tenant, algorithm, seed), the workload
/// cursor, and the engine's sim::SessionCheckpoint (fleet positions,
/// accumulated cost split, step index, algorithm internals). Workload
/// request data is NOT stored — checkpoints reference workloads by
/// identity (horizon + slot order), which the restoring process re-supplies
/// from its specs/trace files; this keeps checkpoints small and restart
/// cheap.
///
/// Format: little-endian binary framing ("MSCKPT1\n" magic, format
/// version, record count, length-prefixed records, end tag). Every double
/// round-trips bit-exactly, so `checkpoint → write → read → restore`
/// resumes bit-identically. Truncated, corrupt or version-mismatched files
/// fail loudly with a TraceError naming the offending path and field.
#pragma once

#include <filesystem>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "core/session_multiplexer.hpp"
#include "trace/codec.hpp"

namespace mobsrv::fault {
class Injector;
}  // namespace mobsrv::fault

namespace mobsrv::trace {

/// Checkpoint format version written by this build; readers accept only
/// this version (a version bump is a deliberate compatibility break).
inline constexpr std::uint32_t kCheckpointVersion = 1;

/// In-memory encode/decode (the file functions are thin wrappers; these
/// exist for tests and for streaming over other transports). decode throws
/// TraceError on corrupt/truncated input or version mismatch.
[[nodiscard]] std::string encode_checkpoint(
    const std::vector<core::SessionCheckpointRecord>& records);
[[nodiscard]] std::vector<core::SessionCheckpointRecord> decode_checkpoint(
    std::string_view bytes, const std::string& origin);

/// Serialises \p records to \p path. Atomic (temp file + rename) since
/// PR 10: the historical plain-ofstream path could leave a half-written
/// checkpoint behind a crash, so no caller is allowed to produce one any
/// more. Throws TraceError on I/O failure.
void write_checkpoint(const std::filesystem::path& path,
                      const std::vector<core::SessionCheckpointRecord>& records);

/// Durability and fault-injection knobs for write_bytes_atomic. The
/// defaults are what every production caller wants: crash-durable, no
/// faults. The site names let a fault plan target the distinct failure
/// points of the atomic-write protocol (payload write, fsync, rename)
/// independently; a null site is simply never hit.
struct AtomicWriteOptions {
  /// fsync the temp file before the rename and the parent directory after
  /// it, so the rename itself survives power loss — without both syncs the
  /// "atomic" save is only atomic against process crashes, not power cuts.
  bool durable = true;
  /// Fault hook (null = disabled, zero cost — the step_latency discipline).
  fault::Injector* faults = nullptr;
  const char* write_site = nullptr;   ///< hit before the payload write
  const char* fsync_site = nullptr;   ///< hit before each fsync
  const char* rename_site = nullptr;  ///< hit before the rename
};

/// fsyncs a file (or, with \p directory, its directory entry's container)
/// by path. POSIX-only; on other platforms this is a no-op and durability
/// degrades to the stream flush the caller already did. Throws TraceError
/// when a FILE sync fails; directory syncs are best-effort (some
/// filesystems refuse to open directories for fsync).
void fsync_path(const std::filesystem::path& path, bool directory = false);

/// The periodic-save entry point: writes \p bytes to a sibling temp file
/// (path + ".tmp"), fsyncs it (options.durable), renames it over \p path,
/// and fsyncs the parent directory — so the file at \p path is always
/// either the old complete save or the new complete save, even across
/// power loss. Throws TraceError on I/O failure (the temp file is
/// removed). Shared by every periodic saver (mobsrv_serve snapshots ride
/// on it with their own framing). Stale ".tmp" files left by a crashed
/// writer are harmless: the next save truncates them, and they are never
/// read.
void write_bytes_atomic(const std::filesystem::path& path, const std::string& bytes,
                        const AtomicWriteOptions& options = {});
/// write_bytes_atomic of the concatenation of \p pieces, written without
/// building it (a snapshot base is a 12-byte header + a large segment).
void write_bytes_atomic(const std::filesystem::path& path,
                        std::initializer_list<std::string_view> pieces,
                        const AtomicWriteOptions& options = {});

/// Reads a checkpoint file. Throws TraceError on missing/corrupt/truncated
/// input or version mismatch.
[[nodiscard]] std::vector<core::SessionCheckpointRecord> read_checkpoint(
    const std::filesystem::path& path);

}  // namespace mobsrv::trace
