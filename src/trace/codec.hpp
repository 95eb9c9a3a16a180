/// \file codec.hpp
/// Two interchangeable on-disk codecs for TraceFile.
///
/// * kJsonl  — human-readable JSON Lines: one header object, one array per
///             request batch, one object per recorded run, and an explicit
///             end marker so truncation is always detected. Doubles are
///             written in shortest round-trip form, so nothing is lost.
/// * kBinary — compact little-endian framing ("MSTRCB1\n" magic, versioned,
///             length-prefixed sections ending in an end tag). Roughly 3–5×
///             smaller and an order of magnitude faster to parse.
///
/// read_trace sniffs the codec from the first bytes, so every consumer
/// (replayer, batch runner, tools) accepts either format transparently.
#pragma once

#include <filesystem>
#include <stdexcept>
#include <string>

#include "trace/trace.hpp"

namespace mobsrv::trace {

/// Thrown on unreadable, corrupt, truncated or version-mismatched files.
/// Messages always include the offending path and what was being decoded.
class TraceError : public std::runtime_error {
 public:
  explicit TraceError(const std::string& what) : std::runtime_error(what) {}
};

/// Throws TraceError("<origin>: <message>"). The trace, checkpoint and
/// snapshot decoders hand it to io::ByteReader as their failure callback.
[[noreturn]] void fail(const std::string& origin, const std::string& message);

enum class Codec {
  kJsonl,   ///< JSON Lines (".jsonl")
  kBinary,  ///< length-prefixed binary framing (".mtb")
};

/// Canonical file extension (with dot) for a codec.
[[nodiscard]] std::string extension(Codec codec);

/// Picks the codec from a path's extension: ".jsonl" → kJsonl, ".mtb" →
/// kBinary. Throws TraceError for anything else.
[[nodiscard]] Codec codec_for_path(const std::filesystem::path& path);

/// Parses a codec name ("jsonl" or "binary", as printed by to_string).
/// Throws TraceError for anything else. Shared by every --codec-style flag.
[[nodiscard]] Codec codec_from_name(const std::string& name);

/// Serialises \p file with the given codec. Throws TraceError on I/O
/// failure. Writing is atomic enough for our purposes: a short write leaves
/// a file the reader rejects loudly.
void write_trace(const std::filesystem::path& path, const TraceFile& file, Codec codec);

/// Convenience: codec chosen from the extension.
void write_trace(const std::filesystem::path& path, const TraceFile& file);

/// Reads a trace file, sniffing the codec from its leading bytes. Throws
/// TraceError on missing/corrupt/truncated input or version mismatch.
[[nodiscard]] TraceFile read_trace(const std::filesystem::path& path);

/// The whole of \p path (io::read_file). Throws TraceError if it cannot be
/// opened or read; the trace, checkpoint and snapshot readers share it.
[[nodiscard]] std::string read_bytes(const std::filesystem::path& path);

/// In-memory encode/decode (the file functions are thin wrappers; these
/// exist for tests and for streaming over other transports).
[[nodiscard]] std::string encode_trace(const TraceFile& file, Codec codec);
[[nodiscard]] TraceFile decode_trace(const std::string& bytes, const std::string& origin);

/// Stable codec name used by the tools ("jsonl" or "binary").
[[nodiscard]] std::string to_string(Codec codec);

}  // namespace mobsrv::trace
