/// \file bytes.hpp
/// Byte-level helpers shared by the on-disk formats: whole-file loads and
/// the CRC-32 that frames snapshot segments.
///
/// read_file asks for the file's size and fills the buffer with one read,
/// never a byte at a time. crc32 is slicing-by-8: eight 1 KiB tables fold
/// one 8-byte word per step, with the same reflected IEEE 802.3 polynomial
/// (0xEDB88320) and the same values as the byte-wise table walk.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

namespace mobsrv::io {

/// Why read_file came back without the bytes. Callers word the error in
/// their own exception type.
enum class ReadStatus {
  kOk,
  kCannotOpen,  ///< missing file, no permission
  kReadFailed,  ///< opened, but its size is unknown (a directory) or the read came up short
};

/// Replaces \p bytes with the whole content of \p path.
[[nodiscard]] ReadStatus read_file(const std::filesystem::path& path, std::string& bytes);

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320, initial and final XOR
/// 0xFFFFFFFF): crc32("123456789") == 0xCBF43926.
[[nodiscard]] std::uint32_t crc32(std::string_view bytes) noexcept;

}  // namespace mobsrv::io
