#include "io/bytes.hpp"

#include <array>
#include <fstream>

namespace mobsrv::io {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the byte-wise table; tables[k][n] is the CRC of byte n
/// followed by k zero bytes, so one word's eight lookups XOR together.
constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    tables[0][n] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k)
    for (std::size_t n = 0; n < 256; ++n)
      tables[k][n] = (tables[k - 1][n] >> 8) ^ tables[0][tables[k - 1][n] & 0xFFu];
  return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

}  // namespace

ReadStatus read_file(const std::filesystem::path& path, std::string& bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return ReadStatus::kCannotOpen;
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  if (error) return ReadStatus::kReadFailed;
  bytes.resize(static_cast<std::size_t>(size));
  in.read(bytes.data(), static_cast<std::streamsize>(size));
  if (in.gcount() != static_cast<std::streamsize>(size)) return ReadStatus::kReadFailed;
  return ReadStatus::kOk;
}

std::uint32_t crc32(std::string_view bytes) noexcept {
  const auto& t = kCrcTables;
  std::uint32_t crc = 0xFFFFFFFFu;
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    const auto lo = static_cast<std::uint32_t>(word) ^ crc;
    const auto hi = static_cast<std::uint32_t>(word >> 32);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
          t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ static_cast<std::uint8_t>(*p)) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace mobsrv::io
