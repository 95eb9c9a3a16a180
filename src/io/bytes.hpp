/// \file bytes.hpp
/// The byte layer of the three binary formats (.mtb traces, .msck
/// checkpoints, MSRVSS snapshot chains): the little-endian put_* writers,
/// the bounds-checked ByteReader, whole-file loads, and the CRC-32 that
/// frames snapshot segments. Each format keeps its own framing, point
/// layout and error texts on top of these.
///
/// read_file asks for the file's size and fills the buffer with one read,
/// never a byte at a time. crc32 is slicing-by-8: eight 1 KiB tables fold
/// one 8-byte word per step, with the same reflected IEEE 802.3 polynomial
/// (0xEDB88320) and the same values as the byte-wise table walk.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>

static_assert(std::endian::native == std::endian::little,
              "the binary formats copy little-endian host words");

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

namespace detail {
template <typename T>
void put_word(std::string& out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.append(buf, sizeof(T));
}
}  // namespace detail

inline void put_u8(std::string& out, std::uint8_t v) { out.push_back(static_cast<char>(v)); }
inline void put_u32(std::string& out, std::uint32_t v) { detail::put_word(out, v); }
inline void put_u64(std::string& out, std::uint64_t v) { detail::put_word(out, v); }
inline void put_f64(std::string& out, double v) { detail::put_word(out, v); }
/// A u32 length, then the bytes.
inline void put_str(std::string& out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// A bounds-checked cursor over little-endian bytes. Every failure goes to
/// the caller's fail(origin, message), which must not return (the formats
/// pass trace::fail, which throws TraceError). A read past the end reports
/// "truncated: unexpected end of file while reading <context> (at byte X
/// of Y)", where set_context names what is being decoded.
class ByteReader {
 public:
  using Fail = void (*)(const std::string& origin, const std::string& message);

  ByteReader(std::string_view bytes, std::string origin, Fail fail)
      : bytes_(bytes), origin_(std::move(origin)), fail_(fail) {}

  void set_context(const char* what) noexcept { context_ = what; }
  [[nodiscard]] const std::string& origin() const noexcept { return origin_; }
  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

  /// The next \p n bytes, as a view into the input.
  std::string_view take(std::size_t n) {
    if (n > remaining())
      fail(std::string("truncated: unexpected end of file while reading ") + context_ +
           " (at byte " + std::to_string(pos_) + " of " + std::to_string(bytes_.size()) + ")");
    const std::string_view s(bytes_.data() + pos_, n);
    pos_ += n;
    return s;
  }
  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::uint32_t u32() { return word<std::uint32_t>(); }
  std::uint64_t u64() { return word<std::uint64_t>(); }
  double f64() { return word<double>(); }
  /// put_str's layout: a u32 length, then the bytes.
  std::string str() { return std::string(take(u32())); }
  /// A u64 count of items that take at least \p bytes_per_item each. A
  /// count the rest of the input cannot hold fails here, before the caller
  /// reserves anything for it.
  std::uint64_t count(const char* what, std::size_t bytes_per_item) {
    const std::uint64_t n = u64();
    if (n > remaining() / bytes_per_item)
      fail(std::string("corrupt ") + context_ + ": implausible " + what + " count " +
           std::to_string(n));
    return n;
  }

 private:
  template <typename T>
  T word() {
    T v{};
    std::memcpy(&v, take(sizeof(T)).data(), sizeof(T));
    return v;
  }
  [[noreturn]] void fail(const std::string& message) const {
    fail_(origin_, message);
    std::abort();  // a returning fail_ must not let a read go past the end
  }

  std::string_view bytes_;
  std::string origin_;
  Fail fail_;
  const char* context_ = "header";
  std::size_t pos_ = 0;
};

}  // namespace mobsrv::io
