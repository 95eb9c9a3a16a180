// Unit tests for io/: table rendering (markdown + CSV), number formatting,
// flag parsing used by every bench and example binary, and the byte
// helpers (put_* writers, ByteReader, whole-file loads, CRC-32).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "io/args.hpp"
#include "io/bytes.hpp"
#include "io/table.hpp"
#include "stats/rng.hpp"

namespace mobsrv::io {
namespace {

/// The byte-at-a-time CRC-32 the segment framing was specified with.
std::uint32_t crc32_bytewise(std::string_view bytes) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char byte : bytes) {
    crc ^= static_cast<std::uint8_t>(byte);
    for (int k = 0; k < 8; ++k) crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, StandardCheckValue) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..67 cover zero, one and several 8-byte words with every
  // tail length; offsets 0..7 cover every alignment of the word loads.
  stats::Rng rng(20240917);
  std::string buffer(8 + 67, '\0');
  for (char& byte : buffer) byte = static_cast<char>(rng.uniform_int(0, 255));
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t length = 0; length <= 67; ++length) {
      const std::string_view bytes(buffer.data() + offset, length);
      EXPECT_EQ(crc32(bytes), crc32_bytewise(bytes)) << "offset " << offset << " length " << length;
    }
}

TEST(ReadFile, LoadsWholeFileAndNamesFailures) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("mobsrv_io_read_" + std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  std::filesystem::create_directories(dir);
  std::string content = "binary\0bytes\n";
  for (int i = 0; i < 5000; ++i) content += static_cast<char>(i * 7);
  {
    std::ofstream out(dir / "data.bin", std::ios::binary);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
  }
  std::string bytes = "stale";
  EXPECT_EQ(read_file(dir / "data.bin", bytes), ReadStatus::kOk);
  EXPECT_EQ(bytes, content);
  { std::ofstream empty(dir / "empty.bin", std::ios::binary); }
  EXPECT_EQ(read_file(dir / "empty.bin", bytes), ReadStatus::kOk);
  EXPECT_TRUE(bytes.empty());
  EXPECT_EQ(read_file(dir / "missing.bin", bytes), ReadStatus::kCannotOpen);
  EXPECT_EQ(read_file(dir, bytes), ReadStatus::kReadFailed);  // a directory has no byte size
  std::filesystem::remove_all(dir);
}

struct ByteError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void throw_byte_error(const std::string& origin, const std::string& message) {
  throw ByteError(origin + ": " + message);
}

/// The message \p read fails with, or "" if it does not fail.
template <typename Read>
std::string failure_of(Read&& read) {
  try {
    read();
  } catch (const ByteError& error) {
    return error.what();
  }
  return "";
}

TEST(ByteReader, ReadsBackWhatThePutWritersWrote) {
  std::string bytes;
  put_u8(bytes, 0xAB);
  put_u32(bytes, 0x01020304u);
  put_u64(bytes, 0x1122334455667788ULL);
  put_f64(bytes, -0.1);
  put_str(bytes, std::string("a\0b", 3));
  ASSERT_EQ(bytes.size(), 1u + 4 + 8 + 8 + 4 + 3);
  EXPECT_EQ(bytes.substr(1, 4), "\x04\x03\x02\x01");  // little-endian

  ByteReader r(bytes, "mem", throw_byte_error);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0x01020304u);
  EXPECT_EQ(r.u64(), 0x1122334455667788ULL);
  EXPECT_EQ(r.f64(), -0.1);
  EXPECT_EQ(r.str(), std::string("a\0b", 3));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(r.pos(), bytes.size());
}

TEST(ByteReader, ReadingExactlyWhatRemainsSucceeds) {
  const std::string bytes = "0123456789";
  ByteReader r(bytes, "mem", throw_byte_error);
  EXPECT_EQ(r.take(3), "012");
  EXPECT_EQ(r.take(r.remaining()), "3456789");
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(r.take(0), "");
}

TEST(ByteReader, ReadingOnePastTheEndFailsWithContextAndOffset) {
  const std::string bytes = "0123456789";
  ByteReader r(bytes, "mem.bin", throw_byte_error);
  EXPECT_EQ(r.u64(), 0x3736353433323130ULL);
  r.set_context("widget");
  EXPECT_EQ(failure_of([&] { (void)r.take(r.remaining() + 1); }),
            "mem.bin: truncated: unexpected end of file while reading widget (at byte 8 of 10)");
  EXPECT_EQ(failure_of([&] { (void)r.u32(); }),
            "mem.bin: truncated: unexpected end of file while reading widget (at byte 8 of 10)");
  EXPECT_EQ(r.pos(), 8u);  // a failed read consumes nothing
  EXPECT_EQ(r.take(2), "89");
}

TEST(ByteReader, HugeLengthsAndCountsFailWithoutWrapping) {
  std::string bytes;
  put_u8(bytes, 0);
  put_u64(bytes, std::numeric_limits<std::uint64_t>::max());
  ByteReader r(bytes, "mem", throw_byte_error);
  (void)r.u8();
  // pos + SIZE_MAX wraps around to pos - 1, which a `pos + n > size` check lets through.
  EXPECT_NE(failure_of([&] { (void)r.take(std::numeric_limits<std::size_t>::max()); }), "");
  r.set_context("table");
  EXPECT_EQ(failure_of([&] { (void)r.count("row", 8); }),
            "mem: corrupt table: implausible row count 18446744073709551615");

  std::string long_string;
  put_u32(long_string, std::numeric_limits<std::uint32_t>::max());
  ByteReader strings(long_string, "mem", throw_byte_error);
  EXPECT_NE(failure_of([&] { (void)strings.str(); }), "");

  // A count of 8 fits the 8 bytes after it at 1 byte per item, not at 2.
  std::string counted;
  put_u64(counted, 8);
  counted.append(8, 'x');
  ByteReader fits(counted, "mem", throw_byte_error);
  EXPECT_EQ(fits.count("row", 1), 8u);
  ByteReader too_many(counted, "mem", throw_byte_error);
  EXPECT_NE(failure_of([&] { (void)too_many.count("row", 2); }), "");
}

TEST(FormatDouble, SignificantDigitsAndSpecials) {
  EXPECT_EQ(format_double(3.14159265, 4), "3.142");
  EXPECT_EQ(format_double(0.5), "0.5");
  EXPECT_EQ(format_double(120000.0, 6), "120000");
  EXPECT_EQ(format_double(120000.0, 4), "1.2e+05");
  EXPECT_EQ(format_double(1.0 / 0.0), "inf");
  EXPECT_EQ(format_double(-1.0 / 0.0), "-inf");
  EXPECT_EQ(format_double(std::nan("")), "nan");
  EXPECT_EQ(format_double(1234567.0, 2), "1.2e+06");
  EXPECT_THROW((void)format_double(1.0, 0), ContractViolation);
}

TEST(Table, RowConstructionAndAccess) {
  Table t("demo", {"a", "b"});
  t.row().cell("x").cell(1.5).done();
  t.add_row({"y", "2"});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.at(0, 0), "x");
  EXPECT_EQ(t.at(0, 1), "1.5");
  EXPECT_EQ(t.at(1, 1), "2");
  EXPECT_THROW((void)t.at(2, 0), ContractViolation);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t("demo", {"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(Table, EmptyColumnListThrows) {
  EXPECT_THROW(Table("demo", {}), ContractViolation);
}

TEST(Table, MarkdownIsAlignedAndTitled) {
  Table t("My Title", {"col", "value"});
  t.row().cell("first").cell(1).done();
  t.row().cell("x").cell(12345).done();
  const std::string md = t.to_markdown();
  EXPECT_NE(md.find("**My Title**"), std::string::npos);
  EXPECT_NE(md.find("| col   | value |"), std::string::npos);
  EXPECT_NE(md.find("| first | 1     |"), std::string::npos);
  EXPECT_NE(md.find("| x     | 12345 |"), std::string::npos);
  // Separator line present.
  EXPECT_NE(md.find("|-------|"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  Table t("", {"name", "note"});
  t.add_row({"plain", "with,comma"});
  t.add_row({"quote\"inside", "line\nbreak"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("plain,\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(Table, PrintWritesMarkdown) {
  Table t("T", {"c"});
  t.add_row({"v"});
  std::ostringstream os;
  t.print(os);
  EXPECT_EQ(os.str(), t.to_markdown() + "\n");
}

TEST(Table, CellTypesFormat) {
  Table t("", {"a", "b", "c", "d"});
  t.row().cell(std::size_t{7}).cell(-3).cell(2.25, 3).cell("s").done();
  EXPECT_EQ(t.at(0, 0), "7");
  EXPECT_EQ(t.at(0, 1), "-3");
  EXPECT_EQ(t.at(0, 2), "2.25");
  EXPECT_EQ(t.at(0, 3), "s");
}

Args parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return Args(static_cast<int>(v.size()), v.data());
}

TEST(Args, EqualsSyntax) {
  const Args a = parse({"prog", "--x=5", "--name=hello"});
  EXPECT_EQ(a.get_int("x", 0), 5);
  EXPECT_EQ(a.get_string("name", ""), "hello");
  EXPECT_EQ(a.program(), "prog");
}

TEST(Args, SpaceSyntax) {
  const Args a = parse({"prog", "--x", "5", "--flag"});
  EXPECT_EQ(a.get_int("x", 0), 5);
  EXPECT_TRUE(a.get_bool("flag", false));
}

TEST(Args, DefaultsWhenAbsent) {
  const Args a = parse({"prog"});
  EXPECT_EQ(a.get_int("missing", 42), 42);
  EXPECT_EQ(a.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(a.get_string("missing", "d"), "d");
  EXPECT_FALSE(a.get_bool("missing", false));
  EXPECT_FALSE(a.has("missing"));
}

TEST(Args, BooleanSpellings) {
  const Args a = parse({"prog", "--a=true", "--b=0", "--c=yes", "--d=off"});
  EXPECT_TRUE(a.get_bool("a", false));
  EXPECT_FALSE(a.get_bool("b", true));
  EXPECT_TRUE(a.get_bool("c", false));
  EXPECT_FALSE(a.get_bool("d", true));
  const Args bad = parse({"prog", "--e=maybe"});
  EXPECT_THROW((void)bad.get_bool("e", false), ContractViolation);
}

TEST(Args, PositionalsCollected) {
  const Args a = parse({"prog", "pos1", "--x=1", "pos2"});
  ASSERT_EQ(a.positionals().size(), 2u);
  EXPECT_EQ(a.positionals()[0], "pos1");
  EXPECT_EQ(a.positionals()[1], "pos2");
}

TEST(Args, MalformedNumbersThrow) {
  const Args a = parse({"prog", "--x=abc"});
  EXPECT_THROW((void)a.get_int("x", 0), ContractViolation);
  EXPECT_THROW((void)a.get_double("x", 0.0), ContractViolation);
}

TEST(Args, TrailingCharactersThrow) {
  // The whole value must parse: "--chunk=3x" is a typo, not 3.
  const Args a = parse({"prog", "--n=3x", "--d=2.5s", "--u=7 ", "--ok=12", "--okd=1e3"});
  EXPECT_THROW((void)a.get_int("n", 0), ContractViolation);
  EXPECT_THROW((void)a.get_double("d", 0.0), ContractViolation);
  EXPECT_THROW((void)a.get_int("u", 0), ContractViolation);
  EXPECT_THROW((void)a.get_double("u", 0.0), ContractViolation);
  EXPECT_THROW((void)a.get_uint64("n", 0), ContractViolation);
  EXPECT_EQ(a.get_int("ok", 0), 12);
  EXPECT_DOUBLE_EQ(a.get_double("okd", 0.0), 1000.0);
}

TEST(Args, NegativeNumberAsValue) {
  const Args a = parse({"prog", "--x=-3.5"});
  EXPECT_DOUBLE_EQ(a.get_double("x", 0.0), -3.5);
}

}  // namespace
}  // namespace mobsrv::io
