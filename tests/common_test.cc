#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <set>
#include <string_view>
#include <thread>
#include <vector>

#include "common/atomic_file.h"
#include "common/crc32c.h"
#include "common/fingerprint.h"
#include "common/random.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "test_util.h"

namespace bellwether {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad arg");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad arg");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad arg");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kIoError), "IoError");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNumericError), "NumericError");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnimplemented),
               "Unimplemented");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterEven(int x) {
  BW_ASSIGN_OR_RETURN(int half, HalveEven(x));
  BW_ASSIGN_OR_RETURN(int quarter, HalveEven(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  auto ok = QuarterEven(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  auto err = QuarterEven(6);  // 6 -> 3, which is odd
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(RngTest, DeterministicForFixedSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(RngTest, BoundedUniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(10), 10u);
    const int64_t v = rng.NextInt64(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.NextDouble(2.0, 3.0);
    EXPECT_GE(d, 2.0);
    EXPECT_LT(d, 3.0);
  }
}

TEST(RngTest, BoundedUniformHitsAllValues) {
  Rng rng(99);
  std::set<uint64_t> seen;
  for (int i = 0; i < 300; ++i) seen.insert(rng.NextUint64(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, GaussianMomentsAreSane) {
  Rng rng(11);
  double sum = 0.0, sumsq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sumsq += g * g;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(&v);
  auto reshuffled = v;
  std::sort(reshuffled.begin(), reshuffled.end());
  EXPECT_EQ(reshuffled, sorted);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(44);
  Rng forked = a.Fork();
  // The fork should not replay the parent's stream.
  EXPECT_NE(a.NextUint64(), forked.NextUint64());
}

TEST(StringUtilTest, SplitPreservesEmptyFields) {
  const auto parts = SplitString("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(JoinStrings(parts, ","), "x,y,z");
  EXPECT_EQ(SplitString(JoinStrings(parts, "|"), '|'), parts);
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripAsciiWhitespace(""), "");
  EXPECT_EQ(StripAsciiWhitespace("   "), "");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("bellwether", "bell"));
  EXPECT_FALSE(StartsWith("bell", "bellwether"));
}

TEST(StringUtilTest, FormatDoubleIsCompact) {
  EXPECT_EQ(FormatDouble(1.5), "1.5");
  EXPECT_EQ(FormatDouble(2.0), "2");
}

TEST(StopwatchTest, RunsOnConstructionAndAccumulates) {
  Stopwatch sw;
  EXPECT_TRUE(sw.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double t1 = sw.ElapsedSeconds();
  EXPECT_GT(t1, 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(sw.ElapsedSeconds(), t1);  // still accumulating while running
}

TEST(StopwatchTest, PauseExcludesTimeUntilResume) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  sw.Pause();
  EXPECT_FALSE(sw.running());
  const double paused_at = sw.ElapsedSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Time does not advance while paused.
  EXPECT_DOUBLE_EQ(sw.ElapsedSeconds(), paused_at);
  sw.Resume();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  // Time after the Resume is banked on top of the pre-Pause segment; the
  // 50ms spent paused is excluded.
  EXPECT_GT(sw.ElapsedSeconds(), paused_at);
  EXPECT_LT(sw.ElapsedSeconds(), paused_at + 0.045);
}

TEST(StopwatchTest, PauseAndResumeAreIdempotent) {
  Stopwatch sw;
  sw.Resume();  // no-op while running
  EXPECT_TRUE(sw.running());
  sw.Pause();
  const double t = sw.ElapsedSeconds();
  sw.Pause();  // no-op while paused
  EXPECT_FALSE(sw.running());
  EXPECT_DOUBLE_EQ(sw.ElapsedSeconds(), t);
}

TEST(StopwatchTest, RestartDiscardsAccumulatedTime) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  sw.Pause();
  sw.Restart();
  EXPECT_TRUE(sw.running());
  EXPECT_LT(sw.ElapsedSeconds(), 0.005);
  EXPECT_NEAR(sw.ElapsedMillis(), sw.ElapsedSeconds() * 1e3, 1.0);
}

TEST(Crc32cTest, BothImplementationsGiveTheStandardCheckValue) {
  // CRC-32C of "123456789" is 0xE3069283 (RFC 3720, iSCSI).
  const char kCheck[] = "123456789";
  EXPECT_EQ(crc32c_internal::Crc32cTable(0, kCheck, 9), 0xE3069283u);
  EXPECT_EQ(Crc32c(0, kCheck, 9), 0xE3069283u);
  EXPECT_EQ(Crc32c(0, nullptr, 0), 0u);
  if (!crc32c_internal::HasHardwareCrc32c()) {
    GTEST_SKIP() << "host has no SSE4.2 crc32 instruction";
  }
  EXPECT_EQ(crc32c_internal::Crc32cHardware(0, kCheck, 9), 0xE3069283u);
}

TEST(Crc32cTest, HardwareMatchesTableOnRandomLengthsAndAlignments) {
  if (!crc32c_internal::HasHardwareCrc32c()) {
    GTEST_SKIP() << "host has no SSE4.2 crc32 instruction";
  }
  Rng rng(2006);
  std::vector<unsigned char> buf(4096 + 16);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.NextUint64());
  for (int trial = 0; trial < 1000; ++trial) {
    const size_t offset = rng.NextUint64(16);
    const size_t len = rng.NextUint64(trial < 100 ? 24 : 4097);
    const uint32_t crc = static_cast<uint32_t>(rng.NextUint64());
    ASSERT_EQ(crc32c_internal::Crc32cHardware(crc, buf.data() + offset, len),
              crc32c_internal::Crc32cTable(crc, buf.data() + offset, len))
        << "offset " << offset << " length " << len;
  }
}

TEST(Crc32cTest, ChunkedExtensionEqualsOneShot) {
  Rng rng(11);
  std::vector<unsigned char> buf(1000);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.NextUint64());
  const uint32_t whole = Crc32c(0, buf.data(), buf.size());
  for (size_t cut : {size_t{0}, size_t{1}, size_t{7}, size_t{500}, size_t{999}}) {
    const uint32_t head = Crc32c(0, buf.data(), cut);
    EXPECT_EQ(Crc32c(head, buf.data() + cut, buf.size() - cut), whole)
        << "cut " << cut;
  }
}

TEST(FingerprintTest, OrderAndValueSensitive) {
  FingerprintBuilder a, b, c, d;
  a.Add(1).Add(2);
  b.Add(1).Add(2);
  c.Add(2).Add(1);
  d.Add(1).Add(3);
  EXPECT_EQ(a.value(), b.value());
  EXPECT_NE(a.value(), c.value());
  EXPECT_NE(a.value(), d.value());
}

TEST(FingerprintTest, PinnedFnv1a64Values) {
  // Published FNV-1a 64 vectors; "" is the offset basis. State files store
  // these hashes, so they must never change.
  EXPECT_EQ(FingerprintBuilder().AddBytes("").value(), 0xcbf29ce484222325ULL);
  EXPECT_EQ(FingerprintBuilder().AddBytes("a").value(), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(FingerprintBuilder().AddBytes("foobar").value(),
            0x85944171f73967e8ULL);
  // Add mixes the eight bytes of its value, least significant first.
  EXPECT_EQ(FingerprintBuilder().Add(0x61).value(),
            FingerprintBuilder()
                .AddBytes(std::string_view("a\0\0\0\0\0\0\0", 8))
                .value());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Names in `path`'s directory that start with its file name + ".tmp".
std::vector<std::string> TempSiblings(const std::string& path) {
  const std::filesystem::path target(path);
  const std::string prefix = target.filename().string() + ".tmp";
  std::vector<std::string> out;
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) out.push_back(name);
  }
  return out;
}

TEST(AtomicFileTest, ReplacesTheFileAndLeavesNoTempFile) {
  const std::string path = TestTempPath("atomic.txt");
  for (const char* body : {"first\n", "second, longer\n"}) {
    ASSERT_TRUE(WriteFileAtomically(path, [&](std::ostream& out) {
                  out << body;
                  return Status::OK();
                }).ok());
    EXPECT_EQ(ReadFile(path), body);
    EXPECT_TRUE(TempSiblings(path).empty());
  }
  std::remove(path.c_str());
}

TEST(AtomicFileTest, FailedBodyKeepsThePreviousFileAndRemovesTheTemp) {
  const std::string path = TestTempPath("atomic_fail.txt");
  ASSERT_TRUE(WriteFileAtomically(path, [](std::ostream& out) {
                out << "good\n";
                return Status::OK();
              }).ok());
  const Status st = WriteFileAtomically(path, [](std::ostream& out) {
    out << "partial";
    return Status::IoError("writer gave up halfway");
  });
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(ReadFile(path), "good\n");
  EXPECT_TRUE(TempSiblings(path).empty());
  std::remove(path.c_str());
}

TEST(AtomicFileTest, MissingDirectoryIsIoError) {
  const Status st = WriteFileAtomically(
      TestTempPath("no_such_dir") + "/file.txt",
      [](std::ostream&) { return Status::OK(); });
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace bellwether
