// Unit tests of the robustness toolkit: the deterministic fault-injection
// registry, row quarantine accounting, and the cube checkpoint format (and
// through it the binary suff-stats codec shared with the state file).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "robust/checkpoint.h"
#include "robust/fault_injection.h"
#include "robust/quarantine.h"
#include "test_util.h"

namespace bellwether::robust {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(FaultRegistryTest, DisarmedNeverFires) {
  FaultRegistry reg;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(reg.ShouldFire("storage.scan", FaultKind::kIoError));
  }
  EXPECT_EQ(reg.total_fires(), 0);
}

TEST(FaultRegistryTest, CountTriggerFiresExactlyFirstN) {
  FaultRegistry reg;
  ASSERT_TRUE(reg.Arm("p:io@3").ok());
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (reg.ShouldFire("p", FaultKind::kIoError)) ++fired;
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(reg.fires("p"), 3);
  EXPECT_EQ(reg.arrivals("p"), 10);
  EXPECT_EQ(reg.total_fires(), 3);
}

TEST(FaultRegistryTest, WrongKindNeverFires) {
  FaultRegistry reg;
  ASSERT_TRUE(reg.Arm("p:io@5").ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(reg.ShouldFire("p", FaultKind::kCorrupt));
    EXPECT_FALSE(reg.ShouldFire("p", FaultKind::kCrash));
  }
  EXPECT_EQ(reg.fires("p"), 0);
}

TEST(FaultRegistryTest, UnarmedPointNeverFires) {
  FaultRegistry reg;
  ASSERT_TRUE(reg.Arm("p:io@5").ok());
  EXPECT_FALSE(reg.ShouldFire("q", FaultKind::kIoError));
}

TEST(FaultRegistryTest, ProbabilisticTriggerIsDeterministicPerSeed) {
  auto schedule = [](uint64_t seed) {
    FaultRegistry reg;
    reg.set_seed(seed);
    EXPECT_TRUE(reg.Arm("p:corrupt@0.3").ok());
    std::vector<bool> fires;
    for (int i = 0; i < 200; ++i) {
      fires.push_back(reg.ShouldFire("p", FaultKind::kCorrupt));
    }
    return fires;
  };
  const auto a = schedule(17);
  const auto b = schedule(17);
  const auto c = schedule(18);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // astronomically unlikely to collide
  int fired = 0;
  for (bool f : a) fired += f ? 1 : 0;
  // ~60 expected; allow a wide deterministic band.
  EXPECT_GT(fired, 20);
  EXPECT_LT(fired, 120);
}

TEST(FaultRegistryTest, MultiEntrySpecAndArmedPoints) {
  FaultRegistry reg;
  ASSERT_TRUE(reg.Arm("storage.scan:io@2;cube.scan:crash@1").ok());
  const auto points = reg.ArmedPoints();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_TRUE(reg.ShouldFire("storage.scan", FaultKind::kIoError));
  EXPECT_TRUE(reg.ShouldFire("cube.scan", FaultKind::kCrash));
  EXPECT_FALSE(reg.ShouldFire("cube.scan", FaultKind::kCrash));
}

TEST(FaultRegistryTest, MalformedSpecsAreRejectedAndDisarm) {
  FaultRegistry reg;
  EXPECT_EQ(reg.Arm("nonsense").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.Arm("p:io").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.Arm("p:whatever@3").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.Arm("p:io@").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.Arm("p:io@-2").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.Arm(":io@1").code(), StatusCode::kInvalidArgument);
  // A failed Arm leaves nothing armed.
  EXPECT_FALSE(reg.ShouldFire("p", FaultKind::kIoError));
  EXPECT_TRUE(reg.ArmedPoints().empty());
}

TEST(FaultRegistryTest, DisarmResetsCounts) {
  FaultRegistry reg;
  ASSERT_TRUE(reg.Arm("p:io@2").ok());
  reg.ShouldFire("p", FaultKind::kIoError);
  reg.Disarm();
  EXPECT_EQ(reg.arrivals("p"), 0);
  EXPECT_EQ(reg.total_fires(), 0);
  EXPECT_FALSE(reg.ShouldFire("p", FaultKind::kIoError));
}

TEST(FaultRegistryTest, EmptySpecDisarms) {
  FaultRegistry reg;
  ASSERT_TRUE(reg.Arm("p:io@2").ok());
  ASSERT_TRUE(reg.Arm("").ok());
  EXPECT_FALSE(reg.ShouldFire("p", FaultKind::kIoError));
}

TEST(QuarantineStatsTest, SampleErrorsAreCapped) {
  QuarantineStats stats;
  for (int i = 0; i < 20; ++i) {
    stats.Quarantine("row " + std::to_string(i));
  }
  EXPECT_EQ(stats.rows_quarantined, 20);
  EXPECT_EQ(stats.sample_errors.size(), QuarantineStats::kMaxSampleErrors);
  EXPECT_EQ(stats.sample_errors[0], "row 0");
}

TEST(QuarantineStatsTest, MergeAccumulates) {
  QuarantineStats a, b;
  a.rows_seen = 10;
  a.Quarantine("bad a");
  b.rows_seen = 5;
  b.Quarantine("bad b1");
  b.Quarantine("bad b2");
  a.Merge(b);
  EXPECT_EQ(a.rows_seen, 15);
  EXPECT_EQ(a.rows_quarantined, 3);
  EXPECT_EQ(a.sample_errors.size(), 3u);
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

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

regression::RegressionSuffStats MakeStats() {
  regression::RegressionSuffStats s(3);
  const double rows[4][3] = {{1, 2, 3}, {1, 0, -1}, {1, 5, 2}, {1, 1, 1}};
  const double ys[4] = {2.0, -1.5, 4.25, 0.5};
  for (int i = 0; i < 4; ++i) s.Add(rows[i], ys[i], 1.0 + 0.25 * i);
  return s;
}

TEST(CheckpointTest, RoundTripIsExact) {
  CubeBuildCheckpoint ckpt;
  ckpt.fingerprint = 0xDEADBEEFCAFEF00DULL;
  ckpt.regions_processed = 7;
  PickCheckpoint pick;
  pick.error = 1.0 / 3.0;  // not representable in decimal
  pick.region = 12;
  pick.stats = MakeStats();
  pick.fallback_region = 3;
  pick.fallback_examples = 4;
  pick.fallback_stats = MakeStats();
  ckpt.picks.push_back(pick);
  PickCheckpoint untouched;  // defaults, with an infinite error
  untouched.error = kInf;
  ckpt.picks.push_back(untouched);

  const std::string path = TestTempPath("ckpt.bwk");
  ASSERT_TRUE(SaveCubeCheckpoint(ckpt, path).ok());
  auto back = LoadCubeCheckpoint(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->fingerprint, ckpt.fingerprint);
  EXPECT_EQ(back->regions_processed, 7);
  ASSERT_EQ(back->picks.size(), 2u);
  EXPECT_EQ(back->picks[0].error, pick.error);  // bit-exact
  EXPECT_EQ(back->picks[0].region, 12);
  EXPECT_EQ(back->picks[0].fallback_region, 3);
  EXPECT_EQ(back->picks[0].fallback_examples, 4);
  EXPECT_EQ(back->picks[0].stats.num_examples(), 4);
  EXPECT_EQ(back->picks[0].stats.xtwy()[2], pick.stats.xtwy()[2]);
  EXPECT_EQ(back->picks[0].stats.xtwx()(1, 2), pick.stats.xtwx()(1, 2));
  EXPECT_EQ(back->picks[1].error, kInf);  // inf survives as raw bytes
  EXPECT_EQ(back->picks[1].region, -1);
  // Saving the loaded checkpoint reproduces the file bit for bit.
  const std::string again = TestTempPath("ckpt_again.bwk");
  ASSERT_TRUE(SaveCubeCheckpoint(*back, again).ok());
  EXPECT_EQ(ReadFile(again), ReadFile(path));
  std::remove(again.c_str());
  std::remove(path.c_str());
}

TEST(CheckpointTest, TruncatedFileIsIoError) {
  CubeBuildCheckpoint ckpt;
  ckpt.fingerprint = 5;
  ckpt.regions_processed = 1;
  PickCheckpoint pick;
  pick.stats = MakeStats();
  pick.fallback_stats = MakeStats();
  ckpt.picks.push_back(pick);
  const std::string path = TestTempPath("ckpt_trunc.bwk");
  ASSERT_TRUE(SaveCubeCheckpoint(ckpt, path).ok());
  const std::string content = ReadFile(path);
  // Cut at several depths: after the magic, mid-header, mid-pick.
  for (size_t cut : {size_t{30}, size_t{60}, size_t{100},
                     content.size() - 4}) {
    ASSERT_LT(cut, content.size());
    std::ofstream out(path);
    out << content.substr(0, cut);
    out.close();
    auto r = LoadCubeCheckpoint(path);
    ASSERT_FALSE(r.ok()) << "cut at " << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kIoError) << "cut at " << cut;
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, WrongMagicIsFailedPrecondition) {
  const std::string path = TestTempPath("ckpt_magic.bwk");
  // A future version, and the text format v3 replaced.
  for (const char* magic : {"bellwether-cube-checkpoint-v999",
                            "bellwether-cube-checkpoint-v2"}) {
    std::ofstream out(path);
    out << magic << "\nfingerprint 1\nregions_processed 0\npicks 0\nend\n";
    out.close();
    auto r = LoadCubeCheckpoint(path);
    ASSERT_FALSE(r.ok()) << magic;
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition) << magic;
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, EveryByteFlipIsRejected) {
  CubeBuildCheckpoint ckpt;
  ckpt.fingerprint = 9;
  ckpt.regions_processed = 2;
  PickCheckpoint pick;
  pick.error = 0.5;
  pick.region = 4;
  pick.stats = MakeStats();
  pick.fallback_stats = MakeStats();
  ckpt.picks.push_back(pick);
  const std::string path = TestTempPath("ckpt_flip.bwk");
  ASSERT_TRUE(SaveCubeCheckpoint(ckpt, path).ok());
  const std::string content = ReadFile(path);
  for (size_t pos = 0; pos < content.size(); ++pos) {
    std::string flipped = content;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x5A);
    std::ofstream(path, std::ios::binary) << flipped;
    EXPECT_FALSE(LoadCubeCheckpoint(path).ok()) << "flip at " << pos;
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileIsIoError) {
  auto r = LoadCubeCheckpoint(TestTempPath("does_not_exist.bwk"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace bellwether::robust
