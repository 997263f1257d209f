// The benchmark's own tests: determinism of modeled results and seed
// plumbing. Build and run with
//   cmake -S perfbench -B .bench_build && cmake --build .bench_build
//   ctest --test-dir .bench_build
#include <gtest/gtest.h>

#include "workloads.h"

namespace perfbench {
namespace {

struct RoundResult {
  std::string modeled;
  std::string inputs;
  std::size_t failed = 0;
};

RoundResult OneRound(std::unique_ptr<Workload> workload, std::uint64_t seed) {
  Ledger ledger;
  workload->Setup(seed);
  workload->Round(ledger);
  return {workload->ModeledDigest(), workload->InputDigest(), ledger.failed()};
}

class PerWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(PerWorkload, ModeledResultsAreBitIdenticalAcrossRunsAtOneSeed) {
  const RoundResult a = OneRound(MakeWorkload(GetParam()), 7);
  const RoundResult b = OneRound(MakeWorkload(GetParam()), 7);
  EXPECT_EQ(a.failed, 0u);
  EXPECT_EQ(b.failed, 0u);
  ASSERT_FALSE(a.modeled.empty());
  EXPECT_EQ(a.modeled, b.modeled);
  EXPECT_EQ(a.inputs, b.inputs);
}

TEST_P(PerWorkload, AnotherSeedGeneratesOtherInputs) {
  std::unique_ptr<Workload> a = MakeWorkload(GetParam());
  std::unique_ptr<Workload> b = MakeWorkload(GetParam());
  a->Setup(1);
  b->Setup(2);
  ASSERT_FALSE(a->InputDigest().empty());
  EXPECT_NE(a->InputDigest(), b->InputDigest());
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, PerWorkload, ::testing::ValuesIn(WorkloadNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(Explore, ModeledResultsAreTheSameAtOneAndFourThreads) {
  const RoundResult one = OneRound(MakeExploreWorkload(1), 3);
  const RoundResult four = OneRound(MakeExploreWorkload(4), 3);
  EXPECT_EQ(one.failed, 0u);
  EXPECT_EQ(four.failed, 0u);
  EXPECT_EQ(one.modeled, four.modeled);
}

TEST(CountMismatches, CountsWrongRecordsAndShapeChanges) {
  s2fa::blaze::Dataset want;
  s2fa::blaze::Column column;
  column.field = "_1";
  column.element = s2fa::jvm::Type::Double();
  column.per_record = 2;
  for (int i = 0; i < 6; ++i) {
    column.data.push_back(s2fa::jvm::Value::OfDouble(i));
  }
  want.AddColumn(column);
  EXPECT_EQ(CountMismatches(want, want), 0u);

  s2fa::blaze::Dataset got;
  column.data[3] = s2fa::jvm::Value::OfDouble(3.5);  // record 1
  got.AddColumn(column);
  EXPECT_EQ(CountMismatches(want, got), 1u);

  s2fa::blaze::Dataset close;
  column.data[3] = s2fa::jvm::Value::OfDouble(3 + 1e-7);
  close.AddColumn(column);
  EXPECT_EQ(CountMismatches(want, close), 0u);
  EXPECT_EQ(CountMismatches(want, close, /*exact=*/true), 1u);

  EXPECT_EQ(CountMismatches(want, s2fa::blaze::Dataset{}), 3u);
}

}  // namespace
}  // namespace perfbench
