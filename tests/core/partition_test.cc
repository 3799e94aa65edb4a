// Partitioned cursors (§6.3: root positions are independent per root
// item): for every k, the multiset union of all partition cursors equals
// the full enumeration with no duplicates — under churn, re-partitioning,
// and across engine shapes (single component, product, Boolean gates),
// with the cursors drained sequentially or on concurrent threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "../test_util.h"
#include "baseline/evaluator.h"
#include "core/session.h"
#include "util/hash.h"
#include "util/open_hash_map.h"
#include "util/rng.h"
#include "workload/stream_gen.h"

namespace dyncq {
namespace {

using testing::MustParse;
using testing::SameTupleSet;

/// Drains every partition cursor, asserting per-tuple uniqueness across
/// ALL partitions, and returns the union.
std::vector<Tuple> DrainPartitions(
    std::vector<std::unique_ptr<Cursor>>& parts) {
  std::vector<Tuple> out;
  OpenHashSet<Tuple, TupleHash> seen;
  Tuple t;
  for (auto& c : parts) {
    CursorStatus s;
    while ((s = c->Next(&t)) == CursorStatus::kOk) {
      EXPECT_TRUE(seen.Insert(t))
          << "tuple " << TupleToString(t) << " emitted by two partitions";
      out.push_back(t);
    }
    EXPECT_EQ(s, CursorStatus::kEnd);
  }
  return out;
}

TEST(PartitionTest, JointlyEnumerateExactlyTheResult) {
  QuerySession session(MustParse("Q(x, y, z) :- R(x, y), S(x, z)."));
  for (Value x = 1; x <= 13; ++x) {
    for (Value k = 1; k <= 3; ++k) {
      session.Apply(UpdateCmd::Insert(0, {x, 100 + k}));
      session.Apply(UpdateCmd::Insert(1, {x, 200 + k}));
    }
  }
  std::vector<Tuple> full = MaterializeResult(session.engine());
  ASSERT_EQ(full.size(), 13u * 9u);
  for (std::size_t k : {1u, 2u, 3u, 8u, 100u}) {
    auto parts = session.Partitions(k);
    ASSERT_TRUE(parts.ok()) << parts.error();
    // One range per request, capped at the 13 fit roots.
    EXPECT_EQ(parts.value().size(), std::min<std::size_t>(k, 13));
    auto got = DrainPartitions(parts.value());
    EXPECT_TRUE(SameTupleSet(got, full)) << "k=" << k;
  }
}

TEST(PartitionTest, ProductQueriesPartitionThePivotComponent) {
  // Two non-Boolean components plus one Boolean gate.
  QuerySession session(MustParse("Q(a, b) :- R(a), S(b), T(c)."));
  for (Value v = 1; v <= 7; ++v) session.Apply(UpdateCmd::Insert(0, {v}));
  for (Value v = 1; v <= 5; ++v) {
    session.Apply(UpdateCmd::Insert(1, {10 + v}));
  }
  session.Apply(UpdateCmd::Insert(2, {99}));  // open the gate
  std::vector<Tuple> full = MaterializeResult(session.engine());
  ASSERT_EQ(full.size(), 35u);
  for (std::size_t k : {1u, 2u, 3u, 8u}) {
    auto parts = session.Partitions(k);
    ASSERT_TRUE(parts.ok());
    auto got = DrainPartitions(parts.value());
    EXPECT_TRUE(SameTupleSet(got, full)) << "k=" << k;
  }
  // Closing the gate empties every partition.
  session.Apply(UpdateCmd::Delete(2, {99}));
  auto parts = session.Partitions(3);
  ASSERT_TRUE(parts.ok());
  EXPECT_TRUE(DrainPartitions(parts.value()).empty());
}

TEST(PartitionTest, SkewedProductsPivotOnTheLargestComponent) {
  // |R| = 1, |S| = 40: partitioning must split S's roots, not collapse
  // to one cursor because the first component happens to be tiny.
  QuerySession session(MustParse("Q(a, b) :- R(a), S(b)."));
  session.Apply(UpdateCmd::Insert(0, {1}));
  for (Value v = 1; v <= 40; ++v) {
    session.Apply(UpdateCmd::Insert(1, {100 + v}));
  }
  std::vector<Tuple> full = MaterializeResult(session.engine());
  ASSERT_EQ(full.size(), 40u);
  auto parts = session.Partitions(8);
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(parts.value().size(), 8u);
  auto got = DrainPartitions(parts.value());
  EXPECT_TRUE(SameTupleSet(got, full));
}

TEST(PartitionTest, AllPartitionsInvalidateTogetherOnUpdate) {
  QuerySession session(MustParse("Q(x, y) :- R(x, y), T(y)."));
  session.Apply(UpdateCmd::Insert(0, {1, 2}));
  session.Apply(UpdateCmd::Insert(1, {2}));
  auto parts = session.Partitions(2);
  ASSERT_TRUE(parts.ok());
  session.Apply(UpdateCmd::Insert(0, {3, 2}));
  Tuple t;
  for (auto& c : parts.value()) {
    EXPECT_EQ(c->Next(&t), CursorStatus::kInvalidated);
  }
}

TEST(PartitionTest, RandomizedEquivalenceUnderChurnAndRepartitioning) {
  // The satellite test: for k in {1,2,3,8}, partition union == full
  // enumeration == oracle, interleaved with updates and re-partitioning.
  Query q = MustParse("Q(x, y, z) :- R(x, y), S(y, z).");
  QuerySession session(q);
  workload::StreamOptions opts;
  opts.seed = 4242;
  opts.domain_size = 24;
  opts.insert_ratio = 0.62;
  workload::StreamGenerator gen(q.schema_ptr(), opts);

  const std::size_t ks[] = {1, 2, 3, 8};
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 25; ++i) {
      session.Apply(gen.Next(static_cast<RelId>(i % 2)));
    }
    std::vector<Tuple> expected = baseline::Evaluate(session.db(), q);
    std::vector<Tuple> full = MaterializeResult(session.engine());
    ASSERT_TRUE(SameTupleSet(full, expected)) << "round " << round;

    const std::size_t k = ks[round % 4];
    auto parts = session.Partitions(k);
    ASSERT_TRUE(parts.ok()) << parts.error();
    auto got = DrainPartitions(parts.value());
    ASSERT_TRUE(SameTupleSet(got, expected))
        << "round " << round << " k=" << k;

    // Re-partitioning at the same revision is independent: draining the
    // first set must not affect a second set.
    auto parts2 = session.Partitions(8);
    ASSERT_TRUE(parts2.ok());
    auto got2 = DrainPartitions(parts2.value());
    ASSERT_TRUE(SameTupleSet(got2, expected)) << "round " << round;
  }
}

/// Drains each partition cursor on its own std::thread (the way callers
/// parallelize reads) and returns the per-cursor outputs and final
/// statuses.
void DrainOnThreads(std::vector<std::unique_ptr<Cursor>>& parts,
                    std::vector<std::vector<Tuple>>* chunks,
                    std::vector<CursorStatus>* finals) {
  chunks->assign(parts.size(), {});
  finals->assign(parts.size(), CursorStatus::kOk);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    threads.emplace_back([&, i] {
      Tuple t;
      CursorStatus s;
      while ((s = parts[i]->Next(&t)) == CursorStatus::kOk) {
        (*chunks)[i].push_back(t);
      }
      (*finals)[i] = s;
    });
  }
  for (std::thread& th : threads) th.join();
}

// Partition cursors only read the structure, so k threads may drain them
// concurrently (the TSan target for partitioned reads).
TEST(PartitionTest, ConcurrentDrainOnThreads) {
  QuerySession session(MustParse("Q(x, y, z) :- R(x, y), S(x, z)."));
  Rng rng(5);
  for (int i = 0; i < 4000; ++i) {
    RelId rel = static_cast<RelId>(rng.Below(2));
    session.Apply(UpdateCmd::Insert(
        rel, {rng.Range(1, 200), rng.Range(201, 400)}));
  }
  const std::vector<Tuple> full = MaterializeResult(session.engine());
  for (std::size_t k : {1u, 2u, 8u}) {
    auto parts = session.Partitions(k);
    ASSERT_TRUE(parts.ok()) << parts.error();
    ASSERT_EQ(parts.value().size(), k);
    std::vector<std::vector<Tuple>> chunks;
    std::vector<CursorStatus> finals;
    DrainOnThreads(parts.value(), &chunks, &finals);
    std::vector<Tuple> got;
    OpenHashSet<Tuple, TupleHash> seen;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      EXPECT_EQ(finals[i], CursorStatus::kEnd) << "k=" << k;
      for (const Tuple& t : chunks[i]) {
        EXPECT_TRUE(seen.Insert(t))
            << "tuple " << TupleToString(t) << " emitted twice, k=" << k;
        got.push_back(t);
      }
    }
    EXPECT_TRUE(SameTupleSet(got, full)) << "k=" << k;
  }

  // A Boolean query is not partitionable: one cursor, one empty tuple.
  QuerySession boolean(MustParse("Q() :- R(x), S(y)."));
  EXPECT_FALSE(boolean.capabilities().partitionable);
  boolean.Apply(UpdateCmd::Insert(0, {1}));
  boolean.Apply(UpdateCmd::Insert(1, {2}));
  auto parts = boolean.Partitions(4);
  ASSERT_TRUE(parts.ok()) << parts.error();
  std::vector<std::vector<Tuple>> chunks;
  std::vector<CursorStatus> finals;
  DrainOnThreads(parts.value(), &chunks, &finals);
  std::size_t tuples = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(finals[i], CursorStatus::kEnd);
    for (const Tuple& t : chunks[i]) EXPECT_TRUE(t.empty());
    tuples += chunks[i].size();
  }
  EXPECT_EQ(tuples, 1u);
}

}  // namespace
}  // namespace dyncq
