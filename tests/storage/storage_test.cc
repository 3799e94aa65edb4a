// Tests for relations, databases (active domain, updates), dictionary.
#include <gtest/gtest.h>

#include <vector>

#include "cq/schema.h"
#include "storage/database.h"
#include "storage/dictionary.h"
#include "storage/relation.h"
#include "storage/update.h"
#include "workload/stream_gen.h"

namespace dyncq {
namespace {

TEST(RelationTest, InsertContainsErase) {
  Relation r(2);
  EXPECT_TRUE(r.Insert({1, 2}));
  EXPECT_FALSE(r.Insert({1, 2}));  // duplicate
  EXPECT_TRUE(r.Contains({1, 2}));
  EXPECT_FALSE(r.Contains({2, 1}));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Erase({1, 2}));
  EXPECT_FALSE(r.Erase({1, 2}));
  EXPECT_TRUE(r.empty());
}

TEST(RelationProbeAccountingTest, NoopOperationsChargeNoProbes) {
  // probe_count measures probes spent on database-changing work: no-op
  // re-inserts / absent-tuple deletes and read-only Contains lookups
  // short-circuit before a probe is charged (the zero-probe batch tests
  // rely on this accounting staying clean under deliberate no-ops).
  Relation r(2);
  EXPECT_TRUE(r.Insert({1, 2}));
  EXPECT_TRUE(r.Insert({3, 4}));
  const std::uint64_t after_inserts = r.probe_count();
  EXPECT_EQ(after_inserts, 2u);

  EXPECT_FALSE(r.Insert({1, 2}));   // no-op re-insert
  EXPECT_FALSE(r.Erase({9, 9}));    // no-op delete of an absent tuple
  EXPECT_TRUE(r.Contains({1, 2}));  // read-only lookup
  EXPECT_FALSE(r.Contains({5, 5}));
  EXPECT_EQ(r.probe_count(), after_inserts);

  EXPECT_TRUE(r.Erase({1, 2}));  // effective: charged
  EXPECT_EQ(r.probe_count(), after_inserts + 1);
}

TEST(RelationProbeAccountingTest, NoopRatioStreamChargesNoProbes) {
  // Regression: a StreamOptions.noop_ratio stream of deliberate no-ops
  // (here: deletes of absent tuples — the generator has no live tuples,
  // so every command it emits is one) must leave the database's probe
  // accounting untouched.
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("R", 2).value();
  schema->AddRelation("S", 1).value();
  Database db(*schema);
  // Resident tuples on values disjoint from the generator's domain.
  for (Value v = 1001; v <= 1040; ++v) {
    db.Insert(0, {v, v + 1});
    db.Insert(1, {v});
  }
  const std::uint64_t probes_before = db.TotalRelationProbes();

  workload::StreamOptions opts;
  opts.seed = 5;
  opts.domain_size = 100;
  opts.noop_ratio = 1.0;
  workload::StreamGenerator gen(
      std::const_pointer_cast<const Schema>(schema), opts);
  for (const UpdateCmd& cmd : gen.Take(400)) {
    EXPECT_FALSE(db.Apply(cmd)) << UpdateToString(cmd, "R/S");
  }
  EXPECT_EQ(db.TotalRelationProbes(), probes_before);

  // Re-inserting resident tuples (the generator's other no-op flavor) is
  // equally free.
  for (Value v = 1001; v <= 1040; ++v) {
    EXPECT_FALSE(db.Apply(UpdateCmd::Insert(0, {v, v + 1})));
  }
  EXPECT_EQ(db.TotalRelationProbes(), probes_before);
}

TEST(RelationTest, NoopInsertIsSideEffectFreeAtEveryFillLevel) {
  // Regression: the pre-swiss table decided growth BEFORE probing for
  // presence, so a duplicate insert arriving exactly at the load-factor
  // threshold allocated and rehashed — a side effect on a no-op,
  // violating the class contract. Re-inserting a resident tuple after
  // every effective insert sweeps the duplicate across every fill level
  // (including each growth threshold): capacity, size, and probe_count
  // must never move.
  Relation r(2);
  for (Value v = 1; v <= 600; ++v) {
    ASSERT_TRUE(r.Insert({v, v + 1}));
    const std::size_t cap = r.capacity();
    const std::size_t size = r.size();
    const std::uint64_t probes = r.probe_count();
    ASSERT_FALSE(r.Insert({v, v + 1}));          // duplicate of the newest
    ASSERT_FALSE(r.Insert({1, 2}));              // duplicate of the oldest
    ASSERT_FALSE(r.Erase({v, 9999}));            // absent-tuple delete
    ASSERT_EQ(r.capacity(), cap);
    ASSERT_EQ(r.size(), size);
    ASSERT_EQ(r.probe_count(), probes);
  }
}

TEST(RelationTest, IteratorEqualityComparesOwningTable) {
  // Regression: operator== compared only the slot index, so iterators
  // into two different relations of equal capacity compared equal
  // (e.g. a.begin() == b.end() on two empty tables).
  Relation a(2);
  Relation b(2);
  EXPECT_FALSE(a.begin() == b.end());
  EXPECT_FALSE(a.end() == b.end());
  EXPECT_TRUE(a.begin() == a.end());  // both empty within ONE relation
  a.Insert({1, 2});
  b.Insert({1, 2});
  EXPECT_FALSE(a.begin() == b.begin());
  EXPECT_TRUE(a.begin() != b.begin());
  EXPECT_TRUE(a.begin() == a.begin());
  // The arity-0 iterator follows the same rule.
  Relation n0(0);
  Relation n1(0);
  EXPECT_FALSE(n0.begin() == n1.begin());
  EXPECT_FALSE(n0.end() == n1.end());
  EXPECT_TRUE(n0.begin() == n0.end());
  n0.Insert(Tuple());
  EXPECT_TRUE(n0.begin() != n0.end());
}

TEST(RelationTest, ReserveSizesForAFillWithoutRehash) {
  Relation r(2);
  r.Reserve(100);
  const std::size_t cap = r.capacity();
  EXPECT_GT(cap, 0u);
  for (Value v = 1; v <= 100; ++v) {
    ASSERT_TRUE(r.Insert({v, v}));
    ASSERT_EQ(r.capacity(), cap);  // pre-sized: the fill never rehashes
  }
  r.Reserve(10);  // shrinking reserve is a no-op
  EXPECT_EQ(r.capacity(), cap);
}

#ifndef NDEBUG
TEST(RelationTest, ReserveNearSizeMaxDchecksInsteadOfMisbehaving) {
  // Regression: Reserve computed `n * 4 / 3 + 1` unchecked (wrapping
  // near SIZE_MAX) and NormalizeCapacity looped `c <<= 1` until
  // `c >= n` (spinning forever once the target exceeded the largest
  // power of two). Unrepresentable requests now fail a DCHECK.
  Relation r(2);
  EXPECT_THROW(r.Reserve(SIZE_MAX), std::logic_error);
  EXPECT_THROW(r.Reserve(SIZE_MAX / 2 + 2), std::logic_error);
}
#endif

TEST(RelationTest, ArityMismatchThrows) {
  Relation r(2);
  EXPECT_THROW(r.Insert({1}), std::logic_error);
  EXPECT_THROW(r.Erase({1, 2, 3}), std::logic_error);
}

TEST(RelationTest, IterationCoversAll) {
  Relation r(1);
  for (Value v = 1; v <= 50; ++v) r.Insert({v});
  std::size_t count = 0;
  Value sum = 0;
  for (const Tuple& t : r) {
    ++count;
    sum += t[0];
  }
  EXPECT_EQ(count, 50u);
  EXPECT_EQ(sum, 50u * 51 / 2);
}

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest() {
    schema_.AddRelation("R", 2).value();
    schema_.AddRelation("S", 1).value();
  }
  Schema schema_;
};

TEST_F(DatabaseTest, ApplyInsertDelete) {
  Database db(schema_);
  EXPECT_TRUE(db.Apply(UpdateCmd::Insert(0, {1, 2})));
  EXPECT_FALSE(db.Apply(UpdateCmd::Insert(0, {1, 2})));  // no-op
  EXPECT_TRUE(db.Apply(UpdateCmd::Insert(1, {3})));
  EXPECT_EQ(db.NumTuples(), 2u);
  EXPECT_TRUE(db.Apply(UpdateCmd::Delete(0, {1, 2})));
  EXPECT_FALSE(db.Apply(UpdateCmd::Delete(0, {1, 2})));  // no-op
  EXPECT_EQ(db.NumTuples(), 1u);
}

TEST_F(DatabaseTest, ActiveDomainTracksMultiplicity) {
  Database db(schema_);
  db.Insert(0, {1, 2});
  db.Insert(0, {2, 3});
  db.Insert(1, {2});
  EXPECT_EQ(db.ActiveDomainSize(), 3u);  // {1, 2, 3}
  db.Delete(0, {1, 2});
  EXPECT_EQ(db.ActiveDomainSize(), 2u);  // {2, 3}; 1 gone
  db.Delete(0, {2, 3});
  db.Delete(1, {2});
  EXPECT_EQ(db.ActiveDomainSize(), 0u);
}

TEST_F(DatabaseTest, SizeDMatchesPaperDefinition) {
  Database db(schema_);
  db.Insert(0, {1, 2});
  db.Insert(1, {7});
  // ||D|| = |σ| + |adom| + Σ ar(R)·|R| = 2 + 3 + (2*1 + 1*1) = 8.
  EXPECT_EQ(db.SizeD(), 8u);
}

TEST_F(DatabaseTest, ApplyAllCountsEffective) {
  Database db(schema_);
  UpdateStream s{UpdateCmd::Insert(1, {1}), UpdateCmd::Insert(1, {1}),
                 UpdateCmd::Delete(1, {2}), UpdateCmd::Delete(1, {1})};
  EXPECT_EQ(db.ApplyAll(s), 2u);
  EXPECT_EQ(db.NumTuples(), 0u);
}

TEST_F(DatabaseTest, ClearResets) {
  Database db(schema_);
  db.Insert(0, {1, 2});
  db.Clear();
  EXPECT_EQ(db.NumTuples(), 0u);
  EXPECT_EQ(db.ActiveDomainSize(), 0u);
}

TEST(DictionaryTest, InternLookupSpell) {
  Dictionary d;
  Value a = d.Intern("alice");
  Value b = d.Intern("bob");
  EXPECT_NE(a, b);
  EXPECT_EQ(d.Intern("alice"), a);
  EXPECT_EQ(d.Lookup("alice"), a);
  EXPECT_EQ(d.Lookup("carol"), 0u);
  EXPECT_EQ(d.Spell(a), "alice");
  EXPECT_EQ(d.Spell(b), "bob");
  EXPECT_EQ(d.size(), 2u);
}

TEST(DictionaryTest, CodesStartAtOne) {
  Dictionary d;
  EXPECT_EQ(d.Intern("first"), 1u);
  EXPECT_THROW(d.Spell(0), std::logic_error);
}

}  // namespace
}  // namespace dyncq
