// Randomized delete-heavy churn differential for the swiss-table
// Relation: interleaved Insert/Erase/Contains against a std::set oracle
// across arities 1–4, including wraparound probe sequences (tiny tables
// driven to the 7/8 occupancy threshold), tombstone-saturation rehash,
// Clear/Reserve interactions, and probe-count monotonicity (no-ops and
// Contains charge nothing). Runs under ASan/UBSan via the debug CI job.
// Relations are only ever mutated on the single writer thread, so the
// table needs no TSan variant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <set>
#include <vector>

#include "storage/relation.h"
#include "util/rng.h"

namespace dyncq {
namespace {

using Oracle = std::set<std::vector<Value>>;

Tuple DrawTuple(Rng& rng, std::size_t arity, Value domain) {
  Tuple t;
  for (std::size_t p = 0; p < arity; ++p) {
    t.push_back(rng.Below(domain) + 1);  // Value 0 is reserved
  }
  return t;
}

std::vector<Value> Key(const Tuple& t) {
  return std::vector<Value>(t.begin(), t.end());
}

void ExpectSameContents(const Relation& r, const Oracle& oracle) {
  ASSERT_EQ(r.size(), oracle.size());
  Oracle seen;
  for (const Tuple& t : r) {
    EXPECT_TRUE(seen.insert(Key(t)).second) << "duplicate tuple iterated";
  }
  EXPECT_EQ(seen, oracle);
}

// One churn campaign: `rounds` operations with the given delete weight,
// cross-checking every return value, the probe accounting, and (at
// checkpoints) the full contents and capacity stability under no-ops.
void RunChurn(std::size_t arity, Value domain, std::size_t rounds,
              double erase_weight, std::uint64_t seed) {
  SCOPED_TRACE("arity=" + std::to_string(arity) +
               " domain=" + std::to_string(domain) +
               " seed=" + std::to_string(seed));
  Rng rng(seed);
  Relation r(arity);
  Oracle oracle;
  std::uint64_t expected_probes = r.probe_count();
  std::size_t max_live = 0;

  for (std::size_t i = 0; i < rounds; ++i) {
    const Tuple t = DrawTuple(rng, arity, domain);
    const double roll =
        static_cast<double>(rng.Below(1000)) / 1000.0;
    if (roll < erase_weight) {
      const bool was_present = oracle.erase(Key(t)) > 0;
      EXPECT_EQ(r.Erase(t), was_present);
      if (was_present) ++expected_probes;
    } else if (roll < 0.9) {
      const bool was_absent = oracle.insert(Key(t)).second;
      EXPECT_EQ(r.Insert(t), was_absent);
      if (was_absent) ++expected_probes;
    } else {
      EXPECT_EQ(r.Contains(t), oracle.count(Key(t)) > 0);
    }
    // Probes are charged exactly once per effective mutation; no-ops and
    // Contains are free, and the counter never moves backwards.
    ASSERT_EQ(r.probe_count(), expected_probes);
    ASSERT_EQ(r.size(), oracle.size());
    max_live = std::max(max_live, r.size());

    if (i % 512 == 511) {
      ExpectSameContents(r, oracle);
      // No-op sweep at the current fill level: re-inserting residents,
      // erasing strangers, and lookups must leave capacity, contents,
      // and the probe counter untouched — wherever the table currently
      // sits relative to its growth threshold.
      const std::size_t cap_before = r.capacity();
      std::size_t checked = 0;
      for (const Tuple& resident : r) {
        EXPECT_FALSE(r.Insert(resident));
        if (++checked >= 16) break;
      }
      for (int misses = 0; misses < 16; ++misses) {
        // Strangers live in (domain, 2*domain]: disjoint from every
        // stored value, so all 16 negative-path checks always run even
        // when the in-domain tuple space is fully resident.
        Tuple stranger = DrawTuple(rng, arity, domain);
        stranger[0] += domain;
        EXPECT_FALSE(r.Erase(stranger));
        EXPECT_FALSE(r.Contains(stranger));
      }
      EXPECT_EQ(r.capacity(), cap_before);
      EXPECT_EQ(r.probe_count(), expected_probes);
      ExpectSameContents(r, oracle);
    }
  }
  // Tombstones are purged by amortized rehash, so capacity tracks the
  // live high-water mark instead of accreting with churn.
  EXPECT_LE(r.capacity(), std::max<std::size_t>(64, 8 * max_live));
  ExpectSameContents(r, oracle);
}

TEST(RelationChurnTest, DifferentialAcrossArities) {
  for (std::size_t arity = 1; arity <= 4; ++arity) {
    // Small domains force collisions, multi-group probe chains, and
    // group-ring wraparound; larger ones exercise growth.
    RunChurn(arity, /*domain=*/6, /*rounds=*/4000, /*erase_weight=*/0.45,
             /*seed=*/100 + arity);
    RunChurn(arity, /*domain=*/300, /*rounds=*/6000, /*erase_weight=*/0.40,
             /*seed=*/200 + arity);
  }
}

TEST(RelationChurnTest, DeleteHeavyTombstoneSaturation) {
  // Erase-dominated traffic on a small live set: occupancy is mostly
  // tombstones, so the 7/8 threshold triggers same-capacity purge
  // rehashes. The differential plus the capacity bound in RunChurn
  // verify both correctness across the purges and that the purges
  // actually happen (capacity never doubles away from the live size).
  for (std::size_t arity = 1; arity <= 4; ++arity) {
    RunChurn(arity, /*domain=*/5, /*rounds=*/8000, /*erase_weight=*/0.55,
             /*seed=*/300 + arity);
  }
}

TEST(RelationChurnTest, ClearAndReserveInteractions) {
  Rng rng(7);
  Relation r(2);
  Oracle oracle;
  std::uint64_t expected_probes = 0;
  for (int cycle = 0; cycle < 20; ++cycle) {
    const std::size_t reserve = rng.Below(400);
    r.Reserve(r.size() + reserve);
    const std::size_t cap_after_reserve = r.capacity();
    // A Reserve-backed fill of `reserve` more tuples never rehashes.
    std::size_t added = 0;
    while (added < reserve) {
      Tuple t = DrawTuple(rng, 2, 1000);
      if (!oracle.insert(Key(t)).second) continue;
      ASSERT_TRUE(r.Insert(t));
      ++expected_probes;
      ++added;
      ASSERT_EQ(r.capacity(), cap_after_reserve);
    }
    ExpectSameContents(r, oracle);
    if (cycle % 3 == 2) {
      r.Clear();
      oracle.clear();
      EXPECT_EQ(r.size(), 0u);
      EXPECT_TRUE(r.empty());
      ExpectSameContents(r, oracle);
    } else {
      // Partial teardown between cycles keeps tombstones in play.
      for (auto it = oracle.begin(); it != oracle.end();) {
        if (rng.Below(2) == 0) {
          ASSERT_TRUE(r.Erase(Tuple(it->begin(), it->end())));
          ++expected_probes;
          it = oracle.erase(it);
        } else {
          ++it;
        }
      }
      ExpectSameContents(r, oracle);
    }
    EXPECT_EQ(r.probe_count(), expected_probes);
  }
}

TEST(RelationChurnTest, NullaryRelationChurn) {
  Relation r(0);
  EXPECT_FALSE(r.Contains(Tuple()));
  EXPECT_FALSE(r.Erase(Tuple()));
  EXPECT_TRUE(r.Insert(Tuple()));
  EXPECT_FALSE(r.Insert(Tuple()));
  EXPECT_TRUE(r.Contains(Tuple()));
  EXPECT_EQ(r.size(), 1u);
  std::size_t iterated = 0;
  for (const Tuple& t : r) {
    EXPECT_EQ(t.size(), 0u);
    ++iterated;
  }
  EXPECT_EQ(iterated, 1u);
  EXPECT_TRUE(r.Erase(Tuple()));
  EXPECT_TRUE(r.empty());
  EXPECT_TRUE(r.begin() == r.end());
}

}  // namespace
}  // namespace dyncq
