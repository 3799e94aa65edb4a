// ChildIndex: the parent-scoped single-Value child table of the dynamic
// engine (inline small-table -> heap linear probing with backward-shift
// deletion).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "core/child_index.h"
#include "util/rng.h"

namespace dyncq::core {
namespace {

std::uint64_t Marker(std::uint64_t v) { return v ^ 0xABCD0000u; }

TEST(ChildIndexTest, EmptyFindsNothing) {
  ChildIndex idx;
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_TRUE(idx.empty());
  EXPECT_EQ(idx.Find(1), 0u);
  EXPECT_FALSE(idx.Erase(1));
  EXPECT_EQ(idx.FirstEntry(), nullptr);
}

TEST(ChildIndexTest, InlineInsertFindErase) {
  ChildIndex idx;
  for (Value v = 1; v <= ChildIndex::kInlineCap; ++v) {
    std::uint64_t* slot = idx.FindOrInsertSlot(v);
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(*slot, 0u);  // fresh slot
    *slot = Marker(v);
  }
  EXPECT_EQ(idx.size(), ChildIndex::kInlineCap);
  for (Value v = 1; v <= ChildIndex::kInlineCap; ++v) {
    EXPECT_EQ(idx.Find(v), Marker(v));
  }
  EXPECT_TRUE(idx.Erase(2));
  EXPECT_EQ(idx.Find(2), 0u);
  EXPECT_EQ(idx.size(), ChildIndex::kInlineCap - 1);
}

TEST(ChildIndexTest, FindOrInsertIsIdempotentPerKey) {
  ChildIndex idx;
  std::uint64_t* a = idx.FindOrInsertSlot(7);
  *a = Marker(70);
  std::uint64_t* b = idx.FindOrInsertSlot(7);
  EXPECT_EQ(*b, Marker(70));
  EXPECT_EQ(idx.size(), 1u);
}

TEST(ChildIndexTest, SpillsToHeapBeyondInlineCapacity) {
  ChildIndex idx;
  const Value n = 100;
  for (Value v = 1; v <= n; ++v) {
    *idx.FindOrInsertSlot(v) = Marker(v);
  }
  EXPECT_EQ(idx.size(), n);
  for (Value v = 1; v <= n; ++v) {
    ASSERT_EQ(idx.Find(v), Marker(v)) << v;
  }
  EXPECT_EQ(idx.Find(n + 1), 0u);
}

TEST(ChildIndexTest, InlineIterationPreservesInsertionOrder) {
  // The fit-list semantics of unit-leaf enumeration rely on this for
  // small fanouts (paper Figure 3 list order).
  ChildIndex idx;
  std::vector<Value> keys = {42, 7, 19};
  for (Value v : keys) *idx.FindOrInsertSlot(v) = Marker(v);
  std::vector<Value> seen;
  for (const ChildIndex::Entry* e = idx.FirstEntry(); e != nullptr;
       e = idx.NextEntry(e)) {
    seen.push_back(e->key);
  }
  EXPECT_EQ(seen, keys);
}

TEST(ChildIndexTest, EntryCursorVisitsEverythingOnHeap) {
  ChildIndex idx;
  std::set<Value> expect;
  for (Value v = 1; v <= 50; ++v) {
    *idx.FindOrInsertSlot(v * 3) = Marker(v * 3);
    expect.insert(v * 3);
  }
  std::set<Value> seen;
  for (const ChildIndex::Entry* e = idx.FirstEntry(); e != nullptr;
       e = idx.NextEntry(e)) {
    EXPECT_TRUE(seen.insert(e->key).second) << "duplicate " << e->key;
  }
  EXPECT_EQ(seen, expect);
}

TEST(ChildIndexTest, ReserveAllowsBulkInsertion) {
  ChildIndex idx;
  idx.Reserve(1000);
  for (Value v = 1; v <= 1000; ++v) *idx.FindOrInsertSlot(v) = Marker(v);
  EXPECT_EQ(idx.size(), 1000u);
  EXPECT_EQ(idx.Find(500), Marker(500));
}

TEST(ChildIndexTest, RandomizedAgainstStdMap) {
  ChildIndex idx;
  std::map<Value, std::uint64_t> ref;
  Rng rng(1234);
  for (int step = 0; step < 200000; ++step) {
    Value v = rng.Range(1, 300);
    if (rng.Chance(0.55)) {
      std::uint64_t* slot = idx.FindOrInsertSlot(v);
      auto [it, inserted] = ref.emplace(v, Marker(v));
      if (inserted) {
        ASSERT_EQ(*slot, 0u) << "step " << step;
        *slot = Marker(v);
      } else {
        ASSERT_EQ(*slot, it->second) << "step " << step;
      }
    } else {
      ASSERT_EQ(idx.Erase(v), ref.erase(v) > 0) << "step " << step;
    }
    ASSERT_EQ(idx.size(), ref.size());
    if (step % 1000 == 0) {
      // Full-content audit via the entry cursor.
      std::map<Value, std::uint64_t> seen;
      for (const ChildIndex::Entry* e = idx.FirstEntry(); e != nullptr;
           e = idx.NextEntry(e)) {
        seen.emplace(e->key, e->payload);
      }
      ASSERT_EQ(seen, ref) << "step " << step;
    }
  }
}


TEST(ChildIndexTest, ShrinksAfterMassDeletion) {
  // Adaptive shrink-on-low-load: a table grown by a hub's past fanout
  // gives the memory back once the population collapses, so the spilled
  // unit-leaf entry scan (worst-case enumeration delay) stays
  // proportional to the live entries, not the historical peak.
  ChildIndex idx;
  const Value n = 4096;
  for (Value v = 1; v <= n; ++v) *idx.FindOrInsertSlot(v) = Marker(v);
  const std::size_t peak_cap = idx.heap_capacity();
  ASSERT_GE(peak_cap, n);

  // Mass deletion down to 32 entries: capacity must drop well below the
  // peak while every surviving probe stays correct.
  for (Value v = 33; v <= n; ++v) ASSERT_TRUE(idx.Erase(v));
  EXPECT_EQ(idx.size(), 32u);
  EXPECT_LT(idx.heap_capacity(), peak_cap / 8);
  EXPECT_GE(idx.heap_capacity(), 32u * 2);  // never shrinks past 1/2 load
  for (Value v = 1; v <= 32; ++v) {
    ASSERT_EQ(idx.Find(v), Marker(v)) << v;
  }
  for (Value v = 33; v <= n; ++v) {
    ASSERT_EQ(idx.Find(v), 0u) << v;
  }

  // Down to the inline regime: the heap table is released entirely.
  for (Value v = 4; v <= 32; ++v) ASSERT_TRUE(idx.Erase(v));
  EXPECT_EQ(idx.heap_capacity(), 0u);
  for (Value v = 1; v <= 3; ++v) ASSERT_EQ(idx.Find(v), Marker(v));

  // And the table grows again cleanly after the shrink.
  for (Value v = 100; v < 200; ++v) *idx.FindOrInsertSlot(v) = Marker(v);
  EXPECT_EQ(idx.size(), 103u);
  for (Value v = 100; v < 200; ++v) ASSERT_EQ(idx.Find(v), Marker(v));
}

TEST(ChildIndexTest, FindOfPresentKeyNeverRehashes) {
  // Regression: FindOrInsertSlot decided growth BEFORE probing, so a
  // lookup of a present key at the 75% load threshold rehashed the
  // table — a side-effecting no-op that silently invalidated previously
  // returned slot pointers and live entry cursors. The probe now comes
  // first: at EVERY fill level, repeated finds of present keys must pin
  // the capacity, keep outstanding slot pointers valid, and keep a live
  // entry cursor walking the same records.
  ChildIndex idx;
  std::vector<std::uint64_t*> slots;  // outstanding pointer per present key
  for (Value v = 1; v <= 200; ++v) {
    *idx.FindOrInsertSlot(v) = Marker(v);  // fresh: MAY rehash
    // Take outstanding pointers after the legitimate insert...
    slots.clear();
    for (Value u = 1; u <= v; ++u) slots.push_back(idx.FindOrInsertSlot(u));
    const std::size_t cap = idx.heap_capacity();
    const ChildIndex::Entry* cursor = idx.FirstEntry();
    // ...then re-find every present key several times, including at the
    // exact load threshold the old code grew at.
    for (int pass = 0; pass < 3; ++pass) {
      for (Value u = 1; u <= v; ++u) {
        std::uint64_t* again = idx.FindOrInsertSlot(u);
        ASSERT_EQ(*again, Marker(u)) << "fill " << v;
        ASSERT_EQ(again, slots[static_cast<std::size_t>(u - 1)])
            << "find of a present key moved its slot at fill " << v;
      }
    }
    ASSERT_EQ(idx.heap_capacity(), cap)
        << "find of a present key rehashed at fill level " << v;
    ASSERT_EQ(idx.FirstEntry(), cursor)
        << "entry cursor invalidated by a find at fill level " << v;
    ASSERT_EQ(idx.size(), static_cast<std::size_t>(v));
    // Every outstanding pointer still reads its own key's payload (the
    // old bug left them dangling into a freed table once the spurious
    // rehash ran).
    for (Value u = 1; u <= v; ++u) {
      ASSERT_EQ(*slots[static_cast<std::size_t>(u - 1)], Marker(u))
          << "fill " << v;
    }
  }
}

#ifndef NDEBUG
TEST(ChildIndexTest, ReserveNearSizeMaxDchecksInsteadOfSpinning) {
  // Regression: Reserve's `while (n * 4 >= cap * 3) cap <<= 1` wrapped
  // for n near SIZE_MAX/4 (the shift spun to zero and looped forever
  // once cap*3 overflowed). Unrepresentable requests now fail a DCHECK
  // (and clamp to the allocation ceiling in release builds).
  ChildIndex idx;
  EXPECT_THROW(idx.Reserve(SIZE_MAX), std::logic_error);
  EXPECT_THROW(idx.Reserve(SIZE_MAX / 4), std::logic_error);
  EXPECT_THROW(idx.Reserve(SIZE_MAX / 4 - 1), std::logic_error);
}
#endif

TEST(ChildIndexTest, StridedRecordsRoundTrip) {
  // Stride-4 records (the k=2 strided-leaf shape: two counts + two link
  // words): payloads survive insert/find/erase and the record cursor.
  ChildIndex idx;
  idx.set_stride(4);
  EXPECT_EQ(idx.stride(), 4u);
  for (Value v = 1; v <= 100; ++v) {
    std::uint64_t* rec = idx.FindOrInsertRecord(v);
    ASSERT_EQ(rec[0], v);
    for (int w = 1; w <= 4; ++w) {
      ASSERT_EQ(rec[w], 0u) << "fresh payload must be zero";
      rec[w] = v * 10 + static_cast<Value>(w);
    }
  }
  ASSERT_EQ(idx.size(), 100u);
  for (Value v = 1; v <= 100; ++v) {
    const std::uint64_t* rec = idx.FindRecord(v);
    ASSERT_NE(rec, nullptr);
    for (int w = 1; w <= 4; ++w) ASSERT_EQ(rec[w], v * 10 + Value(w));
  }
  // Erase half (backward shift moves whole records).
  for (Value v = 1; v <= 100; v += 2) ASSERT_TRUE(idx.Erase(v));
  std::size_t seen = 0;
  for (const std::uint64_t* rec = idx.FirstRecord(); rec != nullptr;
       rec = idx.NextRecord(rec)) {
    ASSERT_EQ(rec[0] % 2, 0u);
    for (int w = 1; w <= 4; ++w) ASSERT_EQ(rec[w], rec[0] * 10 + Value(w));
    ++seen;
  }
  EXPECT_EQ(seen, 50u);
}

TEST(ChildIndexTest, WideStrideSkipsInlineMode) {
  // A stride too wide for the 64-byte inline buffer goes straight to the
  // heap and still round-trips.
  ChildIndex idx;
  idx.set_stride(9);  // 10-word records > 8-word inline buffer
  std::uint64_t* rec = idx.FindOrInsertRecord(7);
  ASSERT_NE(rec, nullptr);
  EXPECT_GT(idx.heap_capacity(), 0u);
  rec[9] = 1234;
  EXPECT_EQ(idx.FindRecord(7)[9], 1234u);
  EXPECT_TRUE(idx.Erase(7));
  EXPECT_EQ(idx.FindRecord(7), nullptr);
}

TEST(ChildIndexTest, ShrinkKeepsEntryCursorComplete) {
  ChildIndex idx;
  for (Value v = 1; v <= 1024; ++v) *idx.FindOrInsertSlot(v) = Marker(v);
  for (Value v = 1; v <= 1024; ++v) {
    if (v % 64 != 0) ASSERT_TRUE(idx.Erase(v));
  }
  std::set<Value> seen;
  for (const ChildIndex::Entry* e = idx.FirstEntry(); e != nullptr;
       e = idx.NextEntry(e)) {
    seen.insert(e->key);
  }
  std::set<Value> expected;
  for (Value v = 64; v <= 1024; v += 64) expected.insert(v);
  EXPECT_EQ(seen, expected);
}

TEST(ChildIndexTest, GrowPast2To17ShrinkToInlineAndRefill) {
  // The heap capacity is stored as a one-byte log2 and the record width
  // as one byte: a table past 2^17 records must keep every record, shrink
  // all the way back to inline mode, and grow again — at stride 1 and at
  // the stride k+2 of a two-atom strided leaf.
  constexpr Value kMany = (Value{1} << 17) + 1000;
  for (const std::size_t stride : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(stride);
    ChildIndex idx;
    idx.set_stride(stride);
    auto fill = [&](Value from, Value to) {
      for (Value v = from; v <= to; ++v) {
        std::uint64_t* rec = idx.FindOrInsertRecord(v);
        for (std::size_t w = 1; w <= stride; ++w) rec[w] = Marker(v) + w;
      }
    };
    auto check = [&](Value from, Value to) {
      for (Value v = from; v <= to; ++v) {
        const std::uint64_t* rec = idx.FindRecord(v);
        ASSERT_NE(rec, nullptr) << v;
        for (std::size_t w = 1; w <= stride; ++w) {
          ASSERT_EQ(rec[w], Marker(v) + w) << v;
        }
      }
    };
    fill(1, kMany);
    ASSERT_EQ(idx.size(), kMany);
    EXPECT_GT(idx.heap_capacity(), std::size_t{1} << 17);
    check(1, kMany);

    // Down to one record, which fits inline at both strides (the shrink
    // trigger is 1/8 load, so a full inline buffer may stay on the heap).
    for (Value v = kMany; v > 1; --v) ASSERT_TRUE(idx.Erase(v));
    EXPECT_EQ(idx.size(), 1u);
    EXPECT_EQ(idx.heap_capacity(), 0u) << "must collapse back inline";
    check(1, 1);

    fill(2, kMany);
    ASSERT_EQ(idx.size(), kMany);
    EXPECT_GT(idx.heap_capacity(), std::size_t{1} << 17);
    check(1, kMany);
  }
}

TEST(ChildIndexTest, UnshareHeapAfterGrowCopiesTheWholeTable) {
  // A block copy duplicates an index byte for byte (ItemPool::CopyBlock);
  // UnshareHeap then gives the copy its own table of the same capacity.
  ChildIndex idx;
  for (Value v = 1; v <= 5000; ++v) *idx.FindOrInsertSlot(v) = Marker(v);
  const std::size_t cap = idx.heap_capacity();
  ASSERT_GT(cap, 4096u);
  alignas(ChildIndex) unsigned char bytes[sizeof(ChildIndex)];
  std::memcpy(bytes, static_cast<const void*>(&idx), sizeof(ChildIndex));
  auto* copy = reinterpret_cast<ChildIndex*>(bytes);
  copy->UnshareHeap();
  EXPECT_EQ(copy->heap_capacity(), cap);
  EXPECT_EQ(copy->size(), idx.size());
  ASSERT_TRUE(copy->Erase(17));
  *copy->FindOrInsertSlot(9000) = Marker(9000);
  EXPECT_EQ(idx.Find(17), Marker(17)) << "the original's table is untouched";
  EXPECT_EQ(idx.Find(9000), 0u);
  for (Value v = 1; v <= 5000; ++v) {
    if (v != 17) ASSERT_EQ(copy->Find(v), Marker(v));
  }
  copy->~ChildIndex();
}

}  // namespace
}  // namespace dyncq::core
