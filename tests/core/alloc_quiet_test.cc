// Allocation counts on the write path.
//
// This binary replaces the global operator new (plain and aligned) with
// counting versions and asserts exact counts over regions of interest:
//  * the engine never asks for an over-aligned allocation — not in a
//    ChildIndex grow, shrink or copy-on-write UnshareHeap, not anywhere
//    in pin -> write -> unpin churn. glibc serves an aligned request
//    through memalign, which trims and frees a small remainder per call;
//    those fragments fill the fastbins, and the next allocation of 1 KiB
//    or more (a block copy inside a timed write under a pin) pays to
//    consolidate every one of them;
//  * BatchFolder::Fold allocates nothing once it has seen a batch of the
//    same size: its key table holds command indices and is reused.
//
// Counts, unlike wall-clock time, are deterministic, so these are exact
// gates. Only the test thread allocates while counting is on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <vector>

#include "../test_util.h"
#include "core/child_index.h"
#include "core/engine.h"
#include "storage/update.h"
#include "util/rng.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_plain{0};
std::atomic<std::size_t> g_aligned{0};

void* CountedAlloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_plain.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t al) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_aligned.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t a = static_cast<std::size_t>(al);
  return std::aligned_alloc(a, (n + a - 1) / a * a + (n == 0 ? a : 0));
}

// Out of line so that GCC does not see a free() of operator-new memory
// at an inlined call site (-Wmismatched-new-delete).
[[gnu::noinline]] void Release(void* p) noexcept { std::free(p); }

/// Counts allocations made between construction and the reads.
class AllocCounter {
 public:
  AllocCounter() {
    g_plain.store(0, std::memory_order_relaxed);
    g_aligned.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~AllocCounter() { Stop(); }
  void Stop() { g_counting.store(false, std::memory_order_relaxed); }
  std::size_t plain() const { return g_plain.load(); }
  std::size_t aligned() const { return g_aligned.load(); }
};

}  // namespace

void* operator new(std::size_t n) {
  void* p = CountedAlloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  void* p = CountedAlignedAlloc(n, al);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(n, al);
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  Release(p);
}

namespace dyncq {
namespace {

using testing::MustParse;

TEST(AllocQuietTest, CounterSeesBothAllocationKinds) {
  // The hooks are live: a plain and an aligned request are each counted
  // once, and nothing outside the counter's lifetime is.
  AllocCounter counter;
  void* p = ::operator new(48);
  void* q = ::operator new(48, std::align_val_t{64});
  counter.Stop();
  ::operator delete(p, 48);
  ::operator delete(q, 48, std::align_val_t{64});
  EXPECT_EQ(counter.plain(), 1u);
  EXPECT_EQ(counter.aligned(), 1u);
}

TEST(AllocQuietTest, ChildIndexGrowShrinkAndUnshareAreNeverAligned) {
  // Stride 1 and a strided-leaf stride: spill to the heap, grow through
  // several doublings, copy-on-write the table, shrink by rehash and
  // back to inline. Each heap table is one plain allocation.
  for (std::size_t stride : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(stride);
    AllocCounter counter;
    {
      core::ChildIndex idx;
      idx.set_stride(stride);
      for (Value v = 1; v <= 200; ++v) idx.FindOrInsertRecord(v);
      EXPECT_GE(idx.heap_capacity(), 256u);
      const std::size_t grown = counter.plain();
      EXPECT_GT(grown, 0u);

      alignas(core::ChildIndex) unsigned char raw[sizeof(core::ChildIndex)];
      std::memcpy(raw, static_cast<const void*>(&idx), sizeof(raw));
      auto* copy = reinterpret_cast<core::ChildIndex*>(raw);
      copy->UnshareHeap();
      EXPECT_EQ(counter.plain(), grown + 1);
      copy->~ChildIndex();

      for (Value v = 200; v > 20; --v) idx.Erase(v);
      EXPECT_GT(idx.heap_capacity(), 0u);
      EXPECT_LT(idx.heap_capacity(), 256u);
      // One record left: a stride-1 table is back inline; a stride-4
      // one (one inline record) stops at the 8-record minimum table.
      for (Value v = 20; v > 1; --v) idx.Erase(v);
      EXPECT_EQ(idx.heap_capacity(), stride == 1 ? 0u : 8u);
    }
    counter.Stop();
    EXPECT_EQ(counter.aligned(), 0u);
  }
}

TEST(AllocQuietTest, PinWriteUnpinChurnMakesNoAlignedAllocation) {
  // A hub value grows its child index to the heap and back, under pins
  // (so every touched block is copied and its tables unshared) and
  // without; single updates and batches both run. Star: stride-1 child
  // tables. Shared leaf: a two-atom leaf in strided-leaf mode.
  const char* const kQueries[] = {
      "Q(x, y, z) :- R(x, y), S(x, z).",
      "Q(x, y) :- R(x, y), S(x, y).",
  };
  for (const char* text : kQueries) {
    SCOPED_TRACE(text);
    Query q = MustParse(text);
    auto created = core::Engine::Create(q);
    ASSERT_TRUE(created.ok()) << created.error();
    core::Engine& engine = *created.value();
    const RelId r = q.schema().FindRelation("R");
    const RelId s = q.schema().FindRelation("S");
    constexpr Value kHub = 7;
    constexpr Value kFanout = 96;

    // Prepared outside the counted region.
    UpdateStream grow, shrink;
    for (Value y = 1; y <= kFanout; ++y) {
      grow.push_back(UpdateCmd::Insert(r, {kHub, y}));
      grow.push_back(UpdateCmd::Insert(s, {kHub, y}));
      shrink.push_back(UpdateCmd::Delete(r, {kHub, y}));
      shrink.push_back(UpdateCmd::Delete(s, {kHub, y}));
    }

    AllocCounter counter;
    std::size_t copied_before = 0;
    for (std::size_t c = 0; c < engine.NumComponents(); ++c) {
      copied_before += engine.component(c).pool().GetStats().cow_copied_blocks;
    }
    for (int cycle = 0; cycle < 8; ++cycle) {
      const bool batched = cycle % 2 == 1;
      for (const UpdateStream* phase : {&grow, &shrink}) {
        auto pin = engine.PinEpoch();
        ASSERT_TRUE(pin.ok()) << pin.error();
        if (batched) {
          engine.ApplyBatch(std::span<const UpdateCmd>(*phase));
        } else {
          for (const UpdateCmd& cmd : *phase) engine.Apply(cmd);
        }
        ASSERT_TRUE(engine.UnpinEpoch(pin.value()).ok());
        ASSERT_TRUE(engine.DropAllSnapshots().ok());
      }
    }
    std::size_t copied_after = 0;
    for (std::size_t c = 0; c < engine.NumComponents(); ++c) {
      copied_after += engine.component(c).pool().GetStats().cow_copied_blocks;
    }
    counter.Stop();
    EXPECT_GT(copied_after, copied_before);  // the pins forced copies
    EXPECT_GT(counter.plain(), 0u);
    EXPECT_EQ(counter.aligned(), 0u);
    EXPECT_EQ(engine.Count(), Weight{0});
  }
}

TEST(AllocQuietTest, BatchFoldAllocatesNothingAfterItsFirstCall) {
  // 256-command batches of arity-4 tuples over two relations, about a
  // quarter of them deletes, drawn from a small domain so keys repeat.
  // After the first call the folder's table, its survival flags and the
  // caller's `kept` vector all have their capacity.
  constexpr std::size_t kBatch = 256;
  constexpr int kBatches = 64;
  Rng rng(25);
  std::vector<UpdateStream> batches(kBatches);
  for (UpdateStream& batch : batches) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      const RelId rel = static_cast<RelId>(rng.Below(2));
      Tuple t{1 + rng.Below(4), 1 + rng.Below(4), 1 + rng.Below(4),
              1 + rng.Below(2)};
      batch.push_back(rng.Below(4) == 0 ? UpdateCmd::Delete(rel, t)
                                        : UpdateCmd::Insert(rel, t));
    }
  }
  BatchFolder folder;
  std::vector<std::uint32_t> kept;
  ASSERT_TRUE(folder.Fold(std::span<const UpdateCmd>(batches[0]), &kept));

  AllocCounter counter;
  int folded = 0;
  for (int b = 1; b < kBatches; ++b) {
    folded += folder.Fold(std::span<const UpdateCmd>(batches[b]), &kept);
  }
  counter.Stop();
  EXPECT_EQ(folded, kBatches - 1);
  EXPECT_EQ(counter.plain(), 0u);
  EXPECT_EQ(counter.aligned(), 0u);
}

}  // namespace
}  // namespace dyncq
