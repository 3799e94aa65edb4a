// Functional tests of the dynamic engine across query shapes: Boolean,
// quantified, multi-component, constants, self-joins, repeated variables.
#include <gtest/gtest.h>

#include "../test_util.h"
#include "baseline/evaluator.h"
#include "core/engine.h"
#include "util/rng.h"

namespace dyncq {
namespace {

using testing::MustParse;
using testing::SameTupleSet;
namespace paper = testing::paper;

std::unique_ptr<core::Engine> MakeEngine(const Query& q) {
  auto e = core::Engine::Create(q);
  EXPECT_TRUE(e.ok()) << e.error();
  return std::move(e.value());
}

TEST(EngineTest, RejectsNonQHierarchical) {
  EXPECT_FALSE(core::Engine::Create(paper::PhiSET()).ok());
  EXPECT_FALSE(core::Engine::Create(paper::PhiET()).ok());
  EXPECT_FALSE(core::Engine::Create(paper::Phi1()).ok());
}

TEST(EngineTest, SingleAtomJoinQuery) {
  Query q = MustParse("Q(x, y) :- E(x, y).");
  auto e = MakeEngine(q);
  e->Apply(UpdateCmd::Insert(0, {1, 2}));
  e->Apply(UpdateCmd::Insert(0, {1, 3}));
  EXPECT_EQ(e->Count(), Weight{2});
  EXPECT_TRUE(SameTupleSet(MaterializeResult(*e), {{1, 2}, {1, 3}}));
  e->Apply(UpdateCmd::Delete(0, {1, 2}));
  EXPECT_TRUE(SameTupleSet(MaterializeResult(*e), {{1, 3}}));
}

TEST(EngineTest, BooleanQueryAnswer) {
  Query q = paper::PhiETBoolean();  // Q() :- E(x, y), T(y).
  auto e = MakeEngine(q);
  RelId er = q.schema().FindRelation("E");
  RelId tr = q.schema().FindRelation("T");
  EXPECT_FALSE(e->Answer());
  EXPECT_EQ(e->Count(), Weight{0});
  e->Apply(UpdateCmd::Insert(er, {1, 2}));
  EXPECT_FALSE(e->Answer());
  e->Apply(UpdateCmd::Insert(tr, {2}));
  EXPECT_TRUE(e->Answer());
  EXPECT_EQ(e->Count(), Weight{1});
  // Boolean enumeration yields one empty tuple.
  auto en = e->NewCursor();
  Tuple t;
  ASSERT_EQ(en->Next(&t), CursorStatus::kOk);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(en->Next(&t), CursorStatus::kEnd);
  e->Apply(UpdateCmd::Delete(tr, {2}));
  EXPECT_FALSE(e->Answer());
}

TEST(EngineTest, QuantifiedCountingUsesProjectedWeights) {
  // Q(x) :- E(x, y): |Q(D)| counts distinct x, not valuations.
  Query q = MustParse("Q(x) :- E(x, y).");
  auto e = MakeEngine(q);
  e->Apply(UpdateCmd::Insert(0, {1, 10}));
  e->Apply(UpdateCmd::Insert(0, {1, 11}));
  e->Apply(UpdateCmd::Insert(0, {1, 12}));
  e->Apply(UpdateCmd::Insert(0, {2, 10}));
  EXPECT_EQ(e->Count(), Weight{2});  // {1, 2}, not 4
  EXPECT_TRUE(SameTupleSet(MaterializeResult(*e), {{1}, {2}}));
  e->Apply(UpdateCmd::Delete(0, {1, 10}));
  EXPECT_EQ(e->Count(), Weight{2});
  e->Apply(UpdateCmd::Delete(0, {1, 11}));
  e->Apply(UpdateCmd::Delete(0, {1, 12}));
  EXPECT_EQ(e->Count(), Weight{1});
}

TEST(EngineTest, MixedFreeAndQuantified) {
  // Q(c, o) :- Orders(c, o), Items(o, i): o is the root, c free child,
  // i quantified child.
  Query q = MustParse("Q(c, o) :- Orders(c, o), Items(o, i).");
  auto e = MakeEngine(q);
  RelId ord = q.schema().FindRelation("Orders");
  RelId itm = q.schema().FindRelation("Items");
  e->Apply(UpdateCmd::Insert(ord, {1, 100}));
  e->Apply(UpdateCmd::Insert(ord, {2, 100}));
  e->Apply(UpdateCmd::Insert(ord, {2, 200}));
  EXPECT_EQ(e->Count(), Weight{0});  // no items yet
  e->Apply(UpdateCmd::Insert(itm, {100, 7}));
  e->Apply(UpdateCmd::Insert(itm, {100, 8}));
  EXPECT_TRUE(
      SameTupleSet(MaterializeResult(*e), {{1, 100}, {2, 100}}));
  EXPECT_EQ(e->Count(), Weight{2});
  e->Apply(UpdateCmd::Insert(itm, {200, 7}));
  EXPECT_EQ(e->Count(), Weight{3});
  e->Apply(UpdateCmd::Delete(itm, {100, 7}));
  EXPECT_EQ(e->Count(), Weight{3});  // (100,8) still supports
  e->Apply(UpdateCmd::Delete(itm, {100, 8}));
  EXPECT_EQ(e->Count(), Weight{1});
}

TEST(EngineTest, DisconnectedQueryCrossProduct) {
  Query q = MustParse("Q(x, y) :- R(x), S(y).");
  auto e = MakeEngine(q);
  EXPECT_EQ(e->NumComponents(), 2u);
  e->Apply(UpdateCmd::Insert(0, {1}));
  e->Apply(UpdateCmd::Insert(0, {2}));
  e->Apply(UpdateCmd::Insert(1, {10}));
  EXPECT_EQ(e->Count(), Weight{2});
  EXPECT_TRUE(SameTupleSet(MaterializeResult(*e), {{1, 10}, {2, 10}}));
  e->Apply(UpdateCmd::Insert(1, {20}));
  EXPECT_EQ(e->Count(), Weight{4});
}

TEST(EngineTest, BooleanGateComponent) {
  // The Boolean component S(u, v) gates the whole result.
  Query q = MustParse("Q(x) :- R(x), S(u, v).");
  auto e = MakeEngine(q);
  e->Apply(UpdateCmd::Insert(0, {1}));
  EXPECT_EQ(e->Count(), Weight{0});
  EXPECT_TRUE(MaterializeResult(*e).empty());
  e->Apply(UpdateCmd::Insert(1, {5, 6}));
  EXPECT_EQ(e->Count(), Weight{1});
  EXPECT_TRUE(SameTupleSet(MaterializeResult(*e), {{1}}));
  e->Apply(UpdateCmd::Delete(1, {5, 6}));
  EXPECT_EQ(e->Count(), Weight{0});
}

TEST(EngineTest, HeadOrderAcrossComponents) {
  Query q = MustParse("Q(b, a) :- R(a, x), S(b, y).");
  auto e = MakeEngine(q);
  e->Apply(UpdateCmd::Insert(0, {1, 100}));  // R(a=1, x=100)
  e->Apply(UpdateCmd::Insert(1, {2, 200}));  // S(b=2, y=200)
  EXPECT_TRUE(SameTupleSet(MaterializeResult(*e), {{2, 1}}));
}

TEST(EngineTest, ConstantsActAsSelections) {
  Query q = MustParse("Q(x) :- E(x, 5).");
  auto e = MakeEngine(q);
  e->Apply(UpdateCmd::Insert(0, {1, 5}));
  e->Apply(UpdateCmd::Insert(0, {2, 6}));
  e->Apply(UpdateCmd::Insert(0, {3, 5}));
  EXPECT_TRUE(SameTupleSet(MaterializeResult(*e), {{1}, {3}}));
  e->Apply(UpdateCmd::Delete(0, {1, 5}));
  EXPECT_TRUE(SameTupleSet(MaterializeResult(*e), {{3}}));
}

TEST(EngineTest, RepeatedVariablesInAtom) {
  Query q = MustParse("Q(x) :- E(x, x).");
  auto e = MakeEngine(q);
  e->Apply(UpdateCmd::Insert(0, {1, 1}));
  e->Apply(UpdateCmd::Insert(0, {1, 2}));
  e->Apply(UpdateCmd::Insert(0, {3, 3}));
  EXPECT_TRUE(SameTupleSet(MaterializeResult(*e), {{1}, {3}}));
}

TEST(EngineTest, QHierarchicalSelfJoin) {
  // E used twice, still q-hierarchical: Q(x,y,y2) :- E(x,y), E(x,y2).
  Query q = MustParse("Q(x, y, y2) :- E(x, y), E(x, y2).");
  ASSERT_TRUE(IsQHierarchical(q));
  auto e = MakeEngine(q);
  e->Apply(UpdateCmd::Insert(0, {1, 7}));
  EXPECT_TRUE(SameTupleSet(MaterializeResult(*e), {{1, 7, 7}}));
  e->Apply(UpdateCmd::Insert(0, {1, 8}));
  EXPECT_EQ(e->Count(), Weight{4});
  e->Apply(UpdateCmd::Insert(0, {2, 9}));
  EXPECT_EQ(e->Count(), Weight{5});
}

TEST(EngineTest, StarQueryThreeChildren) {
  Query q = MustParse("Q(x, u, v, w) :- R(x, u), S(x, v), T(x, w).");
  auto e = MakeEngine(q);
  RelId r = 0, s = 1, t = 2;
  e->Apply(UpdateCmd::Insert(r, {1, 10}));
  e->Apply(UpdateCmd::Insert(s, {1, 20}));
  EXPECT_EQ(e->Count(), Weight{0});
  e->Apply(UpdateCmd::Insert(t, {1, 30}));
  EXPECT_EQ(e->Count(), Weight{1});
  e->Apply(UpdateCmd::Insert(r, {1, 11}));
  e->Apply(UpdateCmd::Insert(s, {1, 21}));
  e->Apply(UpdateCmd::Insert(t, {1, 31}));
  EXPECT_EQ(e->Count(), Weight{8});
  // Cross-check against the oracle evaluator.
  EXPECT_TRUE(SameTupleSet(MaterializeResult(*e),
                           baseline::Evaluate(e->db(), q)));
}

TEST(EngineTest, PreprocessingFromInitialDatabase) {
  Query q = MustParse("Q(x, y) :- E(x, y), T(y).");
  Database d0(q.schema());
  RelId er = q.schema().FindRelation("E");
  RelId tr = q.schema().FindRelation("T");
  d0.Insert(er, {1, 2});
  d0.Insert(er, {3, 2});
  d0.Insert(tr, {2});
  auto e = core::Engine::Create(q, d0);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->Count(), Weight{2});
  EXPECT_TRUE(SameTupleSet(MaterializeResult(**e), {{1, 2}, {3, 2}}));
}

TEST(EngineTest, PreloadAndSharedSyncAgree) {
  // The two preprocessing entry points: Create(q, d0) replays d0 through
  // the batch pipeline (Preload), CreateShared(q, &d0) builds from the
  // resident storage (SyncFromStorage). Both size the root indexes with
  // the same helper and must build equivalent structures.
  for (const char* text : {"Q(x, u, v, w) :- R(x, u), S(x, v), T(x, w).",
                           "Q(x, y, z) :- R(x), S(x, y), T(x, y, z)."}) {
    SCOPED_TRACE(text);
    Query q = MustParse(text);
    Database d0(q.schema());
    Rng rng(5);
    for (int i = 0; i < 400; ++i) {
      const RelId rel = static_cast<RelId>(rng.Below(3));
      Tuple t;
      for (std::size_t k = 0; k < q.schema().arity(rel); ++k) {
        t.push_back(rng.Range(1, 6));
      }
      d0.Insert(rel, t);
    }
    auto preloaded = core::Engine::Create(q, d0);
    auto synced = core::Engine::CreateShared(q, &d0);
    ASSERT_TRUE(preloaded.ok()) << preloaded.error();
    ASSERT_TRUE(synced.ok()) << synced.error();
    core::Engine& a = **preloaded;
    core::Engine& b = **synced;
    EXPECT_GT(a.Count(), Weight{0});
    EXPECT_EQ(a.Count(), b.Count());
    const std::vector<Tuple> result = MaterializeResult(a);
    EXPECT_TRUE(SameTupleSet(result, MaterializeResult(b)));
    EXPECT_TRUE(SameTupleSet(result, baseline::Evaluate(d0, q)));
    for (core::Engine* e : {&a, &b}) {
      for (std::size_t c = 0; c < e->NumComponents(); ++c) {
        e->component(c).CheckInvariants();
      }
    }
  }
}

TEST(EngineTest, EmptyEnumerationEmitsEOEImmediately) {
  Query q = MustParse("Q(x, y) :- E(x, y), T(y).");
  auto e = MakeEngine(q);
  Tuple t;
  auto en = e->NewCursor();
  EXPECT_EQ(en->Next(&t), CursorStatus::kEnd);
  EXPECT_EQ(en->Next(&t), CursorStatus::kEnd);  // stays at EOE
}

TEST(EngineTest, CursorResetRestarts) {
  Query q = MustParse("Q(x) :- R(x).");
  auto e = MakeEngine(q);
  e->Apply(UpdateCmd::Insert(0, {1}));
  e->Apply(UpdateCmd::Insert(0, {2}));
  auto en = e->NewCursor();
  Tuple t;
  int first_pass = 0;
  while (en->Next(&t) == CursorStatus::kOk) ++first_pass;
  EXPECT_EQ(en->Reset(), CursorStatus::kOk);
  int second_pass = 0;
  while (en->Next(&t) == CursorStatus::kOk) ++second_pass;
  EXPECT_EQ(first_pass, 2);
  EXPECT_EQ(second_pass, 2);
}

TEST(EngineTest, CountMatchesEnumerationLength) {
  Query q = MustParse("Q(x, y, z) :- R(x, y), S(x, z).");
  auto e = MakeEngine(q);
  Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    RelId rel = static_cast<RelId>(rng.Below(2));
    Tuple t{rng.Range(1, 12), rng.Range(1, 12)};
    if (rng.Chance(0.7)) {
      e->Apply(UpdateCmd::Insert(rel, t));
    } else {
      e->Apply(UpdateCmd::Delete(rel, t));
    }
    ASSERT_EQ(e->Count(), Weight{MaterializeResult(*e).size()});
  }
}

TEST(EngineTest, PreloadFromOwnStorageRebuildsInPlace) {
  // Regression: Preload(engine.db()) used to replay each relation into
  // itself while iterating it. The self-alias is a no-op when the
  // structure already tracks storage (every write path maintains both),
  // and must leave a fully maintainable engine behind.
  Query q = MustParse("Q(x, y) :- E(x, y), T(y).");
  auto e = MakeEngine(q);
  e->Apply(UpdateCmd::Insert(0, {1, 2}));
  e->Apply(UpdateCmd::Insert(0, {3, 2}));
  e->Apply(UpdateCmd::Insert(1, {2}));
  ASSERT_EQ(e->Count(), Weight{2});
  e->Preload(e->db());
  EXPECT_EQ(e->Count(), Weight{2});
  EXPECT_TRUE(SameTupleSet(MaterializeResult(*e), {{1, 2}, {3, 2}}));
  for (std::size_t c = 0; c < e->NumComponents(); ++c) {
    e->component(c).CheckInvariants();
  }
  e->Apply(UpdateCmd::Delete(0, {1, 2}));
  e->Apply(UpdateCmd::Insert(0, {5, 2}));
  EXPECT_TRUE(SameTupleSet(MaterializeResult(*e), {{3, 2}, {5, 2}}));
}

TEST(EngineTest, InterleavedInsertDeleteChurn) {
  Query q = MustParse("Q(x, y) :- E(x, y), T(y).");
  auto e = MakeEngine(q);
  RelId er = 0, tr = 1;
  for (int round = 0; round < 50; ++round) {
    e->Apply(UpdateCmd::Insert(er, {1, 2}));
    e->Apply(UpdateCmd::Insert(tr, {2}));
    EXPECT_EQ(e->Count(), Weight{1});
    e->Apply(UpdateCmd::Delete(er, {1, 2}));
    EXPECT_EQ(e->Count(), Weight{0});
    e->Apply(UpdateCmd::Delete(tr, {2}));
    EXPECT_EQ(e->NumItems(), 0u);
  }
}

}  // namespace
}  // namespace dyncq
