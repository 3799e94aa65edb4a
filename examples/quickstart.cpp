// Quickstart: open a QuerySession on a conjunctive query, see which
// maintenance strategy the dichotomy picked and what it guarantees, then
// stream updates (single and batched) and read results three ways
// (answer / count / cursor).
//
//   $ ./quickstart
#include <iostream>

#include "core/session.h"
#include "cq/analysis.h"
#include "cq/parser.h"
#include "util/u128.h"

using namespace dyncq;

int main() {
  // 1. A query: orders of known customers that contain some item.
  //    The item variable i is projected away (existentially quantified).
  auto parsed = ParseQuery(
      "LiveOrders(c, o) :- Orders(c, o), Items(o, i).");
  if (!parsed.ok()) {
    std::cerr << "parse error: " << parsed.error() << "\n";
    return 1;
  }
  Query q = parsed.value();
  std::cout << "query:  " << q.ToString() << "\n";
  std::cout << "class:  " << DescribeStructure(q) << "\n\n";

  // 2. Open a session. Construction never fails for a valid CQ: the
  //    dichotomy routes q-hierarchical queries to the Theorem 3.2 engine
  //    and everything else to the delta-IVM fallback, and reports which
  //    guarantees apply.
  QuerySession session(q);
  Capabilities caps = session.capabilities();
  std::cout << "engine:  " << core::ToString(session.strategy()) << "\n";
  std::cout << "  (" << session.rationale() << ")\n";
  std::cout << "caps:    constant-delay enum: "
            << (caps.constant_delay_enumeration ? "yes" : "no")
            << ", batch pipeline: " << (caps.batch_pipeline ? "yes" : "no")
            << ", O(1) count: " << (caps.constant_time_count ? "yes" : "no")
            << ", partitionable: " << (caps.partitionable ? "yes" : "no")
            << "\n\n";

  RelId orders = q.schema().FindRelation("Orders");
  RelId items = q.schema().FindRelation("Items");

  // 3. Stream updates. Each Apply is O(1) in the data size.
  session.Apply(UpdateCmd::Insert(orders, {/*customer=*/1, /*order=*/100}));
  session.Apply(UpdateCmd::Insert(orders, {2, 200}));
  session.Apply(UpdateCmd::Insert(items, {100, 7}));
  session.Apply(UpdateCmd::Insert(items, {100, 8}));

  std::cout << "after 4 inserts (revision "
            << session.revision().value << "):\n";
  std::cout << "  answer: " << (session.Answer() ? "yes" : "no") << "\n";
  std::cout << "  count:  " << U128ToString(session.Count()) << "\n";

  // 4. Constant-delay enumeration through a cursor. Cursors are pinned
  //    to the revision they were opened at; after an update they report
  //    kInvalidated instead of walking stale structure — open a fresh
  //    one (O(k), the paper's "restart within constant time").
  auto cur = session.NewCursor();
  Tuple t;
  while (cur->Next(&t) == CursorStatus::kOk) {
    std::cout << "  result: customer " << t[0] << ", order " << t[1]
              << "\n";
  }

  // 5. A staged batch is an UpdateStream handed to ApplyBatch. Its
  //    result is the ordered replay's: with Items(100, 7) resident,
  //    "insert; delete" removes it, because the last command on a tuple
  //    decides its presence. The batch fold drops the superseded insert
  //    before it probes a relation, so 3 of the 4 commands take effect:
  //    order 100 loses both its items, order 200 gains item 9.
  UpdateStream batch;
  batch.push_back(UpdateCmd::Insert(items, {100, 7}));  // superseded
  batch.push_back(UpdateCmd::Delete(items, {100, 7}));
  batch.push_back(UpdateCmd::Delete(items, {100, 8}));
  batch.push_back(UpdateCmd::Insert(items, {200, 9}));
  const std::size_t effective = session.ApplyBatch(batch);
  std::cout << "\nbatch: " << batch.size() << " commands, " << effective
            << " effective\n";

  std::cout << "after the batch: count = " << U128ToString(session.Count())
            << " (order 100 lost both items, order 200 gained one)\n";

  // 6. The old cursor is stale now — typed status, no abort.
  if (cur->Next(&t) == CursorStatus::kInvalidated) {
    std::cout << "old cursor reports kInvalidated; reopening:\n";
  }
  cur = session.NewCursor();
  while (cur->Next(&t) == CursorStatus::kOk) {
    std::cout << "  result: customer " << t[0] << ", order " << t[1]
              << "\n";
  }
  return 0;
}
