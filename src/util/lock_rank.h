// Lock-rank tokens: the repo-wide lock hierarchy as analysis inputs.
//
// The documented acquisition order across layers is
//
//   serve::QueryRegistry::mu_           (registry routing + entry table)
//     -> DynamicQueryEngine::snap_mu_   (engine snapshot/epoch state)
//       -> core::ItemPool::retire_mu_   (retired slabs)
//         -> core::ItemPool::dir_mu_    (block directory)
//
// Clang checks ACQUIRED_BEFORE/ACQUIRED_AFTER edges transitively under
// -Wthread-safety-beta, but an attribute argument cannot name another
// class's non-static member — the three mutexes above live in three
// classes across three layers. These global token mutexes bridge the
// cross-class edges instead: each real mutex declares itself BEFORE the
// token that follows it and AFTER the token that precedes it, and the
// analysis's transitive closure then rejects any out-of-order pair of
// the real locks (tests/util/negcompile/lock_order.cc proves it fires).
//
// The tokens are never locked at runtime; they are vocabulary for the
// analysis, not synchronization. Locking one trips the invariant linter
// convention that every acquisition names a real resource — don't.
#ifndef DYNCQ_UTIL_LOCK_RANK_H_
#define DYNCQ_UTIL_LOCK_RANK_H_

#include "util/mutex.h"

namespace dyncq::util::lock_rank {

/// Rank boundary after serve::QueryRegistry::mu_.
extern Mutex kBelowRegistry;

/// Rank boundary after DynamicQueryEngine::snap_mu_.
extern Mutex kBelowEngineSnap;

/// Rank boundary after core::ItemPool::retire_mu_.
extern Mutex kBelowPoolRetire;

}  // namespace dyncq::util::lock_rank

#endif  // DYNCQ_UTIL_LOCK_RANK_H_
