// Multi-list transaction battery: leap::txn composing LeapListTM ops
// across several lists must be one atomic unit.
//
// Functional: multi-list inserts/moves/range snapshots in single
// transactions, same-list multi-op transactions (read-your-writes
// through the instrumented search), split-inducing bulk updates
// inside one transaction, and return-value plumbing.
//
// Stress (the cross-list atomicity test TSan runs): writer threads
// atomically rotate keys between three lists while reader threads
// assert — from point reads and from multi-list range snapshots taken
// in one transaction — that every key is in exactly one list at every
// instant: never two, never none. LEAP_STRESS_MS scales the window.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "leaplist/leaplist.hpp"
#include "leaplist/txn.hpp"
#include "test_common.hpp"
#include "util/random.hpp"
#include "util/spin_barrier.hpp"

using namespace leap::core;
namespace stm = leap::stm;

namespace {

constexpr Key kKeyRange = 192;

Value value_for(Key key) { return key * 3 + 1; }

std::chrono::milliseconds stress_duration() {
  return leap::test::stress_duration(std::chrono::milliseconds(400));
}

void test_multilist_functional() {
  const Params params{.node_size = 8, .max_level = 4};
  LeapListTM a(params);
  LeapListTM b(params);
  LeapListTM c(params);
  // One transaction populating three lists — far beyond one node's
  // capacity, so the same transaction splits nodes it created itself.
  leap::txn([&](stm::Tx& tx) {
    for (Key k = 1; k <= 40; ++k) {
      CHECK(a.insert_in(tx, k, value_for(k)));
      CHECK(b.insert_in(tx, k + 100, value_for(k)));
      CHECK(c.insert_in(tx, k + 200, value_for(k)));
    }
  });
  CHECK(a.debug_validate());
  CHECK(b.debug_validate());
  CHECK(c.debug_validate());
  CHECK_EQ(a.size_slow(), 40u);
  CHECK_EQ(b.size_slow(), 40u);
  CHECK_EQ(c.size_slow(), 40u);
  CHECK_EQ(*a.get(7), value_for(7));
  CHECK_EQ(*b.get(107), value_for(7));

  // Value update (insert of an existing key) returns false and is
  // visible to the same transaction's reads.
  const bool inserted = leap::txn([&](stm::Tx& tx) {
    const bool fresh = a.insert_in(tx, 7, 777);
    CHECK_EQ(*a.get_in(tx, 7), 777);
    return fresh;
  });
  CHECK(!inserted);
  CHECK_EQ(*a.get(7), 777);
  leap::txn([&](stm::Tx& tx) { a.insert_in(tx, 7, value_for(7)); });

  // Atomic move: erase from one list + insert into another, plus an
  // absent-key erase riding along (must stay false and harmless).
  leap::txn([&](stm::Tx& tx) {
    const auto value = a.get_in(tx, 1);
    CHECK(value.has_value());
    CHECK(a.erase_in(tx, 1));
    CHECK(b.insert_in(tx, 1, *value));
    CHECK(!c.erase_in(tx, 1));
  });
  CHECK(!a.get(1).has_value());
  CHECK_EQ(*b.get(1), value_for(1));

  // Same-list erase + reinsert in one transaction (read-your-writes:
  // the second op must see the first's buffered structural change).
  leap::txn([&](stm::Tx& tx) {
    CHECK(a.erase_in(tx, 2));
    CHECK(!a.get_in(tx, 2).has_value());
    CHECK(a.insert_in(tx, 2, 222));
    CHECK_EQ(*a.get_in(tx, 2), 222);
  });
  CHECK_EQ(*a.get(2), 222);
  CHECK(a.debug_validate());

  // Multi-list range snapshot in one transaction.
  std::vector<KV> ra;
  std::vector<KV> rb;
  std::vector<KV> rc;
  leap::txn([&](stm::Tx& tx) {
    a.range_in(tx, 1, 300, ra);
    b.range_in(tx, 1, 300, rb);
    c.range_in(tx, 1, 300, rc);
  });
  CHECK_EQ(ra.size(), 39u);  // key 1 moved to b
  CHECK_EQ(rb.size(), 41u);
  CHECK_EQ(rc.size(), 40u);

  // Mixed update + snapshot: the snapshot taken inside the transaction
  // sees the transaction's own earlier writes.
  leap::txn([&](stm::Tx& tx) {
    a.insert_in(tx, 50, value_for(50));
    a.range_in(tx, 1, 300, ra);
  });
  CHECK_EQ(ra.size(), 40u);

  // Single-op forms flat-nest inside an open transaction.
  leap::txn([&](stm::Tx& tx) {
    (void)tx;
    CHECK(a.insert(51, value_for(51)));
    CHECK_EQ(*a.get(51), value_for(51));
    CHECK(a.erase(51));
  });
  CHECK(!a.get(51).has_value());
  std::printf("  multilist functional ok\n");
}

// Writers rotate keys a->b->c->a; every key lives in exactly one list.
void test_cross_list_atomicity_stress() {
  const leap::test::Watchdog watchdog(
      "cross-list atomicity stress",
      stress_duration() + std::chrono::seconds(30));
  constexpr unsigned kMovers = 4;
  constexpr unsigned kPointReaders = 2;
  constexpr unsigned kSnapshotReaders = 2;
  const Params params{.node_size = 16, .max_level = 6};
  LeapListTM lists[3] = {LeapListTM(params), LeapListTM(params),
                         LeapListTM(params)};
  {
    std::vector<KV> pairs;
    for (Key k = 1; k <= kKeyRange; ++k) pairs.push_back(KV{k, value_for(k)});
    lists[0].bulk_load(pairs);
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> moves{0};
  leap::util::SpinBarrier barrier(kMovers + kPointReaders +
                                  kSnapshotReaders + 1);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kMovers; ++t) {
    threads.emplace_back([&, t] {
      leap::util::Xoshiro256 rng(700 + t);
      std::uint64_t local = 0;
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        const Key key = static_cast<Key>(1 + rng.next_below(kKeyRange));
        leap::txn([&](stm::Tx& tx) {
          // Opacity makes in-transaction invariant checks safe: an
          // inconsistent read set aborts before values are returned.
          int holder = -1;
          for (int i = 0; i < 3; ++i) {
            const auto value = lists[i].get_in(tx, key);
            if (value.has_value()) {
              CHECK_EQ(*value, value_for(key));
              CHECK_EQ(holder, -1);  // never in two lists
              holder = i;
            }
          }
          CHECK(holder >= 0);  // never in none
          CHECK(lists[holder].erase_in(tx, key));
          CHECK(lists[(holder + 1) % 3].insert_in(tx, key, value_for(key)));
        });
        ++local;
      }
      moves.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (unsigned t = 0; t < kPointReaders; ++t) {
    threads.emplace_back([&, t] {
      leap::util::Xoshiro256 rng(800 + t);
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        const Key key = static_cast<Key>(1 + rng.next_below(kKeyRange));
        const int holders = leap::txn([&](stm::Tx& tx) {
          int count = 0;
          for (int i = 0; i < 3; ++i) {
            const auto value = lists[i].get_in(tx, key);
            if (value.has_value()) {
              CHECK_EQ(*value, value_for(key));
              ++count;
            }
          }
          return count;
        });
        CHECK_EQ(holders, 1);  // exactly one list holds the key
      }
    });
  }
  for (unsigned t = 0; t < kSnapshotReaders; ++t) {
    threads.emplace_back([&, t] {
      leap::util::Xoshiro256 rng(900 + t);
      std::vector<KV> snaps[3];
      std::vector<int> seen(kKeyRange + 1, 0);
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        // One transaction snapshots all three lists: together they must
        // hold every key exactly once.
        leap::txn([&](stm::Tx& tx) {
          for (int i = 0; i < 3; ++i) {
            lists[i].range_in(tx, 1, kKeyRange, snaps[i]);
          }
        });
        std::fill(seen.begin(), seen.end(), 0);
        std::size_t total = 0;
        for (const auto& snap : snaps) {
          total += snap.size();
          for (const KV& kv : snap) {
            CHECK(kv.key >= 1 && kv.key <= kKeyRange);
            CHECK_EQ(kv.value, value_for(kv.key));
            ++seen[static_cast<std::size_t>(kv.key)];
          }
        }
        CHECK_EQ(total, static_cast<std::size_t>(kKeyRange));
        for (Key k = 1; k <= kKeyRange; ++k) {
          CHECK_EQ(seen[static_cast<std::size_t>(k)], 1);
        }
      }
    });
  }
  barrier.arrive_and_wait();
  std::this_thread::sleep_for(stress_duration());
  stop.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  // Quiescent agreement: structures valid, population conserved.
  std::size_t total = 0;
  for (auto& list : lists) {
    CHECK(list.debug_validate());
    total += list.size_slow();
  }
  CHECK_EQ(total, static_cast<std::size_t>(kKeyRange));
  for (Key k = 1; k <= kKeyRange; ++k) {
    int holders = 0;
    for (auto& list : lists) {
      const auto value = list.get(k);
      if (value.has_value()) {
        CHECK_EQ(*value, value_for(k));
        ++holders;
      }
    }
    CHECK_EQ(holders, 1);
  }
  std::printf("  cross-list atomicity ok (%llu moves)\n",
              static_cast<unsigned long long>(moves.load()));
}

}  // namespace

int main() {
  test_multilist_functional();
  test_cross_list_atomicity_stress();
  return leap::test::finish("test_txn");
}
