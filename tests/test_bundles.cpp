// Bundled-reference battery: the scan-linearizability proof for the
// non-TM policies (the tentpole of the bundling PR).
//
// 1. Cross-shard scan-linearizability stress for LT/COP/RW — movers
//    bounce logical keys between slots in different shards
//    (insert-destination-then-erase-source, each key owned by one
//    mover) while stitched for_range / bounded scan / snapshot-Cursor
//    readers assert every logical key is present EXACTLY ONCE OR TWICE
//    at every instant. Zero copies is precisely the per-shard-
//    consistency anomaly bundling eliminates: a non-linearizable
//    stitch can read the source shard after the erase and the
//    destination shard before the insert. Mirrors the TM battery in
//    test_sharded.cpp.
// 2. Per-policy bundle fuzz: randomized insert/erase/scan churn at
//    node_size=4 (split storm — bundle publication races node
//    replacement on nearly every update) against a timestamp-annotated
//    std::map oracle; afterwards, as-of walks at sampled historical
//    timestamps must reproduce the oracle's state at each timestamp
//    exactly.
// 3. Erase-visibility regression: a key erased at commit timestamp T
//    stays visible to a scan pinned before T and invisible at >= T,
//    across a node split of its cover node and after EBR bundle
//    reclamation (bundle_prune_all + collect) runs.
//
// LEAP_STRESS_MS scales the stress window; the file runs in the ASan
// and TSan CI jobs.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "leaplist/bundle.hpp"
#include "leaplist/map.hpp"
#include "leaplist/sharded.hpp"
#include "stm/stm.hpp"
#include "test_common.hpp"
#include "util/ebr.hpp"
#include "util/random.hpp"
#include "util/spin_barrier.hpp"

namespace policy = leap::policy;
using leap::ShardOptions;
using leap::core::Params;

namespace {

// --- 1. Cross-shard scan-linearizability stress ----------------------
// Each logical key 1..kLogical lives at slot k (low shards) or
// k + kOffset (high shards). Non-TM movers cannot swap atomically, so
// they insert the destination BEFORE erasing the source: at every
// instant a key has one or two copies, never zero. A reader observing
// zero copies has produced a non-linearizable stitch.

constexpr std::int64_t kLogical = 96;
constexpr std::int64_t kOffset = 10000;

std::int64_t value_for(std::int64_t key) { return key * 7 + 3; }

/// One observed stitched snapshot: ascending keys, correct values,
/// every logical key seen once or twice.
void check_snapshot(
    const std::vector<std::pair<std::int64_t, std::int64_t>>& snap,
    std::vector<int>& seen) {
  CHECK(snap.size() >= static_cast<std::size_t>(kLogical));
  CHECK(snap.size() <= static_cast<std::size_t>(2 * kLogical));
  std::fill(seen.begin(), seen.end(), 0);
  for (std::size_t i = 0; i < snap.size(); ++i) {
    if (i > 0) CHECK(snap[i].first > snap[i - 1].first);
    const std::int64_t logical = snap[i].first > kOffset
                                     ? snap[i].first - kOffset
                                     : snap[i].first;
    CHECK(logical >= 1 && logical <= kLogical);
    CHECK_EQ(snap[i].second, value_for(logical));
    ++seen[static_cast<std::size_t>(logical)];
  }
  for (std::int64_t k = 1; k <= kLogical; ++k) {
    const int copies = seen[static_cast<std::size_t>(k)];
    CHECK(copies == 1 || copies == 2);  // zero = torn stitch
  }
}

template <typename P>
void test_scan_linearizability(const char* name) {
  constexpr unsigned kMovers = 4;
  constexpr unsigned kRangeReaders = 2;
  constexpr unsigned kScanReaders = 1;
  constexpr unsigned kCursorReaders = 1;
  const auto window =
      leap::test::stress_duration(std::chrono::milliseconds(400));
  const leap::test::Watchdog watchdog("scan linearizability stress",
                                      window + std::chrono::seconds(30));
  using M = leap::ShardedMap<std::int64_t, std::int64_t, P>;
  M map(ShardOptions{.shards = 8,
                     .params = Params{.node_size = 16, .max_level = 6}},
        1, kOffset + kLogical);
  for (std::int64_t k = 1; k <= kLogical; ++k) {
    CHECK(map.shard_of(k) != map.shard_of(k + kOffset));
  }
  {
    std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
    for (std::int64_t k = 1; k <= kLogical; ++k) {
      pairs.push_back({k, value_for(k)});
    }
    map.bulk_load(pairs);
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> moves{0};
  leap::util::SpinBarrier barrier(kMovers + kRangeReaders + kScanReaders +
                                  kCursorReaders + 1);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kMovers; ++t) {
    threads.emplace_back([&, t] {
      // Each mover owns the keys congruent to its index: without
      // transactions, two movers racing one key could strand it with
      // zero copies on their own — ownership keeps the 1-or-2
      // invariant a property of the data structure, not luck.
      leap::util::Xoshiro256 rng(2500 + t);
      std::uint64_t local = 0;
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        const auto owned =
            static_cast<std::int64_t>(1 + t + kMovers * rng.next_below(
                static_cast<std::uint64_t>(kLogical) / kMovers));
        const std::int64_t src =
            map.get(owned).has_value() ? owned : owned + kOffset;
        const std::int64_t dst =
            src == owned ? owned + kOffset : owned;
        map.insert(dst, value_for(owned));  // destination first...
        map.erase(src);                     // ...so copies never hit 0
        ++local;
      }
      moves.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (unsigned t = 0; t < kRangeReaders; ++t) {
    threads.emplace_back([&] {
      std::vector<std::pair<std::int64_t, std::int64_t>> snap;
      std::vector<int> seen(static_cast<std::size_t>(kLogical) + 1, 0);
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        snap.clear();
        map.for_range(1, kOffset + kLogical, leap::append_to(snap));
        check_snapshot(snap, seen);
      }
    });
  }
  for (unsigned t = 0; t < kScanReaders; ++t) {
    threads.emplace_back([&] {
      std::vector<std::pair<std::int64_t, std::int64_t>> snap;
      std::vector<int> seen(static_cast<std::size_t>(kLogical) + 1, 0);
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        // Bounded stitched scan with a limit past the worst-case
        // population: the same exactly-once-or-twice snapshot must
        // come back through the scan path.
        snap.clear();
        map.scan(1, static_cast<std::size_t>(2 * kLogical) + 8, snap);
        check_snapshot(snap, seen);
      }
    });
  }
  for (unsigned t = 0; t < kCursorReaders; ++t) {
    threads.emplace_back([&] {
      std::vector<int> seen(static_cast<std::size_t>(kLogical) + 1, 0);
      std::vector<std::pair<std::int64_t, std::int64_t>> snap;
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        auto cursor = map.snapshot(1, kOffset + kLogical);
        snap.assign(cursor.begin(), cursor.end());
        check_snapshot(snap, seen);
      }
    });
  }
  barrier.arrive_and_wait();
  std::this_thread::sleep_for(window);
  stop.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  // Quiescent agreement: movers finish their insert+erase pairs, so
  // every key settles at exactly one slot.
  CHECK(map.debug_validate());
  CHECK_EQ(map.size_slow(), static_cast<std::size_t>(kLogical));
  for (std::int64_t k = 1; k <= kLogical; ++k) {
    const auto at_low = map.get(k);
    const auto at_high = map.get(k + kOffset);
    CHECK(at_low.has_value() != at_high.has_value());
    CHECK_EQ(at_low ? *at_low : *at_high, value_for(k));
  }
  std::printf("  scan linearizability %s ok (%llu moves)\n", name,
              static_cast<unsigned long long>(moves.load()));
}

// --- 2. Per-policy bundle fuzz vs timestamp-annotated oracle ---------
// Single-threaded churn at node_size=4 (every few updates split or
// merge a node, so bundle publication races node replacement on the
// structural path) with every committed mutation recorded as
// (commit timestamp, key, value-or-erase). Scans during the churn
// check the live view; afterwards, as-of walks at sampled historical
// timestamps must reproduce the oracle replayed to that timestamp. A
// ScanPin held across the whole churn keeps the history alive.

struct OracleEvent {
  std::uint64_t ts;
  std::int64_t key;
  std::optional<std::int64_t> value;  // nullopt = erase
};

std::map<std::int64_t, std::int64_t> replay_oracle(
    const std::vector<OracleEvent>& events, std::uint64_t ts) {
  std::map<std::int64_t, std::int64_t> state;
  for (const OracleEvent& e : events) {
    if (e.ts > ts) break;  // events are appended in commit order
    if (e.value) {
      state[e.key] = *e.value;
    } else {
      state.erase(e.key);
    }
  }
  return state;
}

template <typename P>
void test_bundle_fuzz(const char* name) {
  using M = leap::Map<std::int64_t, std::int64_t, P>;
  M map(Params{.node_size = 4, .max_level = 4});
  leap::bundle::ScanPin pin;  // hold the full history window
  std::vector<OracleEvent> events;
  std::map<std::int64_t, std::int64_t> reference;
  leap::util::Xoshiro256 rng(0xb0bb1e);
  constexpr std::int64_t kKeyRange = 160;
  for (int op = 0; op < 6000; ++op) {
    const auto key = static_cast<std::int64_t>(1 + rng.next_below(kKeyRange));
    const int dial = static_cast<int>(rng.next_below(100));
    if (dial < 45) {
      const auto value = static_cast<std::int64_t>(rng.next() >> 1);
      CHECK_EQ(map.insert(key, value),
               reference.find(key) == reference.end());
      reference[key] = value;
      events.push_back({leap::stm::clock_now(), key, value});
    } else if (dial < 80) {
      const bool erased = map.erase(key);
      CHECK_EQ(erased, reference.erase(key) > 0);
      if (erased) events.push_back({leap::stm::clock_now(), key, {}});
    } else {
      // Live scan over a random window vs the current reference.
      const auto span = static_cast<std::int64_t>(rng.next_below(60));
      const std::int64_t high = std::min(kKeyRange, key + span);
      std::vector<std::pair<std::int64_t, std::int64_t>> got;
      map.for_range(key, high, leap::append_to(got));
      auto it = reference.lower_bound(key);
      std::size_t n = 0;
      for (; it != reference.end() && it->first <= high; ++it, ++n) {
        CHECK(n < got.size());
        CHECK_EQ(got[n].first, it->first);
        CHECK_EQ(got[n].second, it->second);
      }
      CHECK_EQ(got.size(), n);
    }
  }
  CHECK(map.debug_validate());

  // As-of walks at sampled historical timestamps: each must match the
  // oracle replayed to exactly that timestamp, and none may fail (the
  // pin held their history).
  const std::uint64_t now = leap::stm::clock_now();
  CHECK(pin.ts() < now);
  leap::util::Xoshiro256 sample_rng(0x5eed);
  for (int probe = 0; probe < 64; ++probe) {
    const std::uint64_t ts =
        pin.ts() + sample_rng.next_below(now - pin.ts() + 1);
    const auto expected = replay_oracle(events, ts);
    std::vector<std::pair<std::int64_t, std::int64_t>> got;
    auto sink = leap::append_to(got);
    std::size_t delivered = 0;
    bool stopped = false;
    CHECK(map.try_for_range_at(ts, std::int64_t{1}, kKeyRange, sink,
                               delivered, stopped));
    CHECK(!stopped);
    CHECK_EQ(delivered, expected.size());
    CHECK_EQ(got.size(), expected.size());
    auto it = expected.begin();
    for (std::size_t i = 0; i < got.size(); ++i, ++it) {
      CHECK_EQ(got[i].first, it->first);
      CHECK_EQ(got[i].second, it->second);
    }
  }
  std::printf("  bundle fuzz %s ok (%zu events, max bundle %zu)\n", name,
              events.size(), map.engine().debug_max_bundle());
}

// --- 3. Erase-visibility regression ----------------------------------
// The key erased at commit timestamp T must stay visible to scans at
// T-1 and be invisible at T and T+1 — before and after its cover node
// splits, and after bundle reclamation runs.

template <typename P>
void test_erase_visibility(const char* name) {
  using M = leap::Map<std::int64_t, std::int64_t, P>;
  M map(Params{.node_size = 4, .max_level = 4});
  leap::bundle::ScanPin pin;  // announced before T: protects T-1 reads

  for (std::int64_t k = 1; k <= 3; ++k) map.insert(k, k * 100);
  CHECK(map.erase(2));
  const std::uint64_t erase_ts = leap::stm::clock_now();

  const auto keys_at = [&](std::uint64_t ts) {
    std::vector<std::pair<std::int64_t, std::int64_t>> got;
    auto sink = leap::append_to(got);
    std::size_t delivered = 0;
    bool stopped = false;
    CHECK(map.try_for_range_at(ts, std::int64_t{1}, std::int64_t{1000},
                               sink, delivered, stopped));
    std::vector<std::int64_t> keys;
    for (const auto& [k, v] : got) keys.push_back(k);
    return keys;
  };

  const auto contains = [](const std::vector<std::int64_t>& keys,
                           std::int64_t key) {
    return std::find(keys.begin(), keys.end(), key) != keys.end();
  };

  // Before any structural churn.
  CHECK(contains(keys_at(erase_ts - 1), 2));
  CHECK(!contains(keys_at(erase_ts), 2));
  CHECK(!contains(keys_at(erase_ts + 1), 2));

  // Split the cover node: at node_size=4 a burst of neighbors forces
  // the node holding the history through copy-node-and-swap splits.
  for (std::int64_t k = 4; k <= 40; ++k) map.insert(k, k * 100);
  CHECK(map.debug_validate());
  CHECK(contains(keys_at(erase_ts - 1), 2));
  CHECK(!contains(keys_at(erase_ts), 2));
  CHECK(!contains(keys_at(erase_ts + 1), 2));

  // Run bundle reclamation. The pin predates T, so pruning must keep
  // every entry the T-1 walk needs; EBR collect cycles recycle what
  // was legitimately retired.
  map.engine().bundle_prune_all();
  for (int i = 0; i < 4; ++i) leap::util::ebr::collect();
  CHECK(contains(keys_at(erase_ts - 1), 2));
  CHECK(!contains(keys_at(erase_ts), 2));
  CHECK(!contains(keys_at(erase_ts + 1), 2));

  // The live view agrees with the latest timestamp.
  CHECK(!map.get(2).has_value());
  CHECK_EQ(*map.get(1), 100);
  std::printf("  erase visibility %s ok (T=%llu)\n", name,
              static_cast<unsigned long long>(erase_ts));
}

}  // namespace

int main() {
  test_scan_linearizability<policy::LT>("LT");
  test_scan_linearizability<policy::COP>("COP");
  test_scan_linearizability<policy::RW>("RW");
  test_bundle_fuzz<policy::LT>("LT");
  test_bundle_fuzz<policy::COP>("COP");
  test_bundle_fuzz<policy::RW>("RW");
  test_bundle_fuzz<policy::TM>("TM");
  test_erase_visibility<policy::LT>("LT");
  test_erase_visibility<policy::COP>("COP");
  test_erase_visibility<policy::RW>("RW");
  test_erase_visibility<policy::TM>("TM");
  return leap::test::finish("test_bundles");
}
