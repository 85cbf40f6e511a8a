// Sharded-map battery: OrderedMap conformance for every policy,
// codec-order routing properties (monotone, clamped, all shards
// reachable), partition-boundary fuzz against std::map (keys adjacent
// to split points, plus keys outside the hint window), stitched range
// semantics (early exit, bounded scans, cursors across boundaries),
// cross-shard composition with plain maps, the span get_in (one
// interleaved search across shards) against per-key get_in and
// std::map, and the cross-shard linearizability stress: movers rotate
// keys between slots in different shards (half through leap::txn with
// in-transaction invariant checks, half through move_key) while
// stitched-range, point and span-get readers assert exactly-once
// visibility at every instant. LEAP_STRESS_MS scales the stress
// window; the whole file runs in the ASan and TSan CI jobs.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "leaplist/codec.hpp"
#include "leaplist/map.hpp"
#include "leaplist/sharded.hpp"
#include "leaplist/skiplist.hpp"
#include "leaplist/txn.hpp"
#include "test_common.hpp"
#include "util/random.hpp"
#include "util/spin_barrier.hpp"

namespace codec = leap::codec;
namespace policy = leap::policy;
using leap::ShardOptions;
using leap::core::Params;

namespace {

// --- Concept conformance (compile-time) ------------------------------

template <typename P>
using I64Sharded = leap::ShardedMap<std::int64_t, std::int64_t, P>;

static_assert(leap::OrderedMap<I64Sharded<policy::LT>>);
static_assert(leap::OrderedMap<I64Sharded<policy::COP>>);
static_assert(leap::OrderedMap<I64Sharded<policy::TM>>);
static_assert(leap::OrderedMap<I64Sharded<policy::RW>>);
static_assert(leap::OrderedMap<I64Sharded<policy::SkipCAS>>);
static_assert(leap::OrderedMap<I64Sharded<policy::SkipTM>>);
static_assert(
    leap::OrderedMap<leap::ShardedMap<std::uint32_t, double, policy::LT>>);

// Only the TM policy composes; the sharded tag is what the harness and
// db layers key off.
template <typename M>
constexpr bool kHasComposable = requires(M m, leap::stm::Tx& tx) {
  m.insert_in(tx, typename M::key_type{}, typename M::mapped_type{});
  m.move_key(typename M::key_type{}, typename M::key_type{});
};
static_assert(kHasComposable<I64Sharded<policy::TM>>);
static_assert(!kHasComposable<I64Sharded<policy::LT>>);
static_assert(!kHasComposable<I64Sharded<policy::SkipCAS>>);
static_assert(I64Sharded<policy::LT>::kSharded);

// --- Routing properties ----------------------------------------------

void test_routing() {
  using M = I64Sharded<policy::LT>;
  constexpr std::size_t kShards = 8;
  const ShardOptions opts{.shards = kShards,
                          .params = Params{.node_size = 8, .max_level = 4}};
  M map(opts, -1000, 999);
  CHECK_EQ(map.shard_count(), kShards);

  // Monotone over the window and beyond it; every shard reachable.
  std::size_t prev = 0;
  std::size_t jumps = 0;
  for (std::int64_t k = -1300; k <= 1300; ++k) {
    const std::size_t s = map.shard_of(k);
    CHECK(s < kShards);
    CHECK(s >= prev);
    if (s > prev) {
      CHECK_EQ(s, prev + 1);  // consecutive intervals, no skipped shard
      ++jumps;
    }
    prev = s;
  }
  CHECK_EQ(jumps, kShards - 1);

  // Keys outside the hint window clamp onto the edge shards.
  CHECK_EQ(map.shard_of(std::numeric_limits<std::int64_t>::min() + 2), 0u);
  CHECK_EQ(map.shard_of(std::numeric_limits<std::int64_t>::max() - 2),
           kShards - 1);

  // The full-window default stays monotone and in range (a narrow
  // distribution buckets into one shard there — documented behavior).
  M wide(opts);
  prev = 0;
  for (std::int64_t k = -1000000; k <= 1000000; k += 997) {
    const std::size_t s = wide.shard_of(k);
    CHECK(s < kShards);
    CHECK(s >= prev);
    prev = s;
  }

  // One shard degenerates to a plain routed map.
  M single(ShardOptions{.shards = 1, .params = opts.params}, -1000, 999);
  for (std::int64_t k = -5000; k <= 5000; k += 13) {
    CHECK_EQ(single.shard_of(k), 0u);
  }

  // Balance regression: a window span just ABOVE a power of two (the
  // harness window [1, 102001], span 102000 vs 2^17) must still split
  // near-evenly — a power-of-two normalization here starved the top
  // shards (S=8: shard 7 empty; S=64: shards 49..63 empty).
  for (const std::size_t shards : {std::size_t{8}, std::size_t{64}}) {
    M harness_window(ShardOptions{.shards = shards, .params = opts.params},
                     1, 102001);
    CHECK_EQ(harness_window.shard_of(102001), shards - 1);
    std::vector<std::size_t> load(shards, 0);
    for (std::int64_t k = 1; k <= 102001; ++k) {
      ++load[harness_window.shard_of(k)];
    }
    const auto [lo_it, hi_it] = std::minmax_element(load.begin(), load.end());
    CHECK(*lo_it > 0);
    CHECK(*hi_it <= *lo_it + *lo_it / 8);  // within ~12% of even
  }
  std::printf("  routing ok\n");
}

// --- Partition-boundary fuzz vs std::map -----------------------------

template <typename P>
void test_boundary_fuzz(const char* name) {
  using M = leap::ShardedMap<std::int32_t, std::int64_t, P>;
  constexpr std::int32_t kHalf = 500;
  constexpr std::size_t kShards = 8;
  M map(ShardOptions{.shards = kShards,
                     .params = Params{.node_size = 8, .max_level = 6}},
        -kHalf, kHalf);

  // Split-adjacent keys: both sides of every partition boundary.
  std::vector<std::int32_t> edges;
  for (std::int32_t k = -kHalf; k < kHalf; ++k) {
    if (map.shard_of(k) != map.shard_of(k + 1)) {
      edges.push_back(k);
      edges.push_back(k + 1);
    }
  }
  CHECK_EQ(edges.size(), 2 * (kShards - 1));

  std::map<std::int32_t, std::int64_t> reference;
  leap::util::Xoshiro256 rng(5150);
  const auto draw_key = [&]() -> std::int32_t {
    if ((rng.next() & 1) != 0) {
      // Aim at a split point, jittered a couple of keys either side.
      const auto edge = edges[rng.next_below(edges.size())];
      const auto jitter = static_cast<std::int32_t>(rng.next_below(5)) - 2;
      return edge + jitter;
    }
    // Uniform, slightly wider than the hint window so the clamped
    // edge shards see out-of-window traffic too.
    return static_cast<std::int32_t>(rng.next_below(2 * (kHalf + 10) + 1)) -
           (kHalf + 10);
  };
  for (int op = 0; op < 12000; ++op) {
    const std::int32_t key = draw_key();
    const int dial = static_cast<int>(rng.next_below(100));
    if (dial < 40) {
      const auto value = static_cast<std::int64_t>(rng.next());
      CHECK_EQ(map.insert(key, value),
               reference.find(key) == reference.end());
      reference[key] = value;
    } else if (dial < 70) {
      CHECK_EQ(map.erase(key), reference.erase(key) > 0);
    } else if (dial < 80) {
      const auto expected = reference.find(key);
      const auto actual = map.get(key);
      CHECK_EQ(actual.has_value(), expected != reference.end());
      if (actual) CHECK_EQ(*actual, expected->second);
    } else if (dial < 92) {
      // Stitched range crossing one or more boundaries.
      const auto span = static_cast<std::int32_t>(rng.next_below(300));
      const std::int32_t low = key;
      const auto high = static_cast<std::int32_t>(
          std::min<std::int64_t>(kHalf + 10, std::int64_t{low} + span));
      std::vector<std::pair<std::int32_t, std::int64_t>> got;
      const std::size_t visited =
          map.for_range(low, high, leap::append_to(got));
      CHECK_EQ(visited, got.size());
      auto it = reference.lower_bound(low);
      std::size_t n = 0;
      for (; it != reference.end() && it->first <= high; ++it, ++n) {
        CHECK(n < got.size());
        CHECK_EQ(got[n].first, it->first);
        CHECK_EQ(got[n].second, it->second);
      }
      CHECK_EQ(got.size(), n);
    } else {
      // Bounded stitched scan: explicit append, global key order.
      const std::size_t limit = 1 + rng.next_below(48);
      std::vector<std::pair<std::int32_t, std::int64_t>> out = {{-1, -1}};
      const std::size_t appended = map.scan(key, limit, out);
      CHECK(appended <= limit);
      CHECK_EQ(out.size(), 1 + appended);
      CHECK_EQ(out[0].first, -1);
      auto it = reference.lower_bound(key);
      for (std::size_t i = 0; i < appended; ++i, ++it) {
        CHECK(it != reference.end());
        CHECK_EQ(out[1 + i].first, it->first);
        CHECK_EQ(out[1 + i].second, it->second);
      }
      // The scan is exhaustive-or-full: short results mean the
      // reference had nothing more at or above `key` either.
      if (appended < limit) CHECK(it == reference.end());
      // The same scan clipped at `high` (below `key` for the smallest
      // limits): a prefix of the pairs in [key, high], full up to the
      // limit or exhaustive up to `high`.
      const std::int32_t high =
          key + 3 * static_cast<std::int32_t>(limit) - 20;
      std::vector<std::pair<std::int32_t, std::int64_t>> clipped;
      const std::size_t kept = map.scan(key, high, limit, clipped);
      CHECK_EQ(kept, clipped.size());
      CHECK(kept <= limit);
      it = reference.lower_bound(key);
      for (std::size_t i = 0; i < kept; ++i, ++it) {
        CHECK(it != reference.end() && it->first <= high);
        CHECK_EQ(clipped[i].first, it->first);
        CHECK_EQ(clipped[i].second, it->second);
      }
      if (kept < limit) CHECK(it == reference.end() || it->first > high);
    }
  }
  // Skip-list shards don't expose quiescent introspection.
  if constexpr (requires { map.size_slow(); }) {
    CHECK_EQ(map.size_slow(), reference.size());
  }
  if constexpr (requires { map.debug_validate(); }) {
    CHECK(map.debug_validate());
  }

  // Early exit across a shard boundary: the three smallest keys of a
  // window spanning the whole map, regardless of which shards they
  // live in.
  if (reference.size() >= 3) {
    std::vector<std::int32_t> seen;
    const std::size_t visited = map.for_range(
        -kHalf - 10, kHalf + 10, [&](std::int32_t k, std::int64_t) {
          seen.push_back(k);
          return seen.size() < 3;
        });
    CHECK_EQ(visited, 3u);
    auto it = reference.begin();
    for (std::size_t i = 0; i < 3; ++i, ++it) CHECK_EQ(seen[i], it->first);
  }

  // Snapshot cursor stitched over every shard, stable across updates.
  auto cursor = map.snapshot(-kHalf - 10, kHalf + 10);
  CHECK_EQ(cursor.size(), reference.size());
  map.insert(0, 42);
  auto ref = reference.begin();
  for (; cursor.valid(); cursor.next(), ++ref) {
    CHECK_EQ(cursor.key(), ref->first);
    CHECK_EQ(cursor.value(), ref->second);
  }
  CHECK(ref == reference.end());
  std::printf("  boundary fuzz %s ok\n", name);
}

// --- Cross-shard and cross-map composition (policy::TM) --------------

void test_composition() {
  using SM = leap::ShardedMap<std::int64_t, std::int64_t, policy::TM>;
  using M = leap::Map<std::int64_t, std::int64_t, policy::TM>;
  const Params params{.node_size = 8, .max_level = 4};
  SM sharded(ShardOptions{.shards = 4, .params = params}, 1, 400);
  M plain(params);
  for (std::int64_t k = 1; k <= 200; ++k) sharded.insert(k, k * 10);
  CHECK_EQ(sharded.size_slow(), 200u);
  // The preload actually spans shards.
  CHECK(sharded.shard_of(1) != sharded.shard_of(200));

  // move_key across a shard boundary: value travels, source vanishes.
  CHECK(sharded.move_key(1, 399));
  CHECK(!sharded.get(1).has_value());
  CHECK_EQ(*sharded.get(399), 10);
  CHECK(!sharded.move_key(1, 399));  // absent source moves nothing
  CHECK(sharded.move_key(399, 1));   // and back

  // One transaction spanning the sharded map and a plain map: move the
  // odd keys out, take a stitched + plain snapshot at the same instant.
  leap::txn([&](leap::stm::Tx& tx) {
    for (std::int64_t k = 1; k <= 200; k += 2) {
      const auto v = sharded.get_in(tx, k);
      CHECK(v.has_value());
      sharded.erase_in(tx, k);
      plain.insert_in(tx, k, *v);
    }
  });
  CHECK_EQ(sharded.size_slow(), 100u);
  CHECK_EQ(plain.size_slow(), 100u);
  std::vector<std::pair<std::int64_t, std::int64_t>> both;
  leap::txn([&](leap::stm::Tx& tx) {
    both.clear();
    sharded.for_range_in(tx, 1, 400, leap::append_to(both));
    plain.for_range_in(tx, 1, 400, leap::append_to(both));
  });
  CHECK_EQ(both.size(), 200u);
  for (std::size_t i = 0; i < 100; ++i) {
    CHECK_EQ(both[i].first, static_cast<std::int64_t>(2 * (i + 1)));
    CHECK_EQ(both[100 + i].first, static_cast<std::int64_t>(2 * i + 1));
  }

  // Composable bounded scan inside one transaction.
  std::vector<std::pair<std::int64_t, std::int64_t>> first10;
  leap::txn([&](leap::stm::Tx& tx) {
    first10.clear();
    sharded.scan_in(tx, 1, 10, first10);
  });
  CHECK_EQ(first10.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    CHECK_EQ(first10[i].first, static_cast<std::int64_t>(2 * (i + 1)));
  }
  CHECK(sharded.debug_validate());
  std::printf("  composition ok\n");
}

// --- Span get_in across shards: one interleaved search ----------------

void test_span_get_across_shards() {
  using SM = leap::ShardedMap<std::int64_t, std::int64_t, policy::TM>;
  using leap::core::kSearchLanes;
  constexpr std::int64_t kLo = -4000;
  constexpr std::int64_t kHi = 4000;
  SM map(ShardOptions{.shards = 8,
                      .params = Params{.node_size = 4, .max_level = 6}},
         kLo, kHi);
  std::map<std::int64_t, std::int64_t> reference;
  leap::util::Xoshiro256 rng(0x5a4d);
  for (int op = 0; op < 6000; ++op) {
    const auto key = kLo + static_cast<std::int64_t>(
                               rng.next_below(static_cast<std::uint64_t>(
                                   kHi - kLo + 1)));
    if (rng.next_below(4) == 0) {
      map.erase(key);
      reference.erase(key);
    } else {
      map.insert(key, key ^ 0x55);
      reference[key] = key ^ 0x55;
    }
  }
  const auto expect = [&](std::int64_t key) -> std::optional<std::int64_t> {
    const auto it = reference.find(key);
    if (it == reference.end()) return std::nullopt;
    return it->second;
  };
  // Keys on every shard, present and absent, repeats inside a run, keys
  // outside the hint window and the domain edges.
  std::vector<std::int64_t> keys;
  std::vector<bool> shard_hit(map.shard_count(), false);
  for (int i = 0; i < 600; ++i) {
    const auto key = kLo - 50 + static_cast<std::int64_t>(
                                    rng.next_below(static_cast<std::uint64_t>(
                                        kHi - kLo + 101)));
    keys.push_back(key);
    shard_hit[map.shard_of(key)] = true;
    if (i % 5 == 0) keys.push_back(key);
  }
  keys.push_back(std::numeric_limits<std::int64_t>::min() + 1);
  keys.push_back(std::numeric_limits<std::int64_t>::max() - 1);
  keys.insert(keys.begin() + 3, std::numeric_limits<std::int64_t>::min() + 1);
  for (const bool hit : shard_hit) CHECK(hit);
  std::vector<std::optional<std::int64_t>> span_hits(keys.size());
  std::vector<std::optional<std::int64_t>> seq_hits(keys.size());
  const auto check_runs = [&] {
    for (std::size_t len = 1; len <= kSearchLanes + 1; ++len) {
      for (std::size_t at = 0; at + len <= keys.size(); at += len) {
        const std::span<const std::int64_t> run(keys.data() + at, len);
        leap::txn([&](leap::stm::Tx& tx) {
          map.get_in(tx, run, std::span(span_hits.data() + at, len));
          for (std::size_t i = 0; i < len; ++i) {
            seq_hits[at + i] = map.get_in(tx, run[i]);
          }
        });
        for (std::size_t i = at; i < at + len; ++i) {
          CHECK(span_hits[i] == seq_hits[i]);
          CHECK(span_hits[i] == expect(keys[i]));
        }
      }
    }
  };
  check_runs();
  // Read-your-writes across shards: in one transaction, put a key on
  // every shard and erase one present key per shard, then read them all
  // back in one run (each twice, interleaved).
  std::vector<std::int64_t> written;
  std::vector<std::int64_t> erased;
  for (std::size_t s = 0; s < map.shard_count(); ++s) {
    for (const auto& [key, value] : reference) {
      if (map.shard_of(key) == s) {
        erased.push_back(key);
        break;
      }
    }
    for (std::int64_t key = kLo; key <= kHi; ++key) {
      if (map.shard_of(key) == s && !reference.contains(key)) {
        written.push_back(key);
        break;
      }
    }
  }
  CHECK_EQ(written.size(), map.shard_count());
  CHECK_EQ(erased.size(), map.shard_count());
  leap::txn([&](leap::stm::Tx& tx) {
    std::vector<std::int64_t> run;
    for (std::size_t s = 0; s < written.size(); ++s) {
      map.insert_in(tx, written[s], -1 - written[s]);
      map.erase_in(tx, erased[s]);
      run.insert(run.end(), {written[s], erased[s]});
    }
    run.insert(run.end(), run.begin(), run.end());
    std::vector<std::optional<std::int64_t>> hits(run.size());
    map.get_in(tx, run, hits);
    for (std::size_t i = 0; i < run.size(); i += 2) {
      CHECK(hits[i] == std::optional<std::int64_t>(-1 - run[i]));
      CHECK(!hits[i + 1].has_value());
    }
  });
  for (std::size_t s = 0; s < written.size(); ++s) {
    reference[written[s]] = -1 - written[s];
    reference.erase(erased[s]);
  }
  check_runs();
  CHECK(map.debug_validate());
  std::printf("  span get_in across shards ok\n");
}

// --- Composable updates under two writers ----------------------------
// Two threads commit leap::txns of 32 insert_ins on interleaved keys
// (so both write the same nodes of the same shards) plus one 50-pair
// scan_in each. An update that plans on a window a concurrent commit
// is still writing back wedges here, both threads spinning in the
// search; the watchdog turns that into a named failure.

std::int64_t wedge_value(std::int64_t key) { return key * 5 - 1; }

void test_two_writer_update_wedge() {
  using SM = leap::ShardedMap<std::int64_t, std::int64_t, policy::TM>;
  constexpr std::int64_t kKeys = 1000;
  constexpr int kThreads = 2;
  const auto window =
      leap::test::stress_duration(std::chrono::milliseconds(1000));
  const leap::test::Watchdog watchdog("two-writer update test",
                                      window + std::chrono::seconds(30));
  SM map(ShardOptions{.shards = 8,
                      .params = Params{.node_size = 16, .max_level = 6}},
         0, kKeys - 1);
  std::atomic<std::uint64_t> txns{0};
  leap::util::SpinBarrier barrier(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      leap::util::Xoshiro256 rng(4100 + static_cast<std::uint64_t>(t));
      std::vector<std::pair<std::int64_t, std::int64_t>> scanned;
      std::uint64_t local = 0;
      barrier.arrive_and_wait();
      const auto until = std::chrono::steady_clock::now() + window;
      while (local < 20 || std::chrono::steady_clock::now() < until) {
        const auto base = static_cast<std::int64_t>(
            rng.next_below(static_cast<std::uint64_t>(kKeys - 64)));
        const auto low = static_cast<std::int64_t>(
            rng.next_below(static_cast<std::uint64_t>(kKeys)));
        leap::txn([&](leap::stm::Tx& tx) {
          for (std::int64_t i = 0; i < 32; ++i) {
            const std::int64_t key = base + 2 * i + t;
            map.insert_in(tx, key, wedge_value(key));
          }
          scanned.clear();
          map.scan_in(tx, low, 50, scanned);
        });
        for (std::size_t i = 0; i < scanned.size(); ++i) {
          CHECK_EQ(scanned[i].second, wedge_value(scanned[i].first));
          if (i > 0) CHECK(scanned[i].first > scanned[i - 1].first);
        }
        ++local;
      }
      txns.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& thread : threads) thread.join();
  CHECK(map.debug_validate());
  std::vector<std::pair<std::int64_t, std::int64_t>> all;
  map.for_range(0, kKeys, leap::append_to(all));
  for (const auto& [key, value] : all) CHECK_EQ(value, wedge_value(key));
  std::printf("  two-writer updates ok (%llu txns, %zu keys)\n",
              static_cast<unsigned long long>(txns.load()), all.size());
}

// --- A scan clipped at `high` reads nothing past it -------------------
// scan_in(low, high, limit) must stop its walk at the node covering
// `high`: a commit ~200 pairs further on in the same shard may not
// conflict with it. Every node has one level (max_level 1), so the
// only words the scan reads are the hop words from the list head up to
// `high`'s node, and the writer's commit touches none of them. The
// scanning transaction also writes (in the other shard), so its commit
// validates the whole read set.

void test_scan_in_stops_at_high() {
  using SM = leap::ShardedMap<std::int64_t, std::int64_t, policy::TM>;
  SM map(ShardOptions{.shards = 2,
                      .params = Params{.node_size = 16, .max_level = 1}},
         0, 9999);
  std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
  for (std::int64_t k = 0; k < 1000; ++k) pairs.push_back({k, k});
  map.bulk_load(pairs);
  CHECK_EQ(map.shard_of(100), map.shard_of(310));
  CHECK(map.shard_of(100) != map.shard_of(9000));

  int attempts = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  leap::txn([&](leap::stm::Tx& tx) {
    ++attempts;
    map.insert_in(tx, 9000, 1);
    out.clear();
    map.scan_in(tx, 100, 110, 512, out);
    if (attempts == 1) {
      std::thread writer([&] { CHECK(!map.insert(310, -310)); });
      writer.join();
    }
  });
  CHECK_EQ(attempts, 1);
  CHECK_EQ(out.size(), std::size_t{11});
  CHECK_EQ(out.front().first, std::int64_t{100});
  CHECK_EQ(out.back().first, std::int64_t{110});
  CHECK_EQ(*map.get(310), std::int64_t{-310});

  // The non-composable entry point clips the same way, across shards.
  out.clear();
  CHECK_EQ(map.scan(990, 9000, 512, out), std::size_t{11});
  CHECK_EQ(out.back().first, std::int64_t{9000});
  out.clear();
  CHECK_EQ(map.scan(5, 2, 512, out), std::size_t{0});  // high < low
  std::printf("  bounded scan_in ok\n");
}

// --- Cross-shard linearizability stress ------------------------------
// Each logical key 1..kLogical lives at exactly one of two slots — k
// (low shards) or k + kOffset (high shards). Movers bounce values
// between the slots; stitched-range readers and transactional point
// readers must observe exactly one slot per key at every instant.

constexpr std::int64_t kLogical = 96;
constexpr std::int64_t kOffset = 10000;

std::int64_t value_for(std::int64_t key) { return key * 7 + 3; }

void test_cross_shard_atomicity_stress() {
  constexpr unsigned kMovers = 4;
  constexpr unsigned kPointReaders = 2;
  constexpr unsigned kSnapshotReaders = 2;
  constexpr unsigned kSpanReaders = 1;
  const auto window =
      leap::test::stress_duration(std::chrono::milliseconds(400));
  const leap::test::Watchdog watchdog("cross-shard atomicity stress",
                                      window + std::chrono::seconds(60));
  using M = leap::ShardedMap<std::int64_t, std::int64_t, policy::TM>;
  M map(ShardOptions{.shards = 8,
                     .params = Params{.node_size = 16, .max_level = 6}},
        1, kOffset + kLogical);
  // The two slots of a key must straddle shards or the test is vacuous.
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
  leap::util::SpinBarrier barrier(kMovers + kPointReaders +
                                  kSnapshotReaders + kSpanReaders + 1);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kMovers; ++t) {
    threads.emplace_back([&, t] {
      leap::util::Xoshiro256 rng(1700 + t);
      std::uint64_t local = 0;
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        const auto k =
            static_cast<std::int64_t>(1 + rng.next_below(kLogical));
        if ((rng.next() & 1) != 0) {
          // Explicit transaction with in-transaction invariant checks
          // (opacity makes them safe: an inconsistent read set aborts
          // before values are returned).
          leap::txn([&](leap::stm::Tx& tx) {
            const auto at_low = map.get_in(tx, k);
            const auto at_high = map.get_in(tx, k + kOffset);
            CHECK(at_low.has_value() != at_high.has_value());
            if (at_low) {
              CHECK_EQ(*at_low, value_for(k));
              map.erase_in(tx, k);
              map.insert_in(tx, k + kOffset, *at_low);
            } else {
              CHECK_EQ(*at_high, value_for(k));
              map.erase_in(tx, k + kOffset);
              map.insert_in(tx, k, *at_high);
            }
          });
        } else {
          // The move_key convenience: each call is atomic on its own;
          // whichever direction finds its source occupied wins.
          if (!map.move_key(k, k + kOffset)) {
            (void)map.move_key(k + kOffset, k);
          }
        }
        ++local;
      }
      moves.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (unsigned t = 0; t < kPointReaders; ++t) {
    threads.emplace_back([&, t] {
      leap::util::Xoshiro256 rng(1800 + t);
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        const auto k =
            static_cast<std::int64_t>(1 + rng.next_below(kLogical));
        const int holders = leap::txn([&](leap::stm::Tx& tx) {
          int count = 0;
          for (const std::int64_t at : {k, k + kOffset}) {
            const auto value = map.get_in(tx, at);
            if (value.has_value()) {
              CHECK_EQ(*value, value_for(k));
              ++count;
            }
          }
          return count;
        });
        CHECK_EQ(holders, 1);  // exactly one slot, never two or none
      }
    });
  }
  for (unsigned t = 0; t < kSpanReaders; ++t) {
    threads.emplace_back([&, t] {
      // Both slots of up to 20 logical keys (repeats allowed) in one
      // span get_in: one interleaved search across the shards must
      // still find every key in exactly one slot.
      leap::util::Xoshiro256 rng(1900 + t);
      std::vector<std::int64_t> logical;
      std::vector<std::int64_t> run;
      std::vector<std::optional<std::int64_t>> hits;
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        logical.resize(1 + rng.next_below(20));
        run.clear();
        for (std::int64_t& k : logical) {
          k = static_cast<std::int64_t>(1 + rng.next_below(kLogical));
          run.insert(run.end(), {k, k + kOffset});
        }
        hits.resize(run.size());
        leap::txn([&](leap::stm::Tx& tx) { map.get_in(tx, run, hits); });
        for (std::size_t i = 0; i < logical.size(); ++i) {
          const auto& at_low = hits[2 * i];
          const auto& at_high = hits[2 * i + 1];
          CHECK(at_low.has_value() != at_high.has_value());
          CHECK_EQ(at_low ? *at_low : *at_high, value_for(logical[i]));
        }
      }
    });
  }
  for (unsigned t = 0; t < kSnapshotReaders; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::pair<std::int64_t, std::int64_t>> snap;
      std::vector<int> seen(static_cast<std::size_t>(kLogical) + 1, 0);
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        // One stitched range query = ONE transaction over every shard:
        // the multi-shard snapshot must hold each logical key exactly
        // once, in strictly ascending key order.
        snap.clear();
        map.for_range(1, kOffset + kLogical, leap::append_to(snap));
        CHECK_EQ(snap.size(), static_cast<std::size_t>(kLogical));
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
          CHECK_EQ(seen[static_cast<std::size_t>(k)], 1);
        }
      }
    });
  }
  barrier.arrive_and_wait();
  std::this_thread::sleep_for(window);
  stop.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  // Quiescent agreement: partition invariant holds, population
  // conserved, every key at exactly one slot.
  CHECK(map.debug_validate());
  CHECK_EQ(map.size_slow(), static_cast<std::size_t>(kLogical));
  for (std::int64_t k = 1; k <= kLogical; ++k) {
    const auto at_low = map.get(k);
    const auto at_high = map.get(k + kOffset);
    CHECK(at_low.has_value() != at_high.has_value());
    CHECK_EQ(at_low ? *at_low : *at_high, value_for(k));
  }
  std::printf("  cross-shard atomicity ok (%llu moves)\n",
              static_cast<unsigned long long>(moves.load()));
}

}  // namespace

int main() {
  test_routing();
  test_boundary_fuzz<policy::LT>("LT");
  test_boundary_fuzz<policy::COP>("COP");
  test_boundary_fuzz<policy::TM>("TM");
  test_boundary_fuzz<policy::SkipCAS>("SkipCAS");
  test_composition();
  test_scan_in_stops_at_high();
  test_span_get_across_shards();
  test_two_writer_update_wedge();
  test_cross_shard_atomicity_stress();
  return leap::test::finish("test_sharded");
}
