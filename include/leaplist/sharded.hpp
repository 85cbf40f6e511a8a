// leap::ShardedMap<K, V, Policy> — a range-partitioned array of
// leap::Map shards behind the same OrderedMap surface, the first layer
// where the system scales OUT instead of up.
//
// Partitioning is static and codec-order-aware: the key codec already
// maps K order-preservingly onto the engine's int64 word, so the shard
// of a key is a branchless bucket of that encoded word — flip the sign
// bit (order-preserving int64 -> uint64), clamp into the configured
// window, scale to the full 64-bit range by a fixed-point reciprocal
// of the window span (precomputed once at construction), and take the
// high half of one 128-bit multiply by the shard count:
//
//   idx = ((off * inv) * S) >> 64    // off = clamp(biased - lo),
//                                    // inv = floor(2^64 / (span + 1))
//
// No second comparator, no division, no branches; monotone in the key,
// so shard i's keys all precede shard i+1's keys and a cross-shard
// range query visits shards in key order ("stitching" per-shard sorted
// views instead of merging copies — the REMIX argument).
//
// Point operations route to exactly one shard with zero added
// synchronization. Cross-shard range queries stitch the shards'
// visitations in key order, and are linearizable on EVERY policy:
//
//   policy::TM   the whole stitched scan runs inside ONE leap::txn —
//                the multi-shard snapshot is linearizable (the paper's
//                multi-list atomicity applied to partitions). The
//                transaction may retry; the caller's visitor is rolled
//                back via its on_restart() hook (leap::append_to has
//                one), exactly the Map visitor contract. Nothing
//                restarts inside the transaction, so each shard's
//                segment goes straight into the caller's visitor.
//   others       bundled references (leaplist/bundle.hpp): the scan
//                pins ONE global timestamp and walks every covered
//                shard as of that instant, so the stitched result is a
//                linearizable multi-shard snapshot with zero reliance
//                on the STM — the scan linearizes at its clock read.
//                Restarts (pruned history) re-pin and rerun the whole
//                stitched walk through the visitor's on_restart hook.
//
// For policy::TM the composable `*_in` forms route inside the caller's
// open transaction, so multi-key operations spanning shards — and whole
// ShardedMaps alongside other maps — compose into one atomic unit:
//
//   leap::ShardedMap<std::uint64_t, Order, leap::policy::TM> book(
//       {.shards = 16, .params = params}, min_id, max_id);
//   book.move_key(from_id, to_id);            // atomic, cross-shard
//   leap::txn([&](leap::stm::Tx& tx) {        // compose anything
//     const auto hit = book.get_in(tx, id);
//     if (hit) book.erase_in(tx, id);
//     audit.insert_in(tx, id, *hit);
//   });
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "leaplist/codec.hpp"
#include "leaplist/leaplist.hpp"
#include "leaplist/map.hpp"
#include "leaplist/txn.hpp"
#include "stm/stm.hpp"

namespace leap {

/// Construction knobs for ShardedMap: how many shards and the leap-list
/// parameters every shard is built with. The key window (the hint that
/// spreads realistic key distributions across shards instead of
/// bucketing the full 64-bit space) is passed separately, as typed keys.
struct ShardOptions {
  std::size_t shards = 8;
  core::Params params{};
};

template <typename K, typename V, MapPolicy Policy = policy::LT,
          typename KeyCodec = codec::Default<K>,
          typename ValueCodec = codec::BitcastValue<V>>
  requires codec::KeyCodecFor<KeyCodec, K> &&
           codec::ValueCodecFor<ValueCodec, V>
class ShardedMap {
 public:
  using key_type = K;
  using mapped_type = V;
  using value_type = std::pair<K, V>;
  using policy_type = Policy;
  using shard_type = Map<K, V, Policy, KeyCodec, ValueCodec>;
  using key_codec = KeyCodec;
  using value_codec = ValueCodec;

  /// Tag the harness adapters and db layer key off to construct a
  /// sharded instance (shard count + key-window hints) instead of a
  /// single map.
  static constexpr bool kSharded = true;

  /// Sane ceiling: routing is O(1) at any count, but stitched range
  /// queries and debug sweeps walk every shard in the span.
  static constexpr std::size_t kMaxShards = 4096;

  /// True when the engine maintains bundled references (every leap-list
  /// policy). Skip-list baselines don't; their non-TM stitched scans
  /// fall back to per-shard-consistent staging.
  static constexpr bool kBundled =
      requires(const typename Policy::engine& e) { e.debug_max_bundle(); };

  /// Full-window construction: keys may land anywhere in the codec's
  /// encodable range. Fine for correctness at any distribution, but a
  /// workload confined to a narrow key interval will bucket into few
  /// shards — pass window hints for real spread.
  explicit ShardedMap(const ShardOptions& opts = {})
      : ShardedMap(opts,
                   WordWindow{std::numeric_limits<core::Key>::min() + 1,
                              core::kSentinelKey - 1}) {}

  /// Window-hinted construction: split points divide the ENCODED image
  /// of [min_hint, max_hint] evenly across shards. Keys outside the
  /// hint window stay correct — they clamp onto the first/last shard.
  ShardedMap(const ShardOptions& opts, const K& min_hint, const K& max_hint)
      : ShardedMap(opts, WordWindow{KeyCodec::encode(min_hint),
                                    KeyCodec::encode(max_hint)}) {}

  // --- Point operations: route to one shard, no added sync -----------

  bool insert(const K& key, const V& value) {
    return shards_[shard_of(key)]->insert(key, value);
  }

  bool erase(const K& key) { return shards_[shard_of(key)]->erase(key); }

  std::optional<V> get(const K& key) const {
    return shards_[shard_of(key)]->get(key);
  }

  bool contains(const K& key) const {
    return shards_[shard_of(key)]->contains(key);
  }

  // --- Stitched range queries ----------------------------------------

  /// Visit every pair with low <= key <= high in global key order,
  /// stitching the covered shards' visitations into one linearizable
  /// multi-shard snapshot (one transaction for policy::TM, one pinned
  /// bundle timestamp otherwise). Same visitor contract as
  /// leap::Map::for_range — an accumulating visitor needs on_restart().
  /// Returns the number of pairs delivered.
  template <typename F>
  std::size_t for_range(const K& low, const K& high, F&& fn) const {
    if constexpr (Policy::kComposable) {
      const core::Key low_word = KeyCodec::encode(low);
      const core::Key high_word = KeyCodec::encode(high);
      if (low_word > high_word) return 0;
      const std::size_t first = route(low_word);
      const std::size_t last = route(high_word);
      return leap::txn([&](stm::Tx& tx) {
        core::detail::visit_restart(fn);  // per-attempt rollback
        return stitch_in(tx, first, last, low, high, fn);
      });
    } else if constexpr (kBundled) {
      return for_range_bundled(low, high, fn);
    } else {
      // Skip-list baselines: per-shard staging+replay, per-shard
      // consistent only (the documented pre-bundling semantics).
      const core::Key low_word = KeyCodec::encode(low);
      const core::Key high_word = KeyCodec::encode(high);
      if (low_word > high_word) return 0;
      Staging stage;
      std::size_t delivered = 0;
      for (std::size_t s = route(low_word); s <= route(high_word); ++s) {
        stage.clear();
        StageVisitor sink{stage};
        shards_[s]->for_range(low, high, sink);
        if (!replay(stage, fn, delivered)) break;
      }
      return delivered;
    }
  }

  /// The bundled-reference stitched walk, available on EVERY bundled
  /// policy (TM updates maintain bundles too): pin one timestamp,
  /// deliver each covered shard's as-of visitation straight into `fn`,
  /// and restart the whole walk with a fresh pin if any shard's history
  /// at that timestamp was already pruned. This is the non-TM for_range
  /// path, and on policy::TM it is the STM-free alternative the
  /// abl_rqspan crossover measures against transactional stitching.
  template <typename F>
  std::size_t for_range_bundled(const K& low, const K& high, F&& fn) const
    requires(kBundled)
  {
    const core::Key low_word = KeyCodec::encode(low);
    const core::Key high_word = KeyCodec::encode(high);
    if (low_word > high_word) return 0;
    const std::size_t first = route(low_word);
    const std::size_t last = route(high_word);
    bundle::ScanPin pin;
    while (true) {
      core::detail::visit_restart(fn);
      std::size_t delivered = 0;
      bool stopped = false;
      bool ok = true;
      for (std::size_t s = first; s <= last && !stopped; ++s) {
        if (!shards_[s]->try_for_range_at(pin.ts(), low, high, fn,
                                          delivered, stopped)) {
          ok = false;
          break;
        }
      }
      if (ok) return delivered;
      pin.refresh();
    }
  }

  /// Bounded stitched scan: APPEND up to `limit` pairs with key >= low
  /// onto `out`, in global key order. One transaction for policy::TM;
  /// one pinned bundle timestamp otherwise — linearizable either way.
  std::size_t scan(const K& low, std::size_t limit,
                   std::vector<value_type>& out) const {
    return scan_words(KeyCodec::encode(low), kUnboundedHigh, limit, out);
  }

  /// Bounded stitched scan clipped at `high`: like scan, but it reads
  /// no pair past `high` (and no shard past high's) on the way to the
  /// limit.
  std::size_t scan(const K& low, const K& high, std::size_t limit,
                   std::vector<value_type>& out) const {
    return scan_words(KeyCodec::encode(low), KeyCodec::encode(high), limit,
                      out);
  }

  /// A materialized snapshot of [low, high] across all covered shards:
  /// one consistent multi-shard instant on every policy; iterated with
  /// no further synchronization.
  using Cursor = SnapshotCursor<K, V>;

  Cursor snapshot(const K& low, const K& high) const {
    std::vector<value_type> items;
    for_range(low, high, append_to(items));
    return Cursor(std::move(items));
  }

  // --- Composable forms (policy::TM only) ----------------------------
  // Route inside a caller-owned open transaction, so cross-shard
  // multi-key operations — and several ShardedMaps, or a ShardedMap
  // next to plain Maps — commit as one atomic unit.

  bool insert_in(stm::Tx& tx, const K& key, const V& value)
    requires(Policy::kComposable)
  {
    return shards_[shard_of(key)]->insert_in(tx, key, value);
  }

  bool erase_in(stm::Tx& tx, const K& key)
    requires(Policy::kComposable)
  {
    return shards_[shard_of(key)]->erase_in(tx, key);
  }

  std::optional<V> get_in(stm::Tx& tx, const K& key) const
    requires(Policy::kComposable)
  {
    return shards_[shard_of(key)]->get_in(tx, key);
  }

  /// Span form: out[i] = the value at keys[i] (sizes must match). Each
  /// key goes to its shard, and one interleaved search walks all their
  /// descents together (Map::get_in's span form, across shards).
  void get_in(stm::Tx& tx, std::span<const K> keys,
              std::span<std::optional<V>> out) const
    requires(Policy::kComposable)
  {
    detail::get_run_in<ValueCodec>(tx, keys, out, [this](const K& key) {
      const core::Key word = KeyCodec::encode(key);
      return shards_[route(word)]->engine().probe(word);
    });
  }

  template <typename F>
  std::size_t for_range_in(stm::Tx& tx, const K& low, const K& high,
                           F&& fn) const
    requires(Policy::kComposable)
  {
    const core::Key low_word = KeyCodec::encode(low);
    const core::Key high_word = KeyCodec::encode(high);
    if (low_word > high_word) return 0;
    return stitch_in(tx, route(low_word), route(high_word), low, high, fn);
  }

  std::size_t scan_in(stm::Tx& tx, const K& low, std::size_t limit,
                      std::vector<value_type>& out) const
    requires(Policy::kComposable)
  {
    const std::size_t base = out.size();
    scan_shards_in(tx, KeyCodec::encode(low), kUnboundedHigh, limit, base,
                   out);
    return out.size() - base;
  }

  /// scan_in clipped at `high`: the transaction's read set ends at the
  /// node covering `high`.
  std::size_t scan_in(stm::Tx& tx, const K& low, const K& high,
                      std::size_t limit, std::vector<value_type>& out) const
    requires(Policy::kComposable)
  {
    const std::size_t base = out.size();
    scan_shards_in(tx, KeyCodec::encode(low), KeyCodec::encode(high), limit,
                   base, out);
    return out.size() - base;
  }

  /// Atomically relocate the value stored at `from` to `to` (its own
  /// transaction; use erase_in + insert_in to compose with more work).
  /// Crossing a shard boundary is the interesting case: no concurrent
  /// stitched reader ever sees the value at both keys or at neither.
  /// Returns false (and moves nothing) when `from` is absent; an
  /// existing value at `to` is overwritten.
  bool move_key(const K& from, const K& to)
    requires(Policy::kComposable)
  {
    return leap::txn([&](stm::Tx& tx) {
      const std::optional<V> value = get_in(tx, from);
      if (!value) return false;
      erase_in(tx, from);
      insert_in(tx, to, *value);
      return true;
    });
  }

  // --- Loading / introspection ---------------------------------------

  /// Single-threaded preload of a quiescent map: pairs partition to
  /// their shards, each shard bulk-loads its slice (sorting and
  /// last-value-wins dedup happen per shard, exactly Map::bulk_load).
  void bulk_load(const std::vector<value_type>& pairs) {
    std::vector<std::vector<value_type>> slices(shards_.size());
    for (const value_type& pair : pairs) {
      slices[shard_of(pair.first)].push_back(pair);
    }
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s]->bulk_load(slices[s]);
    }
  }

  std::size_t shard_count() const { return shards_.size(); }

  /// The shard a key routes to — exposed so tests can probe split
  /// points and movers can aim across boundaries.
  std::size_t shard_of(const K& key) const {
    return route(KeyCodec::encode(key));
  }

  shard_type& shard(std::size_t index) { return *shards_[index]; }
  const shard_type& shard(std::size_t index) const {
    return *shards_[index];
  }

  std::size_t size_slow() const
    requires requires(const shard_type& s) { s.size_slow(); }
  {
    std::size_t total = 0;
    for (const auto& shard : shards_) total += shard->size_slow();
    return total;
  }

  /// Quiescent check: every shard structurally valid AND every stored
  /// key routes back to the shard holding it (the partition invariant).
  bool debug_validate() const
    requires requires(const shard_type& s) { s.debug_validate(); }
  {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (!shards_[s]->debug_validate()) return false;
      bool routed = true;
      shards_[s]->engine().for_range(
          std::numeric_limits<core::Key>::min() + 1, core::kSentinelKey - 1,
          [&](core::Key word, core::Value) { routed &= route(word) == s; });
      if (!routed) return false;
    }
    return true;
  }

 private:
  struct WordWindow {
    core::Key lo;
    core::Key hi;
  };

  static constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

  /// Order-preserving int64 -> uint64: flip the sign bit.
  static std::uint64_t biased(core::Key word) {
    return static_cast<std::uint64_t>(word) ^ kSignBit;
  }

  ShardedMap(const ShardOptions& opts, WordWindow window)
      : lo_(biased(window.lo)), span_(biased(window.hi) - lo_) {
    assert(window.lo <= window.hi);
    assert(opts.shards >= 1 && opts.shards <= kMaxShards);
    // Fixed-point reciprocal of the window size: off * inv_ lands the
    // offset's exact fraction of the window in the full 64-bit range
    // (error < 1 part in 2^64/span — a power-of-two SHIFT here instead
    // would divide by the next power of two and bunch up to half the
    // window into the low shards, starving the top ones). For span 0
    // the quotient 2^64 truncates to 0, and off is always 0 anyway.
    inv_ = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(1) << 64) /
        (static_cast<unsigned __int128>(span_) + 1));
    const std::size_t count = opts.shards < 1 ? 1 : opts.shards;
    shards_.reserve(count);
    for (std::size_t s = 0; s < count; ++s) {
      shards_.push_back(std::make_unique<shard_type>(opts.params));
    }
  }

  /// The branchless bucket: clamp the biased word into [lo, lo + span],
  /// scale the offset to the full 64-bit range via the precomputed
  /// reciprocal (the product is < 2^64 by construction, so the plain
  /// 64-bit multiply is exact), and take the high half of
  /// offset * shard_count. Monotone in `word` (clamp, positive-constant
  /// multiply, and mul-high all preserve order), so shards partition
  /// the key space into consecutive near-equal intervals.
  std::size_t route(core::Key word) const {
    const std::uint64_t b = biased(word);
    const std::uint64_t off = std::min((b < lo_ ? lo_ : b) - lo_, span_);
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(off * inv_) *
         static_cast<unsigned __int128>(shards_.size())) >>
        64);
  }

  /// Per-shard staging for the skip-list baselines: a shard's segment
  /// lands here while that shard's attempt may still restart (on_restart
  /// clears it), and is replayed into the user's visitor only once the
  /// segment is final. This is what keeps one shard's optimistic retry
  /// from wiping the pairs an earlier shard already delivered.
  struct Staging {
    std::vector<K> keys;
    std::vector<V> values;
    void clear() {
      keys.clear();
      values.clear();
    }
  };

  struct StageVisitor {
    Staging& stage;
    void operator()(const K& key, const V& value) {
      stage.keys.push_back(key);
      stage.values.push_back(value);
    }
    void append_run(const K* keys, const V* values, std::size_t n) {
      stage.keys.insert(stage.keys.end(), keys, keys + n);
      stage.values.insert(stage.values.end(), values, values + n);
    }
    void on_restart() { stage.clear(); }
  };

  /// Deliver a committed shard segment to the user's visitor. Bulk
  /// visitors take the whole SoA slice in one call; per-pair visitors
  /// may stop the stitched scan early (false return).
  template <typename F>
  static bool replay(Staging& stage, F& fn, std::size_t& delivered) {
    const std::size_t n = stage.keys.size();
    if constexpr (requires(F& f, const K* dk, const V* dv, std::size_t m) {
                    f.append_run(dk, dv, m);
                  }) {
      fn.append_run(stage.keys.data(), stage.values.data(), n);
      delivered += n;
      return true;
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        ++delivered;
        if (!core::detail::visit_one(fn, stage.keys[i], stage.values[i])) {
          return false;
        }
      }
      return true;
    }
  }

  /// Forwards one shard's segment into the caller's visitor and notes
  /// an early stop, so the stitched walk ends at the visitor's last pair.
  template <typename F>
  struct Forward {
    F& fn;
    bool stopped = false;
    bool operator()(const K& key, const V& value) {
      stopped = !core::detail::visit_one(fn, key, value);
      return !stopped;
    }
    void append_run(const K* keys, const V* values, std::size_t n)
      requires requires(F& f, const K* dk, const V* dv, std::size_t m) {
        f.append_run(dk, dv, m);
      }
    {
      fn.append_run(keys, values, n);
    }
  };

  /// The stitched walk inside an open transaction: shards in key order,
  /// each delivering straight into `fn`. A conflict aborts the whole
  /// transaction, and rolling `fn` back is the enclosing closure's
  /// contract.
  template <typename F>
  std::size_t stitch_in(stm::Tx& tx, std::size_t first, std::size_t last,
                        const K& low, const K& high, F& fn) const
    requires(Policy::kComposable)
  {
    Forward<F> sink{fn};
    std::size_t delivered = 0;
    for (std::size_t s = first; s <= last && !sink.stopped; ++s) {
      delivered += shards_[s]->for_range_in(tx, low, high, sink);
    }
    return delivered;
  }

  /// The encoded upper bound of a scan bounded by its limit only.
  static constexpr core::Key kUnboundedHigh = core::kSentinelKey - 1;

  /// scan / scan(high) body over encoded bounds: every shard walk stops
  /// at `high`, and shards past high's are never visited.
  std::size_t scan_words(core::Key low, core::Key high, std::size_t limit,
                         std::vector<value_type>& out) const {
    if (limit == 0 || low > high) return 0;
    const std::size_t base = out.size();
    const std::size_t first = route(low);
    const std::size_t last = route(high);
    if constexpr (Policy::kComposable) {
      leap::txn([&](stm::Tx& tx) {
        out.resize(base);  // the closure may re-run after a conflict
        scan_shards_in(tx, low, high, limit, base, out);
      });
    } else if constexpr (kBundled) {
      bundle::ScanPin pin;
      while (true) {
        out.resize(base);  // rerun after a pruned-history restart
        bool ok = true;
        for (std::size_t s = first; s <= last; ++s) {
          const std::size_t got = out.size() - base;
          if (got >= limit) break;
          bool filled = false;
          ok = shards_[s]->try_scan_words_at(pin.ts(), low, high,
                                             limit - got, out, filled);
          if (!ok || filled) break;
        }
        if (ok) break;
        pin.refresh();
      }
    } else {
      for (std::size_t s = first; s <= last; ++s) {
        const std::size_t got = out.size() - base;
        if (got >= limit) break;
        shards_[s]->scan_words(low, high, limit - got, out);
      }
    }
    return out.size() - base;
  }

  void scan_shards_in(stm::Tx& tx, core::Key low, core::Key high,
                      std::size_t limit, std::size_t base,
                      std::vector<value_type>& out) const
    requires(Policy::kComposable)
  {
    if (low > high) return;
    const std::size_t last = route(high);
    for (std::size_t s = route(low); s <= last; ++s) {
      const std::size_t got = out.size() - base;
      if (got >= limit) break;
      shards_[s]->scan_words_in(tx, low, high, limit - got, out);
    }
  }

  std::uint64_t lo_;    // biased image of the window's low edge
  std::uint64_t span_;  // biased(hi) - biased(lo)
  std::uint64_t inv_;   // floor(2^64 / (span_ + 1)), fixed-point scale
  std::vector<std::unique_ptr<shard_type>> shards_;
};

}  // namespace leap
