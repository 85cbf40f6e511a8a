// leap::Map<K, V, Policy> — the typed ordered-map facade over the leap
// list word engine. Keys and values are trivially copyable user types
// mapped through codec traits (leaplist/codec.hpp) with zero runtime
// overhead; the Policy parameter picks the synchronization scheme
// behind one uniform interface:
//
//   policy::LT    raw searches + locked publish (the paper's winner)
//   policy::COP   consistency-oblivious traversal + validating commit
//   policy::TM    fully transactional; the only composable policy —
//                 the `*_in` forms enlist in a caller-owned leap::txn
//   policy::RW    global reader-writer-lock baseline
//   (policy::SkipCAS / policy::SkipTM in leaplist/skiplist.hpp drive
//   the single-pair-per-node baselines through the same facade.)
//
// Range queries are visitation, not bulk copies:
//
//   leap::Map<std::uint32_t, Order> book(params);
//   book.for_range(low, high, leap::append_to(hits));  // accumulate
//   book.scan(low, 32, out);       // bounded, APPENDS to out
//   book.for_range(low, high, [&](std::uint32_t id, const Order& o) {
//     if (o.qty < 1000) return true;
//     first_big = id;              // overwrite, not accumulate
//     return false;                // early exit
//   });
//   for (const auto& [id, o] : book.snapshot(low, high)) ...  // Cursor
//
// Visitor contract: optimistic policies may re-visit from `low` after a
// conflicting attempt, so a visitor that ACCUMULATES must expose
// `on_restart()` to roll its state back — leap::append_to does;
// overwrite-style or stateless visitors (like the early-exit probe
// above) need nothing. The committed visitation is always one
// consistent snapshot for the leap-list policies.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "leaplist/codec.hpp"
#include "leaplist/leaplist.hpp"
#include "leaplist/txn.hpp"
#include "stm/stm.hpp"

namespace leap {

namespace policy {
struct LT {
  using engine = core::LeapListLT;
  static constexpr bool kComposable = false;
};
struct COP {
  using engine = core::LeapListCOP;
  static constexpr bool kComposable = false;
};
struct TM {
  using engine = core::LeapListTM;
  static constexpr bool kComposable = true;
};
struct RW {
  using engine = core::LeapListRW;
  static constexpr bool kComposable = false;
};
}  // namespace policy

template <typename P>
concept MapPolicy = requires {
  typename P::engine;
  { P::kComposable } -> std::convertible_to<bool>;
};

/// Appending collector: pairs append to `out` (which is never cleared);
/// an attempt restart truncates back to the size at construction, so
/// stacking several ranges into one buffer — even inside one
/// transaction — composes correctly. Construct it at the point of use
/// (inside the txn closure for composable scans) so the truncation base
/// is per-attempt.
template <typename Vec>
auto append_to(Vec& out) {
  return core::detail::Appender<Vec>(out);
}

namespace detail {

/// The span get_in body Map and ShardedMap share: `lane(key)` builds
/// one key's probe (in whichever list holds it), and every run of up to
/// core::kSearchLanes keys goes through one interleaved search_tx.
/// out[i] answers keys[i].
template <typename ValueCodec, typename K, typename V, typename Lane>
void get_run_in(stm::Tx& tx, std::span<const K> keys,
                std::span<std::optional<V>> out, Lane&& lane) {
  assert(out.size() == keys.size());
  core::Probe lanes[core::kSearchLanes];
  for (std::size_t at = 0; at < keys.size(); at += core::kSearchLanes) {
    const std::size_t len = std::min(core::kSearchLanes, keys.size() - at);
    for (std::size_t i = 0; i < len; ++i) lanes[i] = lane(keys[at + i]);
    core::search_tx(tx, std::span<core::Probe>(lanes, len));
    for (std::size_t i = 0; i < len; ++i) {
      const auto word = core::probe_value(lanes[i]);
      out[at + i] = word ? std::optional<V>(ValueCodec::decode(*word))
                         : std::nullopt;
    }
  }
}

}  // namespace detail

/// A materialized range snapshot: captured through one range
/// visitation (with whatever consistency the capturing map's policy
/// provides), then iterated with no further synchronization — safe to
/// hold across later updates. Map and ShardedMap alias this as their
/// Cursor type.
template <typename K, typename V>
class SnapshotCursor {
 public:
  using value_type = std::pair<K, V>;

  SnapshotCursor() = default;
  explicit SnapshotCursor(std::vector<value_type> items)
      : items_(std::move(items)) {}

  bool valid() const { return pos_ < items_.size(); }
  const K& key() const { return items_[pos_].first; }
  const V& value() const { return items_[pos_].second; }
  void next() { ++pos_; }
  void rewind() { pos_ = 0; }
  std::size_t size() const { return items_.size(); }
  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }

 private:
  std::vector<value_type> items_;
  std::size_t pos_ = 0;
};

/// The uniform ordered-map shape the harness and db layers program
/// against: typed point ops, visitor ranges, bounded scans, bulk
/// preload. leap::Map models it for every policy; so does anything
/// else offering the same surface.
template <typename M>
concept OrderedMap =
    requires(M map, const M cmap, const typename M::key_type& key,
             const typename M::mapped_type& value,
             std::vector<typename M::value_type>& out) {
      typename M::key_type;
      typename M::mapped_type;
      typename M::value_type;
      { map.insert(key, value) } -> std::same_as<bool>;
      { map.erase(key) } -> std::same_as<bool>;
      {
        cmap.get(key)
      } -> std::same_as<std::optional<typename M::mapped_type>>;
      {
        cmap.for_range(key, key,
                       [](const typename M::key_type&,
                          const typename M::mapped_type&) {})
      } -> std::convertible_to<std::size_t>;
      {
        cmap.scan(key, std::size_t{1}, out)
      } -> std::convertible_to<std::size_t>;
      map.bulk_load(std::vector<typename M::value_type>{});
    };

template <typename K, typename V, MapPolicy Policy = policy::LT,
          typename KeyCodec = codec::Default<K>,
          typename ValueCodec = codec::BitcastValue<V>>
  requires codec::KeyCodecFor<KeyCodec, K> &&
           codec::ValueCodecFor<ValueCodec, V>
class Map {
 public:
  using key_type = K;
  using mapped_type = V;
  using value_type = std::pair<K, V>;
  using policy_type = Policy;
  using engine_type = typename Policy::engine;
  using key_codec = KeyCodec;
  using value_codec = ValueCodec;

  explicit Map(const core::Params& params = {}) : engine_(params) {}

  // --- Point operations ----------------------------------------------

  /// True when `key` was absent (insert); false overwrites in place.
  bool insert(const K& key, const V& value) {
    return engine_.insert(KeyCodec::encode(key), ValueCodec::encode(value));
  }

  bool erase(const K& key) { return engine_.erase(KeyCodec::encode(key)); }

  std::optional<V> get(const K& key) const {
    const auto word = engine_.get(KeyCodec::encode(key));
    if (!word) return std::nullopt;
    return ValueCodec::decode(*word);
  }

  bool contains(const K& key) const {
    return engine_.get(KeyCodec::encode(key)).has_value();
  }

  // --- Range queries as visitation -----------------------------------

  /// Visit every pair with low <= key <= high in key order. The visitor
  /// is fn(const K&, const V&) returning void (visit all) or bool
  /// (false stops the scan). Returns the number of pairs visited. See
  /// the header comment for the restart contract.
  template <typename F>
  std::size_t for_range(const K& low, const K& high, F&& fn) const {
    Decoded<F> visitor{fn};
    return engine_.for_range(KeyCodec::encode(low), KeyCodec::encode(high),
                             visitor);
  }

  /// Bounded scan: APPEND up to `limit` pairs with key >= low onto
  /// `out` (explicitly append — the caller owns clearing). Returns the
  /// number appended.
  std::size_t scan(const K& low, std::size_t limit,
                   std::vector<value_type>& out) const {
    return scan_words(KeyCodec::encode(low), core::kSentinelKey - 1, limit,
                      out);
  }

  // --- As-of building blocks (bundled-reference stitching) -----------
  // ShardedMap pins ONE timestamp and replays it across shards through
  // these; a false return means the bundle history needed at `ts` is
  // gone and the WHOLE stitched walk restarts with a fresh pin — no
  // per-shard restart happens here, which is what lets the stitcher
  // deliver straight into the caller's visitor without staging.

  /// Visit [low, high] as of the pinned timestamp `ts`, delivering into
  /// `fn` and accumulating into `delivered`. Sets `stopped` when the
  /// visitor ended the scan early.
  template <typename F>
  bool try_for_range_at(std::uint64_t ts, const K& low, const K& high,
                        F& fn, std::size_t& delivered, bool& stopped) const
    requires requires(const engine_type& e) { e.debug_max_bundle(); }
  {
    Decoded<F> visitor{fn};
    return engine_.try_for_range_asof(ts, KeyCodec::encode(low),
                                      KeyCodec::encode(high), visitor,
                                      delivered, stopped);
  }

  /// Append up to `limit` pairs whose key word lies in [low, high] as
  /// of `ts` onto `out`. Sets `filled` when the limit was reached. The
  /// caller owns rolling `out` back across stitched-walk retries.
  bool try_scan_words_at(std::uint64_t ts, core::Key low, core::Key high,
                         std::size_t limit, std::vector<value_type>& out,
                         bool& filled) const
    requires requires(const engine_type& e) { e.debug_max_bundle(); }
  {
    filled = false;
    if (limit == 0 || low > high) return true;
    BoundedAppend sink{out, out.size(), limit};
    Decoded<BoundedAppend> visitor{sink};
    std::size_t delivered = 0;
    bool stopped = false;
    if (!engine_.try_for_range_asof(ts, low, high, visitor, delivered,
                                    stopped)) {
      return false;
    }
    filled = stopped;
    return true;
  }

  /// A materialized snapshot of [low, high]: captured through one
  /// (policy-consistent) range visitation, then iterated with no
  /// further synchronization — safe to hold across later updates.
  using Cursor = SnapshotCursor<K, V>;

  Cursor snapshot(const K& low, const K& high) const {
    std::vector<value_type> items;
    for_range(low, high, append_to(items));
    return Cursor(std::move(items));
  }

  // --- Composable forms (policy::TM only) ----------------------------
  // Enlist in a caller-owned open transaction (leap::txn), so typed
  // maps participate in multi-map transactions unchanged.

  bool insert_in(stm::Tx& tx, const K& key, const V& value)
    requires(Policy::kComposable)
  {
    return engine_.insert_in(tx, KeyCodec::encode(key),
                             ValueCodec::encode(value));
  }

  bool erase_in(stm::Tx& tx, const K& key)
    requires(Policy::kComposable)
  {
    return engine_.erase_in(tx, KeyCodec::encode(key));
  }

  std::optional<V> get_in(stm::Tx& tx, const K& key) const
    requires(Policy::kComposable)
  {
    const auto word = engine_.get_in(tx, KeyCodec::encode(key));
    if (!word) return std::nullopt;
    return ValueCodec::decode(*word);
  }

  /// Span form: out[i] = the value at keys[i] (sizes must match). The
  /// descents run interleaved, core::kSearchLanes keys per search, so
  /// their cache misses overlap; the reads are the same tx_reads a
  /// get_in per key would make.
  void get_in(stm::Tx& tx, std::span<const K> keys,
              std::span<std::optional<V>> out) const
    requires(Policy::kComposable)
  {
    detail::get_run_in<ValueCodec>(tx, keys, out, [this](const K& key) {
      return engine_.probe(KeyCodec::encode(key));
    });
  }

  template <typename F>
  std::size_t for_range_in(stm::Tx& tx, const K& low, const K& high,
                           F&& fn) const
    requires(Policy::kComposable)
  {
    Decoded<F> visitor{fn};
    return engine_.for_range_in(tx, KeyCodec::encode(low),
                                KeyCodec::encode(high), visitor);
  }

  /// Composable bounded scan: like scan, but enlisted in the caller's
  /// open transaction. APPENDS to `out`; a whole-transaction retry is
  /// the caller's closure contract, as for every `*_in` form.
  std::size_t scan_in(stm::Tx& tx, const K& low, std::size_t limit,
                      std::vector<value_type>& out) const
    requires(Policy::kComposable)
  {
    return scan_words_in(tx, KeyCodec::encode(low), core::kSentinelKey - 1,
                         limit, out);
  }

  // --- Word-bounded scans (ShardedMap stitching) ---------------------
  // scan / scan_in over ENCODED bounds: append up to `limit` pairs
  // whose key word lies in [low, high]. A stitched scan carries one
  // encoded upper bound through every shard — core::kSentinelKey - 1
  // when only the limit bounds it — so each shard walk stops at the
  // caller's `high` instead of reading on toward the limit.

  std::size_t scan_words(core::Key low, core::Key high, std::size_t limit,
                         std::vector<value_type>& out) const {
    if (limit == 0 || low > high) return 0;
    BoundedAppend sink{out, out.size(), limit};
    Decoded<BoundedAppend> visitor{sink};
    engine_.for_range(low, high, visitor);
    return out.size() - sink.base;
  }

  std::size_t scan_words_in(stm::Tx& tx, core::Key low, core::Key high,
                            std::size_t limit,
                            std::vector<value_type>& out) const
    requires(Policy::kComposable)
  {
    if (limit == 0 || low > high) return 0;
    BoundedAppend sink{out, out.size(), limit};
    Decoded<BoundedAppend> visitor{sink};
    engine_.for_range_in(tx, low, high, visitor);
    return out.size() - sink.base;
  }

  // --- Loading / introspection ---------------------------------------

  /// Single-threaded preload of a quiescent map; duplicate keys keep
  /// the last value.
  void bulk_load(const std::vector<value_type>& pairs) {
    std::vector<core::KV> encoded;
    encoded.reserve(pairs.size());
    for (const value_type& pair : pairs) {
      encoded.push_back(core::KV{KeyCodec::encode(pair.first),
                                 ValueCodec::encode(pair.second)});
    }
    engine_.bulk_load(encoded);
  }

  bool debug_validate() const
    requires requires(const engine_type& e) { e.debug_validate(); }
  {
    return engine_.debug_validate();
  }

  std::size_t size_slow() const
    requires requires(const engine_type& e) { e.size_slow(); }
  {
    return engine_.size_slow();
  }

  const core::Params& params() const
    requires requires(const engine_type& e) { e.params(); }
  {
    return engine_.params();
  }

  /// Escape hatch to the raw word engine (benches, migration).
  engine_type& engine() { return engine_; }
  const engine_type& engine() const { return engine_; }

 private:
  /// Word-level visitor decoding into the user's typed visitor,
  /// forwarding early exit and restart notifications. When the typed
  /// visitor bulk-ingests (append_run, e.g. leap::append_to), whole
  /// in-range runs flow through in decoded chunks — tight codec loops
  /// over stack arrays instead of a per-pair virtual-ish dispatch —
  /// which keeps the engine's bulk fast path intact across the facade.
  template <typename F>
  struct Decoded {
    F& fn;
    bool operator()(core::Key key, core::Value value) {
      return core::detail::visit_one(fn, KeyCodec::decode(key),
                                     ValueCodec::decode(value));
    }

    void append_run(const core::Key* keys, const core::Value* values,
                    std::size_t n)
      requires requires(F& f, const K* dk, const V* dv, std::size_t m) {
        f.append_run(dk, dv, m);
      } && std::default_initializable<K> && std::default_initializable<V>
    {
      // Identity codecs (the default int64 -> int64 map) pass the
      // engine's SoA slices straight through.
      if constexpr (std::is_same_v<K, core::Key> &&
                    std::is_same_v<V, core::Value> &&
                    std::is_same_v<KeyCodec, codec::Default<K>> &&
                    std::is_same_v<ValueCodec, codec::BitcastValue<V>>) {
        fn.append_run(keys, values, n);
        return;
      }
      constexpr std::size_t kChunk = 128;
      K dkeys[kChunk];
      V dvalues[kChunk];
      for (std::size_t at = 0; at < n; at += kChunk) {
        const std::size_t len = std::min(kChunk, n - at);
        for (std::size_t i = 0; i < len; ++i) {
          dkeys[i] = KeyCodec::decode(keys[at + i]);
          dvalues[i] = ValueCodec::decode(values[at + i]);
        }
        fn.append_run(dkeys, dvalues, len);
      }
    }

    void on_restart() { core::detail::visit_restart(fn); }
  };

  struct BoundedAppend {
    std::vector<value_type>& out;
    std::size_t base;
    std::size_t limit;
    bool operator()(const K& key, const V& value) {
      out.push_back({key, value});
      return out.size() - base < limit;
    }
    void on_restart() { out.resize(base); }
  };

  engine_type engine_;
};

}  // namespace leap
