// Leap list: a skiplist of fat nodes, each holding up to `node_size`
// key/value pairs in the key range (pred.high, high], supporting
// linearizable range queries (Avni, Shavit, Suissa — PODC 2013).
//
// Update model (paper §2): an update never edits a published node's
// content. It builds replacement node(s) — a copy with the pair
// added/removed, or a two-way split when full — and atomically swings
// the predecessor pointers while marking the victim's next pointers.
// Content is therefore immutable after publish, and only the `next`
// words carry synchronization (stm::TxField). Replaced nodes are
// reclaimed through util::ebr once no search can reference them.
//
// Four synchronization schemes over the same structure:
//   LeapListLT   lock the predecessors + victim, validate, then a short
//                transaction swings the pointers; lookups are
//                transaction-free raw searches (marked pointers make
//                stale traversals restart).
//   LeapListCOP  consistency-oblivious: raw (uninstrumented) traversal,
//                then validation + pointer swing inside one commit
//                transaction.
//   LeapListTM   fully transactional: even the traversal is
//                instrumented (search_tx). Uniquely among the
//                variants it also composes: the `*_in` forms enlist in
//                a caller-owned transaction (leaplist/txn.hpp), so one
//                transaction can update and range-query several lists
//                as one atomic unit.
//   LeapListRW   global std::shared_mutex baseline.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <new>
#include <optional>
#include <shared_mutex>
#include <span>
#include <type_traits>
#include <vector>

#include "leaplist/bundle.hpp"
#include "leaplist/txn.hpp"
#include "stm/stm.hpp"
#include "util/ebr.hpp"
#include "util/marked_ptr.hpp"
#include "util/random.hpp"

namespace leap::core {

using Key = std::int64_t;
using Value = std::int64_t;

struct KV {
  Key key;
  Value value;
};

namespace detail {

/// Invoke a range visitor on one pair. A visitor returning void scans
/// to the end of the range; a bool-returning visitor stops the scan by
/// returning false.
template <typename F, typename KT, typename VT>
bool visit_one(F& fn, const KT& key, const VT& value) {
  if constexpr (std::is_void_v<decltype(fn(key, value))>) {
    fn(key, value);
    return true;
  } else {
    return static_cast<bool>(fn(key, value));
  }
}

/// Range visitation is speculative: an attempt that fails validation
/// re-visits from the low bound. A visitor that accumulates state may
/// expose an `on_restart()` member to roll that state back; visitors
/// without one are assumed stateless (count-only, early-exit probes).
template <typename F>
void visit_restart(F& fn) {
  if constexpr (requires { fn.on_restart(); }) fn.on_restart();
}

/// The canonical accumulating visitor: pairs APPEND to `out` (never
/// cleared), and on_restart truncates back to the size at construction,
/// so several appenders can stack ranges into one buffer inside one
/// transaction. Works for any vector whose value_type brace-constructs
/// from {key, value} (core::KV, std::pair, typed map entries).
template <typename Vec>
class Appender {
 public:
  explicit Appender(Vec& out) : out_(out), base_(out.size()) {}

  template <typename KT, typename VT>
  bool operator()(const KT& key, const VT& value) {
    out_.push_back({key, value});
    return true;
  }

  /// Bulk ingest of a whole in-range run (see visit_node): one resize,
  /// then a tight branch-free fill — no per-pair capacity check.
  template <typename KT, typename VT>
    requires requires(Vec v, const KT& k, const VT& val) {
      v.push_back({k, val});
    }
  void append_run(const KT* keys, const VT* values, std::size_t n) {
    const std::size_t at = out_.size();
    out_.resize(at + n);
    auto* dst = out_.data() + at;
    for (std::size_t i = 0; i < n; ++i) dst[i] = {keys[i], values[i]};
  }

  void on_restart() { out_.resize(base_); }

 private:
  Vec& out_;
  std::size_t base_;
};

/// First index in [0, n] whose key is >= probe: branchless binary
/// search over the flat key array. The per-step update compiles to a
/// conditional move, so the in-node hot loop carries no unpredictable
/// branch (measured against std::lower_bound in abl_search; a PATRICIA
/// trie lost to it too, see docs/benchmarks.md).
inline std::size_t flat_lower_bound(const Key* keys, std::size_t n,
                                    Key probe) noexcept {
  std::size_t base = 0;
  while (n > 1) {
    const std::size_t half = n / 2;
    base += (keys[base + half - 1] < probe) ? half : 0;
    n -= half;
  }
  return base + static_cast<std::size_t>(n == 1 && keys[base] < probe);
}

/// First index in [0, n] whose key is > probe (strict), same branchless
/// shape. Safe for probe == kSentinelKey (no probe + 1 anywhere).
inline std::size_t flat_upper_bound(const Key* keys, std::size_t n,
                                    Key probe) noexcept {
  std::size_t base = 0;
  while (n > 1) {
    const std::size_t half = n / 2;
    base += (keys[base + half - 1] <= probe) ? half : 0;
    n -= half;
  }
  return base + static_cast<std::size_t>(n == 1 && keys[base] <= probe);
}

/// A visitor that bulk-ingests whole in-range runs instead of taking
/// pairs one at a time. Bulk visitors are unbounded accumulators by
/// contract — they cannot stop the scan early (Appender qualifies,
/// bounded collectors don't).
template <typename F>
concept BulkVisitor =
    requires(F& fn, const Key* keys, const Value* values, std::size_t n) {
      fn.append_run(keys, values, n);
    };

}  // namespace detail

/// Hard cap on index height; Params::max_level must stay below it.
inline constexpr int kMaxHeight = 24;

/// Reserved key: the rightmost data node always has high == kSentinelKey
/// so every user key (< kSentinelKey) belongs to exactly one node.
inline constexpr Key kSentinelKey = std::numeric_limits<Key>::max();

struct Params {
  std::size_t node_size = 300;
  int max_level = 10;
};

/// A fat node as ONE flat allocation: a fixed header followed by the
/// node's variable trailing storage, SoA preserved —
///
///   [ header | next: TxField<u64> × level | keys: Key × capacity |
///     values: Value × capacity ]
///
/// The `next` marked-pointer words are the only transactional state;
/// every next(i) access holds i < level by the skiplist invariant (a
/// level-i predecessor is linked at level i). keys/values are sorted
/// and immutable once published (RW, which runs under an exclusive
/// lock, excepted). LT's per-node lock lives in a striped side table
/// (detail::stripe_lock), not in the node, so COP/TM/RW — which never
/// lock — don't carry it. Blocks come from util::ebr's recycling pool
/// (make_node) and return to it once a victim's grace period elapses
/// (recycle_node), so steady-state updates never touch the heap.
/// birth_ts value of a node not yet published: as-of scans reject it as
/// a walk start until the publishing commit stamps the real timestamp.
inline constexpr std::uint64_t kUnbornTs = ~std::uint64_t{0};

struct Node {
  Key high;                      // inclusive upper bound of the key range
  std::uint32_t count;           // live pairs
  const std::uint32_t capacity;  // trailing key/value slots
  const std::int32_t level;      // index levels this node is linked at
  std::atomic<bool> live{true};
  /// Commit timestamp of the swap that published this node (kUnbornTs
  /// until then). A node with birth_ts <= ts that is unmarked — or was
  /// marked only after ts — was on the level-0 chain at instant ts.
  std::atomic<std::uint64_t> birth_ts{kUnbornTs};
  /// Timestamped history of this node's level-0 link (bundled
  /// references): newest entry first, maintained inside the publishing
  /// commit's TL2 publish window, pruned against the oldest announced
  /// scan timestamp.
  std::atomic<bundle::Entry*> bundle0{nullptr};

  Node(std::uint32_t capacity_in, int level_in, Key high_in)
      : high(high_in),
        count(0),
        capacity(capacity_in),
        level(level_in) {}

  Key high_raw() const { return high; }

  // Trailing-array accessors; only the key/value offset depends on
  // runtime state (level), one add on the hot path.
  stm::TxField<std::uint64_t>& next(int i) noexcept;
  const stm::TxField<std::uint64_t>& next(int i) const noexcept;
  Key* keys() noexcept;
  const Key* keys() const noexcept;
  Value* values() noexcept;
  const Value* values() const noexcept;

  /// Append one pair while bulk-building an unpublished node.
  void append(Key key, Value value) noexcept {
    assert(count < capacity);
    keys()[count] = key;
    values()[count] = value;
    ++count;
  }

  static std::size_t bytes_for(std::uint32_t capacity, int level) noexcept;
  std::size_t alloc_bytes() const noexcept {
    return bytes_for(capacity, level);
  }
};

/// Header size rounded up to the trailing arrays' alignment.
inline constexpr std::size_t kNodeHeaderBytes =
    (sizeof(Node) + alignof(stm::TxField<std::uint64_t>) - 1) &
    ~(alignof(stm::TxField<std::uint64_t>) - 1);

inline stm::TxField<std::uint64_t>& Node::next(int i) noexcept {
  assert(i >= 0 && i < level);
  return reinterpret_cast<stm::TxField<std::uint64_t>*>(
      reinterpret_cast<std::byte*>(this) + kNodeHeaderBytes)[i];
}

inline const stm::TxField<std::uint64_t>& Node::next(int i) const noexcept {
  assert(i >= 0 && i < level);
  return reinterpret_cast<const stm::TxField<std::uint64_t>*>(
      reinterpret_cast<const std::byte*>(this) + kNodeHeaderBytes)[i];
}

inline Key* Node::keys() noexcept {
  return reinterpret_cast<Key*>(
      reinterpret_cast<std::byte*>(this) + kNodeHeaderBytes +
      static_cast<std::size_t>(level) * sizeof(stm::TxField<std::uint64_t>));
}

inline const Key* Node::keys() const noexcept {
  return reinterpret_cast<const Key*>(
      reinterpret_cast<const std::byte*>(this) + kNodeHeaderBytes +
      static_cast<std::size_t>(level) * sizeof(stm::TxField<std::uint64_t>));
}

inline Value* Node::values() noexcept {
  return reinterpret_cast<Value*>(
      reinterpret_cast<std::byte*>(keys()) +
      static_cast<std::size_t>(capacity) * sizeof(Key));
}

inline const Value* Node::values() const noexcept {
  return reinterpret_cast<const Value*>(
      reinterpret_cast<const std::byte*>(keys()) +
      static_cast<std::size_t>(capacity) * sizeof(Key));
}

inline std::size_t Node::bytes_for(std::uint32_t capacity,
                                   int level) noexcept {
  return kNodeHeaderBytes +
         static_cast<std::size_t>(level) *
             sizeof(stm::TxField<std::uint64_t>) +
         static_cast<std::size_t>(capacity) * (sizeof(Key) + sizeof(Value));
}

static_assert(std::is_trivially_destructible_v<Node>,
              "flat nodes are reclaimed as raw blocks");
static_assert(alignof(Node) <= alignof(std::max_align_t) &&
                  alignof(stm::TxField<std::uint64_t>) <= alignof(Node),
              "one operator-new block must satisfy every segment");

/// Placement-build a node in one pool block: header and next TxFields
/// are placement-constructed; keys/values are implicit-lifetime arrays
/// inside the same block.
inline Node* make_node(std::uint32_t capacity, int level, Key high) {
  void* raw = util::ebr::pool_alloc(Node::bytes_for(capacity, level));
  Node* node = new (raw) Node(capacity, level, high);
  stm::TxField<std::uint64_t>::construct_array(
      reinterpret_cast<std::byte*>(raw) + kNodeHeaderBytes,
      static_cast<std::size_t>(level));
  return node;
}

/// Tear down an unreachable node — never published, or retired and
/// past its EBR grace period — and hand the block back to the pool.
/// Bundle entries still chained to the node are unreachable with it
/// (pruning detaches through the head), so they free directly.
inline void destroy_node(Node* node) noexcept {
  if (node == nullptr) return;
  bundle::free_all(node->bundle0);
  util::ebr::pool_free(node, node->alloc_bytes());
}

/// ebr::retire deleter: recycle the victim's block.
inline void recycle_node(void* raw) {
  destroy_node(static_cast<Node*>(raw));
}

namespace detail {

/// LT's per-node locks as a striped side table keyed by node address,
/// so the shared node layout carries no mutex. Two nodes may collide on
/// a stripe — that only serializes their publishes, never admits an
/// invalid one — and publish_locked acquires stripes in index order,
/// which keeps locking deadlock-free exactly like the old address
/// order.
inline constexpr std::size_t kLockStripes = 1024;  // power of two

inline std::size_t lock_stripe(const void* node) noexcept {
  auto hash = static_cast<std::uint64_t>(
      reinterpret_cast<std::uintptr_t>(node) >> 6);
  hash *= 0x9E3779B97F4A7C15ull;
  return static_cast<std::size_t>((hash >> 32) & (kLockStripes - 1));
}

/// Cache-line-aligned so neighboring stripes never false-share.
struct alignas(64) StripeMutex {
  std::mutex mu;
};

inline std::mutex& stripe_lock(std::size_t stripe) noexcept {
  static std::array<StripeMutex, kLockStripes> locks;
  return locks[stripe].mu;
}

inline void prefetch(const void* addr) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr);
#endif
}

/// Prefetch a node's first key cache line; issued during the index
/// descent so the line lands before the in-node search needs it.
inline void prefetch_keys(const Node* node) noexcept {
  prefetch(node->keys());
}

}  // namespace detail

/// User keys live strictly between the head sentinel (Key min) and the
/// rightmost node's kSentinelKey bound.
inline void assert_user_key([[maybe_unused]] Key key) {
  assert(key > std::numeric_limits<Key>::min());
  assert(key < kSentinelKey);
}

/// Always-on nesting guard (NOT an assert: Release builds must fail
/// just as loudly). LT/COP/Skip-tm update paths act on commit success
/// immediately, so enlisting them in an enclosing transaction — which
/// would flat-nest their internal atomically and defer the publish —
/// silently corrupts the structure: locks released and victims retired
/// for an update that may never commit. The composable, nestable API
/// is LeapListTM's `*_in` forms (and its single-op wrappers).
inline void require_no_open_tx(const char* what) {
  if (stm::tls_tx().in_tx()) {
    std::fprintf(stderr,
                 "leaplist: %s cannot enlist in an open transaction; use "
                 "LeapListTM\n",
                 what);
    std::abort();
  }
}

/// Sort by key; duplicate keys keep the last value (the semantics every
/// bulk_load in this repo shares).
inline std::vector<KV> sorted_unique(const std::vector<KV>& pairs) {
  std::vector<KV> sorted = pairs;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const KV& a, const KV& b) { return a.key < b.key; });
  std::vector<KV> unique;
  unique.reserve(sorted.size());
  for (const KV& kv : sorted) {
    if (!unique.empty() && unique.back().key == kv.key) {
      unique.back().value = kv.value;
    } else {
      unique.push_back(kv);
    }
  }
  return unique;
}

struct SearchResult {
  std::array<Node*, kMaxHeight> pa{};  // predecessor per level
  std::array<Node*, kMaxHeight> na{};  // first node with high >= key
};

/// Uninstrumented predecessor search (the LT/COP fast path). Restarts
/// when it steps on a marked pointer or a retired node; must run under
/// an ebr::Guard.
inline SearchResult search_predecessors(Node* head, int max_level, Key key) {
  while (true) {
    SearchResult result;
    bool restart = false;
    Node* x = head;
    for (int i = max_level - 1; i >= 0 && !restart; --i) {
      Node* x_next = nullptr;
      while (true) {
        const std::uint64_t word = x->next(i).load_word();
        if (util::is_marked(word)) {
          restart = true;
          break;
        }
        x_next = util::to_ptr<Node>(word);
        if (!x_next->live.load(std::memory_order_acquire)) {
          restart = true;
          break;
        }
        if (x_next->high_raw() >= key) {
          // The cover candidate's keys get searched right after the
          // descent lands; start the line toward L1 now, while the
          // remaining levels still hide the latency.
          if (i <= 1) detail::prefetch_keys(x_next);
          break;
        }
        x = x_next;
      }
      result.pa[i] = x;
      result.na[i] = x_next;
    }
    if (!restart) return result;
  }
}

/// Most probes one search_tx call walks together; callers with longer
/// runs split them into calls of at most this many. The lanes live in
/// a stack array, and leapd's runs of gets average under 8 on
/// read-zipf, so the cap rarely splits one (abl_search still measures
/// a gain per get from 16 to 32 lanes).
inline constexpr std::size_t kSearchLanes = 32;

/// One lane of the interleaved instrumented search: a key to find in
/// one list, and where it lands. LeapListTM::probe builds one.
struct Probe {
  // In: the list's head and top level, where the descent starts; then
  // the lane's position while it runs (x = predecessor at `level`).
  Node* x = nullptr;
  int level = 0;
  Key key = 0;
  /// When set, receives the window at every level (pa/na), which an
  /// update needs; point reads and scans leave it null.
  SearchResult* window = nullptr;
  /// Out: the level-0 cover node (first node with high >= key) and
  /// key's lower-bound slot in it.
  Node* node = nullptr;
  std::uint32_t slot = 0;
  // Lane state: the in-node lower bound's keys[base, base + span), and
  // x's successor at `level`, read and prefetched.
  std::uint32_t base = 0;
  std::uint32_t span = 0;
  Node* cand = nullptr;
};

namespace detail {

/// Start the two lines the lane's next round reads: cand's header (its
/// `high`) and the line holding cand->next(level). Address arithmetic
/// only; nothing of cand is read here.
inline void prefetch_hop(const Node* cand, int level) noexcept {
  prefetch(cand);
  prefetch(reinterpret_cast<const std::byte*>(cand) + kNodeHeaderBytes +
           static_cast<std::size_t>(level) *
               sizeof(stm::TxField<std::uint64_t>));
}

/// One hop: x's level-`level` successor, read through the transaction.
/// A marked word means x was replaced under us: abort the attempt.
inline Node* hop_tx(stm::Tx& tx, Node* x, int level) {
  const std::uint64_t word = x->next(level).tx_read(tx);
  if (util::is_marked(word)) tx.abort();
  return util::to_ptr<Node>(word);
}

// A lane's phases, by `level`: >= 0 descending, kBounding while the
// in-node lower bound runs, kLanded once `slot` is set.
inline constexpr int kBounding = -1;
inline constexpr int kLanded = -2;

/// Read a lane's first hop: its head at the top level.
inline void lane_start(stm::Tx& tx, Probe& p) {
  p.cand = hop_tx(tx, p.x, p.level);
  prefetch_hop(p.cand, p.level);
}

/// One round of a lane's descent: compare the prefetched candidate,
/// then drop a level or step right, and read (and prefetch) the next
/// hop. Returns false once the lane lands on its level-0 cover node;
/// the node's middle key, the lower bound's first compare, is then
/// on its way.
inline bool descend_step(stm::Tx& tx, Probe& p) {
  if (p.cand->high_raw() >= p.key) {
    if (p.window != nullptr) {
      p.window->pa[p.level] = p.x;
      p.window->na[p.level] = p.cand;
    }
    if (p.level == 0) {
      Node* node = p.cand;
      p.node = node;
      p.level = kBounding;
      p.base = 0;
      p.span = node->count;
      if (p.span > 1) prefetch(node->keys() + p.span / 2 - 1);
      return false;
    }
    --p.level;
  } else {
    p.x = p.cand;
  }
  p.cand = hop_tx(tx, p.x, p.level);
  prefetch_hop(p.cand, p.level);
  return true;
}

/// One halving step of flat_lower_bound over the landed node's keys,
/// prefetching the one key the next step compares. Returns false once
/// the bound is found and `slot` set.
inline bool bound_step(Probe& p) {
  const Key* keys = p.node->keys();
  if (p.span <= 1) {
    p.slot = p.base +
             static_cast<std::uint32_t>(p.span == 1 && keys[p.base] < p.key);
    p.level = kLanded;
    return false;
  }
  const std::uint32_t half = p.span / 2;
  p.base += (keys[p.base + half - 1] < p.key) ? half : 0;
  p.span -= half;
  if (p.span > 1) prefetch(keys + p.base + p.span / 2 - 1);
  return true;
}

}  // namespace detail

/// The fully instrumented search (what Leap-tm pays, §2.1), run over a
/// span of probes in lockstep. Every hop is a transactional read,
/// validated at commit, exactly as in a one-key descent; what changes
/// is the order. A descent is a chain of dependent cache misses (about
/// twenty node headers, then the binary search inside the node), but
/// the descents of different keys are independent, so:
///   * each round advances every unfinished lane by one hop and
///     prefetches the node it compares next, so one round's misses
///     overlap instead of queueing;
///   * a lane that lands prefetches its node's middle key, and the
///     branchless lower bound then runs interleaved the same way, one
///     halving step per lane per round.
/// With one probe it is the plain descent. The lanes may sit in
/// different lists (ShardedMap sends each key to its shard), and may
/// repeat a key.
inline void search_tx(stm::Tx& tx, std::span<Probe> lanes) {
  assert(lanes.size() <= kSearchLanes);
  for (Probe& p : lanes) detail::lane_start(tx, p);
  for (std::size_t live = lanes.size(); live > 0;) {
    for (Probe& p : lanes) {
      if (p.level >= 0 && !detail::descend_step(tx, p)) --live;
    }
  }
  for (std::size_t live = lanes.size(); live > 0;) {
    for (Probe& p : lanes) {
      if (p.level == detail::kBounding && !detail::bound_step(p)) --live;
    }
  }
}

/// The value a landed probe found, or nullopt when its key is absent.
inline std::optional<Value> probe_value(const Probe& p) {
  const Node* n = p.node;
  if (p.slot == n->count || n->keys()[p.slot] != p.key) return std::nullopt;
  return n->values()[p.slot];
}

class LeapListBase {
 public:
  explicit LeapListBase(const Params& params) : params_(params) {
    assert(params_.max_level >= 1 && params_.max_level <= kMaxHeight);
    assert(params_.node_size >= 2);
    assert(params_.node_size <= 0xFFFFFFFFull - 1);
    head_ = alloc_node(params_.max_level, std::numeric_limits<Key>::min());
    tail_ = alloc_node(params_.max_level, kSentinelKey);
    Node* first = alloc_node(params_.max_level, kSentinelKey);
    for (int i = 0; i < params_.max_level; ++i) {
      head_->next(i).init(util::to_word(first));
      first->next(i).init(util::to_word(tail_));
      tail_->next(i).init(0);
    }
    head_->birth_ts.store(0, std::memory_order_relaxed);
    first->birth_ts.store(0, std::memory_order_relaxed);
    tail_->birth_ts.store(0, std::memory_order_relaxed);
    bundle::insert(head_->bundle0, 0, first);
    bundle::insert(first->bundle0, 0, tail_);
  }

  ~LeapListBase() {
    Node* cur = head_;
    while (cur != tail_) {
      Node* nxt =
          util::to_ptr<Node>(util::without_mark(cur->next(0).load_word()));
      destroy_node(cur);
      cur = nxt;
    }
    destroy_node(tail_);
    util::ebr::collect();
  }

  LeapListBase(const LeapListBase&) = delete;
  LeapListBase& operator=(const LeapListBase&) = delete;

  const Params& params() const { return params_; }

  /// Single-threaded preload of a quiescent (freshly built) list.
  /// Duplicate keys keep the last value; nodes are filled to half
  /// capacity so early updates have headroom.
  void bulk_load(const std::vector<KV>& pairs) {
    const std::vector<KV> unique = sorted_unique(pairs);
    for (const KV& kv : unique) assert_user_key(kv.key);
    // Drop the existing data chain.
    Node* cur =
        util::to_ptr<Node>(util::without_mark(head_->next(0).load_word()));
    while (cur != tail_) {
      Node* nxt =
          util::to_ptr<Node>(util::without_mark(cur->next(0).load_word()));
      destroy_node(cur);
      cur = nxt;
    }
    const std::size_t fill = std::max<std::size_t>(1, params_.node_size / 2);
    std::array<Node*, kMaxHeight> last;
    last.fill(head_);
    std::size_t offset = 0;
    std::vector<Node*> nodes;
    while (offset < unique.size()) {
      const std::size_t take = std::min(fill, unique.size() - offset);
      Node* node = alloc_node(random_level(), unique[offset + take - 1].key);
      for (std::size_t j = 0; j < take; ++j) {
        node->append(unique[offset + j].key, unique[offset + j].value);
      }
      nodes.push_back(node);
      offset += take;
    }
    if (nodes.empty()) {
      nodes.push_back(alloc_node(params_.max_level, kSentinelKey));
    }
    nodes.back()->high = kSentinelKey;
    for (Node* node : nodes) {
      for (int i = 0; i < node->level; ++i) {
        last[i]->next(i).init(util::to_word(node));
        last[i] = node;
      }
    }
    for (int i = 0; i < params_.max_level; ++i) {
      last[i]->next(i).init(util::to_word(tail_));
    }
    // Rebase the bundle layer on the rebuilt chain. bulk_load's
    // quiescence contract means no scan is pinned at an older
    // timestamp, so the head's previous history (whose targets were
    // just destroyed) is dropped rather than pruned.
    const std::uint64_t ts0 = stm::clock_now();
    bundle::free_all(head_->bundle0);
    head_->birth_ts.store(0, std::memory_order_relaxed);
    bundle::insert(head_->bundle0, ts0, nodes.front());
    for (std::size_t j = 0; j < nodes.size(); ++j) {
      Node* succ = j + 1 < nodes.size() ? nodes[j + 1] : tail_;
      nodes[j]->birth_ts.store(ts0, std::memory_order_relaxed);
      bundle::insert(nodes[j]->bundle0, ts0, succ);
    }
  }

  /// Quiescent structural invariant check (tests / debugging only).
  bool debug_validate() const {
    Key prev_high = std::numeric_limits<Key>::min();
    Node* last_data = nullptr;
    for (Node* n = data_next(head_); n != tail_; n = data_next(n)) {
      if (n->level < 1 || n->level > params_.max_level) return false;
      if (n->high <= prev_high) return false;
      if (n->count > n->capacity) return false;
      const Key* keys = n->keys();
      for (std::size_t j = 0; j < n->count; ++j) {
        if (keys[j] <= prev_high || keys[j] > n->high) return false;
        if (j > 0 && keys[j] <= keys[j - 1]) return false;
      }
      prev_high = n->high;
      last_data = n;
    }
    if (last_data == nullptr || last_data->high != kSentinelKey) return false;
    for (int i = 0; i < params_.max_level; ++i) {
      Key level_prev = std::numeric_limits<Key>::min();
      for (Node* n = data_next(head_, i); n != tail_; n = data_next(n, i)) {
        if (n->level <= i) return false;
        if (n->high <= level_prev) return false;
        level_prev = n->high;
      }
    }
    // Bundle invariants, quiescent: every on-chain node's newest entry
    // matches its current level-0 link (every link change inserts at
    // the same commit), and entry timestamps strictly decrease.
    for (Node* n = head_; n != tail_; n = data_next(n)) {
      const bundle::Entry* e =
          n->bundle0.load(std::memory_order_acquire);
      if (e == nullptr) return false;
      if (e->target != static_cast<void*>(data_next(n))) return false;
      std::uint64_t prev_ts = e->ts;
      for (const bundle::Entry* o = e->older.load(std::memory_order_acquire);
           o != nullptr; o = o->older.load(std::memory_order_acquire)) {
        if (o->ts >= prev_ts) return false;
        prev_ts = o->ts;
      }
    }
    return true;
  }

  /// Quiescent element count (tests only).
  std::size_t size_slow() const {
    std::size_t total = 0;
    for (Node* n = data_next(head_); n != tail_; n = data_next(n)) {
      total += n->count;
    }
    return total;
  }

  // --- Bundled-reference (as-of) range scans -------------------------
  //
  // Timestamped scans work on EVERY variant: updates maintain the
  // level-0 bundles inside their publish commits regardless of policy,
  // so a reader that pins a timestamp walks the chain exactly as it
  // was at that instant — no STM transaction, no validation, no
  // retries against concurrent updaters. ShardedMap replays ONE pinned
  // timestamp across all shards, which is what makes stitched scans
  // linearizable on LT/COP/RW (policy::TM keeps its transactional
  // stitch for composability).

  /// One attempt at visiting [low, high] as of `ts`. The caller owns
  /// the pin (bundle::ScanPin) whose announce protocol guarantees the
  /// needed history is retained; returns false on the defensive-restart
  /// path (pruned-past lookup), after which the caller re-pins a fresh
  /// timestamp. `stopped` reports a visitor early exit (scan delivered
  /// a consistent prefix and stopped).
  template <typename F>
  bool try_for_range_asof(std::uint64_t ts, Key low, Key high, F& fn,
                          std::size_t& count, bool& stopped) const {
    const SearchResult sr =
        search_predecessors(head_, params_.max_level, low);
    const Node* x = head_;
    for (int i = 0; i < params_.max_level; ++i) {
      if (asof_start_ok(sr.pa[i], ts)) {
        x = sr.pa[i];
        break;
      }
    }
    while (true) {
      const Node* n = succ_at(x, ts);
      if (n == nullptr) return false;
      if (n == tail_) return true;
      if (n->high_raw() >= low) {
        if (!visit_node(n, low, high, fn, count)) {
          stopped = true;
          return true;
        }
        if (n->high_raw() >= high) return true;
      }
      x = n;
    }
  }

  /// Pin a timestamp and visit [low, high] as of it. Linearizes at the
  /// pin's clock read; the committed visitation is one consistent
  /// snapshot. Same visitor contract as for_range (on_restart fires on
  /// the defensive-restart path).
  template <typename F>
  std::size_t for_range_asof(Key low, Key high, F&& fn) const {
    bundle::ScanPin pin;
    while (true) {
      detail::visit_restart(fn);
      std::size_t count = 0;
      bool stopped = false;
      if (try_for_range_asof(pin.ts(), low, high, fn, count, stopped)) {
        return count;
      }
      pin.refresh();
    }
  }

  /// Longest level-0 bundle on the current chain (tests/debug).
  std::size_t debug_max_bundle() const {
    std::size_t max = 0;
    for (Node* n = head_; n != tail_; n = data_next(n)) {
      max = std::max(max, bundle::length(n->bundle0));
    }
    return max;
  }

  /// Prune every on-chain bundle against the oldest announced scan
  /// timestamp (tests and maintenance sweeps; the insert path prunes
  /// incrementally on its own).
  void bundle_prune_all() {
    util::ebr::Guard guard;
    const std::uint64_t min = bundle::min_active_ts();
    for (Node* n = head_; n != tail_; n = data_next(n)) {
      bundle::prune(n->bundle0, min);
    }
  }

 protected:
  /// True when `x` is a safe as-of walk start: published at or before
  /// `ts`, and still on the chain at `ts` (unmarked now, or marked only
  /// by a commit newer than ts). head_ always qualifies.
  static bool asof_start_ok(const Node* x, std::uint64_t ts) {
    if (x->birth_ts.load(std::memory_order_acquire) > ts) return false;
    std::uint64_t version = 0;
    const std::uint64_t word = x->next(0).snapshot_word(version);
    return !util::is_marked(word) || version > ts;
  }

  /// `x`'s level-0 successor at instant `ts` (x must have been on the
  /// chain at ts). Current link when its last change is <= ts, bundle
  /// lookup otherwise; nullptr means the needed history is gone and the
  /// scan must restart with a fresh timestamp.
  static const Node* succ_at(const Node* x, std::uint64_t ts) {
    std::uint64_t version = 0;
    const std::uint64_t word = x->next(0).snapshot_word(version);
    if (version <= ts) {
      if (util::is_marked(word)) return nullptr;
      return util::to_ptr<Node>(word);
    }
    return static_cast<const Node*>(bundle::find(x->bundle0, ts));
  }
  /// Replacement plan for one update: n1 (always) and n2 (splits only),
  /// plus how many index levels the swing must rewrite.
  struct Replacement {
    Node* n1 = nullptr;
    Node* n2 = nullptr;
    int link_top = 0;
    bool inserted = false;
  };

  /// THE single source of node capacity: every replacement outcome
  /// fits in `node_size` slots — a non-split replacement holds at most
  /// node_size pairs (plan_insert splits instead of overflowing), and
  /// a split distributes node_size + 1 pairs as ceil/floor halves,
  /// each ≤ node_size for node_size ≥ 2. alloc_node and the split
  /// planner both size through here, so flat-block sizing cannot drift
  /// from the planner (the seed re-derived capacity ad hoc in two
  /// places).
  std::uint32_t node_capacity() const {
    return static_cast<std::uint32_t>(params_.node_size);
  }

  Node* alloc_node(int level, Key high) const {
    return make_node(node_capacity(), level, high);
  }

  int random_level() const {
    return util::random_geometric_level(params_.max_level);
  }

  /// Index of `key` in `n`, or -1.
  static int find_in(const Node* n, Key key) {
    const Key* keys = n->keys();
    const std::size_t idx = detail::flat_lower_bound(keys, n->count, key);
    if (idx == n->count || keys[idx] != key) return -1;
    return static_cast<int>(idx);
  }

  /// Visit `n`'s pairs in [low, high] in key order; returns false when
  /// the visitor stopped the scan early. The engine never materializes
  /// a vector here — accumulation is the visitor's business. The
  /// in-range run [first, end) is resolved by two branchless searches,
  /// so the per-pair loop carries no bound compare; a BulkVisitor
  /// ingests the whole run in one call.
  template <typename F>
  static bool visit_node(const Node* n, Key low, Key high, F& fn,
                         std::size_t& count) {
    const Key* keys = n->keys();
    const Value* values = n->values();
    const std::size_t first = detail::flat_lower_bound(keys, n->count, low);
    const std::size_t end =
        n->high_raw() <= high ? n->count
                              : detail::flat_upper_bound(keys, n->count, high);
    if constexpr (detail::BulkVisitor<F>) {
      if (end > first) {
        fn.append_run(keys + first, values + first, end - first);
        count += end - first;
      }
      return true;
    } else {
      for (std::size_t i = first; i < end; ++i) {
        ++count;
        if (!detail::visit_one(fn, keys[i], values[i])) return false;
      }
      return true;
    }
  }

  Replacement plan_insert(Node* n, Key key, Value value) const {
    Replacement plan;
    const Key* skeys = n->keys();
    const Value* svalues = n->values();
    const std::uint32_t count = n->count;
    const std::size_t pos = detail::flat_lower_bound(skeys, count, key);
    if (pos < count && skeys[pos] == key) {
      // Same key: replacement with the value swapped.
      Node* n1 = alloc_node(n->level, n->high);
      std::copy(skeys, skeys + count, n1->keys());
      std::copy(svalues, svalues + count, n1->values());
      n1->values()[pos] = value;
      n1->count = count;
      plan.n1 = n1;
      plan.link_top = n->level;
      return plan;
    }
    // Copy the merged sequence — skeys[0, pos) + {key} + skeys[pos,
    // count) — for merged indexes [from, to) into `dst`.
    const auto copy_merged = [&](Node* dst, std::size_t from,
                                 std::size_t to) {
      Key* dkeys = dst->keys();
      Value* dvalues = dst->values();
      std::size_t out = 0;
      if (from < pos) {
        const std::size_t end = std::min(to, pos);
        std::copy(skeys + from, skeys + end, dkeys);
        std::copy(svalues + from, svalues + end, dvalues);
        out = end - from;
      }
      if (pos >= from && pos < to) {
        dkeys[out] = key;
        dvalues[out] = value;
        ++out;
      }
      const std::size_t tail_from = std::max(from, pos + 1);
      if (tail_from < to) {
        std::copy(skeys + (tail_from - 1), skeys + (to - 1), dkeys + out);
        std::copy(svalues + (tail_from - 1), svalues + (to - 1),
                  dvalues + out);
        out += to - tail_from;
      }
      assert(out == to - from && out <= dst->capacity);
      dst->count = static_cast<std::uint32_t>(out);
    };
    if (count < params_.node_size) {
      Node* n1 = alloc_node(n->level, n->high);
      copy_merged(n1, 0, count + 1);
      plan.n1 = n1;
      plan.link_top = n->level;
      plan.inserted = true;
      return plan;
    }
    // Full node: split into n1 (new left, fresh level) and n2 (right,
    // inheriting n's level and high — and with it the sentinel role).
    const std::size_t total = count + 1;
    const std::size_t left = (total + 1) / 2;
    Node* n1 = alloc_node(random_level(), 0);
    Node* n2 = alloc_node(n->level, n->high);
    copy_merged(n1, 0, left);
    copy_merged(n2, left, total);
    n1->high = n1->keys()[n1->count - 1];
    plan.n1 = n1;
    plan.n2 = n2;
    plan.link_top = std::max(n1->level, n->level);
    plan.inserted = true;
    return plan;
  }

  /// Replacement with `key` removed, or nullptr when absent.
  Node* plan_erase(Node* n, Key key) const {
    const int idx = find_in(n, key);
    if (idx < 0) return nullptr;
    Node* n1 = alloc_node(n->level, n->high);
    const auto pos = static_cast<std::size_t>(idx);
    const Key* skeys = n->keys();
    const Value* svalues = n->values();
    std::copy(skeys, skeys + pos, n1->keys());
    std::copy(skeys + pos + 1, skeys + n->count, n1->keys() + pos);
    std::copy(svalues, svalues + pos, n1->values());
    std::copy(svalues + pos + 1, svalues + n->count, n1->values() + pos);
    n1->count = n->count - 1;
    return n1;
  }

  static void discard(Replacement& plan) {
    destroy_node(plan.n1);
    destroy_node(plan.n2);
    plan.n1 = plan.n2 = nullptr;
  }

  /// Fresh-node next word: initialize the memory now — a raw traversal
  /// crossing the node mid-publish must see a valid pointer — AND
  /// enlist the word in the write set so it publishes carrying the
  /// commit version. A fresh field left at version 0 would let a
  /// read-only transaction whose snapshot predates this commit read
  /// post-commit state undetected (TL2 opacity hole: the version check
  /// `0 <= rv_` always passes).
  static void publish_word(stm::Tx& tx, stm::TxField<std::uint64_t>& field,
                           std::uint64_t word) {
    field.init(word);
    field.tx_write(tx, word);
  }

  /// Transactional pointer swing: initializes the replacement nodes'
  /// next words from in-transaction reads of the victim's, relinks the
  /// predecessors, and marks the victim. The victim's content must be
  /// protected by locks (LT), validation in the same transaction (COP),
  /// or an instrumented search (TM).
  static void apply_swap(stm::Tx& tx, const SearchResult& sr, Node* n,
                         const Replacement& plan) {
    Node* n1 = plan.n1;
    Node* n2 = plan.n2;
    if (n2 != nullptr) {
      for (int i = 0; i < n2->level; ++i) {
        publish_word(tx, n2->next(i), n->next(i).tx_read(tx));
      }
      for (int i = 0; i < n1->level; ++i) {
        publish_word(tx, n1->next(i),
                     i < n2->level ? util::to_word(n2)
                                   : util::to_word(sr.na[i]));
      }
    } else {
      for (int i = 0; i < n1->level; ++i) {
        publish_word(tx, n1->next(i), n->next(i).tx_read(tx));
      }
    }
    for (int i = 0; i < plan.link_top; ++i) {
      Node* target = i < n1->level ? n1 : n2;
      sr.pa[i]->next(i).tx_write(tx, util::to_word(target));
    }
    for (int i = 0; i < n->level; ++i) {
      n->next(i).tx_write(tx, util::with_mark(n->next(i).tx_read(tx)));
    }
    // Bundle publication: runs in the TL2 publish window (values
    // stored, versioned locks still held), so the entries carry the
    // commit timestamp and are visible before any seqlock reader can
    // observe that version on the links. Targets are read back from
    // the stored words rather than captured — a composed transaction
    // may rewire the same link again at the same timestamp, and only
    // the final state exists at wv (bundle::insert overwrites the
    // equal-ts head entry).
    Node* pred = sr.pa[0];
    tx.defer_on_publish([pred, n1, n2](std::uint64_t wv) {
      const auto stored = [](const Node* node) {
        return util::to_ptr<Node>(
            util::without_mark(node->next(0).load_word()));
      };
      n1->birth_ts.store(wv, std::memory_order_relaxed);
      bundle::insert(n1->bundle0, wv, stored(n1));
      if (n2 != nullptr) {
        n2->birth_ts.store(wv, std::memory_order_relaxed);
        bundle::insert(n2->bundle0, wv, stored(n2));
      }
      bundle::insert(pred->bundle0, wv, stored(pred));
      bundle::maybe_prune(pred->bundle0);
    });
  }

  /// In-transaction validation that the searched window is unchanged:
  /// every predecessor still points at the node the search saw (a
  /// retired predecessor fails this automatically — its word is
  /// marked), and the victim is still the cover node at every level it
  /// occupies.
  static bool validate_tx(stm::Tx& tx, const SearchResult& sr, Node* n,
                          int top) {
    for (int i = 0; i < top; ++i) {
      if (i < n->level && sr.na[i] != n) return false;
      if (sr.pa[i]->next(i).tx_read(tx) != util::to_word(sr.na[i])) {
        return false;
      }
    }
    return true;
  }

  // --- Composable (in-transaction) operation core --------------------
  //
  // The txn_* methods enlist one list operation in a caller-owned open
  // transaction: structural writes buffer in the caller's write set,
  // the victim retires through a deferred commit action, and the
  // speculative replacement nodes are freed by a deferred abort action,
  // so any number of operations over any number of lists commit (or
  // vanish) as one unit. Callers must hold an ebr::Guard for the whole
  // transaction — leap::txn does.
  //
  // Every txn_* operation takes its window from the instrumented search
  // (search_tx with one probe), the paper's Leap-tm discipline: each hop
  // is a tx_read, so the window is validated with everything else the
  // transaction read, and this transaction's own buffered writes are
  // read back. A run of point reads may share one search_tx call
  // (LeapListTM::probe, Map/ShardedMap's span get_in): the lanes walk
  // in lockstep so their cache misses overlap, but each lane reads
  // exactly the words its own descent would, through the same tx_read,
  // so the read set, commit validation and aborts are unchanged. The
  // read set still logs every hop of every lane, including the upper
  // levels that lanes share.
  //
  // A raw search cannot see TL2 write locks. It can return a
  // window that a concurrent commit (ordered before this transaction)
  // is still writing back: an update planned on one wedged two workers
  // committing to one shard (tests/test_sharded.cpp's update-wedge
  // test), and a read landed on a node that commit had already
  // replaced. The raw search_predecessors stays with LT, COP and RW,
  // which validate (or lock) the window they found before trusting it.

  /// Tie a planned replacement to the transaction outcome. Must run
  /// before apply_swap so an abort inside the swap still reclaims the
  /// plan nodes (nothing has seen them).
  static void enlist_swap(stm::Tx& tx, Node* victim,
                          const Replacement& plan) {
    Node* n1 = plan.n1;
    Node* n2 = plan.n2;
    tx.defer_on_abort([n1, n2] {
      destroy_node(n1);
      destroy_node(n2);
    });
    tx.defer_on_commit([victim] {
      victim->live.store(false, std::memory_order_release);
      util::ebr::retire(victim, &recycle_node);
    });
  }

  /// A probe of this list for search_tx.
  Probe probe(Key key) const {
    return Probe{.x = head_, .level = params_.max_level - 1, .key = key};
  }

  /// The window around `key`, through the one-lane search.
  SearchResult window_tx(stm::Tx& tx, Key key) const {
    SearchResult sr;
    Probe p = probe(key);
    p.window = &sr;
    search_tx(tx, std::span<Probe>(&p, 1));
    return sr;
  }

  bool txn_insert(stm::Tx& tx, Key key, Value value) {
    assert_user_key(key);
    assert(tx.in_tx());
    const SearchResult sr = window_tx(tx, key);
    Node* n = sr.na[0];
    const Replacement plan = plan_insert(n, key, value);
    enlist_swap(tx, n, plan);
    apply_swap(tx, sr, n, plan);
    return plan.inserted;
  }

  bool txn_erase(stm::Tx& tx, Key key) {
    assert(tx.in_tx());
    const SearchResult sr = window_tx(tx, key);
    Node* n = sr.na[0];
    Node* n1 = plan_erase(n, key);
    if (n1 == nullptr) return false;  // absent; the search read pins it
    Replacement plan;
    plan.n1 = n1;
    plan.link_top = n->level;
    enlist_swap(tx, n, plan);
    apply_swap(tx, sr, n, plan);
    return true;
  }

  std::optional<Value> txn_get(stm::Tx& tx, Key key) const {
    assert(tx.in_tx());
    Probe p = probe(key);
    search_tx(tx, std::span<Probe>(&p, 1));
    return probe_value(p);
  }

  /// Visitor-driven in-transaction range scan. The visitor runs during
  /// the walk so it can stop the scan early. Nothing restarts inside
  /// the transaction: a conflict aborts the attempt whole, and rolling
  /// the visitor back is the attempt owner's job (LeapListTM::for_range,
  /// or the caller's closure for the `*_in` forms). Returns the number
  /// of pairs visited.
  template <typename F>
  std::size_t txn_for_range(stm::Tx& tx, Key low, Key high, F&& fn) const {
    assert(tx.in_tx());
    std::size_t count = 0;
    Probe p = probe(low);
    search_tx(tx, std::span<Probe>(&p, 1));
    Node* n = p.node;
    while (true) {
      if (!visit_node(n, low, high, fn, count)) break;
      if (n->high_raw() >= high) break;
      const std::uint64_t word = n->next(0).tx_read(tx);
      if (util::is_marked(word)) tx.abort();
      n = util::to_ptr<Node>(word);
    }
    return count;
  }

  Node* data_next(const Node* n, int level = 0) const {
    return util::to_ptr<Node>(util::without_mark(n->next(level).load_word()));
  }

  Params params_;
  Node* head_;
  Node* tail_;
};

/// Leap-LT (paper §2.1, the winning variant): raw searches; updates
/// lock the unique predecessor set plus the victim (address-ordered),
/// validate, and publish with a short transaction.
class LeapListLT : public LeapListBase {
 public:
  using LeapListBase::LeapListBase;

  bool insert(Key key, Value value) {
    assert_user_key(key);
    require_no_open_tx("LeapListLT update");
    util::ebr::Guard guard;
    while (true) {
      const SearchResult sr =
          search_predecessors(head_, params_.max_level, key);
      Node* n = sr.na[0];
      Replacement plan = plan_insert(n, key, value);
      if (publish_locked(sr, n, plan)) return plan.inserted;
      discard(plan);
    }
  }

  bool erase(Key key) {
    require_no_open_tx("LeapListLT update");
    util::ebr::Guard guard;
    while (true) {
      const SearchResult sr =
          search_predecessors(head_, params_.max_level, key);
      Node* n = sr.na[0];
      Node* n1 = plan_erase(n, key);
      if (n1 == nullptr) return false;
      Replacement plan;
      plan.n1 = n1;
      plan.link_top = n->level;
      if (publish_locked(sr, n, plan)) return true;
      discard(plan);
    }
  }

  /// Transaction-free lookup: the raw search only accepts live,
  /// unmarked hops, and node content is immutable.
  std::optional<Value> get(Key key) const {
    util::ebr::Guard guard;
    const SearchResult sr =
        search_predecessors(head_, params_.max_level, key);
    const Node* n = sr.na[0];
    const int idx = find_in(n, key);
    if (idx < 0) return std::nullopt;
    return n->values()[idx];
  }

  /// Linearizable range visitation via bundled references: pin a
  /// timestamp, walk each node as of it. No transaction, no commit
  /// validation, and no retries against concurrent updaters — the scan
  /// linearizes at the pin's clock read, and immutable node content
  /// plus the link history makes the visitation one consistent
  /// snapshot. The visitor may stop the scan early (return false); the
  /// visited prefix is itself a snapshot at the pinned instant.
  template <typename F>
  std::size_t for_range(Key low, Key high, F&& fn) const {
    return for_range_asof(low, high, fn);
  }

  /// Legacy bulk form: REPLACES `out` (clears, then collects). New code
  /// should prefer for_range with leap::append_to for explicit append.
  std::size_t range_query(Key low, Key high, std::vector<KV>& out) const {
    out.clear();
    return for_range(low, high, detail::Appender(out));
  }

 private:
  bool publish_locked(const SearchResult& sr, Node* n,
                      const Replacement& plan) {
    // Stripe set for the victim + predecessors, deduplicated and taken
    // in ascending index order (the stripe table's global lock order).
    std::array<std::size_t, kMaxHeight + 1> stripes;
    int count = 0;
    stripes[count++] = detail::lock_stripe(n);
    for (int i = 0; i < plan.link_top; ++i) {
      stripes[count++] = detail::lock_stripe(sr.pa[i]);
    }
    std::sort(stripes.begin(), stripes.begin() + count);
    count = static_cast<int>(
        std::unique(stripes.begin(), stripes.begin() + count) -
        stripes.begin());
    for (int i = 0; i < count; ++i) detail::stripe_lock(stripes[i]).lock();
    bool valid = n->live.load(std::memory_order_acquire);
    for (int i = 0; valid && i < plan.link_top; ++i) {
      if (i < n->level && sr.na[i] != n) valid = false;
      if (valid &&
          sr.pa[i]->next(i).load_word() != util::to_word(sr.na[i])) {
        valid = false;
      }
    }
    if (valid) {
      stm::Tx& tx = stm::tls_tx();
      stm::atomically(tx, [&](stm::Tx& t) { apply_swap(t, sr, n, plan); });
      n->live.store(false, std::memory_order_release);
    }
    for (int i = count - 1; i >= 0; --i) {
      detail::stripe_lock(stripes[i]).unlock();
    }
    if (valid) util::ebr::retire(n, &recycle_node);
    return valid;
  }
};

/// Leap-COP (paper §2.2): consistency-oblivious — traverse raw, then
/// validate the observed window and swing the pointers inside a single
/// commit transaction; on validation failure, redo the traversal.
class LeapListCOP : public LeapListBase {
 public:
  using LeapListBase::LeapListBase;

  bool insert(Key key, Value value) {
    assert_user_key(key);
    require_no_open_tx("LeapListCOP update");
    util::ebr::Guard guard;
    stm::Tx& tx = stm::tls_tx();
    while (true) {
      const SearchResult sr =
          search_predecessors(head_, params_.max_level, key);
      Node* n = sr.na[0];
      Replacement plan = plan_insert(n, key, value);
      bool valid = false;
      stm::atomically(tx, [&](stm::Tx& t) {
        valid = validate_tx(t, sr, n, plan.link_top);
        if (valid) apply_swap(t, sr, n, plan);
      });
      if (valid) {
        n->live.store(false, std::memory_order_release);
        util::ebr::retire(n, &recycle_node);
        return plan.inserted;
      }
      discard(plan);
    }
  }

  bool erase(Key key) {
    require_no_open_tx("LeapListCOP update");
    util::ebr::Guard guard;
    stm::Tx& tx = stm::tls_tx();
    while (true) {
      const SearchResult sr =
          search_predecessors(head_, params_.max_level, key);
      Node* n = sr.na[0];
      Node* n1 = plan_erase(n, key);
      if (n1 == nullptr) return false;
      Replacement plan;
      plan.n1 = n1;
      plan.link_top = n->level;
      bool valid = false;
      stm::atomically(tx, [&](stm::Tx& t) {
        valid = validate_tx(t, sr, n, plan.link_top);
        if (valid) apply_swap(t, sr, n, plan);
      });
      if (valid) {
        n->live.store(false, std::memory_order_release);
        util::ebr::retire(n, &recycle_node);
        return true;
      }
      discard(plan);
    }
  }

  std::optional<Value> get(Key key) const {
    util::ebr::Guard guard;
    stm::Tx& tx = stm::tls_tx();
    while (true) {
      const SearchResult sr =
          search_predecessors(head_, params_.max_level, key);
      Node* n = sr.na[0];
      bool valid = false;
      std::optional<Value> result;
      stm::atomically(tx, [&](stm::Tx& t) {
        result.reset();
        valid = sr.pa[0]->next(0).tx_read(t) == util::to_word(n);
        if (!valid) return;
        const int idx = find_in(n, key);
        if (idx >= 0) result = n->values()[idx];
      });
      if (valid) return result;
    }
  }

  /// Range visitation via bundled references (see LeapListLT::for_range
  /// — the as-of walk is policy-independent): pin a timestamp, walk as
  /// of it. COP's historical validate-at-commit scan is subsumed; the
  /// consistency-oblivious discipline lives on in the update paths.
  template <typename F>
  std::size_t for_range(Key low, Key high, F&& fn) const {
    return for_range_asof(low, high, fn);
  }

  /// Legacy bulk form: REPLACES `out` (clears, then collects).
  std::size_t range_query(Key low, Key high, std::vector<KV>& out) const {
    out.clear();
    return for_range(low, high, detail::Appender(out));
  }
};

/// Leap-tm (paper §2.3): every operation, traversal included, runs as
/// one fully instrumented transaction. The only variant with a
/// composable surface: the `*_in` forms enlist in a caller-owned open
/// transaction (leap::txn), so one transaction can move keys between
/// lists, update several lists, and take multi-list range snapshots as
/// one atomic unit. Every operation, composable or single-op, reaches
/// its window through the paper's fully instrumented search
/// (search_tx). Single-op forms flat-nest into an enclosing leap::txn
/// when called from one.
class LeapListTM : public LeapListBase {
 public:
  using LeapListBase::LeapListBase;

  /// A probe of this list for search_tx: a run of point reads, over
  /// one list or several, shares one interleaved search (read each
  /// answer back with probe_value).
  using LeapListBase::probe;

  // Composable forms — require an open transaction.
  bool insert_in(stm::Tx& tx, Key key, Value value) {
    return txn_insert(tx, key, value);
  }

  bool erase_in(stm::Tx& tx, Key key) {
    return txn_erase(tx, key);
  }

  std::optional<Value> get_in(stm::Tx& tx, Key key) const {
    return txn_get(tx, key);
  }

  /// Composable range visitation: enlists in the caller's open
  /// transaction. A conflict re-runs the caller's whole closure, so
  /// build an accumulating visitor inside it (docs/range-queries.md).
  template <typename F>
  std::size_t for_range_in(stm::Tx& tx, Key low, Key high, F&& fn) const {
    return txn_for_range(tx, low, high, fn);
  }

  /// Legacy bulk form: REPLACES `out` (clears, then collects).
  std::size_t range_in(stm::Tx& tx, Key low, Key high,
                       std::vector<KV>& out) const {
    out.clear();
    return txn_for_range(tx, low, high, detail::Appender(out));
  }

  // Single-op forms — one transaction per call.
  bool insert(Key key, Value value) {
    return leap::txn([&](stm::Tx& tx) {
      return txn_insert(tx, key, value);
    });
  }

  bool erase(Key key) {
    return leap::txn([&](stm::Tx& tx) {
      return txn_erase(tx, key);
    });
  }

  std::optional<Value> get(Key key) const {
    return leap::txn([&](stm::Tx& tx) {
      return txn_get(tx, key);
    });
  }

  template <typename F>
  std::size_t for_range(Key low, Key high, F&& fn) const {
    return leap::txn([&](stm::Tx& tx) {
      detail::visit_restart(fn);  // per-attempt rollback
      return txn_for_range(tx, low, high, fn);
    });
  }

  /// Legacy bulk form: REPLACES `out` (clears, then collects).
  std::size_t range_query(Key low, Key high, std::vector<KV>& out) const {
    out.clear();
    return for_range(low, high, detail::Appender(out));
  }
};

/// Global reader-writer-lock baseline (paper's "rwlock" series).
/// Updates serialize on an exclusive lock; point lookups take it
/// shared. Publication is copy-node-and-swap through the same
/// timestamped commit as every other variant (the exclusive lock makes
/// the transaction conflict-free, so it commits first try), which is
/// what lets range scans run as lock-free bundled-reference walks —
/// readers never touch the rwlock, and a stitched multi-shard scan at
/// one timestamp is linearizable even against writers holding other
/// shards' locks. The price of the bundle contract: in-place node
/// edits are gone (content is immutable once published) and victims
/// retire through EBR instead of being freed inline.
class LeapListRW : public LeapListBase {
 public:
  using LeapListBase::LeapListBase;

  bool insert(Key key, Value value) {
    assert_user_key(key);
    require_no_open_tx("LeapListRW update");
    util::ebr::Guard guard;
    std::unique_lock<std::shared_mutex> lk(mu_);
    const SearchResult sr = search_predecessors(head_, params_.max_level, key);
    Node* n = sr.na[0];
    const Replacement plan = plan_insert(n, key, value);
    publish_exclusive(sr, n, plan);
    return plan.inserted;
  }

  bool erase(Key key) {
    require_no_open_tx("LeapListRW update");
    util::ebr::Guard guard;
    std::unique_lock<std::shared_mutex> lk(mu_);
    const SearchResult sr = search_predecessors(head_, params_.max_level, key);
    Node* n = sr.na[0];
    Node* n1 = plan_erase(n, key);
    if (n1 == nullptr) return false;
    Replacement plan;
    plan.n1 = n1;
    plan.link_top = n->level;
    publish_exclusive(sr, n, plan);
    return true;
  }

  std::optional<Value> get(Key key) const {
    std::shared_lock<std::shared_mutex> lk(mu_);
    const SearchResult sr = search_predecessors(head_, params_.max_level, key);
    const Node* n = sr.na[0];
    const int idx = find_in(n, key);
    if (idx < 0) return std::nullopt;
    return n->values()[idx];
  }

  /// Range visitation via bundled references: lock-free for readers —
  /// the scan pins a timestamp and never takes the rwlock at all.
  template <typename F>
  std::size_t for_range(Key low, Key high, F&& fn) const {
    return for_range_asof(low, high, fn);
  }

  /// Legacy bulk form: REPLACES `out` (clears, then collects).
  std::size_t range_query(Key low, Key high, std::vector<KV>& out) const {
    out.clear();
    return for_range(low, high, detail::Appender(out));
  }

 private:
  /// Timestamped publish under the exclusive lock: no other writer can
  /// exist, so validation is unnecessary and the commit succeeds
  /// without conflicts — but it still stamps the links and bundles
  /// with a commit version, which the lock-free scans rely on.
  void publish_exclusive(const SearchResult& sr, Node* n,
                         const Replacement& plan) {
    stm::Tx& tx = stm::tls_tx();
    stm::atomically(tx, [&](stm::Tx& t) { apply_swap(t, sr, n, plan); });
    n->live.store(false, std::memory_order_release);
    util::ebr::retire(n, &recycle_node);
  }

  mutable std::shared_mutex mu_;
};

}  // namespace leap::core
