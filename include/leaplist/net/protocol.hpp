// leap::net wire protocol — the length-prefixed binary format spoken
// between leapd (src/server.cpp) and its clients (leap-loadgen, the
// test battery, anything else that frames bytes the same way).
//
//   Frame    := len:u32le payload[len]        1 <= len <= kMaxFrameBytes
//   Request  := op:u8 body
//     Get    := key:i64le
//     Put    := key:i64le value:i64le
//     Erase  := key:i64le
//     Scan   := low:i64le high:i64le limit:u32le      (limit 0 = all)
//     Txn    := n:u16le  n × (sub:u8 key:i64le [value:i64le if Put])
//     Stats  :=                          (empty body; never shed)
//   Response := status:u8 body
//     Ok        := flag:u8               put: inserted, erase: erased
//     Found     := value:i64le           get hit
//     Miss      :=                       get miss
//     ScanChunk := n:u32le n × (key:i64le value:i64le)   more follow
//     ScanDone  := n:u32le n × (key:i64le value:i64le)   final chunk
//     TxnDone   := n:u16le  n × result   get: found:u8 [value:i64le],
//                                        put/erase: flag:u8
//     Error     := code:u8               stream errors close the
//                                        connection; kOverloaded and
//                                        kStoreFailed answer ONE
//                                        request and the stream
//                                        continues
//     Stats     := n:u8 n × u64le        server counters (n is
//                                        kStatsWords, field order in
//                                        StatsSnapshot)
//
// Responses come back in request order on each connection; a Scan
// request yields zero or more ScanChunk frames then exactly one
// ScanDone. Two Error codes answer exactly one request in its FIFO
// position and leave the connection open: kOverloaded (admission
// control shed it) and kStoreFailed (the durable store is read-only
// fail-stop; writes error, reads still serve). Every other Error
// closes the connection. Every integer is little-endian, written and
// read through util/le.hpp (the codec the on-disk formats share).
// Parsers reject frames whose body is shorter or longer than the
// opcode demands, and point-op keys outside [kLowestKey, kHighestKey]
// — a frame either decodes exactly or errors out the connection.
#pragma once

#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "util/le.hpp"

namespace leap::net {

namespace le = util::le;

/// Hard ceiling on one frame's payload; a length prefix above this is
/// a protocol error (the connection is closed, nothing is allocated).
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/// Most ops a single Txn request may carry.
inline constexpr std::size_t kMaxTxnOps = 1024;

/// The keys the map can hold: every int64 but the two extremes, which
/// are the engine's sentinel words. A Get, Put, Erase or Txn sub-op
/// naming an extreme is a bad body; Scan bounds may be anything (the
/// server clamps them into this window).
inline constexpr std::int64_t kLowestKey =
    std::numeric_limits<std::int64_t>::min() + 1;
inline constexpr std::int64_t kHighestKey =
    std::numeric_limits<std::int64_t>::max() - 1;

/// Pairs per ScanChunk/ScanDone frame — the server's streaming unit,
/// and the bound on how much of a large range is ever buffered.
inline constexpr std::size_t kScanChunkPairs = 512;

enum class Op : std::uint8_t {
  kGet = 1,
  kPut = 2,
  kErase = 3,
  kScan = 4,
  kTxn = 5,
  kStats = 6,
};

enum class Status : std::uint8_t {
  kOk = 0,
  kFound = 1,
  kMiss = 2,
  kScanChunk = 3,
  kScanDone = 4,
  kTxnDone = 5,
  kError = 6,
  kStats = 7,
};

enum class Err : std::uint8_t {
  kBadFrame = 1,    // zero-length or oversized length prefix
  kBadOpcode = 2,   // unknown request opcode
  kBadBody = 3,     // body length/content mismatch for the opcode
  kOverloaded = 4,   // admission control shed THIS request; the
                     // connection stays open and later requests are
                     // answered normally
  kStoreFailed = 5,  // the durable store is fail-stop (disk failure):
                     // THIS write was not persisted and must not be
                     // treated as applied; the connection stays open
                     // and reads/scans keep answering
};

/// Log2 buckets of the point-batch size histogram carried by a Stats
/// response: sizes 1, 2-3, 4-7, ... , >= 128.
inline constexpr std::size_t kBatchHistBuckets = 8;

/// u64 words in a Stats response body (after the count byte). A body
/// whose count differs is malformed — both sides pin the layout.
/// 11 serving-layer counters + 11 store counters + 2 get-run counters +
/// the batch histogram.
inline constexpr std::size_t kStatsWords = 24 + kBatchHistBuckets;

/// Server counters as carried by the Stats opcode. The wire layout is
/// the fields below in declaration order, each a u64le; `batch_hist`
/// contributes its buckets last. The server aggregates per-worker
/// relaxed counters into this snapshot, so values lag live traffic by
/// at most one in-flight batch.
struct StatsSnapshot {
  std::uint64_t ops = 0;            // requests answered (batch = each)
  std::uint64_t accepted = 0;       // connections accepted
  std::uint64_t errored = 0;        // connections closed on protocol error
  std::uint64_t shed = 0;           // requests answered Err::kOverloaded
  std::uint64_t stm_retries = 0;    // STM aborts absorbed by server txns
  std::uint64_t batches = 0;        // fused point-op batches committed
  std::uint64_t batch_ops = 0;      // point ops inside those batches
  std::uint64_t queued_now = 0;     // admitted requests awaiting execution
  std::uint64_t queue_hwm = 0;      // max per-worker queued depth observed
  std::uint64_t accept_pauses = 0;  // times a worker paused accept
  std::uint64_t emfile_sheds = 0;   // connections shed on EMFILE/ENFILE
  // Durable-store counters (all zero when leapd runs without
  // --data-dir; see leaplist/store/store.hpp).
  std::uint64_t wal_appends = 0;      // WAL records written
  std::uint64_t wal_fsyncs = 0;       // fdatasync calls issued
  std::uint64_t wal_group_ops = 0;    // ops covered by group-commit syncs
  std::uint64_t store_flushes = 0;    // checkpoint flushes completed
  std::uint64_t store_runs = 0;       // live run files across shards
  std::uint64_t bloom_negatives = 0;  // cold gets a bloom proved absent
  std::uint64_t cold_hits = 0;        // gets answered from a run
  std::uint64_t recovered_ops = 0;    // WAL entries replayed at startup
  std::uint64_t store_fail_stop = 0;  // 1 once the store is read-only
  std::uint64_t corrupt_blocks = 0;   // run-block CRC/read failures
  std::uint64_t checkpoint_retries = 0;  // failed flush attempts
  // Point bursts' runs of consecutive gets, each answered by one span
  // get_in (interleaved descents); get_run_ops / get_runs is the mean
  // run length.
  std::uint64_t get_runs = 0;     // runs of consecutive gets in bursts
  std::uint64_t get_run_ops = 0;  // gets inside those runs
  std::uint64_t batch_hist[kBatchHistBuckets] = {};
};

/// Histogram bucket for a point batch of `n` ops: floor(log2(n)),
/// clamped to the last bucket (n = 0 never occurs; treated as bucket 0).
inline std::size_t batch_hist_bucket(std::size_t n) {
  std::size_t b = 0;
  while (n > 1 && b + 1 < kBatchHistBuckets) {
    n >>= 1;
    ++b;
  }
  return b;
}

/// One operation inside a Txn request (only point sub-ops compose).
struct TxnOp {
  Op op = Op::kGet;
  std::int64_t key = 0;
  std::int64_t value = 0;  // meaningful for kPut only
};

/// A decoded request frame. Point fields and the txn vector are
/// populated per `op`; unused fields stay zero.
struct Request {
  Op op = Op::kGet;
  std::int64_t key = 0;
  std::int64_t value = 0;
  std::int64_t low = 0;
  std::int64_t high = 0;
  std::uint32_t limit = 0;
  std::vector<TxnOp> txn;
};

/// One sub-op outcome inside a TxnDone response: for kGet `flag` is
/// found and `value` the hit; for kPut/kErase `flag` is
/// inserted/erased.
struct TxnResult {
  std::uint8_t flag = 0;
  std::int64_t value = 0;
};

/// A decoded response frame (client side). Fields populate per status.
struct Response {
  Status status = Status::kError;
  std::uint8_t flag = 0;
  std::int64_t value = 0;
  std::uint8_t error = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
  std::vector<TxnResult> results;
  StatsSnapshot stats;  // populated for Status::kStats
};

// --- Stats field order -------------------------------------------------

/// The Stats body's u64 words in wire order; `batch_hist` follows them.
/// The one list both append_stats and parse_response walk.
inline constexpr std::uint64_t StatsSnapshot::* kStatsFields[] = {
    &StatsSnapshot::ops,
    &StatsSnapshot::accepted,
    &StatsSnapshot::errored,
    &StatsSnapshot::shed,
    &StatsSnapshot::stm_retries,
    &StatsSnapshot::batches,
    &StatsSnapshot::batch_ops,
    &StatsSnapshot::queued_now,
    &StatsSnapshot::queue_hwm,
    &StatsSnapshot::accept_pauses,
    &StatsSnapshot::emfile_sheds,
    &StatsSnapshot::wal_appends,
    &StatsSnapshot::wal_fsyncs,
    &StatsSnapshot::wal_group_ops,
    &StatsSnapshot::store_flushes,
    &StatsSnapshot::store_runs,
    &StatsSnapshot::bloom_negatives,
    &StatsSnapshot::cold_hits,
    &StatsSnapshot::recovered_ops,
    &StatsSnapshot::store_fail_stop,
    &StatsSnapshot::corrupt_blocks,
    &StatsSnapshot::checkpoint_retries,
    &StatsSnapshot::get_runs,
    &StatsSnapshot::get_run_ops,
};
static_assert(std::size(kStatsFields) + kBatchHistBuckets == kStatsWords);

// --- reader -------------------------------------------------------------

/// Bounds-checked sequential reader over one frame payload. Every
/// read_* returns false past the end; `done()` demands the payload was
/// consumed exactly (trailing bytes are a protocol error too).
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  /// Claim the next `n` bytes; `p` points at them.
  bool take(std::size_t n, const std::uint8_t*& p) {
    if (size_ - at_ < n) return false;
    p = data_ + at_;
    at_ += n;
    return true;
  }

  bool read_u8(std::uint8_t& v) { return read_word(v); }
  bool read_u16(std::uint16_t& v) { return read_word(v); }
  bool read_u32(std::uint32_t& v) { return read_word(v); }
  bool read_u64(std::uint64_t& v) { return read_word(v); }

  bool read_i64(std::int64_t& v) {
    std::uint64_t u = 0;
    if (!read_word(u)) return false;
    v = static_cast<std::int64_t>(u);
    return true;
  }

  bool done() const { return at_ == size_; }

 private:
  template <typename U>
  bool read_word(U& v) {
    const std::uint8_t* p = nullptr;
    if (!take(sizeof(U), p)) return false;
    v = le::load<U>(p);
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t at_ = 0;
};

// --- framing ----------------------------------------------------------

/// Append one frame: its length prefix and room for a `len`-byte
/// payload, with one resize. Returns where the payload starts; the
/// builder fills exactly `len` bytes from there.
inline std::uint8_t* begin_frame(std::vector<std::uint8_t>& out,
                                 std::size_t len) {
  return le::put_u32(le::grow(out, 4 + len), static_cast<std::uint32_t>(len));
}

enum class FrameState {
  kNeedMore,  // not enough buffered bytes for prefix + payload
  kReady,     // payload_len set, payload starts at data + 4
  kBad,       // zero or oversized length prefix — poison the stream
};

/// Inspect the buffered byte stream at `data` for one complete frame.
inline FrameState split_frame(const std::uint8_t* data, std::size_t size,
                              std::size_t& payload_len) {
  if (size < 4) return FrameState::kNeedMore;
  const std::uint32_t len = le::load_u32(data);
  if (len == 0 || len > kMaxFrameBytes) return FrameState::kBad;
  payload_len = len;
  if (size < 4 + static_cast<std::size_t>(len)) return FrameState::kNeedMore;
  return FrameState::kReady;
}

// --- request builders (client side) -----------------------------------

inline std::uint8_t* put_op(std::uint8_t* p, Op op) {
  return le::put_u8(p, static_cast<std::uint8_t>(op));
}

inline void append_get(std::vector<std::uint8_t>& out, std::int64_t key) {
  le::put_i64(put_op(begin_frame(out, 1 + 8), Op::kGet), key);
}

inline void append_put(std::vector<std::uint8_t>& out, std::int64_t key,
                       std::int64_t value) {
  std::uint8_t* p = put_op(begin_frame(out, 1 + 16), Op::kPut);
  le::put_i64(le::put_i64(p, key), value);
}

inline void append_erase(std::vector<std::uint8_t>& out, std::int64_t key) {
  le::put_i64(put_op(begin_frame(out, 1 + 8), Op::kErase), key);
}

inline void append_scan(std::vector<std::uint8_t>& out, std::int64_t low,
                        std::int64_t high, std::uint32_t limit) {
  std::uint8_t* p = put_op(begin_frame(out, 1 + 16 + 4), Op::kScan);
  p = le::put_i64(p, low);
  p = le::put_i64(p, high);
  le::put_u32(p, limit);
}

inline void append_txn(std::vector<std::uint8_t>& out,
                       const std::vector<TxnOp>& ops) {
  std::size_t len = 1 + 2;
  for (const TxnOp& op : ops) len += op.op == Op::kPut ? 1 + 16 : 1 + 8;
  std::uint8_t* p = put_op(begin_frame(out, len), Op::kTxn);
  p = le::put_u16(p, static_cast<std::uint16_t>(ops.size()));
  for (const TxnOp& op : ops) {
    p = le::put_i64(put_op(p, op.op), op.key);
    if (op.op == Op::kPut) p = le::put_i64(p, op.value);
  }
}

inline void append_stats_req(std::vector<std::uint8_t>& out) {
  put_op(begin_frame(out, 1), Op::kStats);
}

// --- response builders (server side) ----------------------------------

inline std::uint8_t* put_status(std::uint8_t* p, Status status) {
  return le::put_u8(p, static_cast<std::uint8_t>(status));
}

inline void append_ok(std::vector<std::uint8_t>& out, bool flag) {
  le::put_u8(put_status(begin_frame(out, 2), Status::kOk), flag ? 1 : 0);
}

inline void append_found(std::vector<std::uint8_t>& out, std::int64_t value) {
  le::put_i64(put_status(begin_frame(out, 1 + 8), Status::kFound), value);
}

inline void append_miss(std::vector<std::uint8_t>& out) {
  put_status(begin_frame(out, 1), Status::kMiss);
}

/// One ScanChunk (or, with `done`, ScanDone) frame: the 9-byte header
/// (length, status, count) and the 16·n pair bytes, written in one pass
/// after one resize.
inline void append_scan_pairs(
    std::vector<std::uint8_t>& out,
    const std::pair<std::int64_t, std::int64_t>* pairs, std::size_t n,
    bool done) {
  std::uint8_t* p =
      put_status(begin_frame(out, 1 + 4 + 16 * n),
                 done ? Status::kScanDone : Status::kScanChunk);
  p = le::put_u32(p, static_cast<std::uint32_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    p = le::put_i64(p, pairs[i].first);
    p = le::put_i64(p, pairs[i].second);
  }
}

inline void append_txn_done(std::vector<std::uint8_t>& out,
                            const std::vector<TxnOp>& ops,
                            const std::vector<TxnResult>& results) {
  const auto carries_value = [&](std::size_t i) {
    return ops[i].op == Op::kGet && results[i].flag != 0;
  };
  std::size_t len = 1 + 2 + results.size();
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (carries_value(i)) len += 8;
  }
  std::uint8_t* p = put_status(begin_frame(out, len), Status::kTxnDone);
  p = le::put_u16(p, static_cast<std::uint16_t>(results.size()));
  for (std::size_t i = 0; i < results.size(); ++i) {
    p = le::put_u8(p, results[i].flag);
    if (carries_value(i)) p = le::put_i64(p, results[i].value);
  }
}

inline void append_error(std::vector<std::uint8_t>& out, Err code) {
  le::put_u8(put_status(begin_frame(out, 2), Status::kError),
             static_cast<std::uint8_t>(code));
}

inline void append_stats(std::vector<std::uint8_t>& out,
                         const StatsSnapshot& s) {
  std::uint8_t* p =
      put_status(begin_frame(out, 2 + 8 * kStatsWords), Status::kStats);
  p = le::put_u8(p, static_cast<std::uint8_t>(kStatsWords));
  for (const auto field : kStatsFields) p = le::put_u64(p, s.*field);
  for (const std::uint64_t bucket : s.batch_hist) p = le::put_u64(p, bucket);
}

// --- parsers ----------------------------------------------------------

inline bool is_point_op(Op op) {
  return op == Op::kGet || op == Op::kPut || op == Op::kErase;
}

/// Read one point-op key; false when short or outside the key window.
inline bool read_key(Reader& r, std::int64_t& key) {
  return r.read_i64(key) && key >= kLowestKey && key <= kHighestKey;
}

/// Decode one request payload. nullopt = malformed (unknown opcode,
/// short/long body, a point key outside the key window, oversized
/// txn) — the caller errors the connection.
inline std::optional<Request> parse_request(const std::uint8_t* payload,
                                            std::size_t size) {
  Reader r(payload, size);
  std::uint8_t op_raw = 0;
  if (!r.read_u8(op_raw)) return std::nullopt;
  Request req;
  req.op = static_cast<Op>(op_raw);
  switch (req.op) {
    case Op::kGet:
    case Op::kErase:
      if (!read_key(r, req.key)) return std::nullopt;
      break;
    case Op::kPut:
      if (!read_key(r, req.key) || !r.read_i64(req.value)) return std::nullopt;
      break;
    case Op::kScan:
      if (!r.read_i64(req.low) || !r.read_i64(req.high) ||
          !r.read_u32(req.limit)) {
        return std::nullopt;
      }
      break;
    case Op::kStats:
      break;  // empty body; r.done() below rejects trailing bytes
    case Op::kTxn: {
      std::uint16_t count = 0;
      if (!r.read_u16(count)) return std::nullopt;
      if (count > kMaxTxnOps) return std::nullopt;
      req.txn.reserve(count);
      for (std::uint16_t i = 0; i < count; ++i) {
        std::uint8_t sub_raw = 0;
        TxnOp sub;
        if (!r.read_u8(sub_raw)) return std::nullopt;
        sub.op = static_cast<Op>(sub_raw);
        if (!is_point_op(sub.op)) return std::nullopt;
        if (!read_key(r, sub.key)) return std::nullopt;
        if (sub.op == Op::kPut && !r.read_i64(sub.value)) return std::nullopt;
        req.txn.push_back(sub);
      }
      break;
    }
    default:
      return std::nullopt;
  }
  if (!r.done()) return std::nullopt;
  return req;
}

/// Decode one response payload (client side). nullopt = malformed.
/// The caller supplies the ops a TxnDone answers (the protocol elides
/// found-values for puts/erases, so decoding needs the request shape).
inline std::optional<Response> parse_response(
    const std::uint8_t* payload, std::size_t size,
    const std::vector<TxnOp>* txn_ops = nullptr) {
  Reader r(payload, size);
  std::uint8_t status_raw = 0;
  if (!r.read_u8(status_raw)) return std::nullopt;
  Response resp;
  resp.status = static_cast<Status>(status_raw);
  switch (resp.status) {
    case Status::kOk:
      if (!r.read_u8(resp.flag)) return std::nullopt;
      break;
    case Status::kFound:
      if (!r.read_i64(resp.value)) return std::nullopt;
      break;
    case Status::kMiss:
      break;
    case Status::kScanChunk:
    case Status::kScanDone: {
      std::uint32_t count = 0;
      if (!r.read_u32(count)) return std::nullopt;
      if (count > kScanChunkPairs) return std::nullopt;
      const std::uint8_t* p = nullptr;
      if (!r.take(std::size_t{count} * 16, p)) return std::nullopt;
      resp.pairs.resize(count);
      for (auto& [key, value] : resp.pairs) {
        key = le::load_i64(p);
        value = le::load_i64(p + 8);
        p += 16;
      }
      break;
    }
    case Status::kTxnDone: {
      std::uint16_t count = 0;
      if (!r.read_u16(count)) return std::nullopt;
      if (txn_ops == nullptr || txn_ops->size() != count) return std::nullopt;
      resp.results.reserve(count);
      for (std::uint16_t i = 0; i < count; ++i) {
        TxnResult result;
        if (!r.read_u8(result.flag)) return std::nullopt;
        if ((*txn_ops)[i].op == Op::kGet && result.flag &&
            !r.read_i64(result.value)) {
          return std::nullopt;
        }
        resp.results.push_back(result);
      }
      break;
    }
    case Status::kError:
      if (!r.read_u8(resp.error)) return std::nullopt;
      break;
    case Status::kStats: {
      std::uint8_t count = 0;
      if (!r.read_u8(count) || count != kStatsWords) return std::nullopt;
      StatsSnapshot& s = resp.stats;
      for (const auto field : kStatsFields) {
        if (!r.read_u64(s.*field)) return std::nullopt;
      }
      for (std::uint64_t& bucket : s.batch_hist) {
        if (!r.read_u64(bucket)) return std::nullopt;
      }
      break;
    }
    default:
      return std::nullopt;
  }
  if (!r.done()) return std::nullopt;
  return resp;
}

}  // namespace leap::net
