// Loopback battery for the net serving layer: protocol framing
// round-trips, the epoll server's pipelining/burst batching, chunked
// scan streaming, multi-key txn atomicity observed across connections,
// a concurrent-clients fuzz against std::map oracles, the overload
// battery (admission-control shedding in FIFO position, the Stats
// opcode, EMFILE recovery under a lowered RLIMIT_NOFILE), and the
// robustness cases — truncated/partial frames, oversized length
// prefixes, garbage opcodes, mid-request disconnects — all of which
// must error out one connection without crashing, leaking, or
// disturbing the others.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "leaplist/net/client.hpp"
#include "leaplist/net/protocol.hpp"
#include "leaplist/net/server.hpp"
#include "test_common.hpp"
#include "util/random.hpp"

namespace {

using namespace leap::net;
using leap::test::check_bytes;

ServerOptions test_options() {
  ServerOptions opts;
  opts.port = 0;
  opts.workers = 2;
  opts.shards = 4;
  opts.key_hi = 1'000'000;
  return opts;
}

// --- framing / codec round-trips (no sockets) -------------------------

void test_request_round_trip() {
  std::vector<std::uint8_t> buf;
  append_get(buf, -5);
  append_put(buf, 42, -99);
  append_erase(buf, 7);
  append_scan(buf, 10, 20, 3);
  const std::vector<TxnOp> ops = {
      {Op::kGet, 1, 0}, {Op::kPut, 2, 22}, {Op::kErase, 3, 0}};
  append_txn(buf, ops);

  std::size_t at = 0;
  auto pull = [&]() {
    std::size_t len = 0;
    CHECK(split_frame(buf.data() + at, buf.size() - at, len) ==
          FrameState::kReady);
    auto req = parse_request(buf.data() + at + 4, len);
    at += 4 + len;
    CHECK(req.has_value());
    return *req;
  };
  const Request get = pull();
  CHECK(get.op == Op::kGet);
  CHECK_EQ(get.key, -5);
  const Request put = pull();
  CHECK(put.op == Op::kPut);
  CHECK_EQ(put.key, 42);
  CHECK_EQ(put.value, -99);
  const Request erase = pull();
  CHECK(erase.op == Op::kErase);
  CHECK_EQ(erase.key, 7);
  const Request scan = pull();
  CHECK(scan.op == Op::kScan);
  CHECK_EQ(scan.low, 10);
  CHECK_EQ(scan.high, 20);
  CHECK_EQ(scan.limit, 3u);
  const Request txn = pull();
  CHECK(txn.op == Op::kTxn);
  CHECK_EQ(txn.txn.size(), std::size_t{3});
  CHECK(txn.txn[1].op == Op::kPut);
  CHECK_EQ(txn.txn[1].value, 22);
  CHECK_EQ(at, buf.size());
}

void test_response_round_trip() {
  std::vector<std::uint8_t> buf;
  append_ok(buf, true);
  append_found(buf, -12345);
  append_miss(buf);
  const std::pair<std::int64_t, std::int64_t> chunk_pairs[] = {{1, 10},
                                                               {2, 20}};
  append_scan_pairs(buf, chunk_pairs, 2, false);
  append_scan_pairs(buf, nullptr, 0, true);
  const std::vector<TxnOp> ops = {{Op::kGet, 1, 0}, {Op::kPut, 2, 5}};
  const std::vector<TxnResult> results = {{1, 77}, {0, 0}};
  append_txn_done(buf, ops, results);
  append_error(buf, Err::kBadOpcode);

  std::size_t at = 0;
  auto pull = [&](const std::vector<TxnOp>* txn_ops) {
    std::size_t len = 0;
    CHECK(split_frame(buf.data() + at, buf.size() - at, len) ==
          FrameState::kReady);
    auto resp = parse_response(buf.data() + at + 4, len, txn_ops);
    at += 4 + len;
    CHECK(resp.has_value());
    return *resp;
  };
  const Response ok = pull(nullptr);
  CHECK(ok.status == Status::kOk);
  CHECK_EQ(ok.flag, 1);
  const Response found = pull(nullptr);
  CHECK(found.status == Status::kFound);
  CHECK_EQ(found.value, -12345);
  CHECK(pull(nullptr).status == Status::kMiss);
  const Response chunk = pull(nullptr);
  CHECK(chunk.status == Status::kScanChunk);
  CHECK_EQ(chunk.pairs.size(), std::size_t{2});
  CHECK_EQ(chunk.pairs[1].second, 20);
  const Response done = pull(nullptr);
  CHECK(done.status == Status::kScanDone);
  CHECK(done.pairs.empty());
  const Response txn = pull(&ops);
  CHECK(txn.status == Status::kTxnDone);
  CHECK_EQ(txn.results.size(), std::size_t{2});
  CHECK_EQ(txn.results[0].flag, 1);
  CHECK_EQ(txn.results[0].value, 77);
  CHECK_EQ(txn.results[1].flag, 0);
  const Response error = pull(nullptr);
  CHECK(error.status == Status::kError);
  CHECK_EQ(error.error, static_cast<std::uint8_t>(Err::kBadOpcode));
  CHECK_EQ(at, buf.size());
}

// --- golden bytes ----------------------------------------------------
// Every builder's output compared with bytes written out by hand, so
// the wire format is pinned independently of the encoder. Frames too
// long to spell out (a full ScanChunk, Stats), and the malformed frames
// below, are built by `ref`, a byte-at-a-time reference writer that
// does not use util/le.hpp.

using Bytes = std::vector<std::uint8_t>;

/// Append `v` as `width` little-endian bytes, one shift at a time.
void ref(Bytes& out, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

/// The one frame in `buf`, split and parsed back as a request.
Request reparse_request(const Bytes& buf) {
  std::size_t len = 0;
  CHECK(split_frame(buf.data(), buf.size(), len) == FrameState::kReady);
  CHECK_EQ(4 + len, buf.size());
  const auto req = parse_request(buf.data() + 4, len);
  CHECK(req.has_value());
  return *req;
}

Response reparse_response(const Bytes& buf,
                          const std::vector<TxnOp>* ops = nullptr) {
  std::size_t len = 0;
  CHECK(split_frame(buf.data(), buf.size(), len) == FrameState::kReady);
  CHECK_EQ(4 + len, buf.size());
  const auto resp = parse_response(buf.data() + 4, len, ops);
  CHECK(resp.has_value());
  return *resp;
}

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

void test_golden_request_bytes() {
  Bytes buf;
  append_get(buf, -2);
  check_bytes(buf,
              {0x09, 0, 0, 0,  // len
               0x01,           // Get
               0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
              "get");
  CHECK_EQ(reparse_request(buf).key, -2);

  buf.clear();
  append_put(buf, kLowestKey, kMax);
  check_bytes(buf,
              {0x11, 0, 0, 0, 0x02,                             //
               0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,  // key
               0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
              "put");
  const Request put = reparse_request(buf);
  CHECK(put.op == Op::kPut);
  CHECK_EQ(put.key, kLowestKey);
  CHECK_EQ(put.value, kMax);

  buf.clear();
  append_erase(buf, 0x0102030405060708LL);
  check_bytes(buf,
              {0x09, 0, 0, 0, 0x03,  //
               0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01},
              "erase");
  CHECK_EQ(reparse_request(buf).key, 0x0102030405060708LL);

  buf.clear();
  append_scan(buf, -1, 0x1122334455667788LL, 0xa0b0c0d0u);
  check_bytes(buf,
              {0x15, 0, 0, 0, 0x04,                             //
               0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  // low
               0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // high
               0xd0, 0xc0, 0xb0, 0xa0},                         // limit
              "scan");
  const Request scan = reparse_request(buf);
  CHECK_EQ(scan.low, -1);
  CHECK_EQ(scan.high, 0x1122334455667788LL);
  CHECK_EQ(scan.limit, 0xa0b0c0d0u);

  buf.clear();
  const std::vector<TxnOp> ops = {
      {Op::kGet, 5, 0}, {Op::kPut, -3, 258}, {Op::kErase, kHighestKey, 0}};
  append_txn(buf, ops);
  check_bytes(buf,
              {0x26, 0, 0, 0, 0x05, 0x03, 0x00,                 // n = 3
               0x01, 0x05, 0, 0, 0, 0, 0, 0, 0,                 // get 5
               0x02, 0xfd, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  // put -3
               0xff, 0x02, 0x01, 0, 0, 0, 0, 0, 0,              // = 258
               0x03, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
              "txn");
  const Request txn = reparse_request(buf);
  CHECK_EQ(txn.txn.size(), std::size_t{3});
  CHECK_EQ(txn.txn[1].key, -3);
  CHECK_EQ(txn.txn[1].value, 258);
  CHECK_EQ(txn.txn[2].key, kHighestKey);

  buf.clear();
  append_stats_req(buf);
  check_bytes(buf, {0x01, 0, 0, 0, 0x06}, "stats request");
  CHECK(reparse_request(buf).op == Op::kStats);
}

void test_golden_response_bytes() {
  Bytes buf;
  append_ok(buf, true);
  check_bytes(buf, {0x02, 0, 0, 0, 0x00, 0x01}, "ok");
  CHECK_EQ(reparse_response(buf).flag, 1);

  buf.clear();
  append_found(buf, kMin);
  check_bytes(buf, {0x09, 0, 0, 0, 0x01, 0, 0, 0, 0, 0, 0, 0, 0x80},
              "found");
  CHECK_EQ(reparse_response(buf).value, kMin);

  buf.clear();
  append_miss(buf);
  check_bytes(buf, {0x01, 0, 0, 0, 0x02}, "miss");
  CHECK(reparse_response(buf).status == Status::kMiss);

  buf.clear();
  append_error(buf, Err::kOverloaded);
  check_bytes(buf, {0x02, 0, 0, 0, 0x06, 0x04}, "error");
  CHECK_EQ(reparse_response(buf).error,
           static_cast<std::uint8_t>(Err::kOverloaded));

  buf.clear();
  append_scan_pairs(buf, nullptr, 0, true);
  check_bytes(buf, {0x05, 0, 0, 0, 0x04, 0, 0, 0, 0}, "empty scan done");
  const Response empty = reparse_response(buf);
  CHECK(empty.status == Status::kScanDone);
  CHECK(empty.pairs.empty());

  buf.clear();
  const std::pair<std::int64_t, std::int64_t> two[] = {{-1, 1},
                                                       {kMax, kMin}};
  append_scan_pairs(buf, two, 2, true);
  check_bytes(buf,
              {0x25, 0, 0, 0, 0x04, 0x02, 0, 0, 0,              //
               0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  // -1
               0x01, 0, 0, 0, 0, 0, 0, 0,                       // 1
               0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f,  // max
               0, 0, 0, 0, 0, 0, 0, 0x80},                      // min
              "two-pair scan done");
  const Response done = reparse_response(buf);
  CHECK_EQ(done.pairs.size(), std::size_t{2});
  CHECK_EQ(done.pairs[1].first, kMax);
  CHECK_EQ(done.pairs[1].second, kMin);

  // A full chunk: kScanChunkPairs pairs, negative keys included.
  std::vector<std::pair<std::int64_t, std::int64_t>> full;
  for (std::size_t i = 0; i < kScanChunkPairs; ++i) {
    const auto k = static_cast<std::int64_t>(i);
    full.push_back({(k - 256) * 0x10203040506LL, ~k});
  }
  buf.clear();
  append_scan_pairs(buf, full.data(), full.size(), false);
  Bytes want;
  ref(want, 1 + 4 + 16 * kScanChunkPairs, 4);
  ref(want, static_cast<std::uint8_t>(Status::kScanChunk), 1);
  ref(want, kScanChunkPairs, 4);
  for (const auto& [k, v] : full) {
    ref(want, static_cast<std::uint64_t>(k), 8);
    ref(want, static_cast<std::uint64_t>(v), 8);
  }
  CHECK_EQ(want[0], 0x05);  // 8197 = 0x2005
  CHECK_EQ(want[1], 0x20);
  check_bytes(buf, want, "full scan chunk");
  const Response chunk = reparse_response(buf);
  CHECK(chunk.status == Status::kScanChunk);
  CHECK(chunk.pairs == full);

  // TxnDone: a get hit carries its value; a miss, a put and an erase
  // carry only their flag.
  buf.clear();
  const std::vector<TxnOp> ops = {
      {Op::kGet, 1, 0}, {Op::kGet, 2, 0}, {Op::kPut, 3, 9}, {Op::kErase, 4, 0}};
  const std::vector<TxnResult> results = {{1, -7}, {0, 0}, {1, 0}, {0, 0}};
  append_txn_done(buf, ops, results);
  check_bytes(buf,
              {0x0f, 0, 0, 0, 0x05, 0x04, 0x00,                       //
               0x01, 0xf9, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  //
               0x00, 0x01, 0x00},
              "txn done");
  const Response txn = reparse_response(buf, &ops);
  CHECK_EQ(txn.results.size(), std::size_t{4});
  CHECK_EQ(txn.results[0].value, -7);
  CHECK_EQ(txn.results[2].flag, 1);

  // Stats: count byte, then every word in declaration order.
  static_assert(sizeof(StatsSnapshot) == kStatsWords * 8);
  std::uint64_t words[kStatsWords];
  for (std::size_t i = 0; i < kStatsWords; ++i) {
    words[i] = (std::uint64_t{0x8000000000000001} >> i) + i;
  }
  StatsSnapshot stats;
  std::memcpy(&stats, words, sizeof(stats));
  buf.clear();
  append_stats(buf, stats);
  want.clear();
  ref(want, 2 + 8 * kStatsWords, 4);
  ref(want, static_cast<std::uint8_t>(Status::kStats), 1);
  ref(want, kStatsWords, 1);
  for (const std::uint64_t word : words) ref(want, word, 8);
  check_bytes(buf, want, "stats");
  const Response back = reparse_response(buf);
  CHECK(back.status == Status::kStats);
  std::uint64_t back_words[kStatsWords];
  std::memcpy(back_words, &back.stats, sizeof(back_words));
  for (std::size_t i = 0; i < kStatsWords; ++i) {
    CHECK_EQ(back_words[i], words[i]);
  }
  // The get-run counters are words 22 and 23: after the store counters,
  // before the batch histogram.
  CHECK_EQ(back.stats.checkpoint_retries, words[21]);
  CHECK_EQ(back.stats.get_runs, words[22]);
  CHECK_EQ(back.stats.get_run_ops, words[23]);
  CHECK_EQ(back.stats.batch_hist[0], words[24]);
}

void test_parser_rejects_malformed() {
  // Truncated bodies: every strict prefix of a valid put payload fails.
  std::vector<std::uint8_t> frame;
  append_put(frame, 1, 2);
  const std::uint8_t* payload = frame.data() + 4;
  const std::size_t payload_len = frame.size() - 4;
  for (std::size_t n = 0; n < payload_len; ++n) {
    CHECK(!parse_request(payload, n).has_value());
  }
  CHECK(parse_request(payload, payload_len).has_value());
  // Trailing garbage fails too: a frame decodes exactly or not at all.
  std::vector<std::uint8_t> fat(payload, payload + payload_len);
  fat.push_back(0);
  CHECK(!parse_request(fat.data(), fat.size()).has_value());
  // Unknown opcode.
  const std::uint8_t garbage[] = {0x7f, 0, 0, 0, 0, 0, 0, 0, 0};
  CHECK(!parse_request(garbage, sizeof(garbage)).has_value());
  // Oversized and zero length prefixes poison the stream.
  std::vector<std::uint8_t> huge;
  ref(huge, kMaxFrameBytes + 1, 4);
  std::size_t len = 0;
  CHECK(split_frame(huge.data(), huge.size(), len) == FrameState::kBad);
  std::vector<std::uint8_t> zero;
  ref(zero, 0, 4);
  CHECK(split_frame(zero.data(), zero.size(), len) == FrameState::kBad);
  // A txn claiming more sub-ops than it carries.
  std::vector<std::uint8_t> short_txn;
  ref(short_txn, static_cast<std::uint8_t>(Op::kTxn), 1);
  ref(short_txn, 5, 2);
  ref(short_txn, static_cast<std::uint8_t>(Op::kGet), 1);
  ref(short_txn, 1, 8);
  CHECK(!parse_request(short_txn.data(), short_txn.size()).has_value());
  // A txn smuggling a non-point sub-op.
  std::vector<std::uint8_t> nested;
  ref(nested, static_cast<std::uint8_t>(Op::kTxn), 1);
  ref(nested, 1, 2);
  ref(nested, static_cast<std::uint8_t>(Op::kScan), 1);
  ref(nested, 1, 8);
  CHECK(!parse_request(nested.data(), nested.size()).has_value());
}

// --- loopback: basic semantics ---------------------------------------

void test_point_ops(Server& server) {
  Client client;
  CHECK(client.connect("127.0.0.1", server.port()));
  CHECK(!client.get(111).has_value());
  CHECK(client.put(111, 1000));
  CHECK(!client.put(111, 2000));  // overwrite reports "not inserted"
  const auto hit = client.get(111);
  CHECK(hit.has_value());
  CHECK_EQ(*hit, 2000);
  CHECK(client.erase(111));
  CHECK(!client.erase(111));
  CHECK(!client.get(111).has_value());
  CHECK(!client.failed());
}

void test_pipelined_burst(Server& server) {
  // One syscall burst of mixed point ops. The server fuses the burst
  // into single-txn batches, so responses must come back in order AND
  // read-your-writes must hold within the burst — both checkable
  // against a sequential std::map replay.
  Client client;
  CHECK(client.connect("127.0.0.1", server.port()));
  std::map<std::int64_t, std::int64_t> oracle;
  leap::util::Xoshiro256 rng(123);
  struct Sent {
    Op op;
    std::int64_t key;
    bool flag;
    std::int64_t value;
  };
  std::vector<Sent> sent;
  for (int i = 0; i < 300; ++i) {
    const std::int64_t key =
        5000 + static_cast<std::int64_t>(rng.next_below(64));
    const int dial = static_cast<int>(rng.next_below(3));
    if (dial == 0) {
      const std::int64_t value = static_cast<std::int64_t>(rng.next());
      const bool inserted = oracle.insert_or_assign(key, value).second;
      client.queue_put(key, value);
      sent.push_back({Op::kPut, key, inserted, 0});
    } else if (dial == 1) {
      const bool erased = oracle.erase(key) > 0;
      client.queue_erase(key);
      sent.push_back({Op::kErase, key, erased, 0});
    } else {
      const auto it = oracle.find(key);
      const bool found = it != oracle.end();
      client.queue_get(key);
      sent.push_back({Op::kGet, key, found, found ? it->second : 0});
    }
  }
  CHECK(client.flush());
  for (const Sent& s : sent) {
    const auto resp = client.read_response();
    CHECK(resp.has_value());
    if (s.op == Op::kGet) {
      if (s.flag) {
        CHECK(resp->status == Status::kFound);
        CHECK_EQ(resp->value, s.value);
      } else {
        CHECK(resp->status == Status::kMiss);
      }
    } else {
      CHECK(resp->status == Status::kOk);
      CHECK_EQ(resp->flag, s.flag ? 1 : 0);
    }
  }
  // Clean the stripe so later tests see a predictable map.
  for (const auto& entry : oracle) CHECK(client.erase(entry.first));
  CHECK(!client.failed());
}

void test_get_heavy_burst() {
  // One burst of mostly gets over all 8 shards, as read-zipf sends:
  // leapd answers each run of consecutive gets through one interleaved
  // search. Runs longer than core::kSearchLanes, repeats inside a run,
  // and put -> get -> erase -> get on one key must all answer in FIFO
  // order with read-your-writes, checked against a std::map replay.
  ServerOptions opts = test_options();
  opts.shards = 8;
  Server server(opts);
  CHECK(server.start());
  Client client;
  CHECK(client.connect("127.0.0.1", server.port()));
  std::map<std::int64_t, std::int64_t> oracle;
  leap::util::Xoshiro256 rng(321);
  std::vector<std::int64_t> pool;
  for (int i = 0; i < 256; ++i) {
    pool.push_back(static_cast<std::int64_t>(rng.next_below(1'000'000)));
  }
  for (std::size_t i = 0; i < pool.size(); i += 2) {
    CHECK(client.put(pool[i], pool[i] * 2) == !oracle.contains(pool[i]));
    oracle[pool[i]] = pool[i] * 2;
  }
  const auto before = client.stats();
  CHECK(before.has_value());
  struct Sent {
    Op op;
    std::int64_t key;
    bool flag;
    std::int64_t value;
  };
  std::vector<Sent> sent;
  const auto queue_get = [&](std::int64_t key) {
    const auto it = oracle.find(key);
    const bool found = it != oracle.end();
    client.queue_get(key);
    sent.push_back({Op::kGet, key, found, found ? it->second : 0});
  };
  const auto queue_put = [&](std::int64_t key, std::int64_t value) {
    const bool inserted = oracle.insert_or_assign(key, value).second;
    client.queue_put(key, value);
    sent.push_back({Op::kPut, key, inserted, 0});
  };
  const auto queue_erase = [&](std::int64_t key) {
    const bool erased = oracle.erase(key) > 0;
    client.queue_erase(key);
    sent.push_back({Op::kErase, key, erased, 0});
  };
  // A run past the cap that repeats keys, on every shard.
  for (std::size_t i = 0; i < 2 * leap::core::kSearchLanes + 5; ++i) {
    queue_get(pool[i % pool.size()]);
    if (i % 9 == 0) queue_get(pool[i % pool.size()]);
  }
  // put -> get -> erase -> get on one key, inside runs of gets.
  const std::int64_t flip = 999'983;
  queue_get(flip);
  queue_put(flip, 7);
  queue_get(flip);
  queue_get(pool[1]);
  queue_erase(flip);
  queue_get(flip);
  queue_get(flip);
  // Then a random 92%-get mix.
  for (int i = 0; i < 1200; ++i) {
    const std::int64_t key = pool[rng.next_below(pool.size())];
    const auto dial = rng.next_below(100);
    if (dial < 5) {
      queue_put(key, static_cast<std::int64_t>(rng.next()));
    } else if (dial < 8) {
      queue_erase(key);
    } else {
      queue_get(key);
    }
  }
  std::size_t gets = 0;
  std::size_t runs = 0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    if (sent[i].op != Op::kGet) continue;
    ++gets;
    if (i == 0 || sent[i - 1].op != Op::kGet) ++runs;
  }
  CHECK(gets * 10 >= sent.size() * 9);
  CHECK(client.flush());
  for (const Sent& s : sent) {
    const auto resp = client.read_response();
    CHECK(resp.has_value());
    if (s.op == Op::kGet) {
      if (s.flag) {
        CHECK(resp->status == Status::kFound);
        CHECK_EQ(resp->value, s.value);
      } else {
        CHECK(resp->status == Status::kMiss);
      }
    } else {
      CHECK(resp->status == Status::kOk);
      CHECK_EQ(resp->flag, s.flag ? 1 : 0);
    }
  }
  // Every get of the burst went through a run; a batch boundary can
  // only split runs, never merge them.
  const auto after = client.stats();
  CHECK(after.has_value());
  CHECK_EQ(after->get_run_ops - before->get_run_ops,
           static_cast<std::uint64_t>(gets));
  CHECK(after->get_runs - before->get_runs >= runs);
  CHECK(after->get_runs - before->get_runs < gets);
  CHECK(!client.failed());
  server.stop();
}

void test_scan_streams_chunks(Server& server) {
  Client client;
  CHECK(client.connect("127.0.0.1", server.port()));
  const std::int64_t base = 200'000;
  const std::int64_t count = 2000;  // > kScanChunkPairs → several chunks
  for (std::int64_t i = 0; i < count; ++i) client.queue_put(base + 2 * i, i);
  CHECK(client.flush());
  for (std::int64_t i = 0; i < count; ++i) {
    const auto resp = client.read_response();
    CHECK(resp.has_value());
    CHECK(resp->status == Status::kOk);
  }
  // Unlimited scan: every pair, in order, across multiple chunk frames.
  std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
  CHECK_EQ(client.scan(base, base + 2 * count, 0, pairs),
           static_cast<std::ptrdiff_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    CHECK_EQ(pairs[static_cast<std::size_t>(i)].first, base + 2 * i);
    CHECK_EQ(pairs[static_cast<std::size_t>(i)].second, i);
  }
  // A bounded scan honors the limit exactly (limit > one chunk, so the
  // remaining-count must survive across chunk transactions).
  pairs.clear();
  CHECK_EQ(client.scan(base, base + 2 * count, 700, pairs),
           static_cast<std::ptrdiff_t>(700));
  CHECK_EQ(pairs[699].first, base + 2 * 699);
  // An inverted range answers an empty ScanDone, not an error.
  pairs.clear();
  CHECK_EQ(client.scan(base + 100, base, 0, pairs),
           static_cast<std::ptrdiff_t>(0));
  // The range is inclusive on both ends: a singleton scan hits.
  pairs.clear();
  CHECK_EQ(client.scan(base + 2, base + 2, 0, pairs),
           static_cast<std::ptrdiff_t>(1));
  CHECK_EQ(pairs[0].first, base + 2);
  // Open-ended bounds: the extreme int64 values are the engine's
  // sentinel words, yet a scan out to them answers in full and leaves
  // the server serving.
  pairs.clear();
  CHECK_EQ(client.scan(base, kMax, 0, pairs),
           static_cast<std::ptrdiff_t>(count));
  pairs.clear();
  CHECK_EQ(client.scan(kMin, kMax, 700, pairs),
           static_cast<std::ptrdiff_t>(700));
  CHECK_EQ(pairs[699].first, base + 2 * 699);
  // A chunk that fills up exactly at the largest storable key ends the
  // stream there instead of stepping past it onto the sentinel.
  const auto chunk = static_cast<std::int64_t>(kScanChunkPairs);
  for (std::int64_t i = 1; i <= chunk; ++i) {
    client.queue_put(kMax - i, i);
  }
  CHECK(client.flush());
  for (std::int64_t i = 1; i <= chunk; ++i) {
    CHECK(client.read_response().has_value());
  }
  pairs.clear();
  CHECK_EQ(client.scan(kMax - chunk, kMax, 0, pairs),
           static_cast<std::ptrdiff_t>(kScanChunkPairs));
  CHECK_EQ(pairs.back().first, kMax - 1);
  for (std::int64_t i = 1; i <= chunk; ++i) {
    CHECK(client.erase(kMax - i));
  }
  const auto still_serving = client.get(base);
  CHECK(still_serving.has_value() && *still_serving == 0);
  for (std::int64_t i = 0; i < count; ++i) client.queue_erase(base + 2 * i);
  CHECK(client.flush());
  for (std::int64_t i = 0; i < count; ++i) {
    CHECK(client.read_response().has_value());
  }
  CHECK(!client.failed());
}

// --- loopback: concurrency -------------------------------------------

void test_concurrent_clients_vs_oracle(Server& server) {
  // Each thread owns a disjoint key stripe on its own connection, so
  // every response is checkable against a thread-local std::map oracle
  // even under full concurrency; a final scan cross-checks the union.
  const auto window =
      leap::test::stress_duration(std::chrono::milliseconds(300));
  constexpr int kThreads = 4;
  constexpr std::int64_t kStripe = 4096;
  std::vector<std::map<std::int64_t, std::int64_t>> oracles(kThreads);
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Client client;
      if (!client.connect("127.0.0.1", server.port())) {
        failed.store(true);
        return;
      }
      std::map<std::int64_t, std::int64_t>& oracle = oracles[t];
      // Stripes sit far apart so several map shards see traffic.
      const std::int64_t base = 300'000 + t * 150'000;
      leap::util::Xoshiro256 rng(0xace0 + t);
      const auto deadline = std::chrono::steady_clock::now() + window;
      while (std::chrono::steady_clock::now() < deadline) {
        // A pipelined window of 32 ops, then verify all 32 responses.
        struct Sent {
          Op op;
          bool flag;
          std::int64_t value;
        };
        std::vector<Sent> sent;
        for (int i = 0; i < 32; ++i) {
          const std::int64_t key =
              base + static_cast<std::int64_t>(rng.next_below(kStripe));
          const int dial = static_cast<int>(rng.next_below(4));
          if (dial == 0) {
            const auto it = oracle.find(key);
            const bool found = it != oracle.end();
            client.queue_get(key);
            sent.push_back({Op::kGet, found, found ? it->second : 0});
          } else if (dial == 3) {
            const bool erased = oracle.erase(key) > 0;
            client.queue_erase(key);
            sent.push_back({Op::kErase, erased, 0});
          } else {
            const std::int64_t value = static_cast<std::int64_t>(rng.next());
            const bool inserted = oracle.insert_or_assign(key, value).second;
            client.queue_put(key, value);
            sent.push_back({Op::kPut, inserted, 0});
          }
        }
        if (!client.flush()) {
          failed.store(true);
          return;
        }
        for (const Sent& s : sent) {
          const auto resp = client.read_response();
          bool ok = resp.has_value();
          if (ok && s.op == Op::kGet) {
            ok = s.flag ? (resp->status == Status::kFound &&
                           resp->value == s.value)
                        : resp->status == Status::kMiss;
          } else if (ok) {
            ok = resp->status == Status::kOk &&
                 resp->flag == (s.flag ? 1 : 0);
          }
          if (!ok) {
            failed.store(true);
            return;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  CHECK(!failed.load());
  // Cross-check the union of oracles through a fresh connection.
  std::map<std::int64_t, std::int64_t> want;
  for (const auto& oracle : oracles) {
    want.insert(oracle.begin(), oracle.end());
  }
  Client checker;
  CHECK(checker.connect("127.0.0.1", server.port()));
  std::vector<std::pair<std::int64_t, std::int64_t>> got;
  CHECK(checker.scan(300'000, 300'000 + kThreads * 150'000, 0, got) >= 0);
  CHECK_EQ(got.size(), want.size());
  auto it = want.begin();
  for (const auto& [key, value] : got) {
    CHECK_EQ(key, it->first);
    CHECK_EQ(value, it->second);
    ++it;
  }
  for (const auto& entry : want) CHECK(checker.erase(entry.first));
}

void test_txn_atomicity_across_connections(Server& server) {
  // A token bounces between two keys in different map shards via the
  // Txn opcode; reader connections snapshot both keys in one txn and
  // must see the token in EXACTLY one place at every instant.
  const std::int64_t key_a = 1'000;
  const std::int64_t key_b = 900'000;  // other end of the key window
  CHECK(server.map().shard_of(key_a) != server.map().shard_of(key_b));
  {
    Client setup;
    CHECK(setup.connect("127.0.0.1", server.port()));
    CHECK(setup.put(key_a, 7777));
  }
  const auto window =
      leap::test::stress_duration(std::chrono::milliseconds(300));
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<std::uint64_t> moves{0};
  std::thread mover([&] {
    Client client;
    if (!client.connect("127.0.0.1", server.port())) {
      failed.store(true);
      return;
    }
    std::int64_t from = key_a;
    std::int64_t to = key_b;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<TxnOp> ops = {
          {Op::kErase, from, 0},
          {Op::kPut, to, 7777},
      };
      const auto results = client.txn(ops);
      if (!results || !(*results)[0].flag || !(*results)[1].flag) {
        failed.store(true);
        return;
      }
      moves.fetch_add(1, std::memory_order_relaxed);
      std::swap(from, to);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      Client client;
      if (!client.connect("127.0.0.1", server.port())) {
        failed.store(true);
        return;
      }
      const std::vector<TxnOp> probe = {
          {Op::kGet, key_a, 0},
          {Op::kGet, key_b, 0},
      };
      while (!stop.load(std::memory_order_relaxed)) {
        const auto results = client.txn(probe);
        if (!results) {
          failed.store(true);
          return;
        }
        const int present =
            ((*results)[0].flag ? 1 : 0) + ((*results)[1].flag ? 1 : 0);
        const std::int64_t value =
            (*results)[0].flag ? (*results)[0].value : (*results)[1].value;
        if (present != 1 || value != 7777) {
          failed.store(true);  // both, neither, or torn: not atomic
          return;
        }
      }
    });
  }
  std::this_thread::sleep_for(window);
  stop.store(true);
  mover.join();
  for (auto& reader : readers) reader.join();
  CHECK(!failed.load());
  CHECK(moves.load() > 0);
  Client cleanup;
  CHECK(cleanup.connect("127.0.0.1", server.port()));
  cleanup.erase(key_a);
  cleanup.erase(key_b);
}

// --- loopback: robustness --------------------------------------------

void expect_connection_dies(Client& client) {
  // The server answers an Error frame when the stream is still framed,
  // then closes; either way the reads must terminate — no hang, no
  // crash, and nothing after an Error.
  for (int hops = 0; hops < 8; ++hops) {
    const auto resp = client.read_response();
    if (!resp) return;  // closed
    if (resp->status == Status::kError) {
      CHECK(!client.read_response().has_value());
      return;
    }
  }
  CHECK(false);  // the connection never died
}

void test_robustness(Server& server) {
  const ServerStats before = server.stats();
  {
    // Oversized length prefix — nothing that big may even allocate.
    Client client;
    CHECK(client.connect("127.0.0.1", server.port()));
    std::vector<std::uint8_t> evil;
    ref(evil, kMaxFrameBytes + 7, 4);
    evil.push_back(1);
    client.queue_raw(evil);
    CHECK(client.flush());
    expect_connection_dies(client);
  }
  {
    // Zero-length frame.
    Client client;
    CHECK(client.connect("127.0.0.1", server.port()));
    std::vector<std::uint8_t> evil;
    ref(evil, 0, 4);
    client.queue_raw(evil);
    CHECK(client.flush());
    expect_connection_dies(client);
  }
  {
    // Garbage opcode after a sound request: the sound one is answered,
    // then the stream errors out.
    Client client;
    CHECK(client.connect("127.0.0.1", server.port()));
    client.queue_put(31337, 1);
    std::vector<std::uint8_t> evil;
    ref(evil, 1, 4);
    evil.push_back(0xEE);
    client.queue_raw(evil);
    CHECK(client.flush());
    const auto first = client.read_response();
    CHECK(first.has_value());
    CHECK(first->status == Status::kOk);
    expect_connection_dies(client);
  }
  {
    // Malformed body (a get with a short key).
    Client client;
    CHECK(client.connect("127.0.0.1", server.port()));
    std::vector<std::uint8_t> evil;
    ref(evil, 3, 4);
    evil.push_back(static_cast<std::uint8_t>(Op::kGet));
    evil.push_back(1);
    evil.push_back(2);
    client.queue_raw(evil);
    CHECK(client.flush());
    expect_connection_dies(client);
  }
  {
    // Mid-request disconnect: a frame promising 12 bytes delivers 3,
    // then the peer vanishes. The server just drops the half frame.
    Client client;
    CHECK(client.connect("127.0.0.1", server.port()));
    std::vector<std::uint8_t> partial;
    ref(partial, 12, 4);
    partial.push_back(static_cast<std::uint8_t>(Op::kGet));
    partial.push_back(0);
    partial.push_back(0);
    client.queue_raw(partial);
    CHECK(client.flush());
    client.close();
  }
  {
    // Disconnect mid-scan: request a big stream, read one frame, bail
    // while the server still has chunks queued for this connection.
    Client seeder;
    CHECK(seeder.connect("127.0.0.1", server.port()));
    for (int i = 0; i < 1500; ++i) seeder.queue_put(600'000 + i, i);
    CHECK(seeder.flush());
    for (int i = 0; i < 1500; ++i) {
      CHECK(seeder.read_response().has_value());
    }
    Client client;
    CHECK(client.connect("127.0.0.1", server.port()));
    client.queue_scan(600'000, 602'000, 0);
    CHECK(client.flush());
    CHECK(client.read_response().has_value());  // first chunk only
    client.close();
    for (int i = 0; i < 1500; ++i) seeder.queue_erase(600'000 + i);
    CHECK(seeder.flush());
    for (int i = 0; i < 1500; ++i) {
      CHECK(seeder.read_response().has_value());
    }
  }
  {
    // A request split across many tiny writes still parses — the
    // server must buffer partial frames indefinitely, not error them.
    Client client;
    CHECK(client.connect("127.0.0.1", server.port()));
    std::vector<std::uint8_t> frame;
    append_put(frame, 777, 888);
    for (const std::uint8_t byte : frame) {
      client.queue_raw({byte});
      CHECK(client.flush());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const auto resp = client.read_response();
    CHECK(resp.has_value());
    CHECK(resp->status == Status::kOk);
    CHECK(client.erase(777));
  }
  // The abuse above errored out connections but never the server:
  // fresh connections still serve, and the error counter moved.
  Client survivor;
  CHECK(survivor.connect("127.0.0.1", server.port()));
  CHECK(survivor.put(1, 2));
  CHECK(survivor.erase(1));
  CHECK(server.stats().errored >= before.errored + 4);
}

// --- loopback: the key window -----------------------------------------
// The two extreme int64 keys are the engine's sentinel words, which the
// map cannot hold. A Get, Put, Erase or Txn sub-op naming one is a bad
// body: that connection is answered Err::kBadBody and closed, and leapd
// goes on serving new connections instead of aborting on the key.

void test_extreme_keys_rejected(Server& server) {
  for (const std::int64_t key : {kMin, kMax}) {
    std::vector<Bytes> frames(6);
    append_get(frames[0], key);
    append_put(frames[1], key, 1);
    append_erase(frames[2], key);
    append_txn(frames[3], {{Op::kGet, 5, 0}, {Op::kGet, key, 0}});
    append_txn(frames[4], {{Op::kPut, key, 1}});
    append_txn(frames[5], {{Op::kErase, key, 0}});
    for (const Bytes& frame : frames) {
      Client client;
      CHECK(client.connect("127.0.0.1", server.port()));
      client.queue_raw(frame);
      CHECK(client.flush());
      const auto resp = client.read_response();
      CHECK(resp.has_value());
      CHECK(resp->status == Status::kError);
      CHECK_EQ(resp->error, static_cast<std::uint8_t>(Err::kBadBody));
      CHECK(!client.read_response().has_value());
      Client fresh;
      CHECK(fresh.connect("127.0.0.1", server.port()));
      fresh.queue_get(5);
      CHECK(fresh.flush());
      CHECK(fresh.read_response().has_value());
    }
  }
  // The window's own edges are ordinary keys.
  Client client;
  CHECK(client.connect("127.0.0.1", server.port()));
  for (const std::int64_t key : {kLowestKey, kHighestKey}) {
    CHECK(client.put(key, 3));
    const auto hit = client.get(key);
    CHECK(hit.has_value() && *hit == 3);
    CHECK(client.erase(key));
  }
}

// --- loopback: overload / observability -------------------------------

void test_stats_codec_round_trip() {
  StatsSnapshot in;
  in.ops = 1;
  in.accepted = 2;
  in.errored = 3;
  in.shed = 4;
  in.stm_retries = 5;
  in.batches = 6;
  in.batch_ops = 7;
  in.queued_now = 8;
  in.queue_hwm = 9;
  in.accept_pauses = 10;
  in.emfile_sheds = 11;
  in.wal_appends = 12;
  in.wal_fsyncs = 13;
  in.wal_group_ops = 14;
  in.store_flushes = 15;
  in.store_runs = 16;
  in.bloom_negatives = 17;
  in.cold_hits = 18;
  in.recovered_ops = 19;
  in.store_fail_stop = 20;
  in.corrupt_blocks = 21;
  in.checkpoint_retries = 22;
  in.get_runs = 23;
  in.get_run_ops = 24;
  for (std::size_t i = 0; i < kBatchHistBuckets; ++i) {
    in.batch_hist[i] = 100 + i;
  }
  std::vector<std::uint8_t> buf;
  append_stats(buf, in);
  std::size_t len = 0;
  CHECK(split_frame(buf.data(), buf.size(), len) == FrameState::kReady);
  const auto resp = parse_response(buf.data() + 4, len, nullptr);
  CHECK(resp.has_value());
  CHECK(resp->status == Status::kStats);
  const StatsSnapshot& out = resp->stats;
  CHECK_EQ(out.ops, in.ops);
  CHECK_EQ(out.accepted, in.accepted);
  CHECK_EQ(out.errored, in.errored);
  CHECK_EQ(out.shed, in.shed);
  CHECK_EQ(out.stm_retries, in.stm_retries);
  CHECK_EQ(out.batches, in.batches);
  CHECK_EQ(out.batch_ops, in.batch_ops);
  CHECK_EQ(out.queued_now, in.queued_now);
  CHECK_EQ(out.queue_hwm, in.queue_hwm);
  CHECK_EQ(out.accept_pauses, in.accept_pauses);
  CHECK_EQ(out.emfile_sheds, in.emfile_sheds);
  CHECK_EQ(out.wal_appends, in.wal_appends);
  CHECK_EQ(out.wal_fsyncs, in.wal_fsyncs);
  CHECK_EQ(out.wal_group_ops, in.wal_group_ops);
  CHECK_EQ(out.store_flushes, in.store_flushes);
  CHECK_EQ(out.store_runs, in.store_runs);
  CHECK_EQ(out.bloom_negatives, in.bloom_negatives);
  CHECK_EQ(out.cold_hits, in.cold_hits);
  CHECK_EQ(out.recovered_ops, in.recovered_ops);
  CHECK_EQ(out.store_fail_stop, in.store_fail_stop);
  CHECK_EQ(out.corrupt_blocks, in.corrupt_blocks);
  CHECK_EQ(out.checkpoint_retries, in.checkpoint_retries);
  CHECK_EQ(out.get_runs, in.get_runs);
  CHECK_EQ(out.get_run_ops, in.get_run_ops);
  for (std::size_t i = 0; i < kBatchHistBuckets; ++i) {
    CHECK_EQ(out.batch_hist[i], in.batch_hist[i]);
  }
  // A Stats response whose word count disagrees with kStatsWords fails
  // to parse (forward-compat is explicit, not silent).
  buf[5] = static_cast<std::uint8_t>(kStatsWords - 1);
  CHECK(!parse_response(buf.data() + 4, len, nullptr).has_value());
  // Bucketing: floor(log2), clamped to the last bucket.
  CHECK_EQ(batch_hist_bucket(1), std::size_t{0});
  CHECK_EQ(batch_hist_bucket(2), std::size_t{1});
  CHECK_EQ(batch_hist_bucket(3), std::size_t{1});
  CHECK_EQ(batch_hist_bucket(128), std::size_t{7});
  CHECK_EQ(batch_hist_bucket(1 << 12), kBatchHistBuckets - 1);
}

void test_stats_opcode(Server& server) {
  // Delta-based: the shared server has served other tests already, so
  // only growth is asserted, against traffic this test generates.
  Client client;
  CHECK(client.connect("127.0.0.1", server.port()));
  const auto before = client.stats();
  CHECK(before.has_value());
  constexpr int kOps = 64;
  for (int i = 0; i < kOps; ++i) client.queue_put(700'000 + i, i);
  CHECK(client.flush());
  for (int i = 0; i < kOps; ++i) {
    const auto resp = client.read_response();
    CHECK(resp.has_value());
    CHECK(resp->status == Status::kOk);
  }
  Client extra;  // accepted between the snapshots
  CHECK(extra.connect("127.0.0.1", server.port()));
  CHECK(extra.put(700'100, 1));
  CHECK(extra.erase(700'100));
  const auto after = client.stats();
  CHECK(after.has_value());
  CHECK(after->ops >= before->ops + kOps);
  CHECK(after->accepted >= before->accepted + 1);
  // The pipelined window commits as batches; both batch counters and
  // the histogram must have moved.
  CHECK(after->batches > before->batches);
  CHECK(after->batch_ops >= before->batch_ops + kOps);
  std::uint64_t hist_before = 0;
  std::uint64_t hist_after = 0;
  for (std::size_t i = 0; i < kBatchHistBuckets; ++i) {
    hist_before += before->batch_hist[i];
    hist_after += after->batch_hist[i];
  }
  CHECK(hist_after > hist_before);
  // Stats itself counts as an op but never as shed.
  CHECK_EQ(after->shed, before->shed);
  for (int i = 0; i < kOps; ++i) client.queue_erase(700'000 + i);
  CHECK(client.flush());
  for (int i = 0; i < kOps; ++i) {
    CHECK(client.read_response().has_value());
  }
  CHECK(!client.failed());
}

void test_shed_battery() {
  // A dedicated single-worker server with a tiny admission cap: a
  // large single-flush burst must shed most of the window as
  // kOverloaded IN FIFO POSITION while every admitted op executes
  // exactly once — both checkable by replaying the op sequence
  // against a std::map oracle that applies only the non-shed ops.
  ServerOptions opts = test_options();
  opts.workers = 1;
  opts.max_queue = 4;
  Server server(opts);
  CHECK(server.start());
  Client client;
  CHECK(client.connect("127.0.0.1", server.port()));

  constexpr int kBurst = 2048;
  leap::util::Xoshiro256 rng(0x0e11);
  struct Sent {
    Op op;
    std::int64_t key;
    std::int64_t value;
  };
  std::vector<Sent> sent;
  sent.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    const std::int64_t key =
        10'000 + static_cast<std::int64_t>(rng.next_below(64));
    const int dial = static_cast<int>(rng.next_below(3));
    if (dial == 0) {
      const std::int64_t value = static_cast<std::int64_t>(rng.next());
      client.queue_put(key, value);
      sent.push_back({Op::kPut, key, value});
    } else if (dial == 1) {
      client.queue_erase(key);
      sent.push_back({Op::kErase, key, 0});
    } else {
      client.queue_get(key);
      sent.push_back({Op::kGet, key, 0});
    }
  }
  CHECK(client.flush());

  // Replay: response i answers request i. Shed responses leave the
  // oracle untouched; everything else must match the oracle exactly —
  // which also proves admitted ops ran exactly once and in order.
  std::map<std::int64_t, std::int64_t> oracle;
  std::uint64_t shed_seen = 0;
  for (const Sent& s : sent) {
    const auto resp = client.read_response();
    CHECK(resp.has_value());
    if (resp->status == Status::kError) {
      CHECK_EQ(resp->error, static_cast<std::uint8_t>(Err::kOverloaded));
      ++shed_seen;
      continue;
    }
    if (s.op == Op::kPut) {
      const bool inserted = oracle.insert_or_assign(s.key, s.value).second;
      CHECK(resp->status == Status::kOk);
      CHECK_EQ(resp->flag, inserted ? 1 : 0);
    } else if (s.op == Op::kErase) {
      const bool erased = oracle.erase(s.key) > 0;
      CHECK(resp->status == Status::kOk);
      CHECK_EQ(resp->flag, erased ? 1 : 0);
    } else {
      const auto it = oracle.find(s.key);
      if (it != oracle.end()) {
        CHECK(resp->status == Status::kFound);
        CHECK_EQ(resp->value, it->second);
      } else {
        CHECK(resp->status == Status::kMiss);
      }
    }
  }
  // A 2048-op burst against a 4-deep queue must have shed; the
  // connection SURVIVED every one of them.
  CHECK(shed_seen > 0);
  CHECK(!client.failed());
  CHECK(client.put(999'999, 1));
  const auto hit = client.get(999'999);
  CHECK(hit.has_value());
  CHECK_EQ(*hit, 1);

  // The server's own count agrees with what crossed the wire (a Stats
  // request is exempt from admission, so it works even now).
  const auto wire = client.stats();
  CHECK(wire.has_value());
  CHECK_EQ(wire->shed, shed_seen);
  CHECK(wire->queue_hwm <= opts.max_queue);
  CHECK(wire->queue_hwm > 0);

  // Counters survive shutdown (stop() folds per-worker counters).
  server.stop();
  CHECK_EQ(server.stats().shed, shed_seen);
}

void test_emfile_recovery() {
  // Regression for the accept_all busy-spin: under fd exhaustion the
  // server must shed the unacceptable connection (peer sees EOF, not
  // a hang), pause its listen interest instead of spinning, keep
  // serving existing connections, and resume accepting once fds are
  // back. RLIMIT_NOFILE is lowered for the duration.
  ServerOptions opts = test_options();
  opts.workers = 1;
  opts.accept_backoff_ms = 30;
  Server server(opts);
  CHECK(server.start());
  Client veteran;
  CHECK(veteran.connect("127.0.0.1", server.port()));
  CHECK(veteran.put(42, 420));

  rlimit saved{};
  CHECK(::getrlimit(RLIMIT_NOFILE, &saved) == 0);
  const int probe = ::dup(0);  // lowest free fd number right now
  CHECK(probe >= 0);
  ::close(probe);
  rlimit tight = saved;
  tight.rlim_cur = static_cast<rlim_t>(probe + 10);
  CHECK(::setrlimit(RLIMIT_NOFILE, &tight) == 0);

  // Exhaust every remaining slot, then free exactly one for the
  // incoming client socket — so the server's accept4 is guaranteed to
  // hit EMFILE (its emergency reserve fd predates the exhaustion).
  std::vector<int> hogs;
  for (;;) {
    const int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (fd < 0) break;
    hogs.push_back(fd);
  }
  CHECK(!hogs.empty());
  ::close(hogs.back());
  hogs.pop_back();

  Client doomed;
  CHECK(doomed.connect("127.0.0.1", server.port()));  // SYN backlog
  // The server sheds via its reserve: accept-then-close, so this read
  // terminates with EOF instead of hanging un-accepted forever.
  CHECK(!doomed.get(1).has_value());
  CHECK(doomed.failed());

  // The shed and the accept pause are both visible, and the already-
  // accepted connection still serves while paused.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  for (;;) {
    const ServerStats s = server.stats();
    if (s.emfile_sheds >= 1 && s.accept_pauses >= 1) break;
    CHECK(std::chrono::steady_clock::now() < deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto hit = veteran.get(42);
  CHECK(hit.has_value());
  CHECK_EQ(*hit, 420);

  // Release the pressure; accept must resume within the backoff.
  for (const int fd : hogs) ::close(fd);
  hogs.clear();
  CHECK(::setrlimit(RLIMIT_NOFILE, &saved) == 0);
  bool recovered = false;
  for (int attempt = 0; attempt < 100; ++attempt) {
    Client fresh;
    if (fresh.connect("127.0.0.1", server.port()) && fresh.put(7, 70)) {
      CHECK(fresh.erase(7));
      recovered = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  CHECK(recovered);
  CHECK(veteran.erase(42));
  server.stop();
}

void test_stop_with_live_connections() {
  Server server(test_options());
  CHECK(server.start());
  Client client;
  CHECK(client.connect("127.0.0.1", server.port()));
  CHECK(client.put(5, 50));
  server.stop();
  // The peer observes the close; the client object just fails cleanly.
  CHECK(!client.get(5).has_value());
  CHECK(client.failed());
}

}  // namespace

int main() {
  test_request_round_trip();
  test_response_round_trip();
  test_parser_rejects_malformed();
  test_golden_request_bytes();
  test_golden_response_bytes();
  test_stats_codec_round_trip();

  {
    Server server(test_options());
    std::string error;
    if (!server.start(&error)) {
      leap::test::fail(__FILE__, __LINE__, "server start: " + error);
    }
    test_point_ops(server);
    test_pipelined_burst(server);
    test_scan_streams_chunks(server);
    test_concurrent_clients_vs_oracle(server);
    test_txn_atomicity_across_connections(server);
    test_robustness(server);
    test_extreme_keys_rejected(server);
    test_stats_opcode(server);
    server.stop();
    CHECK(server.stats().ops > 0);
  }
  test_get_heavy_burst();
  test_shed_battery();
  test_emfile_recovery();
  test_stop_with_live_connections();

  return leap::test::finish("test_net");
}
