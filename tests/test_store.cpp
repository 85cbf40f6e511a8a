// Durable-tier battery (leaplist/store/): the WAL record codec
// including the torn-tail and preallocated-zero-tail cases, the bloom
// filter's no-false-negative contract, RunWriter/Run round trips with
// tombstones and invalid-file rejection, Wal segment append/replay
// with a simulated crash tearing the final record, and the Store
// itself — log_batch + checkpoint eviction + cold gets + merged scans
// against a std::map oracle, reopen recovery (runs + WAL replay), and
// torn-WAL-tail tolerance across a reopen. Everything runs in a fresh
// mkdtemp directory and cleans up after itself; the file is in the
// ASan and TSan CI jobs.
#include <stdlib.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "leaplist/sharded.hpp"
#include "leaplist/store/format.hpp"
#include "leaplist/store/io.hpp"
#include "leaplist/store/run.hpp"
#include "leaplist/store/store.hpp"
#include "leaplist/store/wal.hpp"
#include "leaplist/txn.hpp"
#include "test_common.hpp"

namespace store = leap::store;
using store::Entry;
using store::kEntryTombstone;
using store::kEntryValue;
using leap::test::check_bytes;

namespace {

using MapType = store::Store::MapType;
using Oracle = std::map<std::int64_t, std::int64_t>;

/// Fresh scratch directory under /tmp; removed (with contents) by
/// remove_dir below. Aborts the test on failure — nothing downstream
/// can run without it.
std::string make_dir() {
  char buf[] = "/tmp/leapstore-test-XXXXXX";
  CHECK(::mkdtemp(buf) != nullptr);
  return buf;
}

void remove_dir(const std::string& dir) {
  const std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
}

/// The deterministic value oracle shared with the loadgen verify mode:
/// a key's expected value is a pure function of the key and a round
/// tag, so verification never needs client-side bookkeeping.
std::int64_t value_of(std::int64_t key, std::int64_t round = 0) {
  return key * 31 + 7 + round * 1'000'003;
}

/// Apply a LogOp batch through Store::log_batch with the same STM
/// closure shape the server uses, mirroring it into `oracle`.
void apply_batch(store::Store& st, MapType& map, Oracle& oracle,
                 const std::vector<store::LogOp>& ops) {
  CHECK(st.log_batch(ops.data(), ops.size(), [&] {
    leap::txn([&](leap::stm::Tx& tx) {
      for (const auto& op : ops) {
        if (op.erase) {
          map.erase_in(tx, op.key);
        } else {
          map.insert_in(tx, op.key, op.value);
        }
      }
    });
  }));
  for (const auto& op : ops) {
    if (op.erase) {
      oracle.erase(op.key);
    } else {
      oracle[op.key] = op.value;
    }
  }
}

/// The server's read path: memtable first, then the cold tier.
std::optional<std::int64_t> lookup(store::Store& st, MapType& map,
                                   std::int64_t key) {
  if (auto hot = map.get(key)) return hot;
  return st.get_cold(key);
}

/// Every oracle key readable with the oracle's value, a sample of
/// absent keys absent, and a full merged scan equal to the oracle.
void check_against_oracle(store::Store& st, MapType& map,
                          const Oracle& oracle) {
  for (const auto& [key, value] : oracle) {
    const auto got = lookup(st, map, key);
    CHECK(got.has_value());
    CHECK_EQ(*got, value);
  }
  for (std::int64_t key = 1'000'000; key < 1'000'050; ++key) {
    CHECK(!lookup(st, map, key).has_value());
  }
  std::vector<store::Store::ScanPair> out;
  const std::size_t n = st.scan_merged(-1, oracle.size() + 64, out);
  CHECK_EQ(n, oracle.size());
  CHECK_EQ(out.size(), oracle.size());
  auto it = oracle.begin();
  for (const auto& [key, value] : out) {
    CHECK(it != oracle.end());
    CHECK_EQ(key, it->first);
    CHECK_EQ(value, it->second);
    ++it;
  }
}

// --- WAL record codec -------------------------------------------------

void test_wal_codec() {
  std::vector<Entry> in = {
      {kEntryValue, 1, 10},
      {kEntryTombstone, 2, 0},
      {kEntryValue, -5'000'000'000LL, 123'456'789'012LL},
  };
  std::vector<std::uint8_t> buf;
  store::encode_wal_record(buf, in.data(), in.size());
  store::encode_wal_record(buf, in.data(), 1);  // second record

  // Decode both records back, byte-exactly.
  std::vector<Entry> out;
  std::size_t at = 0, consumed = 0;
  CHECK(store::parse_wal_record(buf.data(), buf.size(), consumed, out) ==
        store::WalParse::kRecord);
  at += consumed;
  CHECK_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    CHECK_EQ(out[i].kind, in[i].kind);
    CHECK_EQ(out[i].key, in[i].key);
    CHECK_EQ(out[i].value, in[i].value);
  }
  CHECK(store::parse_wal_record(buf.data() + at, buf.size() - at, consumed,
                                out) == store::WalParse::kRecord);
  at += consumed;
  CHECK_EQ(at, buf.size());
  CHECK(store::parse_wal_record(buf.data() + at, 0, consumed, out) ==
        store::WalParse::kEnd);

  // A preallocated segment's zero tail is a CLEAN end, not a tear.
  std::vector<std::uint8_t> zeros(64, 0);
  out.clear();
  CHECK(store::parse_wal_record(zeros.data(), zeros.size(), consumed, out) ==
        store::WalParse::kEnd);
  CHECK(out.empty());

  // Torn tails: short header, truncated payload, corrupt payload byte,
  // corrupt CRC, absurd length prefix — all stop replay, none decode.
  CHECK(store::parse_wal_record(buf.data(), 5, consumed, out) ==
        store::WalParse::kTorn);
  CHECK(store::parse_wal_record(buf.data(), buf.size() / 2, consumed, out) ==
        store::WalParse::kTorn);
  std::vector<std::uint8_t> bad = buf;
  bad[12] ^= 0xff;  // payload byte
  CHECK(store::parse_wal_record(bad.data(), bad.size(), consumed, out) ==
        store::WalParse::kTorn);
  bad = buf;
  bad[4] ^= 0x01;  // crc byte
  CHECK(store::parse_wal_record(bad.data(), bad.size(), consumed, out) ==
        store::WalParse::kTorn);
  bad = buf;
  bad[3] = 0x7f;  // length prefix far beyond kMaxWalRecordBytes
  CHECK(store::parse_wal_record(bad.data(), bad.size(), consumed, out) ==
        store::WalParse::kTorn);
  leap::test::finish("store wal codec");
}

// --- golden bytes -----------------------------------------------------
// Fixed byte images of one WAL record and one whole run file, written
// out by hand (CRCs and bloom bits computed outside this codebase), so
// the on-disk format is pinned independently of the encoder.

std::vector<std::uint8_t> from_hex(const char* hex) {
  std::vector<std::uint8_t> out;
  for (const char* p = hex; p[0] != 0 && p[1] != 0; p += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoi(std::string(p, 2), nullptr, 16)));
  }
  return out;
}

void test_golden_bytes() {
  // WAL record: len 38, CRC-32C of the payload, count 2, then two
  // 17-byte entries (kind, key, value).
  const Entry wal_in[] = {{kEntryValue, -2, 0x0102030405060708LL},
                          {kEntryTombstone, 258, 0}};
  std::vector<std::uint8_t> wal;
  store::encode_wal_record(wal, wal_in, 2);
  check_bytes(wal,
              from_hex("26000000"                            // len
                       "9e391467"                            // crc32c
                       "02000000"                            // count
                       "00feffffffffffffff0807060504030201"  // value
                       "0102010000000000000000000000000000"  // tombstone
                       ),
              "wal record");
  std::vector<Entry> wal_out;
  std::size_t consumed = 0;
  CHECK(store::parse_wal_record(wal.data(), wal.size(), consumed, wal_out) ==
        store::WalParse::kRecord);
  CHECK_EQ(consumed, wal.size());
  CHECK_EQ(wal_out.size(), std::size_t{2});
  CHECK_EQ(wal_out[0].value, 0x0102030405060708LL);
  CHECK_EQ(wal_out[1].key, std::int64_t{258});

  // Run file with one block of two entries: block, index, bloom (one
  // word for two expected keys), footer.
  const std::string dir = make_dir();
  const std::string path = dir + "/run-0-1.run";
  store::RunWriter writer(store::real_io(), path, 2);
  writer.add({kEntryValue, -5, 50});
  writer.add({kEntryTombstone, 7, 0});
  std::string err;
  CHECK(writer.finish(&err));
  std::vector<std::uint8_t> file(256);
  FILE* f = std::fopen(path.c_str(), "rb");
  CHECK(f != nullptr);
  file.resize(std::fread(file.data(), 1, file.size(), f));
  std::fclose(f);
  check_bytes(
      file,
      from_hex(
          // block: count, crc32c(entries), entries
          "02000000e1e3b38e"
          "00fbffffffffffffff3200000000000000"
          "0107000000000000000000000000000000"
          // index: first_key, offset, len
          "fbffffffffffffff00000000000000002a000000"
          // bloom word
          "4020901846080180"
          // footer: version, block_count, entry_count, min_key, max_key,
          // index_off, bloom_off, bloom_hashes, crc, magic "LEAPRUN1"
          "01000000010000000200000000000000fbffffffffffffff"
          "07000000000000002a000000000000003e00000000000000"
          "0600000011b624af4c45415052554e31"),
      "run file");
  auto run = store::Run::load(store::real_io(), path, 1, &err);
  CHECK(run != nullptr);
  CHECK_EQ(run->entry_count(), std::uint64_t{2});
  bool io_ok = true;
  const auto hit = run->get(-5, &io_ok);
  CHECK(io_ok && hit.has_value() && !hit->tombstone);
  CHECK_EQ(hit->value, std::int64_t{50});
  remove_dir(dir);
  leap::test::finish("store golden bytes");
}

// --- bloom filter -----------------------------------------------------

void test_bloom() {
  constexpr std::int64_t kKeys = 2000;
  store::Bloom bloom(kKeys);
  for (std::int64_t k = 0; k < kKeys; ++k) bloom.add(k * 7 + 1);
  // No false negatives, ever.
  for (std::int64_t k = 0; k < kKeys; ++k) {
    CHECK(bloom.maybe_contains(k * 7 + 1));
  }
  // False-positive rate is bounded: at 10 bits/key and 6 hashes the
  // theoretical rate is under 1%; allow 5% for slack.
  std::int64_t positives = 0;
  for (std::int64_t k = 0; k < 10'000; ++k) {
    if (bloom.maybe_contains(-k - 1)) ++positives;
  }
  CHECK(positives < 500);
  // An empty (default) filter claims nothing.
  store::Bloom empty;
  CHECK(!empty.maybe_contains(42));
  leap::test::finish("store bloom");
}

// --- run files --------------------------------------------------------

void test_run_round_trip() {
  const std::string dir = make_dir();
  const std::string path = dir + "/run-0-1.run";

  // Multiple blocks (> kRunBlockEntries entries), values + tombstones,
  // added in strictly ascending key order as the flush path does.
  constexpr std::int64_t kKeys = 1000;
  store::RunWriter writer(store::real_io(), path, kKeys);
  for (std::int64_t k = 0; k < kKeys; ++k) {
    Entry e;
    e.kind = (k % 10 == 3) ? kEntryTombstone : kEntryValue;
    e.key = k * 2;  // leave odd keys absent
    e.value = value_of(k * 2);
    writer.add(e);
  }
  std::string err;
  CHECK(writer.finish(&err));
  CHECK_EQ(writer.entry_count(), static_cast<std::uint64_t>(kKeys));

  auto run = store::Run::load(store::real_io(), path, 1, &err);
  CHECK(run != nullptr);
  CHECK_EQ(run->entry_count(), static_cast<std::uint64_t>(kKeys));
  CHECK_EQ(run->min_key(), std::int64_t{0});
  CHECK_EQ(run->max_key(), (kKeys - 1) * 2);
  CHECK_EQ(run->seq(), std::uint64_t{1});

  bool io_ok = true;
  for (std::int64_t k = 0; k < kKeys; ++k) {
    const auto hit = run->get(k * 2, &io_ok);
    CHECK(io_ok);
    CHECK(hit.has_value());
    if (k % 10 == 3) {
      CHECK(hit->tombstone);
    } else {
      CHECK(!hit->tombstone);
      CHECK_EQ(hit->value, value_of(k * 2));
    }
  }
  // Absent keys: inside the fence (odd) and outside it.
  CHECK(!run->get(1, &io_ok).has_value());
  CHECK(!run->get(-10, &io_ok).has_value());
  CHECK(!run->get(kKeys * 2 + 100, &io_ok).has_value());
  CHECK(!run->fence_contains(-1));
  CHECK(run->fence_contains(500));
  CHECK(run->fence_overlaps(-100, 0));
  CHECK(!run->fence_overlaps(-100, -1));

  // read_range returns values AND tombstones, in key order, capped.
  std::vector<Entry> range;
  const std::size_t got = run->read_range(10, 29, 100, range, &io_ok);
  CHECK(io_ok);
  CHECK_EQ(got, std::size_t{10});  // keys 10,12,...,28
  for (std::size_t i = 0; i < range.size(); ++i) {
    CHECK_EQ(range[i].key, 10 + static_cast<std::int64_t>(i) * 2);
  }
  std::vector<Entry> capped;
  CHECK_EQ(run->read_range(0, kKeys * 2, 7, capped, &io_ok),
           std::size_t{7});

  // A truncated file (no valid footer — crash mid-flush) must refuse
  // to load; recovery deletes such files.
  const std::string torn = dir + "/run-0-2.run";
  CHECK(std::system(("head -c 200 '" + path + "' > '" + torn + "'")
                        .c_str()) == 0);
  CHECK(store::Run::load(store::real_io(), torn, 2, &err) == nullptr);

  remove_dir(dir);
  leap::test::finish("store run round trip");
}

// --- WAL segments -----------------------------------------------------

void test_wal_segment_replay_and_tear() {
  const std::string dir = make_dir();
  const std::string path = dir + "/wal-0-1.log";

  store::Wal wal;
  std::string err;
  CHECK(wal.open_fresh(store::real_io(), path, 1, 0, 1u << 20, &err));
  std::vector<std::uint8_t> rec;
  constexpr int kRecords = 8;
  std::size_t rec_bytes = 0;
  for (int r = 0; r < kRecords; ++r) {
    rec.clear();
    Entry e{kEntryValue, r, value_of(r)};
    store::encode_wal_record(rec, &e, 1);
    rec_bytes = rec.size();
    const std::uint64_t end = wal.append(rec.data(), rec.size());
    CHECK_EQ(end, static_cast<std::uint64_t>(r + 1) * rec_bytes);
  }
  CHECK_EQ(wal.durable(), std::uint64_t{0});
  CHECK(wal.sync_flush(true));
  CHECK_EQ(wal.durable(), wal.appended());
  CHECK_EQ(wal.segment_bytes(), wal.appended());

  // Clean replay reads every record and stops at the preallocated
  // zero tail without reporting a tear.
  std::vector<Entry> ops;
  bool torn = true;
  CHECK(store::replay_wal_file(store::real_io(), path, ops, &torn, &err));
  CHECK(!torn);
  CHECK_EQ(ops.size(), static_cast<std::size_t>(kRecords));
  for (int r = 0; r < kRecords; ++r) {
    CHECK_EQ(ops[static_cast<std::size_t>(r)].key,
             static_cast<std::int64_t>(r));
    CHECK_EQ(ops[static_cast<std::size_t>(r)].value, value_of(r));
  }

  // Tear 5 bytes off the CONTENT end (not the preallocated file end):
  // the final record is now mid-append; replay keeps the prefix.
  CHECK(wal.truncate_tail_for_test(5));
  ops.clear();
  CHECK(store::replay_wal_file(store::real_io(), path, ops, &torn, &err));
  CHECK(torn);
  CHECK_EQ(ops.size(), static_cast<std::size_t>(kRecords - 1));
  wal.close_fd();

  // An empty fresh segment replays as zero ops, clean.
  store::Wal fresh;
  const std::string path2 = dir + "/wal-0-2.log";
  CHECK(fresh.open_fresh(store::real_io(), path2, 2, 0, 1u << 20, &err));
  CHECK(fresh.sync_flush(true));
  ops.clear();
  CHECK(store::replay_wal_file(store::real_io(), path2, ops, &torn, &err));
  CHECK(!torn);
  CHECK(ops.empty());
  fresh.close_fd();

  remove_dir(dir);
  leap::test::finish("store wal segment");
}

// --- Store: hot path, checkpoint, cold reads --------------------------

void test_store_basic() {
  const std::string dir = make_dir();
  MapType map({.shards = 4});
  store::StoreOptions opts;
  opts.data_dir = dir;
  opts.fsync_mode = store::FsyncMode::kGroup;
  opts.flush_poll_ms = 0;  // tests drive checkpoint() explicitly
  Oracle oracle;
  {
    store::Store st(map, opts);
    std::string err;
    CHECK(st.open(&err));
    CHECK_EQ(st.shard_count(), std::size_t{4});

    // Batches of puts, then spot erases, mirrored into the oracle.
    std::vector<store::LogOp> batch;
    for (std::int64_t k = 0; k < 400; ++k) {
      batch.push_back({false, k, value_of(k)});
      if (batch.size() == 32) {
        apply_batch(st, map, oracle, batch);
        batch.clear();
      }
    }
    if (!batch.empty()) apply_batch(st, map, oracle, batch);
    batch.clear();
    for (std::int64_t k = 0; k < 400; k += 5) {
      batch.push_back({true, k, 0});
    }
    apply_batch(st, map, oracle, batch);
    check_against_oracle(st, map, oracle);
    CHECK(st.stats().wal_appends > 0);
    CHECK(st.stats().wal_fsyncs > 0);

    // Checkpoint: contents freeze into runs, flushed keys leave the
    // memtable, reads fall through to the cold tier with the same
    // answers. Erased keys stay absent (tombstones shadow).
    st.checkpoint();
    CHECK(st.stats().flushes >= 1);
    CHECK(st.stats().runs >= 1);
    check_against_oracle(st, map, oracle);
    CHECK(st.stats().cold_hits > 0);

    // Overwrite some flushed keys, erase others, add fresh ones: the
    // memtable shadows the runs and the merge keeps one winner per
    // key. A second checkpoint stacks newer runs over older.
    batch.clear();
    for (std::int64_t k = 1; k < 100; k += 2) {
      batch.push_back({false, k, value_of(k, 1)});
    }
    batch.push_back({true, 2, 0});
    batch.push_back({false, 1'000, value_of(1'000)});
    apply_batch(st, map, oracle, batch);
    check_against_oracle(st, map, oracle);
    st.checkpoint();
    check_against_oracle(st, map, oracle);
    const auto s = st.stats();
    CHECK(s.flushes >= 2);
    CHECK(s.bloom_negatives + s.cold_hits > 0);
    st.close();
  }
  remove_dir(dir);
  leap::test::finish("store basic");
}

// --- Store: reopen recovery (runs + WAL replay) -----------------------

void test_store_reopen_recovery() {
  const std::string dir = make_dir();
  store::StoreOptions opts;
  opts.data_dir = dir;
  opts.fsync_mode = store::FsyncMode::kGroup;
  opts.flush_poll_ms = 0;
  Oracle oracle;

  // Round 1: puts, a checkpoint (so recovery exercises run loading),
  // then MORE writes that only the WAL holds, then a clean close.
  {
    MapType map({.shards = 4});
    store::Store st(map, opts);
    std::string err;
    CHECK(st.open(&err));
    std::vector<store::LogOp> batch;
    for (std::int64_t k = 0; k < 300; ++k) {
      batch.push_back({false, k, value_of(k)});
    }
    apply_batch(st, map, oracle, batch);
    st.checkpoint();
    batch.clear();
    for (std::int64_t k = 250; k < 320; ++k) {
      batch.push_back({false, k, value_of(k, 2)});
    }
    for (std::int64_t k = 0; k < 50; k += 7) batch.push_back({true, k, 0});
    apply_batch(st, map, oracle, batch);
    st.close();
  }

  // Round 2: a fresh map + store over the same directory must replay
  // to exactly the oracle: runs for the checkpointed prefix, WAL
  // entries for everything after.
  {
    MapType map({.shards = 4});
    store::Store st(map, opts);
    std::string err;
    CHECK(st.open(&err));
    CHECK(st.stats().recovered_ops > 0);
    CHECK(st.stats().runs >= 1);
    check_against_oracle(st, map, oracle);

    // Keep writing after recovery, checkpoint, reopen once more: the
    // replay-then-flush cycle must compose.
    std::vector<store::LogOp> batch;
    for (std::int64_t k = 500; k < 600; ++k) {
      batch.push_back({false, k, value_of(k, 3)});
    }
    apply_batch(st, map, oracle, batch);
    st.checkpoint();
    st.close();
  }
  {
    MapType map({.shards = 4});
    store::Store st(map, opts);
    std::string err;
    CHECK(st.open(&err));
    check_against_oracle(st, map, oracle);
    st.close();
  }
  remove_dir(dir);
  leap::test::finish("store reopen recovery");
}

// --- Store: torn WAL tail across reopen -------------------------------

void test_store_torn_tail() {
  const std::string dir = make_dir();
  store::StoreOptions opts;
  opts.data_dir = dir;
  opts.fsync_mode = store::FsyncMode::kGroup;
  opts.flush_poll_ms = 0;
  constexpr std::int64_t kBatches = 10;

  // One shard → one WAL, so the torn record is exactly the last batch.
  {
    MapType map({.shards = 1});
    store::Store st(map, opts);
    std::string err;
    CHECK(st.open(&err));
    for (std::int64_t b = 0; b < kBatches; ++b) {
      const std::vector<store::LogOp> batch = {{false, b, value_of(b)}};
      CHECK(st.log_batch(batch.data(), batch.size(), [&] {
        leap::txn([&](leap::stm::Tx& tx) {
          map.insert_in(tx, batch[0].key, batch[0].value);
        });
      }));
    }
    // Chop 5 bytes off the shard's WAL content: the final record is
    // now torn, exactly as a crash mid-append would leave it.
    CHECK(st.tear_wal_tail_for_test(0, 5));
    st.close();
  }

  // Reopen: every batch except the last replays; the torn record is
  // dropped without failing recovery.
  {
    MapType map({.shards = 1});
    store::Store st(map, opts);
    std::string err;
    CHECK(st.open(&err));
    CHECK_EQ(st.stats().recovered_ops,
             static_cast<std::uint64_t>(kBatches - 1));
    for (std::int64_t b = 0; b < kBatches - 1; ++b) {
      const auto got = lookup(st, map, b);
      CHECK(got.has_value());
      CHECK_EQ(*got, value_of(b));
    }
    CHECK(!lookup(st, map, kBatches - 1).has_value());
    st.close();
  }
  remove_dir(dir);
  leap::test::finish("store torn wal tail");
}

// --- Store: fsync modes share one durability contract -----------------

void test_store_fsync_modes() {
  for (const auto mode :
       {store::FsyncMode::kAlways, store::FsyncMode::kOff}) {
    const std::string dir = make_dir();
    store::StoreOptions opts;
    opts.data_dir = dir;
    opts.fsync_mode = mode;
    opts.flush_poll_ms = 0;
    Oracle oracle;
    {
      MapType map({.shards = 2});
      store::Store st(map, opts);
      std::string err;
      CHECK(st.open(&err));
      std::vector<store::LogOp> batch;
      for (std::int64_t k = 0; k < 100; ++k) {
        batch.push_back({false, k, value_of(k)});
      }
      apply_batch(st, map, oracle, batch);
      // Clean close flushes buffered bytes in every mode, so a reopen
      // recovers everything (kOff only risks data on a CRASH).
      st.close();
    }
    {
      MapType map({.shards = 2});
      store::Store st(map, opts);
      std::string err;
      CHECK(st.open(&err));
      check_against_oracle(st, map, oracle);
      st.close();
    }
    remove_dir(dir);
  }
  CHECK(store::parse_fsync_mode("always").has_value());
  CHECK(store::parse_fsync_mode("group").has_value());
  CHECK(store::parse_fsync_mode("off").has_value());
  CHECK(!store::parse_fsync_mode("sometimes").has_value());
  leap::test::finish("store fsync modes");
}

// --- fault-spec parsing and open-time ENOSPC --------------------------

void test_fault_spec_parse() {
  auto spec = store::parse_fault_spec("write:10:enospc:sticky");
  CHECK(spec.has_value());
  CHECK(spec->point == store::FaultPoint::kWrite);
  CHECK_EQ(spec->nth, std::uint64_t{10});
  CHECK(spec->kind == store::FaultKind::kEnospc);
  CHECK(spec->sticky);
  spec = store::parse_fault_spec("sync:1:syncfail");
  CHECK(spec.has_value());
  CHECK(spec->point == store::FaultPoint::kSync);
  CHECK(spec->kind == store::FaultKind::kSyncFail);
  CHECK(!spec->sticky);
  CHECK(store::parse_fault_spec("any:3:eio").has_value());
  CHECK(store::parse_fault_spec("fallocate:1:enospc").has_value());
  CHECK(store::parse_fault_spec("write:2:bitflip").has_value());
  // Malformed or impossible specs are rejected, never half-armed.
  CHECK(!store::parse_fault_spec("").has_value());
  CHECK(!store::parse_fault_spec("write").has_value());
  CHECK(!store::parse_fault_spec("write:0:eio").has_value());
  CHECK(!store::parse_fault_spec("write:1:nope").has_value());
  CHECK(!store::parse_fault_spec("elsewhere:1:eio").has_value());
  CHECK(!store::parse_fault_spec("write:1:eio:maybe").has_value());
  CHECK(!store::parse_fault_spec("sync:1:shortwrite").has_value());
  CHECK(!store::parse_fault_spec("any:1:bitflip").has_value());
  CHECK(!store::parse_fault_spec("write:1:syncfail").has_value());
  leap::test::finish("store fault spec parse");
}

// --- Store: scans bounded at `high` --------------------------------

/// The oracle's pairs in [low, high], at most `limit` of them.
std::vector<store::Store::ScanPair> oracle_range(const Oracle& oracle,
                                                 std::int64_t low,
                                                 std::int64_t high,
                                                 std::size_t limit) {
  std::vector<store::Store::ScanPair> want;
  for (auto it = oracle.lower_bound(low);
       it != oracle.end() && it->first <= high && want.size() < limit;
       ++it) {
    want.push_back(*it);
  }
  return want;
}

void test_store_scan_merged_bounded() {
  // Run A holds [0, 2999] and run B [5000, 5999]; the memtable then
  // shadows part of A, adds [3000, 3099] and [7000, 7099], and
  // tombstones cover every seventh key of A plus [5000, 5009].
  const std::string dir = make_dir();
  store::FaultIo fio(store::real_io());
  MapType map({.shards = 4});
  store::StoreOptions opts;
  opts.data_dir = dir;
  opts.flush_poll_ms = 0;
  opts.io = &fio;
  Oracle oracle;
  store::Store st(map, opts);
  std::string err;
  CHECK(st.open(&err));
  const auto put_range = [&](std::int64_t from, std::int64_t to,
                             std::int64_t round) {
    std::vector<store::LogOp> batch;
    for (std::int64_t k = from; k <= to; ++k) {
      batch.push_back({false, k, value_of(k, round)});
      if (batch.size() == 64 || k == to) {
        apply_batch(st, map, oracle, batch);
        batch.clear();
      }
    }
  };
  put_range(0, 2999, 0);
  st.checkpoint();
  put_range(5000, 5999, 0);
  st.checkpoint();
  CHECK(st.stats().runs >= 2);
  for (std::int64_t k = 1; k < 200; k += 2) put_range(k, k, 1);
  put_range(3000, 3099, 0);
  put_range(7000, 7099, 0);
  std::vector<store::LogOp> erases;
  for (std::int64_t k = 0; k < 3000; k += 7) erases.push_back({true, k, 0});
  for (std::int64_t k = 5000; k < 5010; ++k) erases.push_back({true, k, 0});
  apply_batch(st, map, oracle, erases);

  struct Query {
    std::int64_t low;
    std::int64_t high;
    std::size_t limit;
  };
  const Query queries[] = {{0, 150, 1000},     {0, 2999, 100},
                           {100, 3050, 5000},  {2990, 5004, 40},
                           {2990, 5020, 4000}, {3000, 4999, 1000},
                           {6000, 6999, 10},   {5005, 7050, 100000}};
  for (const Query& q : queries) {
    std::vector<store::Store::ScanPair> bounded = {{-5, -5}};
    const std::size_t got = st.scan_merged(q.low, q.high, q.limit, bounded);
    CHECK_EQ(got, bounded.size() - 1);
    bounded.erase(bounded.begin());  // appended after what was there
    std::vector<store::Store::ScanPair> clipped;
    st.scan_merged(q.low, q.limit, clipped);
    while (!clipped.empty() && clipped.back().first > q.high) {
      clipped.pop_back();
    }
    CHECK(bounded == clipped);
    CHECK(bounded == oracle_range(oracle, q.low, q.high, q.limit));
  }

  // [3000, 4999] lies between the runs: A ends below it and B starts
  // above it, so the memtable answers alone, without one block read.
  fio.arm({.point = store::FaultPoint::kRead,
           .nth = std::numeric_limits<std::uint64_t>::max()});
  std::vector<store::Store::ScanPair> between;
  CHECK_EQ(st.scan_merged(3000, 4999, 1000, between), std::size_t{100});
  CHECK_EQ(fio.matched_calls(), std::uint64_t{0});
  // The same scan unbounded above does read run B.
  between.clear();
  st.scan_merged(3000, 1000, between);
  CHECK(fio.matched_calls() > 0);
  fio.disarm();
  st.close();
  remove_dir(dir);
  leap::test::finish("store scan_merged bounded");
}

void test_store_open_enospc() {
  // Preallocation failing at open (a full disk) must surface a clear
  // error from Store::open, not a silent degraded store.
  const std::string dir = make_dir();
  store::FaultIo fio(store::real_io());
  fio.arm(*store::parse_fault_spec("fallocate:1:enospc:sticky"));
  MapType map({.shards = 2});
  store::StoreOptions opts;
  opts.data_dir = dir;
  opts.flush_poll_ms = 0;
  opts.io = &fio;
  store::Store st(map, opts);
  std::string err;
  CHECK(!st.open(&err));
  CHECK(err.find("fallocate") != std::string::npos);
  CHECK(fio.faults_injected() >= 1);
  remove_dir(dir);
  leap::test::finish("store open enospc");
}

}  // namespace

int main() {
  test_golden_bytes();
  test_wal_codec();
  test_bloom();
  test_run_round_trip();
  test_wal_segment_replay_and_tear();
  test_store_basic();
  test_store_reopen_recovery();
  test_store_torn_tail();
  test_store_fsync_modes();
  test_store_scan_merged_bounded();
  test_fault_spec_parse();
  test_store_open_enospc();
  return leap::test::failure_count() == 0 ? 0 : 1;
}
