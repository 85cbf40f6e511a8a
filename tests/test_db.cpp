// Table layer tests: LeapTable and LockedTreeTable against a naive
// reference, a concurrent smoke over LeapTable, and the multi-index
// consistency battery for the one-transaction index maintenance.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "db/leap_table.hpp"
#include "db/locked_table.hpp"
#include "leaplist/txn.hpp"
#include "test_common.hpp"
#include "util/random.hpp"

using namespace leap::db;
namespace stm = leap::stm;

namespace {

std::chrono::milliseconds stress_duration() {
  return leap::test::stress_duration(std::chrono::milliseconds(400));
}

Schema test_schema() {
  Schema schema;
  schema.columns = {"price", "stock", "category"};
  schema.indexed_columns = {0, 1, 2};
  return schema;
}

Row make_row(RowId id, leap::util::Xoshiro256& rng) {
  return Row{id,
             {static_cast<ColumnValue>(rng.next_below(10000)),
              static_cast<ColumnValue>(rng.next_below(1000)),
              static_cast<ColumnValue>(rng.next_below(16))}};
}

/// `stride` spreads row ids across the primary's [0, 2^24) id space —
/// ids are 1, 1 + stride, 1 + 2*stride, … — so a sharded primary is
/// exercised ACROSS its partition boundaries, not bunched into shard 0
/// (boundary for 4 shards: id 2^22). stride 1 keeps the dense layout.
template <typename TableT, typename... Args>
void test_functional(const char* name, RowId stride, Args&&... args) {
  TableT table(test_schema(), std::forward<Args>(args)...);
  std::vector<Row> reference;  // ordinal-indexed shadow
  constexpr RowId kRows = 2000;
  const auto id_of = [&](RowId ordinal) { return 1 + (ordinal - 1) * stride; };
  const auto ordinal_of = [&](RowId id) { return 1 + (id - 1) / stride; };
  leap::util::Xoshiro256 rng(4321);
  for (RowId ordinal = 1; ordinal <= kRows; ++ordinal) {
    const Row row = make_row(id_of(ordinal), rng);
    table.insert(row);
    reference.push_back(row);
  }
  // Point reads.
  for (RowId ordinal = 1; ordinal <= kRows; ++ordinal) {
    const auto row = table.get(id_of(ordinal));
    CHECK(row.has_value());
    CHECK_EQ(row->id, id_of(ordinal));
    CHECK(row->values == reference[ordinal - 1].values);
  }
  CHECK(!table.get(id_of(kRows) + 1).has_value());
  // Overwrite updates the secondary indexes.
  Row replacement = reference[9];
  replacement.values[0] = 424242;
  table.insert(replacement);
  reference[9] = replacement;
  // Erase.
  CHECK(table.erase(id_of(5)));
  CHECK(!table.erase(id_of(5)));
  CHECK(!table.get(id_of(5)).has_value());
  // Scans per indexed column vs the shadow.
  std::vector<Row> out;
  for (std::size_t col = 0; col < 3; ++col) {
    const ColumnValue low = 100;
    const ColumnValue high = col == 2 ? 7 : 5000;
    table.scan(col, low, high, out);
    std::size_t expected = 0;
    for (const Row& row : reference) {
      if (row.id == id_of(5)) continue;
      const ColumnValue v = row.values[col];
      if (v >= low && v <= high) ++expected;
    }
    CHECK_EQ(out.size(), expected);
    for (const Row& row : out) {
      CHECK(row.values[col] >= low);
      CHECK(row.values[col] <= high);
      CHECK(row.values == reference[ordinal_of(row.id) - 1].values);
    }
  }
  std::printf("  functional %s ok\n", name);
}

void test_concurrent_smoke() {
  // Bounded by op count, not a window: 60 s is ample under TSan too.
  const leap::test::Watchdog watchdog("concurrent smoke",
                                      std::chrono::seconds(60));
  LeapTable table(test_schema());
  constexpr RowId kRows = 1000;
  {
    leap::util::Xoshiro256 rng(1);
    for (RowId id = 1; id <= kRows; ++id) table.insert(make_row(id, rng));
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      leap::util::Xoshiro256 rng(50 + t);
      std::vector<Row> out;
      for (int op = 0; op < 20000; ++op) {
        const RowId id = 1 + rng.next_below(kRows);
        switch (rng.next_below(4)) {
          case 0:
            table.insert(make_row(id, rng));
            break;
          case 1: {
            const auto row = table.get(id);
            if (row) CHECK_EQ(row->id, id);
            break;
          }
          case 2: {
            const ColumnValue low =
                static_cast<ColumnValue>(rng.next_below(9000));
            table.scan(0, low, low + 500, out);
            for (const Row& row : out) {
              CHECK(row.values.size() == 3);
            }
            break;
          }
          default:
            table.erase(id);
            table.insert(make_row(id, rng));
            break;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  stop.store(true);
  std::printf("  concurrent smoke ok\n");
}

// Writers keep every row's two indexed columns equal; multi-index read
// transactions must never see the indexes disagree — about membership
// (a row reachable through one index but not the other at the same
// value) or about content (a scan hit whose indexed column disagrees
// with the primary row read in the same transaction). Per-index
// maintenance fails this battery in the half-updated window; the
// one-transaction maintenance must hold it at every instant.
void test_multi_index_consistency(std::size_t primary_shards) {
  const leap::test::Watchdog watchdog(
      "multi-index consistency stress",
      stress_duration() + std::chrono::seconds(30));
  Schema schema;
  schema.columns = {"a", "b"};
  schema.indexed_columns = {0, 1};
  LeapTable table(schema, primary_shards);
  constexpr RowId kRows = 128;
  constexpr ColumnValue kValues = 8;
  // Spread ids across the primary's [0, 2^24) window so a sharded
  // primary sees cross-boundary traffic (see test_functional).
  constexpr RowId kStride = (RowId{1} << LeapTable::kIdBits) / kRows;
  const auto id_of = [](RowId ordinal) {
    return 1 + (ordinal - 1) * kStride;
  };
  {
    leap::util::Xoshiro256 rng(77);
    for (RowId ordinal = 1; ordinal <= kRows; ++ordinal) {
      const auto v = static_cast<ColumnValue>(rng.next_below(kValues));
      table.insert(Row{id_of(ordinal), {v, v}});
    }
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      leap::util::Xoshiro256 rng(500 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const RowId id = id_of(1 + rng.next_below(kRows));
        if (rng.next_below(8) == 0) {
          table.erase(id);
        } else {
          const auto v = static_cast<ColumnValue>(rng.next_below(kValues));
          table.insert(Row{id, {v, v}});
        }
      }
    });
  }
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      leap::util::Xoshiro256 rng(600 + t);
      std::vector<Row> by_a;
      std::vector<Row> by_b;
      std::vector<RowId> ids_a;
      std::vector<RowId> ids_b;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto v = static_cast<ColumnValue>(rng.next_below(kValues));
        leap::txn([&](stm::Tx& tx) {
          table.scan_in(tx, 0, v, v, by_a);
          table.scan_in(tx, 1, v, v, by_b);
          // Scan hits must agree with the primary inside the same
          // transaction (no stale or phantom secondary entries).
          for (const Row& row : by_a) {
            const auto primary = table.get_in(tx, row.id);
            CHECK(primary.has_value());
            CHECK(primary->values == row.values);
          }
        });
        ids_a.clear();
        ids_b.clear();
        for (const Row& row : by_a) {
          CHECK_EQ(row.values[0], v);
          CHECK_EQ(row.values[1], v);  // writer invariant, atomic indexes
          ids_a.push_back(row.id);
        }
        for (const Row& row : by_b) ids_b.push_back(row.id);
        std::sort(ids_a.begin(), ids_a.end());
        std::sort(ids_b.begin(), ids_b.end());
        CHECK(ids_a == ids_b);  // both indexes see the same rows
      }
    });
  }
  std::this_thread::sleep_for(stress_duration());
  stop.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  std::printf("  multi-index consistency ok (primary shards %zu)\n",
              primary_shards);
}

// Targeted regression for the old per-index maintenance: one row
// flapping between (7,7) and (9,9) while a reader scans both indexes at
// value 7 in one transaction. The old path updated the indexes one at a
// time, so the reader could catch row 1 indexed under a=7 but not under
// b=7 (or through a stale entry disagreeing with the primary).
void test_partial_index_update_regression() {
  // Bounded by the writer's 3000 flips; 60 s is ample under TSan too.
  const leap::test::Watchdog watchdog("partial-index-update regression",
                                      std::chrono::seconds(60));
  Schema schema;
  schema.columns = {"a", "b"};
  schema.indexed_columns = {0, 1};
  LeapTable table(schema);
  table.insert(Row{1, {7, 7}});
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int flip = 0; flip < 3000; ++flip) {
      const ColumnValue v = (flip & 1) != 0 ? 7 : 9;
      table.insert(Row{1, {v, v}});
    }
    done.store(true, std::memory_order_release);
  });
  std::vector<Row> by_a;
  std::vector<Row> by_b;
  while (!done.load(std::memory_order_acquire)) {
    leap::txn([&](stm::Tx& tx) {
      table.scan_in(tx, 0, 7, 7, by_a);
      table.scan_in(tx, 1, 7, 7, by_b);
    });
    CHECK_EQ(by_a.size(), by_b.size());  // both indexes or neither
    if (!by_a.empty()) {
      CHECK_EQ(by_a[0].values[0], 7);
      CHECK_EQ(by_a[0].values[1], 7);
      CHECK_EQ(by_b[0].values[0], 7);
    }
  }
  writer.join();
  std::printf("  partial-index-update regression ok\n");
}

}  // namespace

int main() {
  test_functional<LeapTable>("LeapTable", 1);
  // Sharded primary: row ops still commit primary + secondaries in one
  // transaction, now with the primary partitioned over 4 shards — ids
  // spread across the whole [0, 2^24) window so every shard and every
  // boundary sees traffic.
  test_functional<LeapTable>("LeapTable (sharded primary)",
                             (RowId{1} << LeapTable::kIdBits) / 2048,
                             std::size_t{4});
  test_functional<LockedTreeTable>("LockedTreeTable", 1);
  test_concurrent_smoke();
  test_multi_index_consistency(1);
  test_multi_index_consistency(4);
  test_partial_index_update_regression();
  return leap::test::finish("test_db");
}
