// Ablation: predecessor-search synchronization modes (§2.1).
//
// The paper considered three ways to make the uninstrumented traversal
// safe and picked marked pointers:
//   * marked pointers + raw reads      (shipped: Leap-LT's search)
//   * single-location read transaction per pointer hop — "this
//     alternative proved to have a larger negative impact on performance
//     with the current GCC-TM implementation. Nevertheless, we expect it
//     will exhibit the best performance with HTM support."
//   * the fully instrumented search    (what Leap-tm pays)
//
// This bench measures all three against the same preloaded list.
//
// The second table sweeps node_size for in-node key resolution:
// std::lower_bound vs the shipped branchless flat_lower_bound. (A
// PATRICIA bit trie was measured here too and lost at every node size;
// docs/benchmarks.md keeps that result.)
//
// The third table splits a burst get's cost the way leapd serves it:
// ns per get at run lengths 1..32 for the span get_in (one interleaved
// search per run), a get_in per key inside the same transaction, and
// the raw Leap-LT get, on 1M scrambled-zipfian keys over 8 shards
// (100K under LEAP_BENCH_SMOKE). Every answer of the three is checked
// against the preload; a mismatch fails the run (the smoke ctest keys
// off that, not off the timings).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "harness/table.hpp"
#include "harness/workload.hpp"
#include "leaplist/leaplist.hpp"
#include "leaplist/sharded.hpp"
#include "leaplist/txn.hpp"
#include "util/random.hpp"
#include "../perfbench/src/workload.hpp"

using namespace leap::core;
using leap::harness::Table;

namespace {

/// Test-only head access (searches need the head sentinel).
struct ProbeList : LeapListLT {
  using LeapListLT::LeapListLT;
  Node* head() { return head_; }
};

/// The §2.1 alternative: every pointer hop is its own tiny transaction
/// (begin; read one word; commit). With lazy TL2 this is a begin +
/// orec-validated read per hop.
SearchResult search_predecessors_slrt(Node* head, int max_level, Key key) {
  SearchResult result;
  leap::stm::Tx& tx = leap::stm::tls_tx();
  while (true) {
    bool restart = false;
    Node* x = head;
    for (int i = max_level - 1; i >= 0 && !restart; --i) {
      Node* x_next = nullptr;
      while (true) {
        std::uint64_t word = 0;
        const bool committed =
            leap::stm::try_atomically(tx, [&](leap::stm::Tx& t) {
              word = x->next(i).tx_read(t);
            });
        if (!committed || leap::util::is_marked(word)) {
          restart = true;
          break;
        }
        x_next = leap::util::to_ptr<Node>(word);
        if (!x_next->live.load()) {
          restart = true;
          break;
        }
        if (x_next->high_raw() >= key) break;
        x = x_next;
      }
      result.pa[i] = x;
      result.na[i] = x_next;
    }
    if (!restart) return result;
  }
}

template <typename SearchFn>
double measure_searches(ProbeList& list, SearchFn&& search, int seconds_ms) {
  leap::util::Xoshiro256 rng(4242);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(seconds_ms);
  std::uint64_t count = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 512; ++i) {
      const Key key = static_cast<Key>(1 + rng.next_below(100000));
      const SearchResult sr = search(key);
      asm volatile("" : : "g"(&sr) : "memory");
      ++count;
    }
  }
  return static_cast<double>(count) /
         (static_cast<double>(seconds_ms) / 1000.0);
}

/// The burst-get table; returns the number of wrong answers.
std::size_t burst_gets(int window_ms) {
  using Word = std::int64_t;
  using TMMap = leap::ShardedMap<Word, Word, leap::policy::TM>;
  using LTMap = leap::ShardedMap<Word, Word, leap::policy::LT>;
  const Word n = leap::harness::smoke_mode() ? 100'000 : 1'000'000;
  const leap::ShardOptions opts{.shards = 8, .params = {}};
  TMMap tm(opts, 0, n);
  LTMap lt(opts, 0, n);
  // Every key of [0, n) but the multiples of 16, so some gets miss.
  const auto expect = [n](Word key) -> std::optional<Word> {
    if (key < 0 || key >= n || key % 16 == 0) return std::nullopt;
    return key * 7 + 1;
  };
  {
    std::vector<std::pair<Word, Word>> pairs;
    for (Word k = 0; k < n; ++k) {
      if (const auto v = expect(k)) pairs.emplace_back(k, *v);
    }
    tm.bulk_load(pairs);
    lt.bulk_load(pairs);
  }
  // perfbench's read-zipf draw (theta 0.99, rank hashed onto the keys).
  const perf::ScrambledZipf zipf(static_cast<std::uint64_t>(n), 0.99);
  leap::util::Xoshiro256 rng(1404);
  std::vector<Word> keys(std::size_t{1} << 15);
  for (Word& k : keys) k = static_cast<Word>(zipf.next(rng));
  // The domain edges are ordinary (absent) keys.
  keys[1] = std::numeric_limits<Word>::min() + 1;
  keys[2] = std::numeric_limits<Word>::max() - 1;

  // Each serves one run of keys into `out`. keys.size() is a multiple
  // of every run length, so the runs tile it.
  const auto interleaved = [&](std::span<const Word> run,
                               std::optional<Word>* out) {
    leap::txn([&](leap::stm::Tx& tx) {
      tm.get_in(tx, run, std::span<std::optional<Word>>(out, run.size()));
    });
  };
  const auto sequential = [&](std::span<const Word> run,
                              std::optional<Word>* out) {
    leap::txn([&](leap::stm::Tx& tx) {
      for (std::size_t i = 0; i < run.size(); ++i) {
        out[i] = tm.get_in(tx, run[i]);
      }
    });
  };
  const auto lt_get = [&](std::span<const Word> run,
                          std::optional<Word>* out) {
    for (std::size_t i = 0; i < run.size(); ++i) out[i] = lt.get(run[i]);
  };
  std::size_t wrong = 0;
  // One checked pass over every key, then ns per get over the window.
  const auto measure = [&](auto&& serve, std::size_t len) {
    std::vector<std::optional<Word>> hits(keys.size());
    for (std::size_t at = 0; at < keys.size(); at += len) {
      serve(std::span<const Word>(keys.data() + at, len), hits.data() + at);
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (hits[i] != expect(keys[i])) ++wrong;
    }
    const auto start = std::chrono::steady_clock::now();
    const auto deadline = start + std::chrono::milliseconds(window_ms);
    std::uint64_t gets = 0;
    std::size_t at = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      for (int r = 0; r < 64; ++r) {
        if (at == keys.size()) at = 0;
        serve(std::span<const Word>(keys.data() + at, len), hits.data() + at);
        at += len;
        gets += len;
      }
    }
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    return ns / static_cast<double>(gets);
  };
  Table table({"gets/run", "span get_in ns", "get_in x run ns", "LT get ns",
               "span/seq"});
  for (const std::size_t len : {1u, 4u, 8u, 16u, 32u}) {
    const double span_ns = measure(interleaved, len);
    const double seq_ns = measure(sequential, len);
    const double lt_ns = measure(lt_get, len);
    char cells[3][32];
    std::snprintf(cells[0], sizeof cells[0], "%.0f", span_ns);
    std::snprintf(cells[1], sizeof cells[1], "%.0f", seq_ns);
    std::snprintf(cells[2], sizeof cells[2], "%.0f", lt_ns);
    table.add_row({std::to_string(len), cells[0], cells[1], cells[2],
                   Table::format_ratio(span_ns / seq_ns)});
  }
  table.print(std::cout);
  return wrong;
}

}  // namespace

int main() {
  const auto duration = leap::harness::bench_duration(
      std::chrono::milliseconds(200));
  const int window = static_cast<int>(duration.count());

  leap::harness::print_figure_header(
      std::cout, "Ablation: search synchronization mode",
      "predecessor searches/sec, 100K elements, single thread",
      "raw+marks fastest; per-hop single-location txns notably slower "
      "(the paper's rejected alternative); full instrumentation slowest");

  ProbeList list(Params{.node_size = 300, .max_level = 10});
  {
    std::vector<KV> pairs;
    for (Key k = 1; k <= 100000; ++k) pairs.push_back(KV{k, Value(k)});
    list.bulk_load(pairs);
  }
  Node* head = list.head();
  const int max_level = list.params().max_level;

  const double raw = measure_searches(
      list,
      [&](Key k) { return search_predecessors(head, max_level, k); },
      window);
  const double slrt = measure_searches(
      list,
      [&](Key k) { return search_predecessors_slrt(head, max_level, k); },
      window);
  const double instrumented = measure_searches(
      list,
      [&](Key k) {
        leap::stm::Tx& tx = leap::stm::tls_tx();
        SearchResult sr;
        leap::stm::atomically(tx, [&](leap::stm::Tx& t) {
          Probe p{.x = head, .level = max_level - 1, .key = k,
                  .window = &sr};
          search_tx(t, std::span<Probe>(&p, 1));
        });
        return sr;
      },
      window);

  Table table({"mode", "searches/s", "vs raw"});
  table.add_row({"raw + marks (LT)", Table::format_ops(raw),
                 Table::format_ratio(1.0)});
  table.add_row({"single-location txn/hop", Table::format_ops(slrt),
                 Table::format_ratio(slrt / raw)});
  table.add_row({"fully instrumented (tm)", Table::format_ops(instrumented),
                 Table::format_ratio(instrumented / raw)});
  table.print(std::cout);

  leap::harness::print_figure_header(
      std::cout, "Ablation: in-node key search across node_size",
      "probes/sec on node-resident key arrays",
      "branchless lower_bound wins every K the node layout supports");
  {
    Table innode({"node_size", "std::lower_bound", "branchless",
                  "branchless/std"});
    leap::util::Xoshiro256 gen(99);
    for (const std::size_t k : {16u, 64u, 300u, 1000u, 4096u}) {
      // Keys the way nodes see them: a dense range slice.
      std::vector<Key> keys;
      Key next = static_cast<Key>(gen.next_below(1000));
      for (std::size_t i = 0; i < k; ++i) {
        next += 1 + static_cast<Key>(gen.next_below(5));
        keys.push_back(next);
      }
      const auto measure = [&](auto&& probe) {
        leap::util::Xoshiro256 rng(7);
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(window);
        std::uint64_t count = 0;
        long sink = 0;
        while (std::chrono::steady_clock::now() < deadline) {
          for (int i = 0; i < 512; ++i) {
            sink += probe(keys[rng.next_below(keys.size())]);
            ++count;
          }
        }
        asm volatile("" : : "g"(&sink) : "memory");
        return static_cast<double>(count) /
               (static_cast<double>(window) / 1000.0);
      };
      const double std_lb = measure([&](Key probe) {
        const auto it = std::lower_bound(keys.begin(), keys.end(), probe);
        return static_cast<long>(it - keys.begin());
      });
      const double branchless = measure([&](Key probe) {
        return static_cast<long>(leap::core::detail::flat_lower_bound(
            keys.data(), keys.size(), probe));
      });
      innode.add_row({std::to_string(k), Table::format_ops(std_lb),
                      Table::format_ops(branchless),
                      Table::format_ratio(branchless /
                                          std::max(std_lb, 1.0))});
    }
    innode.print(std::cout);
  }

  leap::harness::print_figure_header(
      std::cout, "Ablation: burst gets, interleaved vs one descent at a time",
      "ns per get, scrambled zipf over 8 shards, one transaction per run",
      "the span get_in pulls ahead from 4 gets per run; a run of 1 costs "
      "a bit more");
  const std::size_t wrong = burst_gets(window);
  if (wrong != 0) {
    std::fprintf(stderr, "abl_search: %zu burst gets answered wrong\n",
                 wrong);
    return 1;
  }
  return 0;
}
