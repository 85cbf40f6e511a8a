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
#include <algorithm>
#include <chrono>
#include <iostream>

#include "harness/table.hpp"
#include "harness/workload.hpp"
#include "leaplist/leaplist.hpp"
#include "util/random.hpp"

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
          sr = search_predecessors_tx(t, head, max_level, k);
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
  return 0;
}
