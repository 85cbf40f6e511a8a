// Ablation: the per-access cost of STM instrumentation — the number that
// motivates the whole COP/LT design (§1.2, §2.1).
//
// Compares, per shared word accessed:
//   * raw atomic read (what LT's search pays),
//   * an instrumented tx read amortized inside one long transaction
//     (what COP/tm traversals pay),
//   * a single-location read transaction (the rejected alternative of
//     §2.1: "proved to have a larger negative impact on performance"),
//   * tx writes + commit (the write-set cost COP pays for node content).
#include <benchmark/benchmark.h>

#include <vector>

#include "stm/stm.hpp"

namespace {

using namespace leap::stm;

constexpr std::size_t kWords = 1024;

std::vector<TxField<std::uint64_t>>& shared_words() {
  static std::vector<TxField<std::uint64_t>> words(kWords);
  return words;
}

void BM_RawRead(benchmark::State& state) {
  auto& words = shared_words();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(words[i++ & (kWords - 1)].load());
  }
}
BENCHMARK(BM_RawRead);

void BM_TxReadAmortized(benchmark::State& state) {
  auto& words = shared_words();
  Tx& tx = tls_tx();
  std::size_t i = 0;
  for (auto _ : state) {
    atomically(tx, [&](Tx& t) {
      for (std::size_t k = 0; k < 256; ++k) {
        benchmark::DoNotOptimize(words[i++ & (kWords - 1)].tx_read(t));
      }
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_TxReadAmortized);

void BM_SingleLocationReadTxn(benchmark::State& state) {
  auto& words = shared_words();
  Tx& tx = tls_tx();
  std::size_t i = 0;
  for (auto _ : state) {
    atomically(tx, [&](Tx& t) {
      benchmark::DoNotOptimize(words[i++ & (kWords - 1)].tx_read(t));
    });
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SingleLocationReadTxn);

void BM_TxWriteCommit(benchmark::State& state) {
  auto& words = shared_words();
  Tx& tx = tls_tx();
  const auto batch = static_cast<std::size_t>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    atomically(tx, [&](Tx& t) {
      for (std::size_t k = 0; k < batch; ++k) {
        words[i++ & (kWords - 1)].tx_write(t, i);
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
// 16 ~ an LT locking transaction; 600 ~ a COP 300-pair node construction.
BENCHMARK(BM_TxWriteCommit)->Arg(16)->Arg(600);

void BM_RawWrite(benchmark::State& state) {
  auto& words = shared_words();
  std::size_t i = 0;
  for (auto _ : state) {
    words[i & (kWords - 1)].store(i);
    ++i;
  }
}
BENCHMARK(BM_RawWrite);

}  // namespace

BENCHMARK_MAIN();
