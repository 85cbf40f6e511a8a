// leapd — the standalone server binary over leap::net::Server.
//
//   leapd [--port N] [--workers N] [--shards N] [--keys N]
//         [--node-size N] [--batch N]
//         [--max-queue N] [--max-global N] [--accept-pause N]
//         [--accept-backoff-ms N] [--stats-interval SECS]
//         [--data-dir PATH] [--fsync-mode always|group|off]
//         [--checkpoint-bytes N] [--fault-spec point:nth:kind[:sticky]]
//
// Flags are parsed strictly: an unknown flag, a missing value, or a
// non-numeric value for a numeric flag prints usage to stderr and
// exits 2 — a typo'd --fsink-mode must never silently run a
// misconfigured server.
//
// --fault-spec routes the store's syscalls through a FaultIo
// (leaplist/store/io.hpp) armed with the given spec — the smoke
// harness uses it to prove the fail-stop path end to end (e.g.
// "write:10:enospc:sticky" makes every WAL write from the 10th on
// fail ENOSPC; writes then answer Err::kStoreFailed while reads keep
// serving). It requires --data-dir.
//
// Admission control defaults ON here (the library's ServerOptions
// defaults are OFF so embedded/test servers are unaffected); pass 0 to
// any cap flag to disable it. --data-dir enables the durable tier
// (leaplist/store/store.hpp): recovery replays before the listen line
// prints, and writes are acked per --fsync-mode (default group).
//
// Prints one parseable line once listening:
//   leapd: listening on 127.0.0.1:<port> (<workers> workers, <shards> shards)
// then serves until SIGINT/SIGTERM, shuts down cleanly, and reports:
//   leapd: served <ops> ops over <conns> connections (<errs> protocol
//   errors); clean shutdown
// scripts/net_smoke.sh keys off both lines. While serving, a stats
// line prints every --stats-interval seconds (0 disables):
//   leapd: stats ops=... shed=... queue=<now>/<hwm> retries=...
//   batches=... get_runs=... get_run_ops=... pauses=... emfile=...
// and one final such line follows the shutdown report. With --data-dir
// a second line accompanies each:
//   leapd: store stats wal_appends=... wal_fsyncs=... group_ops=...
//   flushes=... runs=... bloom_neg=... cold_hits=... recovered=...
//   fail_stop=... corrupt=... ckpt_retries=...
#include <signal.h>
#include <time.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "leaplist/net/server.hpp"
#include "leaplist/store/io.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port N] [--workers N] [--shards N] [--keys N]\n"
      "          [--node-size N] [--batch N]\n"
      "          [--max-queue N] [--max-global N] [--accept-pause N]\n"
      "          [--accept-backoff-ms N] [--stats-interval SECS]\n"
      "          [--data-dir PATH] [--fsync-mode always|group|off]\n"
      "          [--checkpoint-bytes N]\n"
      "          [--fault-spec point:nth:kind[:sticky]]\n",
      argv0);
}

/// Strict command-line state: every flag either consumes a valid value
/// or fails the whole invocation.
struct Args {
  int argc;
  char** argv;
  int at = 1;
  bool ok = true;

  bool done() const { return !ok || at >= argc; }

  bool is(const char* flag) const {
    return std::strcmp(argv[at], flag) == 0;
  }

  void fail(const char* what) {
    std::fprintf(stderr, "leapd: %s '%s'\n", what, argv[at]);
    ok = false;
  }

  /// Consume the flag at `at` plus its numeric value.
  bool num(const char* flag, long long* out) {
    if (!is(flag)) return false;
    if (at + 1 >= argc) {
      fail("missing value for");
      return true;
    }
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(argv[at + 1], &end, 10);
    if (errno != 0 || end == argv[at + 1] || *end != '\0') {
      fail("non-numeric value for");
      return true;
    }
    *out = v;
    at += 2;
    return true;
  }

  /// Consume the flag at `at` plus its string value.
  bool str(const char* flag, std::string* out) {
    if (!is(flag)) return false;
    if (at + 1 >= argc) {
      fail("missing value for");
      return true;
    }
    *out = argv[at + 1];
    at += 2;
    return true;
  }
};

void print_stats_line(const leap::net::ServerStats& s, bool store_on) {
  std::printf(
      "leapd: stats ops=%llu shed=%llu queue=%llu/%llu retries=%llu "
      "batches=%llu get_runs=%llu get_run_ops=%llu pauses=%llu "
      "emfile=%llu\n",
      static_cast<unsigned long long>(s.ops),
      static_cast<unsigned long long>(s.shed),
      static_cast<unsigned long long>(s.queued_now),
      static_cast<unsigned long long>(s.queue_hwm),
      static_cast<unsigned long long>(s.stm_retries),
      static_cast<unsigned long long>(s.batches),
      static_cast<unsigned long long>(s.get_runs),
      static_cast<unsigned long long>(s.get_run_ops),
      static_cast<unsigned long long>(s.accept_pauses),
      static_cast<unsigned long long>(s.emfile_sheds));
  if (store_on) {
    std::printf(
        "leapd: store stats wal_appends=%llu wal_fsyncs=%llu "
        "group_ops=%llu flushes=%llu runs=%llu bloom_neg=%llu "
        "cold_hits=%llu recovered=%llu fail_stop=%llu corrupt=%llu "
        "ckpt_retries=%llu\n",
        static_cast<unsigned long long>(s.wal_appends),
        static_cast<unsigned long long>(s.wal_fsyncs),
        static_cast<unsigned long long>(s.wal_group_ops),
        static_cast<unsigned long long>(s.store_flushes),
        static_cast<unsigned long long>(s.store_runs),
        static_cast<unsigned long long>(s.bloom_negatives),
        static_cast<unsigned long long>(s.cold_hits),
        static_cast<unsigned long long>(s.recovered_ops),
        static_cast<unsigned long long>(s.store_fail_stop),
        static_cast<unsigned long long>(s.corrupt_blocks),
        static_cast<unsigned long long>(s.checkpoint_retries));
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  leap::net::ServerOptions opts;
  // leapd defaults (admission ON; the library defaults stay OFF).
  long long port = 0, workers = 2, shards = 8, keys = 1'000'000;
  long long node_size = 0, batch = 128;
  long long max_queue = 1024, max_global = 8192, accept_pause = 16384;
  long long accept_backoff_ms = 100, stats_interval = 10;
  long long checkpoint_bytes = 4 << 20;
  std::string data_dir, fsync_mode_text = "group", fault_spec_text;

  Args args{argc, argv};
  while (!args.done()) {
    if (args.num("--port", &port) || args.num("--workers", &workers) ||
        args.num("--shards", &shards) || args.num("--keys", &keys) ||
        args.num("--node-size", &node_size) ||
        args.num("--batch", &batch) ||
        args.num("--max-queue", &max_queue) ||
        args.num("--max-global", &max_global) ||
        args.num("--accept-pause", &accept_pause) ||
        args.num("--accept-backoff-ms", &accept_backoff_ms) ||
        args.num("--stats-interval", &stats_interval) ||
        args.num("--checkpoint-bytes", &checkpoint_bytes) ||
        args.str("--data-dir", &data_dir) ||
        args.str("--fsync-mode", &fsync_mode_text) ||
        args.str("--fault-spec", &fault_spec_text)) {
      continue;
    }
    args.fail("unknown flag");
  }
  const auto fsync_mode = leap::store::parse_fsync_mode(fsync_mode_text);
  if (!fsync_mode) {
    std::fprintf(stderr, "leapd: bad --fsync-mode '%s' (always|group|off)\n",
                 fsync_mode_text.c_str());
    args.ok = false;
  }
  std::optional<leap::store::FaultSpec> fault_spec;
  if (!fault_spec_text.empty()) {
    fault_spec = leap::store::parse_fault_spec(fault_spec_text);
    if (!fault_spec) {
      std::fprintf(stderr,
                   "leapd: bad --fault-spec '%s' "
                   "(point:nth:kind[:sticky])\n",
                   fault_spec_text.c_str());
      args.ok = false;
    } else if (data_dir.empty()) {
      std::fprintf(stderr, "leapd: --fault-spec requires --data-dir\n");
      args.ok = false;
    }
  }
  if (!args.ok) {
    usage(argv[0]);
    return 2;
  }

  opts.port = static_cast<std::uint16_t>(port);
  opts.workers = static_cast<unsigned>(workers);
  opts.shards = static_cast<std::size_t>(shards);
  opts.key_hi = keys;
  opts.max_batch = static_cast<std::size_t>(batch);
  if (node_size > 0) {
    opts.params.node_size = static_cast<std::size_t>(node_size);
  }
  opts.max_queue = static_cast<std::size_t>(max_queue);
  opts.max_global = static_cast<std::size_t>(max_global);
  opts.accept_pause = static_cast<std::size_t>(accept_pause);
  opts.accept_backoff_ms = static_cast<unsigned>(accept_backoff_ms);
  opts.data_dir = data_dir;
  opts.fsync_mode = *fsync_mode;
  opts.checkpoint_bytes = static_cast<std::size_t>(checkpoint_bytes);
  // Declared before `server` below so it strictly outlives the Server
  // (ServerOptions::store_io is a borrowed pointer).
  std::unique_ptr<leap::store::FaultIo> fault_io;
  if (fault_spec) {
    fault_io = std::make_unique<leap::store::FaultIo>(
        leap::store::real_io());
    fault_io->arm(*fault_spec);
    opts.store_io = fault_io.get();
    std::printf("leapd: fault injection armed: %s\n",
                fault_spec_text.c_str());
  }
  const bool store_on = !data_dir.empty();

  // Block the shutdown signals before spawning workers (they inherit
  // the mask), then wait for one synchronously — no async handler.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);
  signal(SIGPIPE, SIG_IGN);

  leap::net::Server server(opts);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "leapd: start failed: %s\n", error.c_str());
    return 1;
  }
  if (store_on) {
    const leap::net::ServerStats boot = server.stats();
    std::printf("leapd: store open dir=%s fsync=%s recovered=%llu "
                "runs=%llu\n",
                data_dir.c_str(),
                leap::store::fsync_mode_name(*fsync_mode),
                static_cast<unsigned long long>(boot.recovered_ops),
                static_cast<unsigned long long>(boot.store_runs));
  }
  std::printf("leapd: listening on 127.0.0.1:%u (%u workers, %zu shards)\n",
              static_cast<unsigned>(server.port()), opts.workers,
              opts.shards);
  std::fflush(stdout);

  // Wait for a shutdown signal, waking every --stats-interval seconds
  // to print a stats line (sigtimedwait keeps it all on this thread).
  for (;;) {
    if (stats_interval <= 0) {
      int sig = 0;
      sigwait(&sigs, &sig);
      break;
    }
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(stats_interval);
    const int sig = sigtimedwait(&sigs, nullptr, &ts);
    if (sig > 0) break;
    if (errno == EAGAIN) {  // interval elapsed, no signal yet
      print_stats_line(server.stats(), store_on);
      continue;
    }
    if (errno == EINTR) continue;
    break;
  }
  server.stop();
  const leap::net::ServerStats stats = server.stats();
  std::printf(
      "leapd: served %llu ops over %llu connections (%llu protocol "
      "errors); clean shutdown\n",
      static_cast<unsigned long long>(stats.ops),
      static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.errored));
  print_stats_line(stats, store_on);
  return 0;
}
