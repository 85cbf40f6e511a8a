// leap::store implementation: WAL segments, immutable runs, the Store
// orchestration (leader-follower group commit, checkpoint flusher,
// recovery). Design notes live in the headers; this is the machinery.

#include "leaplist/store/store.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>

#include "leaplist/store/run.hpp"
#include "leaplist/store/wal.hpp"
#include "leaplist/txn.hpp"

namespace leap::store {

namespace {

constexpr std::size_t kSnapshotChunk = 1024;
constexpr std::size_t kReplayBatch = 256;
constexpr std::size_t kEvictBatch = 64;
constexpr std::int64_t kMinKey = std::numeric_limits<std::int64_t>::min() + 1;
constexpr std::int64_t kMaxKey = std::numeric_limits<std::int64_t>::max();

bool full_write(Io& io, int fd, const std::uint8_t* data,
                std::size_t size) {
  while (size > 0) {
    const ssize_t n = io.write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Positioned write: WAL segments are preallocated, so appends land
/// INSIDE the file (O_APPEND would put them after the zero tail).
bool full_pwrite(Io& io, int fd, const std::uint8_t* data,
                 std::size_t size, std::uint64_t off) {
  while (size > 0) {
    const ssize_t n = io.pwrite(fd, data, size, static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
    off += static_cast<std::uint64_t>(n);
  }
  return true;
}

bool full_pread(Io& io, int fd, std::uint8_t* data, std::size_t size,
                std::uint64_t off) {
  while (size > 0) {
    const ssize_t n = io.pread(fd, data, size, static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // short file
    data += n;
    size -= static_cast<std::size_t>(n);
    off += static_cast<std::uint64_t>(n);
  }
  return true;
}

std::string wal_path(const std::string& dir, std::size_t shard,
                     std::uint64_t seq) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "/wal-%zu-%llu.log", shard,
                static_cast<unsigned long long>(seq));
  return dir + buf;
}

std::string run_path(const std::string& dir, std::size_t shard,
                     std::uint64_t seq) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "/run-%zu-%llu.run", shard,
                static_cast<unsigned long long>(seq));
  return dir + buf;
}

/// fsync the directory so created/unlinked NAMES are durable.
void fsync_dir(Io& io, const std::string& dir) {
  const int fd = io.open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC,
                         0);
  if (fd < 0) return;
  io.fsync(fd);
  io.close(fd);
}

/// Segment preallocation size: the rotation threshold plus room for
/// the overshoot of one maximal record and a little framing slack.
std::uint64_t wal_prealloc_bytes(std::size_t checkpoint_bytes) {
  return static_cast<std::uint64_t>(checkpoint_bytes) +
         kMaxWalRecordBytes + 4096;
}

/// Open a fresh segment and preallocate it: with the blocks (and the
/// file size) fixed up front, the per-commit fdatasync never journals
/// an allocation or size change — measured ~2x cheaper on ext4.
/// A preallocation refused for SPACE (ENOSPC) or a failing device
/// (EIO) is a hard error — better to surface "disk full" at open or
/// rotation, with the previous segment still healthy, than mid-commit
/// once writes start bouncing off the same wall. A filesystem that
/// merely lacks fallocate (EOPNOTSUPP/EINVAL) just grows the file
/// normally. On failure returns -1 with *err describing the cause and
/// nothing left on disk.
int open_segment_fresh(Io& io, const std::string& path,
                       std::uint64_t prealloc, std::string* err) {
  const int fd = io.open(path.c_str(),
                         O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    if (err) *err = "open " + path + ": " + std::strerror(errno);
    return -1;
  }
  if (prealloc > 0 &&
      io.fallocate(fd, static_cast<off_t>(prealloc)) != 0 &&
      (errno == ENOSPC || errno == EIO)) {
    if (err) *err = "fallocate " + path + ": " + std::strerror(errno);
    io.close(fd);
    io.unlink(path.c_str());
    return -1;
  }
  return fd;
}

}  // namespace

// --- Wal --------------------------------------------------------------

Wal::~Wal() { close_fd(); }

bool Wal::open_fresh(Io& io, const std::string& path, std::uint64_t seq,
                     std::uint64_t logical_base, std::uint64_t prealloc,
                     std::string* err) {
  close_fd();
  io_ = &io;
  std::string why;
  fd_ = open_segment_fresh(io, path, prealloc, &why);
  if (fd_ < 0) {
    if (err) *err = "wal " + why;
    return false;
  }
  io_error_.store(false, std::memory_order_release);
  err_no_ = 0;
  seq_ = seq;
  logical_base_ = logical_base;
  write_off_ = 0;
  path_ = path;
  pending_.clear();
  appended_.store(logical_base, std::memory_order_release);
  durable_.store(logical_base, std::memory_order_release);
  return true;
}

std::uint64_t Wal::append(const std::uint8_t* data, std::size_t size) {
  if (!healthy()) return 0;
  {
    std::lock_guard<std::mutex> lk(buf_mu_);
    pending_.insert(pending_.end(), data, data + size);
  }
  return appended_.fetch_add(size, std::memory_order_acq_rel) + size;
}

bool Wal::flush_buffered() {
  if (!healthy()) return false;
  {
    std::lock_guard<std::mutex> lk(buf_mu_);
    if (pending_.empty()) return true;
    flushing_.swap(pending_);
  }
  const bool ok = full_pwrite(*io_, fd_, flushing_.data(),
                              flushing_.size(), write_off_);
  if (ok) {
    write_off_ += flushing_.size();
  } else {
    // A partial write may have landed garbage past write_off_;
    // quarantine it so it can never replay. The failed bytes are
    // dropped, not re-buffered: their batches will never be acked, so
    // they must never reach the disk either. durable() is untouched —
    // it must stay truthful (group-commit followers ack against it).
    err_no_ = errno;
    io_error_.store(true, std::memory_order_release);
    (void)io_->ftruncate(fd_, static_cast<off_t>(write_off_));
  }
  flushing_.clear();
  return ok;
}

bool Wal::sync_flush(bool quarantine_unsynced) {
  if (!flush_buffered()) return false;
  // Everything flushed above ends at this logical offset; nothing can
  // land on the fd between the flush and the sync (fsync-mutex held).
  const std::uint64_t covered = logical_base_ + write_off_;
  if (io_->fdatasync(fd_) != 0) {
    // fsyncgate: after a failed fdatasync the kernel may have dropped
    // the dirty pages it covered, so the only honest move is to go
    // unhealthy — never retry the sync. The bytes between durable()
    // and the content end were flushed but never synced: their
    // batches are about to be failed, so (outside kOff, where they
    // WERE already acked) truncate them away lest a later crash +
    // replay resurrect writes the client was told failed.
    err_no_ = errno;
    io_error_.store(true, std::memory_order_release);
    if (quarantine_unsynced) {
      const std::uint64_t keep =
          durable_.load(std::memory_order_acquire) - logical_base_;
      if (io_->ftruncate(fd_, static_cast<off_t>(keep)) == 0) {
        write_off_ = keep;
      }
    }
    return false;
  }
  // Only fsync-mutex holders write durable_, so load+store is safe.
  if (covered > durable_.load(std::memory_order_acquire)) {
    durable_.store(covered, std::memory_order_release);
  }
  return true;
}

void Wal::close_fd() {
  if (fd_ >= 0) {
    io_->close(fd_);
    fd_ = -1;
  }
}

void Wal::swap_segment(int fd, std::uint64_t seq, std::string path) {
  close_fd();
  fd_ = fd;
  io_error_.store(false, std::memory_order_release);
  err_no_ = 0;
  seq_ = seq;
  path_ = std::move(path);
  write_off_ = 0;
  logical_base_ = appended_.load(std::memory_order_acquire);
}

bool Wal::truncate_tail_for_test(std::uint64_t bytes) {
  if (fd_ < 0) return false;
  (void)flush_buffered();
  // write_off_ is the content end; the FILE end is the preallocation.
  const std::uint64_t keep = bytes >= write_off_ ? 0 : write_off_ - bytes;
  // Chop the zero tail too, so replay sees a mid-record EOF, exactly
  // like a crash that lost the allocation.
  return io_->ftruncate(fd_, static_cast<off_t>(keep)) == 0;
}

bool replay_wal_file(Io& io, const std::string& path,
                     std::vector<Entry>& ops, bool* torn,
                     std::string* err) {
  if (torn) *torn = false;
  const int fd = io.open(path.c_str(), O_RDONLY | O_CLOEXEC, 0);
  if (fd < 0) {
    if (err) *err = "wal replay open " + path + ": " + std::strerror(errno);
    return false;
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    io.close(fd);
    if (err) *err = "wal replay stat " + path + ": " + std::strerror(errno);
    return false;
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(st.st_size));
  if (!bytes.empty() &&
      !full_pread(io, fd, bytes.data(), bytes.size(), 0)) {
    io.close(fd);
    if (err) *err = "wal replay read " + path + ": " + std::strerror(errno);
    return false;
  }
  io.close(fd);
  std::size_t at = 0;
  for (;;) {
    std::size_t consumed = 0;
    const WalParse res =
        parse_wal_record(bytes.data() + at, bytes.size() - at, consumed, ops);
    if (res == WalParse::kRecord) {
      at += consumed;
      continue;
    }
    if (res == WalParse::kTorn && torn) *torn = true;
    return true;
  }
}

// --- Run --------------------------------------------------------------

Run::~Run() {
  if (fd_ >= 0) io_->close(fd_);
}

std::shared_ptr<Run> Run::load(Io& io, const std::string& path,
                               std::uint64_t seq, std::string* err) {
  const int fd = io.open(path.c_str(), O_RDONLY | O_CLOEXEC, 0);
  if (fd < 0) {
    if (err) *err = "run open " + path + ": " + std::strerror(errno);
    return nullptr;
  }
  auto fail = [&](const char* why) -> std::shared_ptr<Run> {
    io.close(fd);
    if (err) *err = std::string("run ") + path + ": " + why;
    return nullptr;
  };
  struct stat st;
  if (::fstat(fd, &st) != 0) return fail("stat failed");
  const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);
  if (size < kRunFooterBytes) return fail("too short for a footer");
  const std::uint64_t footer_off = size - kRunFooterBytes;
  std::uint8_t foot[kRunFooterBytes];
  if (!full_pread(io, fd, foot, kRunFooterBytes, footer_off)) {
    return fail("footer read failed");
  }
  if (le::load_u64(foot + 56) != kRunMagic) return fail("bad magic");
  if (le::load_u32(foot) != kRunVersion) return fail("bad version");
  const std::uint32_t block_count = le::load_u32(foot + 4);
  const std::uint64_t entry_count = le::load_u64(foot + 8);
  const std::int64_t min_key = le::load_i64(foot + 16);
  const std::int64_t max_key = le::load_i64(foot + 24);
  const std::uint64_t index_off = le::load_u64(foot + 32);
  const std::uint64_t bloom_off = le::load_u64(foot + 40);
  const std::uint32_t bloom_hashes = le::load_u32(foot + 48);
  const std::uint32_t crc = le::load_u32(foot + 52);
  if (bloom_hashes != kBloomHashes) return fail("bloom shape mismatch");
  if (index_off > bloom_off || bloom_off > footer_off) {
    return fail("section offsets out of order");
  }
  const std::uint64_t index_len = bloom_off - index_off;
  const std::uint64_t bloom_len = footer_off - bloom_off;
  if (index_len != std::uint64_t{block_count} * kRunIndexEntryBytes) {
    return fail("index length mismatch");
  }
  if (bloom_len % 8 != 0) return fail("bloom length not word-aligned");
  std::vector<std::uint8_t> sections(
      static_cast<std::size_t>(index_len + bloom_len));
  if (!sections.empty() &&
      !full_pread(io, fd, sections.data(), sections.size(), index_off)) {
    return fail("index/bloom read failed");
  }
  std::uint32_t want = crc32c(sections.data(), sections.size());
  want = crc32c(foot, 52, want);
  if (want != crc) return fail("footer crc mismatch");

  auto run = std::shared_ptr<Run>(new Run());
  run->io_ = &io;
  run->fd_ = fd;
  run->seq_ = seq;
  run->entry_count_ = entry_count;
  run->min_key_ = min_key;
  run->max_key_ = max_key;
  run->index_.reserve(block_count);
  const std::uint8_t* p = sections.data();
  for (std::uint32_t i = 0; i < block_count; ++i, p += kRunIndexEntryBytes) {
    IndexEntry e;
    e.first_key = le::load_i64(p);
    e.offset = le::load_u64(p + 8);
    e.len = le::load_u32(p + 16);
    if (e.offset + e.len > index_off) {
      io.close(fd);
      run->fd_ = -1;
      if (err) *err = "run " + path + ": block outside data section";
      return nullptr;
    }
    run->index_.push_back(e);
  }
  std::vector<std::uint64_t> words(static_cast<std::size_t>(bloom_len / 8));
  for (std::size_t i = 0; i < words.size(); ++i) {
    words[i] = le::load_u64(sections.data() + index_len + i * 8);
  }
  run->bloom_ = Bloom(std::move(words));
  return run;
}

bool Run::read_block(std::size_t idx, std::vector<Entry>& out) const {
  const IndexEntry& e = index_[idx];
  if (e.len < 8) return false;
  std::vector<std::uint8_t> buf(e.len);
  if (!full_pread(*io_, fd_, buf.data(), buf.size(), e.offset)) {
    return false;
  }
  const std::uint32_t count = le::load_u32(buf.data());
  const std::uint32_t crc = le::load_u32(buf.data() + 4);
  if (std::uint64_t{e.len} != 8 + std::uint64_t{count} * kEntryBytes) {
    return false;
  }
  if (crc32c(buf.data() + 8, e.len - 8) != crc) return false;
  out.reserve(out.size() + count);
  const std::uint8_t* p = buf.data() + 8;
  for (std::uint32_t i = 0; i < count; ++i, p += kEntryBytes) {
    out.push_back(load_entry(p));
  }
  return true;
}

std::optional<RunHit> Run::get(std::int64_t key, bool* io_ok) const {
  if (index_.empty()) return std::nullopt;
  // Last block whose first key <= key.
  std::size_t lo = 0, hi = index_.size();
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (index_[mid].first_key <= key) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  if (index_[lo].first_key > key) return std::nullopt;
  std::vector<Entry> entries;
  if (!read_block(lo, entries)) {
    *io_ok = false;
    return std::nullopt;
  }
  std::size_t a = 0, b = entries.size();
  while (a < b) {
    const std::size_t mid = a + (b - a) / 2;
    if (entries[mid].key < key) {
      a = mid + 1;
    } else {
      b = mid;
    }
  }
  if (a == entries.size() || entries[a].key != key) return std::nullopt;
  RunHit hit;
  hit.tombstone = entries[a].kind == kEntryTombstone;
  hit.value = entries[a].value;
  return hit;
}

std::size_t Run::read_range(std::int64_t low, std::int64_t high,
                            std::size_t cap, std::vector<Entry>& out,
                            bool* io_ok) const {
  if (index_.empty() || cap == 0 || !fence_overlaps(low, high)) return 0;
  // First block that can contain keys >= low.
  std::size_t at = 0, hi = index_.size();
  while (hi - at > 1) {
    const std::size_t mid = at + (hi - at) / 2;
    if (index_[mid].first_key <= low) {
      at = mid;
    } else {
      hi = mid;
    }
  }
  std::size_t got = 0;
  std::vector<Entry> entries;
  for (; at < index_.size() && got < cap; ++at) {
    if (index_[at].first_key > high) break;
    entries.clear();
    if (!read_block(at, entries)) {
      *io_ok = false;
      return got;
    }
    for (const Entry& e : entries) {
      if (e.key < low) continue;
      if (e.key > high) return got;
      out.push_back(e);
      if (++got == cap) return got;
    }
  }
  return got;
}

// --- RunWriter --------------------------------------------------------

RunWriter::RunWriter(Io& io, std::string path, std::size_t expected)
    : io_(&io),
      path_(std::move(path)),
      bloom_(expected == 0 ? 1 : expected) {
  fd_ = io_->open(path_.c_str(),
                  O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) io_error_ = true;
}

void RunWriter::add(const Entry& e) {
  if (entry_count_ == 0) min_key_ = e.key;
  max_key_ = e.key;
  if (block_entries_ == 0) {
    block_first_key_ = e.key;
    le::grow(block_, 8);  // count + crc, filled in by seal_block
  }
  put_entry(le::grow(block_, kEntryBytes), e);
  bloom_.add(e.key);
  ++entry_count_;
  if (++block_entries_ == kRunBlockEntries) seal_block();
}

void RunWriter::seal_block() {
  if (block_entries_ == 0 || io_error_) return;
  std::uint8_t* p =
      le::put_u32(block_.data(), static_cast<std::uint32_t>(block_entries_));
  le::put_u32(p, crc32c(block_.data() + 8, block_.size() - 8));
  if (!full_write(*io_, fd_, block_.data(), block_.size())) {
    io_error_ = true;
    return;
  }
  p = le::put_i64(le::grow(index_, kRunIndexEntryBytes), block_first_key_);
  p = le::put_u64(p, file_off_);
  le::put_u32(p, static_cast<std::uint32_t>(block_.size()));
  file_off_ += block_.size();
  ++block_count_;
  block_.clear();
  block_entries_ = 0;
}

bool RunWriter::finish(std::string* err) {
  seal_block();
  if (fd_ < 0 || io_error_) {
    if (err) {
      *err = "run write " + path_ + ": " + std::strerror(errno);
    }
    if (fd_ >= 0) io_->close(fd_);
    fd_ = -1;
    return false;
  }
  const std::uint64_t index_off = file_off_;
  const std::uint64_t bloom_off = index_off + index_.size();
  std::vector<std::uint8_t> tail = index_;
  std::uint8_t* p =
      le::grow(tail, 8 * bloom_.words().size() + kRunFooterBytes);
  for (const std::uint64_t word : bloom_.words()) p = le::put_u64(p, word);
  p = le::put_u32(p, kRunVersion);
  p = le::put_u32(p, block_count_);
  p = le::put_u64(p, entry_count_);
  p = le::put_i64(p, min_key_);
  p = le::put_i64(p, max_key_);
  p = le::put_u64(p, index_off);
  p = le::put_u64(p, bloom_off);
  p = le::put_u32(p, kBloomHashes);
  // The CRC covers index + bloom + the footer's first 52 bytes.
  const std::uint32_t crc =
      crc32c(tail.data(), static_cast<std::size_t>(p - tail.data()));
  le::put_u64(le::put_u32(p, crc), kRunMagic);
  bool ok = full_write(*io_, fd_, tail.data(), tail.size());
  ok = ok && io_->fsync(fd_) == 0;
  ok = io_->close(fd_) == 0 && ok;
  fd_ = -1;
  if (!ok && err) *err = "run seal " + path_ + ": " + std::strerror(errno);
  return ok;
}

// --- Store ------------------------------------------------------------

std::optional<FsyncMode> parse_fsync_mode(const std::string& text) {
  if (text == "always") return FsyncMode::kAlways;
  if (text == "group") return FsyncMode::kGroup;
  if (text == "off") return FsyncMode::kOff;
  return std::nullopt;
}

const char* fsync_mode_name(FsyncMode mode) {
  switch (mode) {
    case FsyncMode::kAlways:
      return "always";
    case FsyncMode::kGroup:
      return "group";
    default:
      return "off";
  }
}

struct Store::ShardState {
  std::mutex mu;  // commit mutex: apply + append + tombstones
  // fsync_mu doubles as the group-commit LEADER ELECTION: a waiter
  // that takes it syncs everything appended so far; waiters queued
  // behind it re-check durable() on entry and usually find their
  // target already covered. It also excludes a sync in flight against
  // the fd being swapped by rotation.
  std::mutex fsync_mu;
  Wal wal;
  std::atomic<std::uint64_t> appended_ops{0};
  std::uint64_t synced_ops = 0;  // under fsync_mu; group-size stat
  std::set<std::int64_t> tombs;           // erases since last rotation
  std::set<std::int64_t> flushing_tombs;  // erases owed to the next run
  std::vector<std::shared_ptr<Run>> runs;  // oldest..newest, under mu
  std::uint64_t oldest_wal_seq = 1;        // under flush_mu_
  std::atomic<bool> needs_flush{false};    // recovery owes a checkpoint
};

struct Store::SyncShared {
  std::mutex mu;
  std::condition_variable flusher_cv;  // wake/stop the flusher
  bool stop = false;
};

Store::Store(MapType& map, const StoreOptions& opts)
    : map_(map),
      opts_(opts),
      io_(opts.io ? opts.io : &real_io()),
      sync_(new SyncShared()) {}

Store::~Store() { close(); }

std::size_t Store::shard_count() const { return map_.shard_count(); }

std::string Store::last_error() const {
  std::lock_guard<std::mutex> lk(err_mu_);
  return last_error_;
}

void Store::set_last_error(const std::string& why) {
  std::lock_guard<std::mutex> lk(err_mu_);
  last_error_ = why;
}

void Store::enter_fail_stop(const std::string& why) {
  bool expected = false;
  if (fail_stop_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    set_last_error(why);
  }
}

bool Store::open(std::string* err) {
  if (open_) return true;
  if (io_->mkdir(opts_.data_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    if (err) {
      *err = "mkdir " + opts_.data_dir + ": " + std::strerror(errno);
    }
    return false;
  }
  const std::size_t shard_count = map_.shard_count();
  shards_.clear();
  for (std::size_t s = 0; s < shard_count; ++s) {
    shards_.push_back(std::make_unique<ShardState>());
  }
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (!recover_shard(s, err)) return false;
  }
  fsync_dir(*io_, opts_.data_dir);
  open_ = true;
  sync_->stop = false;
  if (opts_.flush_poll_ms > 0) {
    flusher_ = std::thread([this] { flusher_main(); });
  }
  return true;
}

bool Store::recover_shard(std::size_t s, std::string* err) {
  ShardState& sh = *shards_[s];
  // One directory scan per shard keeps this simple; shard counts are
  // small (the server defaults to 8) and open() runs once.
  std::vector<std::pair<std::uint64_t, std::string>> run_files, wal_files;
  DIR* dir = ::opendir(opts_.data_dir.c_str());
  if (!dir) {
    if (err) {
      *err = "opendir " + opts_.data_dir + ": " + std::strerror(errno);
    }
    return false;
  }
  while (struct dirent* ent = ::readdir(dir)) {
    unsigned long long shard = 0, seq = 0;
    char tail = 0;
    if (std::sscanf(ent->d_name, "run-%llu-%llu.ru%c", &shard, &seq,
                    &tail) == 3 &&
        tail == 'n' && shard == s) {
      run_files.emplace_back(seq, opts_.data_dir + "/" + ent->d_name);
    } else if (std::sscanf(ent->d_name, "wal-%llu-%llu.lo%c", &shard, &seq,
                           &tail) == 3 &&
               tail == 'g' && shard == s) {
      wal_files.emplace_back(seq, opts_.data_dir + "/" + ent->d_name);
    }
  }
  ::closedir(dir);
  std::sort(run_files.begin(), run_files.end());
  std::sort(wal_files.begin(), wal_files.end());

  std::uint64_t max_seq = 0;
  for (const auto& [seq, path] : run_files) {
    std::string why;
    auto run = Run::load(*io_, path, seq, &why);
    if (!run) {
      // A flush the crash interrupted: its WAL segments still exist
      // and replay below, so the partial file is just deleted.
      io_->unlink(path.c_str());
      continue;
    }
    sh.runs.push_back(std::move(run));
    max_seq = std::max(max_seq, seq);
  }
  const std::uint64_t newest_run_seq =
      sh.runs.empty() ? 0 : sh.runs.back()->seq();

  std::uint64_t replayed = 0;
  bool kept_wal = false;
  std::vector<Entry> ops;
  for (const auto& [seq, path] : wal_files) {
    max_seq = std::max(max_seq, seq);
    if (seq <= newest_run_seq) {
      // Retired by the flush that produced the newest run.
      io_->unlink(path.c_str());
      continue;
    }
    ops.clear();
    bool torn = false;
    if (!replay_wal_file(*io_, path, ops, &torn, err)) return false;
    for (std::size_t at = 0; at < ops.size(); at += kReplayBatch) {
      const std::size_t end = std::min(ops.size(), at + kReplayBatch);
      leap::txn([&](stm::Tx& tx) {
        for (std::size_t i = at; i < end; ++i) {
          if (ops[i].kind == kEntryValue) {
            map_.insert_in(tx, ops[i].key, ops[i].value);
          } else {
            map_.erase_in(tx, ops[i].key);
          }
        }
      });
      for (std::size_t i = at; i < end; ++i) {
        if (ops[i].kind == kEntryValue) {
          sh.tombs.erase(ops[i].key);
        } else {
          sh.tombs.insert(ops[i].key);
        }
      }
    }
    replayed += ops.size();
    kept_wal = true;
  }
  recovered_ops_.fetch_add(replayed, std::memory_order_relaxed);

  const std::uint64_t fresh_seq = max_seq + 1;
  if (!sh.wal.open_fresh(*io_, wal_path(opts_.data_dir, s, fresh_seq),
                         fresh_seq, 0,
                         wal_prealloc_bytes(opts_.checkpoint_bytes),
                         err)) {
    return false;
  }
  sh.oldest_wal_seq = kept_wal ? newest_run_seq + 1 : fresh_seq;
  // A replayed shard owes a checkpoint so repeated crashes cannot grow
  // replay time without bound; the flusher's first pass settles it.
  sh.needs_flush.store(kept_wal, std::memory_order_release);
  return true;
}

void Store::close() {
  if (!open_) return;
  // Make everything appended durable, whatever the mode. A shard that
  // already failed is skipped (fdatasync is never retried — its
  // durable prefix is what recovery will see); a shard failing HERE
  // enters fail-stop like any other, and close still completes: a
  // fail-stopped store shuts down cleanly, it just stops acking.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardState& sh = *shards_[s];
    std::lock_guard<std::mutex> fs(sh.fsync_mu);
    if (!sh.wal.healthy()) continue;
    if (sh.wal.sync_flush(opts_.fsync_mode != FsyncMode::kOff)) {
      wal_fsyncs_.fetch_add(1, std::memory_order_relaxed);
    } else {
      enter_fail_stop("wal close sync " + sh.wal.path() + ": " +
                      std::strerror(sh.wal.last_errno()));
    }
  }
  {
    std::lock_guard<std::mutex> lk(sync_->mu);
    sync_->stop = true;
  }
  sync_->flusher_cv.notify_all();
  if (flusher_.joinable()) flusher_.join();
  for (auto& sh : shards_) sh->wal.close_fd();
  open_ = false;
}

bool Store::log_batch(const LogOp* ops, std::size_t n,
                      const std::function<void()>& apply) {
  if (!open_ || n == 0) {
    apply();
    return true;
  }
  // Read-only fail-stop: reject before `apply` so a doomed mutation
  // never even reaches the memtable.
  if (fail_stop_.load(std::memory_order_acquire)) return false;
  struct Tagged {
    std::size_t shard;
    Entry e;
  };
  std::vector<Tagged> tagged;
  tagged.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Entry e;
    e.kind = ops[i].erase ? kEntryTombstone : kEntryValue;
    e.key = ops[i].key;
    e.value = ops[i].erase ? 0 : ops[i].value;
    tagged.push_back({map_.shard_of(ops[i].key), e});
  }
  // Ascending-shard lock order (deadlock-free); stable sort keeps the
  // caller's op order within each shard == the logged order.
  std::stable_sort(tagged.begin(), tagged.end(),
                   [](const Tagged& a, const Tagged& b) {
                     return a.shard < b.shard;
                   });
  // Encode every per-shard record BEFORE taking any lock — the bytes
  // don't depend on commit order, so the commit critical section
  // shrinks to the STM apply plus a buffered memcpy per shard.
  struct Span {
    std::size_t shard;
    std::size_t off;    // into `records`
    std::size_t len;    // encoded record bytes
    std::size_t first;  // group start in `tagged`
    std::size_t count;  // ops in the group
  };
  std::vector<std::uint8_t> records;
  std::vector<Span> spans;
  std::vector<Entry> group;
  std::size_t at = 0;
  while (at < tagged.size()) {
    const std::size_t s = tagged[at].shard;
    const std::size_t first = at;
    group.clear();
    while (at < tagged.size() && tagged[at].shard == s) {
      group.push_back(tagged[at].e);
      ++at;
    }
    const std::size_t off = records.size();
    encode_wal_record(records, group.data(), group.size());
    spans.push_back({s, off, records.size() - off, first, group.size()});
  }
  for (const Span& sp : spans) shards_[sp.shard]->mu.lock();
  // Re-check health under the commit mutexes: a shard whose WAL died
  // since the pre-check above must reject the batch BEFORE the
  // memtable mutation, not after. (A failure that lands between this
  // check and the append below is caught by the append returning 0 —
  // then the mutation is briefly visible but quarantined off the log,
  // the same window any pre-durability read already has.)
  for (const Span& sp : spans) {
    if (!shards_[sp.shard]->wal.healthy()) {
      for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
        shards_[it->shard]->mu.unlock();
      }
      return false;
    }
  }
  apply();
  bool appended_all = true;
  std::vector<std::pair<std::size_t, std::uint64_t>> targets;
  targets.reserve(spans.size());
  for (const Span& sp : spans) {
    ShardState& sh = *shards_[sp.shard];
    const std::uint64_t end =
        sh.wal.append(records.data() + sp.off, sp.len);
    if (end != 0) {
      wal_appends_.fetch_add(1, std::memory_order_relaxed);
      sh.appended_ops.fetch_add(sp.count, std::memory_order_relaxed);
      targets.emplace_back(sp.shard, end);
    } else {
      // The record never reached even the append buffer; this batch
      // cannot be acked no matter what the other shards say.
      appended_all = false;
    }
    for (std::size_t i = sp.first; i < sp.first + sp.count; ++i) {
      if (tagged[i].e.kind == kEntryTombstone) {
        sh.tombs.insert(tagged[i].e.key);
      } else {
        sh.tombs.erase(tagged[i].e.key);
      }
    }
  }
  for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
    shards_[it->shard]->mu.unlock();
  }
  const bool durable = wait_durable(targets);
  return appended_all && durable;
}

bool Store::wait_durable(
    const std::vector<std::pair<std::size_t, std::uint64_t>>& targets) {
  if (targets.empty()) return true;
  if (opts_.fsync_mode == FsyncMode::kOff) {
    // Ack on append: the mode's contract is that the OS (or the
    // flusher) writes the bytes out eventually and a crash may lose
    // them. The appends above landed on healthy segments, so ack.
    return true;
  }
  const bool group = opts_.fsync_mode == FsyncMode::kGroup;
  bool ok = true;
  // Sync everything this shard has appended; caller holds fsync_mu.
  // False = this shard can no longer make the batch durable.
  const auto lead_sync = [&](std::size_t s, ShardState& sh) {
    if (!sh.wal.healthy()) return false;  // never retry a failed sync
    const std::uint64_t ops_now =
        sh.appended_ops.load(std::memory_order_relaxed);
    if (!sh.wal.sync_flush(/*quarantine_unsynced=*/true)) {
      enter_fail_stop("wal shard " + std::to_string(s) + " " +
                      sh.wal.path() + ": " +
                      std::strerror(sh.wal.last_errno()));
      return false;
    }
    wal_fsyncs_.fetch_add(1, std::memory_order_relaxed);
    if (group) {
      wal_group_ops_.fetch_add(ops_now - sh.synced_ops,
                               std::memory_order_relaxed);
    }
    sh.synced_ops = ops_now;
    return true;
  };
  if (!group) {  // kAlways: one unshared fdatasync per shard touched
    for (const auto& [s, end] : targets) {
      ShardState& sh = *shards_[s];
      std::lock_guard<std::mutex> fs(sh.fsync_mu);
      // A previous holder (rotation's final sync, or close) may have
      // already made our bytes durable; durable() is truthful, so
      // trust it before leading a sync of our own.
      if (sh.wal.durable() >= end) continue;
      if (!lead_sync(s, sh)) ok = false;
    }
    return ok;
  }
  // Leader-follower group commit. Blocking on fsync_mu IS the wait:
  // the current holder is fdatasyncing every byte appended before it
  // sampled the log. On entry we re-check durable(); if a previous
  // leader's sync covered our target we return without syncing at
  // all (the group win). Otherwise we lead the next group ourselves,
  // covering every batch that queued behind us meanwhile. Concurrent
  // batches whose key ranges land on different shards lead
  // independent fsync chains in parallel. durable() never lies — a
  // failed leader leaves it where the last successful sync put it and
  // flips the store to fail-stop instead — so a follower's group win
  // is always a true ack.
  for (const auto& [s, end] : targets) {
    ShardState& sh = *shards_[s];
    std::lock_guard<std::mutex> fs(sh.fsync_mu);
    if (sh.wal.durable() >= end) continue;  // group win
    if (!lead_sync(s, sh)) ok = false;
  }
  return ok;
}

void Store::flusher_main() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(sync_->mu);
      sync_->flusher_cv.wait_for(
          lk, std::chrono::milliseconds(opts_.flush_poll_ms),
          [&] { return sync_->stop; });
      if (sync_->stop) return;
    }
    if (fail_stop_.load(std::memory_order_acquire)) continue;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      ShardState& sh = *shards_[s];
      {
        // Drain buffered WAL bytes to the fd. In kOff mode this is
        // the only writer between checkpoints (bounds what a process
        // crash can lose to roughly one poll period); in the synced
        // modes the buffer is almost always already empty. A write
        // failure here is a WAL failure like any other: fail-stop.
        std::lock_guard<std::mutex> fs(sh.fsync_mu);
        if (sh.wal.healthy() && !sh.wal.flush_buffered()) {
          enter_fail_stop("wal drain shard " + std::to_string(s) + " " +
                          sh.wal.path() + ": " +
                          std::strerror(sh.wal.last_errno()));
        }
      }
      if (sh.wal.segment_bytes() >= opts_.checkpoint_bytes ||
          sh.needs_flush.load(std::memory_order_acquire)) {
        flush_shard(s);
      }
    }
  }
}

void Store::checkpoint() {
  if (!open_ || fail_stop_.load(std::memory_order_acquire)) return;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardState& sh = *shards_[s];
    bool dirty = sh.wal.segment_bytes() > 0 ||
                 sh.needs_flush.load(std::memory_order_acquire);
    if (!dirty) {
      std::lock_guard<std::mutex> g(sh.mu);
      dirty = !sh.tombs.empty() || !sh.flushing_tombs.empty();
    }
    if (dirty) flush_shard(s);
  }
}

bool Store::flush_shard(std::size_t s) {
  std::lock_guard<std::mutex> flush_guard(flush_mu_);
  if (fail_stop_.load(std::memory_order_acquire)) return false;
  ShardState& sh = *shards_[s];
  std::uint64_t retiring_seq = 0;
  {
    std::lock_guard<std::mutex> g(sh.mu);
    const bool dirty = sh.wal.segment_bytes() > 0 || !sh.tombs.empty() ||
                       !sh.flushing_tombs.empty() ||
                       sh.needs_flush.load(std::memory_order_acquire);
    if (!dirty) return true;
    {
      // Rotate: final-sync the retiring segment (its waiters become
      // durable), then swap in a fresh one under the fsync mutex. A
      // segment that cannot final-sync must NOT be retired — its tail
      // never provably reached the disk — so a sync failure here is a
      // WAL failure: fail-stop, segment kept, no rotation. (The old
      // code marked everything durable unconditionally after the
      // sync, healthy or not — a false ack this path must never make
      // again.)
      std::lock_guard<std::mutex> fs(sh.fsync_mu);
      if (!sh.wal.healthy() ||
          !sh.wal.sync_flush(opts_.fsync_mode != FsyncMode::kOff)) {
        enter_fail_stop("wal rotate sync shard " + std::to_string(s) +
                        " " + sh.wal.path() + ": " +
                        std::strerror(sh.wal.last_errno()));
        sh.needs_flush.store(true, std::memory_order_release);
        return false;
      }
      wal_fsyncs_.fetch_add(1, std::memory_order_relaxed);
      // The successful sync covered every appended byte (the commit
      // mutex is held: nothing appends concurrently), so this is a
      // truthful no-op settling of the accounting before the swap.
      sh.wal.mark_all_durable();
      sh.synced_ops = sh.appended_ops.load(std::memory_order_relaxed);
      retiring_seq = sh.wal.seq();
      const std::string path =
          wal_path(opts_.data_dir, s, retiring_seq + 1);
      std::string why;
      const int fd = open_segment_fresh(
          *io_, path, wal_prealloc_bytes(opts_.checkpoint_bytes), &why);
      if (fd < 0) {
        // Can't provision the successor segment (ENOSPC, most
        // likely). NOT fail-stop: the retiring segment is synced and
        // still healthy, so writes keep flowing into it; the flusher
        // retries the rotation next pass and may find space freed.
        checkpoint_retries_.fetch_add(1, std::memory_order_relaxed);
        set_last_error("wal rotate shard " + std::to_string(s) + ": " +
                       why);
        sh.needs_flush.store(true, std::memory_order_release);
        return false;
      }
      sh.wal.swap_segment(fd, retiring_seq + 1, path);
    }
    // Accumulate into flushing_tombs (a previously failed flush may
    // have left some): newer puts win at run-write time because the
    // memtable snapshot below outranks any flushing tombstone.
    sh.flushing_tombs.insert(sh.tombs.begin(), sh.tombs.end());
    sh.tombs.clear();
  }
  // (Waiters blocked on fsync_mu during the final sync above proceed
  // as soon as rotation drops it and find their targets durable.)

  // Snapshot the shard's full memtable contents, chunked (each chunk
  // is one consistent transaction; ops landing between chunks are in
  // the NEW wal segment and replay over this run, so per-key freshness
  // is preserved).
  std::vector<MapType::value_type> snap;
  std::int64_t lo = kMinKey;
  for (;;) {
    const std::size_t before = snap.size();
    map_.shard(s).scan(lo, kSnapshotChunk, snap);
    const std::size_t got = snap.size() - before;
    if (got < kSnapshotChunk) break;
    if (snap.back().first >= kMaxKey - 1) break;
    lo = snap.back().first + 1;
  }
  std::set<std::int64_t> tombs_copy;
  {
    std::lock_guard<std::mutex> g(sh.mu);
    tombs_copy = sh.flushing_tombs;
  }

  // Merge snapshot values with tombstones (value wins on a shared
  // key: the snapshot is newer than any flushed-generation erase).
  const std::string rpath = run_path(opts_.data_dir, s, retiring_seq);
  RunWriter writer(*io_, rpath, snap.size() + tombs_copy.size());
  auto ti = tombs_copy.begin();
  for (const auto& [key, value] : snap) {
    while (ti != tombs_copy.end() && *ti < key) {
      writer.add(Entry{kEntryTombstone, *ti, 0});
      ++ti;
    }
    if (ti != tombs_copy.end() && *ti == key) ++ti;
    writer.add(Entry{kEntryValue, key, value});
  }
  for (; ti != tombs_copy.end(); ++ti) {
    writer.add(Entry{kEntryTombstone, *ti, 0});
  }
  // A failed run write is atomic-or-nothing: delete the partial file,
  // keep every WAL segment it would have retired (they replay the
  // same data), count the retry, and let the flusher's next pass try
  // again — the WAL lost nothing, so this is NOT fail-stop.
  std::string why;
  if (!writer.finish(&why)) {
    io_->unlink(rpath.c_str());
    checkpoint_retries_.fetch_add(1, std::memory_order_relaxed);
    set_last_error(why);
    sh.needs_flush.store(true, std::memory_order_release);
    return false;
  }
  auto run = Run::load(*io_, rpath, retiring_seq, &why);
  if (!run) {
    io_->unlink(rpath.c_str());
    checkpoint_retries_.fetch_add(1, std::memory_order_relaxed);
    set_last_error(why);
    sh.needs_flush.store(true, std::memory_order_release);
    return false;
  }
  // The run's NAME must be durable before its WAL segments die.
  fsync_dir(*io_, opts_.data_dir);
  {
    std::lock_guard<std::mutex> g(sh.mu);
    sh.runs.push_back(std::move(run));
    sh.flushing_tombs.clear();
    sh.needs_flush.store(false, std::memory_order_release);
  }
  flushes_.fetch_add(1, std::memory_order_relaxed);
  for (std::uint64_t seq = sh.oldest_wal_seq; seq <= retiring_seq; ++seq) {
    io_->unlink(wal_path(opts_.data_dir, s, seq).c_str());
  }
  sh.oldest_wal_seq = retiring_seq + 1;
  fsync_dir(*io_, opts_.data_dir);

  // Evict the flushed keys so the memtable only holds what the run
  // does not: compare-erase keeps any key a concurrent writer updated
  // after the snapshot (equal-value ABA re-erase is harmless — the
  // run serves the identical value).
  for (std::size_t at = 0; at < snap.size(); at += kEvictBatch) {
    const std::size_t end = std::min(snap.size(), at + kEvictBatch);
    leap::txn([&](stm::Tx& tx) {
      for (std::size_t i = at; i < end; ++i) {
        const auto cur = map_.get_in(tx, snap[i].first);
        if (cur && *cur == snap[i].second) {
          map_.erase_in(tx, snap[i].first);
        }
      }
    });
  }
  return true;
}

std::optional<std::int64_t> Store::get_cold(std::int64_t key) {
  if (!open_) return std::nullopt;
  ShardState& sh = *shards_[map_.shard_of(key)];
  std::vector<std::shared_ptr<Run>> runs;
  {
    std::lock_guard<std::mutex> g(sh.mu);
    if (sh.tombs.count(key) || sh.flushing_tombs.count(key)) {
      return std::nullopt;
    }
    runs.assign(sh.runs.rbegin(), sh.runs.rend());  // newest first
  }
  for (const auto& run : runs) {
    if (!run->fence_contains(key)) continue;
    if (!run->bloom().maybe_contains(key)) {
      bloom_negatives_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    bool io_ok = true;
    const auto hit = run->get(key, &io_ok);
    if (!io_ok) {
      // Unreadable or CRC-failed block: counted, then the lookup
      // degrades to "absent in this run" — older runs (or a true
      // miss) still answer, never a silent wrong value.
      corrupt_blocks_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!hit) continue;  // absent here (or unreadable block): older runs
    if (hit->tombstone) return std::nullopt;
    // Close the eviction race: a writer may have re-inserted the key
    // after the memtable miss that routed us here — fresher state in
    // the tombstone sets or the memtable outranks the run's value.
    {
      std::lock_guard<std::mutex> g(sh.mu);
      if (sh.tombs.count(key) || sh.flushing_tombs.count(key)) {
        return std::nullopt;
      }
    }
    if (const auto live = map_.get(key)) return live;
    cold_hits_.fetch_add(1, std::memory_order_relaxed);
    return hit->value;
  }
  return std::nullopt;
}

std::size_t Store::scan_merged(std::int64_t low, std::int64_t high,
                               std::size_t limit,
                               std::vector<ScanPair>& out) {
  if (!open_) return map_.scan(low, high, limit, out);
  const std::size_t base = out.size();
  if (limit == 0 || low > high) return 0;
  std::int64_t cursor = low;
  std::vector<ScanPair> mem;
  struct Tuple {
    std::int64_t key;
    std::uint64_t rank;  // lower wins: 0 memtable, 1 tombs, 2+ runs
    std::uint8_t kind;
    std::int64_t value;
  };
  std::vector<Tuple> tuples;
  std::vector<Entry> rbuf;
  for (;;) {
    const std::size_t want = limit - (out.size() - base);
    const std::size_t chunk = std::max<std::size_t>(want, 2);
    std::int64_t window_high = high;
    bool capped = false;
    tuples.clear();

    mem.clear();
    map_.scan(cursor, high, chunk, mem);
    if (mem.size() == chunk) {
      window_high = mem.back().first;
      capped = true;
    }
    for (const auto& [key, value] : mem) {
      tuples.push_back({key, 0, kEntryValue, value});
    }

    // Tombstones: shard key ranges are disjoint and ordered, so the
    // per-shard ordered sets concatenate in global key order.
    const std::size_t shard_count = shards_.size();
    for (std::size_t s = 0; s < shard_count; ++s) {
      ShardState& sh = *shards_[s];
      std::lock_guard<std::mutex> g(sh.mu);
      for (const auto* set : {&sh.tombs, &sh.flushing_tombs}) {
        std::size_t got = 0;
        for (auto it = set->lower_bound(cursor);
             it != set->end() && *it <= window_high; ++it) {
          tuples.push_back({*it, 1, kEntryTombstone, 0});
          if (++got == chunk) {
            window_high = *it;
            capped = true;
            break;
          }
        }
      }
    }

    // Run entries, newest run = best (lowest) run rank.
    for (std::size_t s = 0; s < shard_count; ++s) {
      ShardState& sh = *shards_[s];
      std::vector<std::shared_ptr<Run>> runs;
      {
        std::lock_guard<std::mutex> g(sh.mu);
        runs = sh.runs;
      }
      for (const auto& run : runs) {
        if (!run->fence_overlaps(cursor, window_high)) continue;
        rbuf.clear();
        bool io_ok = true;
        run->read_range(cursor, window_high, chunk, rbuf, &io_ok);
        if (!io_ok) {
          corrupt_blocks_.fetch_add(1, std::memory_order_relaxed);
        }
        if (rbuf.size() == chunk && rbuf.back().key < window_high) {
          window_high = rbuf.back().key;
          capped = true;
        }
        // Rank: newer seq wins, always after memtable (0) and
        // tombstones (1) — seqs are tiny next to 2^40.
        const std::uint64_t rank = (std::uint64_t{1} << 40) - run->seq();
        for (const Entry& e : rbuf) {
          tuples.push_back({e.key, rank, e.kind, e.value});
        }
      }
    }

    std::stable_sort(tuples.begin(), tuples.end(),
                     [](const Tuple& a, const Tuple& b) {
                       if (a.key != b.key) return a.key < b.key;
                       return a.rank < b.rank;
                     });
    bool hit_limit = false;
    for (std::size_t i = 0; i < tuples.size(); ++i) {
      if (i > 0 && tuples[i].key == tuples[i - 1].key) continue;
      if (tuples[i].key > window_high) break;
      if (tuples[i].kind != kEntryValue) continue;
      out.emplace_back(tuples[i].key, tuples[i].value);
      if (out.size() - base == limit) {
        hit_limit = true;
        break;
      }
    }
    if (hit_limit || !capped || window_high >= high) break;
    cursor = window_high + 1;
  }
  return out.size() - base;
}

StoreStats Store::stats() const {
  StoreStats st;
  st.wal_appends = wal_appends_.load(std::memory_order_relaxed);
  st.wal_fsyncs = wal_fsyncs_.load(std::memory_order_relaxed);
  st.wal_group_ops = wal_group_ops_.load(std::memory_order_relaxed);
  st.flushes = flushes_.load(std::memory_order_relaxed);
  st.bloom_negatives = bloom_negatives_.load(std::memory_order_relaxed);
  st.cold_hits = cold_hits_.load(std::memory_order_relaxed);
  st.recovered_ops = recovered_ops_.load(std::memory_order_relaxed);
  st.fail_stop = fail_stop_.load(std::memory_order_acquire) ? 1 : 0;
  st.corrupt_blocks = corrupt_blocks_.load(std::memory_order_relaxed);
  st.checkpoint_retries =
      checkpoint_retries_.load(std::memory_order_relaxed);
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> g(sh->mu);
    st.runs += sh->runs.size();
  }
  return st;
}

bool Store::tear_wal_tail_for_test(std::size_t s, std::uint64_t bytes) {
  if (s >= shards_.size()) return false;
  std::lock_guard<std::mutex> fs(shards_[s]->fsync_mu);
  return shards_[s]->wal.truncate_tail_for_test(bytes);
}

}  // namespace leap::store
