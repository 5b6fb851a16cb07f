#include "io/disk_backend.hpp"

// POSIX file-per-disk substrate: buffered pread/pwrite at explicit
// offsets (no shared cursor, so concurrent threads need no extra
// locking), fdatasync for the durability point, ftruncate to
// materialize fresh zero-filled images, and a write-ahead journal beside
// the images.  Short reads/writes are looped; EINTR is retried.

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "core/crc32c.hpp"

namespace pdl::io {

namespace {

[[nodiscard]] std::string errno_text(const char* op, const std::string& path) {
  return std::string(op) + " " + path + ": " + std::strerror(errno);
}

/// Full-buffer pread with EINTR/short-read handling.
[[nodiscard]] bool pread_all(int fd, std::uint8_t* buf, std::size_t size,
                             std::uint64_t offset) {
  while (size > 0) {
    const ssize_t n = ::pread(fd, buf, size, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) {  // past EOF would mean a truncated image
      errno = EIO;
      return false;
    }
    buf += n;
    size -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
  return true;
}

/// Full-buffer pwrite with EINTR/short-write handling.
[[nodiscard]] bool pwrite_all(int fd, const std::uint8_t* buf,
                              std::size_t size, std::uint64_t offset) {
  while (size > 0) {
    const ssize_t n = ::pwrite(fd, buf, size, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    buf += n;
    size -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
  return true;
}

/// Name of the geometry manifest written next to the image files: pins
/// (num_disks, disk_bytes) so a reopen with a different array shape is
/// refused instead of silently adopting byte-incompatible images.
constexpr const char* kManifestName = "backend.meta";

/// Name of the write-ahead journal file beside the images.
constexpr const char* kJournalName = "journal.bin";

// Journal format: a fixed number of fixed-size slots in one sparse file.
// One journal_begin record occupies one slot -- a header, then an entry
// per write, then the concatenated payloads -- written with a single
// pwrite.  journal_commit retires a record by zeroing its magic.  A
// record is valid iff its magic matches AND its body CRC32C holds, so a
// torn journal append (crash mid-pwrite) self-invalidates and is
// discarded at replay rather than half-applied.
constexpr std::uint32_t kJournalSlots = 32;
constexpr std::uint64_t kJournalSlotBytes = 1u << 20;  // 1 MiB per record
constexpr std::uint64_t kJournalMagic = 0x314C4E524A4C4450ull;  // "PDLJRNL1"

struct JournalHeader {
  std::uint64_t magic = 0;
  std::uint64_t seq = 0;         ///< monotonic, orders replay
  std::uint32_t count = 0;       ///< entries in the body
  std::uint32_t body_bytes = 0;  ///< entries + payloads
  std::uint32_t crc = 0;         ///< CRC32C of the body
  std::uint32_t pad = 0;
};
static_assert(sizeof(JournalHeader) == 32);

struct JournalEntry {
  std::uint32_t disk = 0;
  std::uint32_t size = 0;
  std::uint64_t offset = 0;
};
static_assert(sizeof(JournalEntry) == 16);

/// fsync on a directory: makes the *names* created inside it (image
/// files, manifest, journal) durable, which fdatasync on the data fds
/// does not -- a crash right after create() must not lose the files
/// themselves.
[[nodiscard]] bool fsync_directory(const std::string& dir) noexcept {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

/// Journal bookkeeping: the slot allocator and counters behind a mutex;
/// journal_begin waits on the cv when every slot holds an un-retired
/// record (commits free slots, so waiting is bounded by in-flight
/// batches).
struct FileBackend::JournalState {
  std::mutex mutex;
  std::condition_variable cv;
  int fd = -1;
  std::uint64_t next_seq = 0;
  std::vector<bool> busy;
  FileJournalStats stats;
};

FileBackend::FileBackend(FileBackendOptions options)
    : options_(std::move(options)),
      journal_(std::make_unique<JournalState>()) {}

FileBackend::~FileBackend() { close_all(); }

void FileBackend::close_all() noexcept {
  for (const int fd : fds_)
    if (fd >= 0) ::close(fd);
  fds_.clear();
  if (journal_ && journal_->fd >= 0) {
    ::close(journal_->fd);
    journal_->fd = -1;
  }
}

std::string FileBackend::disk_path(DiskId disk) const {
  char name[32];
  std::snprintf(name, sizeof name, "disk-%04u.img", disk);
  return (std::filesystem::path(options_.directory) / name).string();
}

Status FileBackend::check(DiskId disk, std::uint64_t offset,
                          std::uint64_t size) const {
  return detail::check_range(name(), disk, offset, size, geometry_);
}

Status FileBackend::open(const BackendGeometry& geometry) {
  if (geometry.num_disks == 0)
    return Status::invalid_argument("file backend: zero disks");
  if (options_.directory.empty())
    return Status::invalid_argument("file backend: empty directory");
  if (!fds_.empty())
    return Status::failed_precondition("file backend: already open");

  std::error_code ec;
  std::filesystem::create_directories(options_.directory, ec);
  if (ec)
    return Status::io_error("create_directories " + options_.directory +
                            ": " + ec.message());

  // Geometry manifest: refuse to adopt a directory persisted under a
  // different array shape (image sizes alone cannot distinguish, e.g.,
  // fewer disks of the same size -- O_CREAT would silently add fresh
  // zero disks and scramble the parity discipline).  Layout identity
  // beyond the geometry (construction, sparing) is the caller's to pin,
  // e.g. via api::Array::save/load beside the images.
  const std::string manifest_path =
      (std::filesystem::path(options_.directory) / kManifestName).string();
  const std::string manifest_want =
      "pdl-file-backend v1\nnum_disks " +
      std::to_string(geometry.num_disks) + "\ndisk_bytes " +
      std::to_string(geometry.disk_bytes) + "\n";
  if (std::filesystem::exists(manifest_path)) {
    std::string manifest_have;
    if (FILE* f = std::fopen(manifest_path.c_str(), "rb")) {
      char buf[256];
      const std::size_t n = std::fread(buf, 1, sizeof buf, f);
      std::fclose(f);
      manifest_have.assign(buf, n);
    }
    if (manifest_have != manifest_want)
      return Status::failed_precondition(
          "file backend: " + manifest_path +
          " was written for a different geometry (wrong spec/unit_bytes/"
          "iterations for this directory?); expected\n" + manifest_want +
          "found\n" + manifest_have);
  } else {
    FILE* f = std::fopen(manifest_path.c_str(), "wb");
    if (!f) return Status::io_error(errno_text("fopen", manifest_path));
    const bool wrote = std::fwrite(manifest_want.data(), 1,
                                   manifest_want.size(), f) ==
                           manifest_want.size() &&
                       std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
    if (std::fclose(f) != 0 || !wrote)
      return Status::io_error(errno_text("write", manifest_path));
  }

  geometry_ = geometry;
  fds_.assign(geometry.num_disks, -1);
  for (DiskId disk = 0; disk < geometry.num_disks; ++disk) {
    const std::string path = disk_path(disk);
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) {
      Status failed = Status::io_error(errno_text("open", path));
      close_all();
      return failed;
    }
    fds_[disk] = fd;

    struct stat st {};
    if (::fstat(fd, &st) != 0) {
      Status failed = Status::io_error(errno_text("fstat", path));
      close_all();
      return failed;
    }
    const auto size = static_cast<std::uint64_t>(st.st_size);
    if (size == 0) {
      // Fresh image: materialize disk_bytes of zeros (sparse where the
      // filesystem allows).
      if (::ftruncate(fd, static_cast<off_t>(geometry.disk_bytes)) != 0) {
        Status failed = Status::io_error(errno_text("ftruncate", path));
        close_all();
        return failed;
      }
    } else if (size != geometry.disk_bytes) {
      // A wrong-sized image means the caller's geometry disagrees with
      // what was persisted; resizing would silently corrupt parity.
      Status failed = Status::failed_precondition(
          "file backend: " + path + " is " + std::to_string(size) +
          " bytes but the geometry needs " +
          std::to_string(geometry.disk_bytes) +
          " (wrong unit_bytes/iterations/spec for this directory?)");
      close_all();
      return failed;
    }
    // size == disk_bytes: reopened image, adopt its bytes as-is.
  }

  if (Status journal = open_journal(); !journal.ok()) {
    close_all();
    return journal;
  }

  // Make the directory entries themselves durable: fdatasync on the data
  // fds persists *contents*, but a crash right after create() could still
  // lose the freshly created image/manifest/journal names without this.
  if (!fsync_directory(options_.directory)) {
    Status failed = Status::io_error(errno_text("fsync", options_.directory));
    close_all();
    return failed;
  }
  return OkStatus();
}

// ----------------------------------------------------------------- journal

Status FileBackend::open_journal() {
  const std::string path =
      (std::filesystem::path(options_.directory) / kJournalName).string();
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return Status::io_error(errno_text("open", path));
  constexpr std::uint64_t kJournalBytes =
      static_cast<std::uint64_t>(kJournalSlots) * kJournalSlotBytes;
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::io_error(errno_text("fstat", path));
  }
  if (static_cast<std::uint64_t>(st.st_size) != kJournalBytes &&
      ::ftruncate(fd, static_cast<off_t>(kJournalBytes)) != 0) {
    ::close(fd);
    return Status::io_error(errno_text("ftruncate", path));
  }
  journal_->fd = fd;
  journal_->busy.assign(kJournalSlots, false);
  journal_->next_seq = 0;
  return replay_journal();
}

Status FileBackend::replay_journal() {
  const std::string path =
      (std::filesystem::path(options_.directory) / kJournalName).string();

  // Collect the valid un-retired records, ordered by sequence so replay
  // reproduces the original write order when records overlap.
  struct Pending {
    std::uint32_t slot = 0;
    std::uint64_t seq = 0;
  };
  std::vector<Pending> pending;
  for (std::uint32_t slot = 0; slot < kJournalSlots; ++slot) {
    const std::uint64_t base = slot * kJournalSlotBytes;
    JournalHeader header;
    if (!pread_all(journal_->fd, reinterpret_cast<std::uint8_t*>(&header),
                   sizeof header, base))
      return Status::io_error(errno_text("pread", path));
    if (header.magic != kJournalMagic) continue;  // free / retired slot
    pending.push_back({slot, header.seq});
    journal_->next_seq = std::max(journal_->next_seq, header.seq);
  }
  std::sort(pending.begin(), pending.end(),
            [](const Pending& a, const Pending& b) { return a.seq < b.seq; });

  std::vector<std::uint8_t> record;
  for (const Pending& p : pending) {
    const std::uint64_t base = p.slot * kJournalSlotBytes;
    JournalHeader header;
    if (!pread_all(journal_->fd, reinterpret_cast<std::uint8_t*>(&header),
                   sizeof header, base))
      return Status::io_error(errno_text("pread", path));

    // Structural validation before trusting any field, then the body
    // checksum: anything off means the append itself tore -- its
    // in-place writes were never issued, so discarding loses nothing.
    bool valid = header.body_bytes <= kJournalSlotBytes - sizeof header &&
                 header.count > 0 &&
                 static_cast<std::uint64_t>(header.count) *
                         sizeof(JournalEntry) <=
                     header.body_bytes;
    if (valid) {
      record.resize(header.body_bytes);
      if (!pread_all(journal_->fd, record.data(), record.size(),
                     base + sizeof header))
        return Status::io_error(errno_text("pread", path));
      valid = core::crc32c(record) == header.crc;
    }
    if (valid) {
      // Entry-table sanity against the payload region and the geometry.
      std::uint64_t payload = header.count * sizeof(JournalEntry);
      for (std::uint32_t i = 0; valid && i < header.count; ++i) {
        JournalEntry entry;
        std::memcpy(&entry, record.data() + i * sizeof entry, sizeof entry);
        valid = entry.disk < geometry_.num_disks &&
                entry.offset <= geometry_.disk_bytes &&
                entry.size <= geometry_.disk_bytes - entry.offset &&
                payload + entry.size <= header.body_bytes;
        payload += entry.size;
      }
      valid = valid && payload == header.body_bytes;
    }

    if (valid) {
      // Re-apply the whole record: replay is idempotent (full new
      // payloads, not deltas), landing every addressed range in the
      // batch's post-image regardless of how far the crashed process
      // got with its in-place writes.
      std::uint64_t payload = header.count * sizeof(JournalEntry);
      for (std::uint32_t i = 0; i < header.count; ++i) {
        JournalEntry entry;
        std::memcpy(&entry, record.data() + i * sizeof entry, sizeof entry);
        if (!pwrite_all(fds_[entry.disk], record.data() + payload, entry.size,
                        entry.offset))
          return Status::io_error(errno_text("pwrite", disk_path(entry.disk)));
        payload += entry.size;
      }
      ++journal_->stats.replayed;
    } else {
      ++journal_->stats.discarded;
    }

    // Retire the slot either way.
    const std::uint64_t zero = 0;
    if (!pwrite_all(journal_->fd,
                    reinterpret_cast<const std::uint8_t*>(&zero), sizeof zero,
                    base))
      return Status::io_error(errno_text("pwrite", path));
  }
  return OkStatus();
}

Result<std::uint64_t> FileBackend::journal_begin(
    std::span<const IoRequest> batch) {
  if (journal_->fd < 0)
    return Status::failed_precondition("file backend: not open");

  std::uint32_t count = 0;
  std::uint64_t body_bytes = 0;
  for (const IoRequest& request : batch) {
    if (request.op != IoRequest::Op::kWrite) continue;
    ++count;
    body_bytes += sizeof(JournalEntry) + request.write_buf.size();
  }
  if (count == 0)
    return Status::unsupported("batch holds no writes to journal");
  if (sizeof(JournalHeader) + body_bytes > kJournalSlotBytes)
    return Status::unsupported(
        "batch exceeds the journal record capacity (" +
        std::to_string(body_bytes) + " bytes)");

  std::uint32_t slot = 0;
  std::uint64_t seq = 0;
  {
    std::unique_lock lock(journal_->mutex);
    journal_->cv.wait(lock, [&] {
      for (std::uint32_t s = 0; s < kJournalSlots; ++s)
        if (!journal_->busy[s]) {
          slot = s;
          return true;
        }
      return false;
    });
    journal_->busy[slot] = true;
    seq = ++journal_->next_seq;
    ++journal_->stats.records;
  }

  // One contiguous record -- header, entry table, payloads -- appended
  // with a single pwrite so a crash tears at most this record (and the
  // body CRC then invalidates it wholesale).
  std::vector<std::uint8_t> record(sizeof(JournalHeader) +
                                   static_cast<std::size_t>(body_bytes));
  std::size_t entry_at = sizeof(JournalHeader);
  std::size_t payload_at =
      sizeof(JournalHeader) + count * sizeof(JournalEntry);
  for (const IoRequest& request : batch) {
    if (request.op != IoRequest::Op::kWrite) continue;
    JournalEntry entry;
    entry.disk = request.disk;
    entry.size = static_cast<std::uint32_t>(request.write_buf.size());
    entry.offset = request.offset;
    std::memcpy(record.data() + entry_at, &entry, sizeof entry);
    entry_at += sizeof entry;
    std::memcpy(record.data() + payload_at, request.write_buf.data(),
                request.write_buf.size());
    payload_at += request.write_buf.size();
  }
  JournalHeader header;
  header.magic = kJournalMagic;
  header.seq = seq;
  header.count = count;
  header.body_bytes = static_cast<std::uint32_t>(body_bytes);
  header.crc = core::crc32c(
      std::span<const std::uint8_t>(record).subspan(sizeof(JournalHeader)));
  std::memcpy(record.data(), &header, sizeof header);

  const std::uint64_t base =
      static_cast<std::uint64_t>(slot) * kJournalSlotBytes;
  bool wrote = pwrite_all(journal_->fd, record.data(), record.size(), base);
  if (wrote && options_.sync_on_write)
    wrote = ::fdatasync(journal_->fd) == 0;
  if (!wrote) {
    Status failed = Status::io_error(errno_text(
        "pwrite",
        (std::filesystem::path(options_.directory) / kJournalName).string()));
    std::lock_guard lock(journal_->mutex);
    journal_->busy[slot] = false;
    --journal_->stats.records;
    journal_->cv.notify_one();
    return failed;
  }
  return static_cast<std::uint64_t>(slot);
}

Status FileBackend::journal_commit(std::uint64_t token) {
  if (journal_->fd < 0)
    return Status::failed_precondition("file backend: not open");
  if (token >= kJournalSlots)
    return Status::invalid_argument("journal token " + std::to_string(token) +
                                    " out of range");
  {
    std::lock_guard lock(journal_->mutex);
    if (!journal_->busy[static_cast<std::uint32_t>(token)])
      return Status::failed_precondition(
          "journal token " + std::to_string(token) + " is not outstanding");
  }
  // Retire by zeroing the magic BEFORE releasing the slot, so a new
  // record can never race its own slot's retirement.
  const std::uint64_t zero = 0;
  if (!pwrite_all(journal_->fd, reinterpret_cast<const std::uint8_t*>(&zero),
                  sizeof zero, token * kJournalSlotBytes))
    return Status::io_error(errno_text(
        "pwrite",
        (std::filesystem::path(options_.directory) / kJournalName).string()));
  std::lock_guard lock(journal_->mutex);
  journal_->busy[static_cast<std::uint32_t>(token)] = false;
  ++journal_->stats.commits;
  journal_->cv.notify_one();
  return OkStatus();
}

FileJournalStats FileBackend::journal_stats() const {
  std::lock_guard lock(journal_->mutex);
  return journal_->stats;
}

Status FileBackend::read(DiskId disk, std::uint64_t offset,
                         std::span<std::uint8_t> out) {
  if (Status ok = check(disk, offset, out.size()); !ok.ok()) return ok;
  if (!pread_all(fds_[disk], out.data(), out.size(), offset))
    return Status::io_error(errno_text("pread", disk_path(disk)));
  return OkStatus();
}

Status FileBackend::write(DiskId disk, std::uint64_t offset,
                          std::span<const std::uint8_t> data) {
  if (Status ok = check(disk, offset, data.size()); !ok.ok()) return ok;
  if (!pwrite_all(fds_[disk], data.data(), data.size(), offset))
    return Status::io_error(errno_text("pwrite", disk_path(disk)));
  if (options_.sync_on_write && ::fdatasync(fds_[disk]) != 0)
    return Status::io_error(errno_text("fdatasync", disk_path(disk)));
  return OkStatus();
}

Status FileBackend::sync(DiskId disk) {
  if (Status ok = check(disk, 0, 0); !ok.ok()) return ok;
  if (::fdatasync(fds_[disk]) != 0)
    return Status::io_error(errno_text("fdatasync", disk_path(disk)));
  return OkStatus();
}

Status FileBackend::discard(DiskId disk, std::uint8_t fill) {
  if (Status ok = check(disk, 0, 0); !ok.ok()) return ok;
  // Overwrite the whole image in chunks; 1 MiB keeps the buffer modest
  // while amortizing syscalls.
  constexpr std::size_t kChunk = 1u << 20;
  std::vector<std::uint8_t> chunk(
      static_cast<std::size_t>(std::min<std::uint64_t>(kChunk,
                                                       geometry_.disk_bytes)),
      fill);
  std::uint64_t offset = 0;
  while (offset < geometry_.disk_bytes) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(chunk.size(), geometry_.disk_bytes - offset));
    // Through write(), so sync_on_write covers the fill too.
    if (Status wrote = write(disk, offset, {chunk.data(), n}); !wrote.ok())
      return wrote;
    offset += n;
  }
  return OkStatus();
}

}  // namespace pdl::io
