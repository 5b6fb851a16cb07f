#include "io/disk_backend.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <mutex>
#include <random>
#include <thread>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace pdl::io {

namespace detail {

Status check_range(std::string_view backend, DiskId disk,
                   std::uint64_t offset, std::uint64_t size,
                   const BackendGeometry& geometry) {
  if (disk < geometry.num_disks && offset <= geometry.disk_bytes &&
      size <= geometry.disk_bytes - offset)
    return OkStatus();
  if (disk >= geometry.num_disks)
    return Status::invalid_argument(std::string(backend) + ": disk " +
                                    std::to_string(disk) + " out of range (" +
                                    std::to_string(geometry.num_disks) +
                                    " disks)");
  return Status::invalid_argument(
      std::string(backend) + ": range [" + std::to_string(offset) + ", " +
      std::to_string(offset + size) + ") past disk end (" +
      std::to_string(geometry.disk_bytes) + " bytes)");
}

}  // namespace detail

Status DiskBackend::execute_batch(std::span<IoRequest> batch) {
  // Sequential reference semantics: every backend is batched-capable.
  // Failed requests do not abort their batchmates (they are independent
  // units); the first failure is the aggregate return.
  Status first;
  for (IoRequest& request : batch) {
    request.status = request.op == IoRequest::Op::kRead
                         ? read(request.disk, request.offset, request.read_buf)
                         : write(request.disk, request.offset,
                                 request.write_buf);
    if (!request.status.ok() && first.ok()) first = request.status;
  }
  return first;
}

// ---------------------------------------------------------------- memory

Status MemoryBackend::check(DiskId disk, std::uint64_t offset,
                            std::uint64_t size) const {
  return detail::check_range(name(), disk, offset, size, geometry_);
}

namespace {

[[nodiscard]] std::size_t round_up(std::size_t bytes, std::size_t align) {
  return (bytes + align - 1) / align * align;
}

/// Marks the bytes between two disks unaddressable to ASan (or
/// addressable again before they are unmapped); a no-op in other builds.
void poison_gap(const std::uint8_t* gap, std::size_t size, bool poisoned) {
#if defined(__SANITIZE_ADDRESS__)
  if (poisoned)
    ASAN_POISON_MEMORY_REGION(gap, size);
  else
    ASAN_UNPOISON_MEMORY_REGION(gap, size);
#else
  (void)gap, (void)size, (void)poisoned;
#endif
}

/// Makes [bytes, bytes + size) resident and writable now, so no later
/// access takes a first-touch fault: in the kernel where it can, else by
/// writing one byte of each page.
void prefault(std::uint8_t* bytes, std::size_t size, std::size_t page) {
#if defined(MADV_POPULATE_WRITE)
  if (::madvise(bytes, size, MADV_POPULATE_WRITE) == 0) return;
#endif
  for (std::size_t offset = 0; offset < size; offset += page)
    bytes[offset] = 0;
}

}  // namespace

MemoryBackend::~MemoryBackend() { unmap(); }

void MemoryBackend::unmap() noexcept {
  if (mapping_ == nullptr) return;
  for (DiskId disk = 0; disk < geometry_.num_disks; ++disk)
    poison_gap(bytes(disk) + geometry_.disk_bytes,
               stride_ - geometry_.disk_bytes, false);
  (void)::munmap(mapping_, mapping_bytes_);
  mapping_ = nullptr;
  mapping_bytes_ = 0;
  disks_ = nullptr;
  stride_ = 0;
  geometry_ = {};
}

Status MemoryBackend::open(const BackendGeometry& geometry) {
  if (geometry.num_disks == 0)
    return Status::invalid_argument("memory backend: zero disks");
  // Bound the sizes below away from overflow; mmap refuses far less.
  if (geometry.disk_bytes >
      std::numeric_limits<std::size_t>::max() / 4 / geometry.num_disks)
    return Status::invalid_argument(
        "memory backend: " + std::to_string(geometry.num_disks) +
        " disks of " + std::to_string(geometry.disk_bytes) +
        " bytes exceed the address space");
  unmap();

  // A disk that can hold a huge page starts on a huge-page boundary, so
  // every whole 2 MiB of it can be one.  At least one page that holds no
  // disk bytes follows each disk: ASan poisons it, and it keeps each
  // disk's advice off its neighbours.
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const bool huge = geometry.disk_bytes >= kHugePageBytes;
  const std::size_t align = huge ? kHugePageBytes : page;
  const std::size_t disk_pages = round_up(geometry.disk_bytes, page);
  const std::size_t stride = round_up(disk_pages + page, align);
  const std::size_t size = geometry.num_disks * stride + align - page;

  void* mapping = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapping == MAP_FAILED)
    return Status::io_error("memory backend: mmap of " +
                            std::to_string(size) +
                            " bytes failed: " + std::strerror(errno));
  mapping_ = mapping;
  mapping_bytes_ = size;
  disks_ = static_cast<std::uint8_t*>(mapping) +
           (round_up(reinterpret_cast<std::uintptr_t>(mapping), align) -
            reinterpret_cast<std::uintptr_t>(mapping));
  stride_ = stride;
  geometry_ = geometry;
  for (DiskId disk = 0; disk < geometry.num_disks; ++disk) {
#if defined(MADV_HUGEPAGE)
    // Advice only: where the kernel refuses it, 4 KiB pages serve.
    if (huge) (void)::madvise(bytes(disk), disk_pages, MADV_HUGEPAGE);
#endif
    prefault(bytes(disk), disk_pages, page);
    poison_gap(bytes(disk) + geometry.disk_bytes,
               stride - geometry.disk_bytes, true);
  }
  return OkStatus();
}

Status MemoryBackend::read(DiskId disk, std::uint64_t offset,
                           std::span<std::uint8_t> out) {
  if (Status ok = check(disk, offset, out.size()); !ok.ok()) return ok;
  std::memcpy(out.data(), bytes(disk) + offset, out.size());
  return OkStatus();
}

Status MemoryBackend::write(DiskId disk, std::uint64_t offset,
                            std::span<const std::uint8_t> data) {
  if (Status ok = check(disk, offset, data.size()); !ok.ok()) return ok;
  std::memcpy(bytes(disk) + offset, data.data(), data.size());
  return OkStatus();
}

Status MemoryBackend::sync(DiskId disk) {
  return check(disk, 0, 0);  // memory is always "durable"
}

Status MemoryBackend::discard(DiskId disk, std::uint8_t fill) {
  if (Status ok = check(disk, 0, 0); !ok.ok()) return ok;
  std::memset(bytes(disk), fill, geometry_.disk_bytes);
  return OkStatus();
}

std::span<std::uint8_t> MemoryBackend::memory_view(DiskId disk) noexcept {
  if (disk >= geometry_.num_disks) return {};
  return {bytes(disk), geometry_.disk_bytes};
}

// ------------------------------------------------------- fault injection

struct FaultInjectionBackend::Impl {
  mutable std::mutex mutex;
  std::mt19937_64 rng;
  std::uniform_real_distribution<double> unit{0.0, 1.0};
  FaultInjectionStats stats;
  /// Scripted rot ordinals: the options' list plus arm_rot_on_reads()
  /// appends, consulted under the mutex so runtime arming is race-free.
  std::vector<std::uint64_t> rot_read_ops;

  explicit Impl(std::uint64_t seed) : rng(seed) {}
};

FaultInjectionBackend::FaultInjectionBackend(
    std::unique_ptr<DiskBackend> inner, const FaultInjectionOptions& options)
    : inner_(std::move(inner)),
      options_(options),
      impl_(std::make_unique<Impl>(options.seed)) {
  impl_->rot_read_ops = options_.rot_read_ops;
}

FaultInjectionBackend::~FaultInjectionBackend() = default;

Status FaultInjectionBackend::open(const BackendGeometry& geometry) {
  if (!inner_)
    return Status::invalid_argument("fault injection: no inner backend");
  return inner_->open(geometry);
}

Status FaultInjectionBackend::read(DiskId disk, std::uint64_t offset,
                                   std::span<std::uint8_t> out) {
  if (options_.read_latency_us > 0)
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.read_latency_us));

  bool inject_error = false;
  bool inject_rot = false;
  std::uint64_t rot_bit = 0;
  {
    std::lock_guard lock(impl_->mutex);
    ++impl_->stats.reads;
    const bool scripted_rot =
        !out.empty() &&
        std::find(impl_->rot_read_ops.begin(), impl_->rot_read_ops.end(),
                  impl_->stats.reads) != impl_->rot_read_ops.end();
    if (options_.read_error_probability > 0 &&
        impl_->unit(impl_->rng) < options_.read_error_probability) {
      inject_error = true;
      ++impl_->stats.injected_read_errors;
    } else if (scripted_rot) {
      inject_rot = true;
      rot_bit = impl_->rng() % (out.size() * 8);
    } else if (!out.empty() && options_.bit_rot_probability > 0 &&
               impl_->unit(impl_->rng) < options_.bit_rot_probability) {
      inject_rot = true;
      rot_bit = impl_->rng() % (out.size() * 8);
    }
  }
  if (inject_error)
    return Status::io_error("injected transient read error (disk " +
                            std::to_string(disk) + ", offset " +
                            std::to_string(offset) + ")");

  if (Status read = inner_->read(disk, offset, out); !read.ok()) return read;
  if (inject_rot) {
    // Count the flip only now that it is actually applied to a payload
    // the caller will see (an inner-read failure above aborts it).
    out[rot_bit / 8] ^= static_cast<std::uint8_t>(1u << (rot_bit % 8));
    std::lock_guard lock(impl_->mutex);
    ++impl_->stats.injected_bit_flips;
  }
  return OkStatus();
}

Status FaultInjectionBackend::write(DiskId disk, std::uint64_t offset,
                                    std::span<const std::uint8_t> data) {
  if (options_.write_latency_us > 0)
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.write_latency_us));

  bool inject_error = false;
  {
    std::lock_guard lock(impl_->mutex);
    ++impl_->stats.writes;
    const bool scripted =
        std::find(options_.fail_write_ops.begin(),
                  options_.fail_write_ops.end(),
                  impl_->stats.writes) != options_.fail_write_ops.end();
    if (scripted || (options_.write_error_probability > 0 &&
                     impl_->unit(impl_->rng) <
                         options_.write_error_probability)) {
      inject_error = true;
      ++impl_->stats.injected_write_errors;
    }
  }
  if (inject_error)
    return Status::io_error("injected transient write error (disk " +
                            std::to_string(disk) + ", offset " +
                            std::to_string(offset) + ")");
  return inner_->write(disk, offset, data);
}

Status FaultInjectionBackend::sync(DiskId disk) { return inner_->sync(disk); }

Status FaultInjectionBackend::discard(DiskId disk, std::uint8_t fill) {
  return inner_->discard(disk, fill);
}

FaultInjectionStats FaultInjectionBackend::stats() const {
  std::lock_guard lock(impl_->mutex);
  return impl_->stats;
}

void FaultInjectionBackend::arm_rot_on_reads(
    std::span<const std::uint64_t> ordinals) {
  std::lock_guard lock(impl_->mutex);
  impl_->rot_read_ops.insert(impl_->rot_read_ops.end(), ordinals.begin(),
                             ordinals.end());
}

// ------------------------------------------------------------- factories

std::unique_ptr<DiskBackend> make_memory_backend() {
  return std::make_unique<MemoryBackend>();
}

std::unique_ptr<DiskBackend> make_file_backend(FileBackendOptions options) {
  return std::make_unique<FileBackend>(std::move(options));
}

std::unique_ptr<DiskBackend> make_fault_injection_backend(
    std::unique_ptr<DiskBackend> inner,
    const FaultInjectionOptions& options) {
  return std::make_unique<FaultInjectionBackend>(std::move(inner), options);
}

}  // namespace pdl::io
