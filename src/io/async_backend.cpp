#include "io/async_backend.hpp"

// Engine internals.  One DiskQueue per disk: a mutex-guarded pending
// list the schedulers pick from, drained by one worker thread.  The
// worker gathers a dispatch chain (scheduler pick + adjacent-range
// coalescing), then executes it through the inner backend's read/write.
//
// Completion = write the request's status, decrement its batch's
// remaining count under the batch mutex, notify waiters.  All caller
// visibility (statuses, read payloads) synchronizes through that mutex.

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

namespace pdl::io {

// ----------------------------------------------------------- batch state

struct AsyncDiskBackend::Submission::State {
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t remaining = 0;
  Status first_error;
};

AsyncDiskBackend::Submission::~Submission() {
  if (!state_) return;
  std::unique_lock lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->remaining == 0; });
}

// ------------------------------------------------------------------ impl

namespace {

struct Node {
  IoRequest* request = nullptr;
  std::shared_ptr<AsyncDiskBackend::Submission::State> batch;
  std::uint64_t seq = 0;
  std::uint64_t enqueue_us = 0;
  /// The engine's completed-requests counter, bumped BEFORE the batch
  /// waiter wakes, so once wait() returns stats().completed accounts
  /// for every request of the waited batch.
  std::atomic<std::uint64_t>* completed = nullptr;
};

struct DiskQueue {
  std::mutex mutex;
  std::condition_variable wake;    ///< worker wakeups
  std::condition_variable drained; ///< drain() waiters
  std::vector<Node> pending;
  std::size_t in_flight = 0;  ///< nodes popped, not yet completed
  bool stop = false;
  std::unique_ptr<IoScheduler> scheduler;
  std::thread worker;
};

}  // namespace

struct AsyncDiskBackend::Impl {
  std::vector<std::unique_ptr<DiskQueue>> queues;
  std::uint64_t next_seq = 0;  ///< guarded by stats_mutex
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();

  mutable std::mutex stats_mutex;
  AsyncBackendStats stats;  ///< all fields except `completed` (atomic below)
  /// Requests completed, counted in complete_node before the waiter
  /// wakes (the mutex-guarded fields are engine-side bookkeeping and
  /// may lag a chain behind).
  std::atomic<std::uint64_t> completed{0};

  [[nodiscard]] std::uint64_t now_us() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
  }
};

AsyncDiskBackend::AsyncDiskBackend(std::unique_ptr<DiskBackend> inner,
                                   AsyncBackendOptions options)
    : inner_(std::move(inner)),
      options_(std::move(options)),
      impl_(std::make_unique<Impl>()) {
  // Validate the policy name eagerly: a typo should fail at
  // construction, not first dispatch.
  (void)make_io_scheduler(options_.scheduler);
}

AsyncDiskBackend::~AsyncDiskBackend() {
  for (const auto& queue : impl_->queues) {
    std::lock_guard lock(queue->mutex);
    queue->stop = true;
    queue->wake.notify_all();
  }
  for (const auto& queue : impl_->queues)
    if (queue->worker.joinable()) queue->worker.join();
}

AsyncBackendStats AsyncDiskBackend::stats() const {
  std::lock_guard lock(impl_->stats_mutex);
  AsyncBackendStats snapshot = impl_->stats;
  snapshot.completed = impl_->completed.load(std::memory_order_relaxed);
  return snapshot;
}

// ------------------------------------------------------------ completion

namespace {

/// Finishes one node: status, completion count, batch bookkeeping,
/// waiter wakeup -- in that order, so the count is visible to anyone
/// the wakeup releases.
void complete_node(const Node& node, const Status& status) {
  node.request->status = status;
  node.completed->fetch_add(1, std::memory_order_relaxed);
  auto& batch = *node.batch;
  std::lock_guard lock(batch.mutex);
  if (!status.ok() && batch.first_error.ok()) batch.first_error = status;
  if (--batch.remaining == 0) batch.cv.notify_all();
}

/// A dispatch chain: coalesced, offset-ascending, same-direction nodes.
struct Chain {
  std::vector<Node> nodes;
  std::uint64_t lo = 0;  ///< first byte
  std::uint64_t hi = 0;  ///< one past last byte

  [[nodiscard]] IoRequest::Op op() const noexcept {
    return nodes.front().request->op;
  }
  [[nodiscard]] std::uint64_t size() const noexcept { return hi - lo; }
};

/// Executes one chain through the inner backend's read/write.  Merged
/// chains stage through `staging`, a grow-only buffer the worker owns;
/// every node gets the merged op's status.
void execute_chain(DiskBackend& inner, DiskId disk, const Chain& chain,
                   std::vector<std::uint8_t>& staging) {
  Status status;
  if (chain.nodes.size() == 1) {
    IoRequest& request = *chain.nodes.front().request;
    status = request.op == IoRequest::Op::kRead
                 ? inner.read(disk, request.offset, request.read_buf)
                 : inner.write(disk, request.offset, request.write_buf);
  } else {
    if (staging.size() < chain.size()) staging.resize(chain.size());
    const std::span<std::uint8_t> buffer(staging.data(), chain.size());
    if (chain.op() == IoRequest::Op::kWrite) {
      for (const Node& node : chain.nodes)
        std::memcpy(buffer.data() + (node.request->offset - chain.lo),
                    node.request->write_buf.data(),
                    node.request->write_buf.size());
      status = inner.write(disk, chain.lo, buffer);
    } else {
      status = inner.read(disk, chain.lo, buffer);
      if (status.ok())
        for (const Node& node : chain.nodes)
          std::memcpy(node.request->read_buf.data(),
                      buffer.data() + (node.request->offset - chain.lo),
                      node.request->read_buf.size());
    }
  }
  for (const Node& node : chain.nodes) complete_node(node, status);
}

}  // namespace

// ------------------------------------------------------------ the worker

namespace {

/// Pops the scheduler's pick plus every exactly-adjacent same-direction
/// neighbour (when coalescing) from `pending`.  Caller holds the queue
/// lock.
[[nodiscard]] Chain gather_chain(DiskQueue& queue,
                                 const AsyncBackendOptions& options,
                                 std::vector<PendingIo>& view,
                                 std::uint64_t now_us) {
  view.clear();
  view.reserve(queue.pending.size());
  for (const Node& node : queue.pending)
    view.push_back({node.request->io_class, node.request->op,
                    node.request->offset, node.request->size(), node.seq,
                    node.enqueue_us});
  const std::size_t index = queue.scheduler->pick(view, now_us);
  assert(index < queue.pending.size());

  Chain chain;
  chain.nodes.push_back(queue.pending[index]);
  queue.pending.erase(queue.pending.begin() +
                      static_cast<std::ptrdiff_t>(index));
  chain.lo = chain.nodes.front().request->offset;
  chain.hi = chain.lo + chain.nodes.front().request->size();

  if (options.coalesce && chain.size() > 0) {
    bool grew = true;
    while (grew && chain.size() < options.max_coalesced_bytes) {
      grew = false;
      for (auto it = queue.pending.begin(); it != queue.pending.end(); ++it) {
        const IoRequest& request = *it->request;
        const std::uint64_t size = request.size();
        if (request.op != chain.op() || size == 0) continue;
        if (request.offset == chain.hi) {
          chain.nodes.push_back(*it);
          chain.hi += size;
        } else if (request.offset + size == chain.lo) {
          chain.nodes.insert(chain.nodes.begin(), *it);
          chain.lo -= size;
        } else {
          continue;
        }
        queue.pending.erase(it);
        grew = true;
        break;
      }
    }
  }
  queue.in_flight += chain.nodes.size();
  return chain;
}

}  // namespace

void AsyncDiskBackend::worker_loop(DiskId disk) {
  DiskQueue& queue = *impl_->queues[disk];
  std::vector<std::uint8_t> staging;
  std::vector<PendingIo> view;

  for (;;) {
    Chain chain;
    {
      std::unique_lock lock(queue.mutex);
      queue.wake.wait(lock,
                      [&] { return queue.stop || !queue.pending.empty(); });
      if (queue.pending.empty()) break;  // stop requested, queue drained
      chain = gather_chain(queue, options_, view, impl_->now_us());
    }

    const std::uint64_t requests = chain.nodes.size();
    execute_chain(*inner_, disk, chain, staging);

    {
      std::lock_guard lock(impl_->stats_mutex);
      ++impl_->stats.substrate_ops;
      impl_->stats.coalesced += requests - 1;
    }
    {
      std::lock_guard lock(queue.mutex);
      queue.in_flight -= requests;
      if (queue.pending.empty() && queue.in_flight == 0)
        queue.drained.notify_all();
    }
  }
}

// ------------------------------------------------------ public interface

Status AsyncDiskBackend::open(const BackendGeometry& geometry) {
  if (!impl_->queues.empty())
    return Status::failed_precondition("async backend: already open");
  if (Status opened = inner_->open(geometry); !opened.ok()) return opened;

  impl_->queues.reserve(geometry.num_disks);
  for (DiskId disk = 0; disk < geometry.num_disks; ++disk) {
    auto queue = std::make_unique<DiskQueue>();
    queue->scheduler = make_io_scheduler(options_.scheduler);
    impl_->queues.push_back(std::move(queue));
  }
  for (DiskId disk = 0; disk < geometry.num_disks; ++disk)
    impl_->queues[disk]->worker =
        std::thread([this, disk] { worker_loop(disk); });
  return OkStatus();
}

AsyncDiskBackend::Submission AsyncDiskBackend::submit(
    std::span<IoRequest> batch) {
  Submission submission;
  submission.state_ = std::make_shared<Submission::State>();
  submission.state_->remaining = batch.size();
  if (batch.empty()) return submission;

  const std::uint64_t now = impl_->now_us();
  std::uint64_t base_seq;
  {
    std::lock_guard lock(impl_->stats_mutex);
    base_seq = impl_->next_seq;
    impl_->next_seq += batch.size();
    ++impl_->stats.batches;
    impl_->stats.submitted += batch.size();
    for (const IoRequest& request : batch)
      ++impl_->stats.by_class[static_cast<std::size_t>(request.io_class)];
  }

  std::uint64_t max_depth = 0;
  std::size_t invalid = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    IoRequest& request = batch[i];
    if (request.disk >= impl_->queues.size()) {
      // Never reaches a queue: complete inline so waiters still see a
      // fully accounted batch.
      complete_node(Node{&request, submission.state_, 0, 0,
                         &impl_->completed},
                    Status::invalid_argument(
                        "async backend: disk " + std::to_string(request.disk) +
                        " out of range (" +
                        std::to_string(impl_->queues.size()) + " disks)"));
      ++invalid;
      continue;
    }
    DiskQueue& queue = *impl_->queues[request.disk];
    std::lock_guard lock(queue.mutex);
    queue.pending.push_back(Node{&request, submission.state_, base_seq + i,
                                 now, &impl_->completed});
    max_depth = std::max(max_depth,
                         static_cast<std::uint64_t>(queue.pending.size()));
    queue.wake.notify_one();
  }
  if (max_depth > 0 || invalid > 0) {
    std::lock_guard lock(impl_->stats_mutex);
    impl_->stats.max_disk_queue = std::max(impl_->stats.max_disk_queue,
                                           max_depth);
  }
  return submission;
}

Status AsyncDiskBackend::wait(Submission& submission) {
  if (!submission.state_) return OkStatus();
  auto& state = *submission.state_;
  std::unique_lock lock(state.mutex);
  state.cv.wait(lock, [&] { return state.remaining == 0; });
  return state.first_error;
}

Status AsyncDiskBackend::execute_batch(std::span<IoRequest> batch) {
  Submission submission = submit(batch);
  return wait(submission);
}

Status AsyncDiskBackend::read(DiskId disk, std::uint64_t offset,
                              std::span<std::uint8_t> out) {
  IoRequest request =
      IoRequest::read_of(IoClass::kForegroundRead, disk, offset, out);
  return execute_batch({&request, 1});
}

Status AsyncDiskBackend::write(DiskId disk, std::uint64_t offset,
                               std::span<const std::uint8_t> data) {
  IoRequest request =
      IoRequest::write_of(IoClass::kForegroundWrite, disk, offset, data);
  return execute_batch({&request, 1});
}

Status AsyncDiskBackend::drain(DiskId disk) {
  if (disk >= impl_->queues.size())
    return Status::invalid_argument("async backend: disk " +
                                    std::to_string(disk) + " out of range (" +
                                    std::to_string(impl_->queues.size()) +
                                    " disks)");
  DiskQueue& queue = *impl_->queues[disk];
  std::unique_lock lock(queue.mutex);
  queue.drained.wait(
      lock, [&] { return queue.pending.empty() && queue.in_flight == 0; });
  return OkStatus();
}

Status AsyncDiskBackend::sync(DiskId disk) {
  if (Status ok = drain(disk); !ok.ok()) return ok;
  return inner_->sync(disk);
}

Status AsyncDiskBackend::discard(DiskId disk, std::uint8_t fill) {
  if (Status ok = drain(disk); !ok.ok()) return ok;
  return inner_->discard(disk, fill);
}

std::unique_ptr<AsyncDiskBackend> make_async_backend(
    std::unique_ptr<DiskBackend> inner, AsyncBackendOptions options) {
  return std::make_unique<AsyncDiskBackend>(std::move(inner),
                                            std::move(options));
}

}  // namespace pdl::io
