// pdl_bench -- the end-to-end benchmark of pdl's byte path.
//
// Three workloads drive io::StripeStore through this file's own load
// generator; README.md gives the reason for each.  Every unit the
// generator writes describes itself: bytes 0-15 hold (logical, version)
// and the rest is a splitmix64 stream seeded by that pair, so any read is
// checked without a shadow copy.  One client issues the measured traffic,
// so the last acknowledged version of every unit is known exactly and the
// closing sweep checks it.
//
//   pdl_bench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//             [--dir D] [--self-test]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics, or with --trace the per-layer ones.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/array.hpp"
#include "core/codec.hpp"
#include "core/crc32c.hpp"
#include "engine/engine.hpp"
#include "io/disk_backend.hpp"
#include "io/stripe_store.hpp"
#include "trace.hpp"

namespace pdl_bench {
namespace {

namespace api = pdl::api;
namespace core = pdl::core;
namespace io = pdl::io;
using pdl::Status;

constexpr std::uint32_t kUnitBytes = 4096;
constexpr std::uint32_t kDiskMib = 16;
constexpr std::uint64_t kSliceNs = 1'000'000'000;  // timings are per slice
constexpr std::size_t kMinSliceSamples = 100;
constexpr int kSetups = 5;          // setup_s is their median
constexpr double kWarmSeconds = 2;  // traffic before any timing
// The host lends the benchmark a few shared vCPUs; a client per vCPU
// measures its scheduler, not the store.  So one client drives the
// measured traffic, and only set-up and the closing sweep, which are not
// timed per op, use kLoadThreads.
constexpr std::uint32_t kLoadThreads = 4;

// Both profiles serve from io::MemoryBackend: on a VM, a file-backed
// store's timings follow the host's page cache and virtual disk, which
// moved them by 35-50% for minutes at a time.
enum class Profile : std::uint8_t {
  kXor,  // XOR parity; integrity and stripe cache off (library defaults)
  kRs,   // Reed-Solomon P+Q, CRC32C integrity, stripe cache (defaults)
};

struct Workload {
  const char* name;
  Profile profile;
  std::uint32_t v, k;
  double read_fraction;
  bool zipfian;   // scrambled zipfian (theta 0.99), else uniform
  bool degraded;  // traffic runs with one disk failed
};

// v=33, k=5 makes the planner choose the paper's stairway layout; v=17,
// k=5 a BIBD layout.
constexpr Workload kWorkloads[] = {
    {"oltp-xor", Profile::kXor, 33, 5, 0.70, false, false},
    {"hot-rs", Profile::kRs, 17, 5, 0.30, true, false},
    {"degraded-rs", Profile::kRs, 17, 5, 0.70, false, true},
};

struct Options {
  std::string workload;  // empty: every workload in turn
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  bool self_test = false;
  std::string dir = "build-bench/run";  // where --trace writes
};

// ------------------------------------------------------------ contents

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t body_seed(std::uint64_t logical, std::uint64_t version) noexcept {
  std::uint64_t state = logical * 0xD6E8FEB86659FD93ull ^ version;
  return splitmix64(state);
}

void fill_unit(std::uint64_t logical, std::uint64_t version,
               std::span<std::uint8_t> out) noexcept {
  std::memcpy(out.data(), &logical, 8);
  std::memcpy(out.data() + 8, &version, 8);
  std::uint64_t state = body_seed(logical, version);
  for (std::size_t i = 16; i + 8 <= out.size(); i += 8) {
    const std::uint64_t word = splitmix64(state);
    std::memcpy(out.data() + i, &word, 8);
  }
}

/// The version a unit's bytes carry, or nullopt when they are not bytes
/// fill_unit wrote for `logical`.
std::optional<std::uint64_t> unit_version(
    std::uint64_t logical, std::span<const std::uint8_t> in) noexcept {
  std::uint64_t head[2];
  std::memcpy(head, in.data(), 16);
  if (head[0] != logical) return std::nullopt;
  std::uint64_t state = body_seed(logical, head[1]);
  for (std::size_t i = 16; i + 8 <= in.size(); i += 8) {
    std::uint64_t word;
    std::memcpy(&word, in.data() + i, 8);
    if (word != splitmix64(state)) return std::nullopt;
  }
  return head[1];
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() noexcept { return splitmix64(state_); }
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }

 private:
  std::uint64_t state_;
};

/// YCSB's scrambled zipfian: a zipfian rank hashed over the key space, so
/// the hot keys are spread over stripes instead of packed at address 0.
class ScrambledZipf {
 public:
  ScrambledZipf(std::uint64_t n, double theta) : n_(n), theta_(theta) {
    double zetan = 0;
    for (std::uint64_t i = 1; i <= n; ++i)
      zetan += 1.0 / std::pow(static_cast<double>(i), theta);
    zetan_ = zetan;
    const double zeta2 = 1.0 + std::pow(0.5, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan);
  }

  std::uint64_t operator()(Rng& rng) const noexcept {
    const double u = rng.uniform();
    const double uz = u * zetan_;
    std::uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, theta_)) {
      rank = 1;
    } else {
      rank = std::min<std::uint64_t>(
          static_cast<std::uint64_t>(static_cast<double>(n_) *
                                     std::pow(eta_ * u - eta_ + 1.0, alpha_)),
          n_ - 1);
    }
    std::uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a over the rank
    for (int i = 0; i < 8; ++i) {
      h ^= (rank >> (8 * i)) & 0xff;
      h *= 0x100000001B3ull;
    }
    return h % n_;
  }

 private:
  std::uint64_t n_;
  double theta_;
  double zetan_ = 0, alpha_ = 0, eta_ = 0;
};

// ------------------------------------------------------------ statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The q-quantile of `v` (reordered), taken as the mean of the samples
/// ranked within half a percentile point of it: steadier than one order
/// statistic, and not quantized to whole nanoseconds.
double quantile(std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) return 0;
  const auto n = static_cast<double>(v.size());
  auto lo = static_cast<std::size_t>(std::max(0.0, (q - 0.005) * n));
  auto hi = static_cast<std::size_t>(std::ceil(std::min(n, (q + 0.005) * n)));
  lo = std::min(lo, v.size() - 1);
  hi = std::max(hi, lo + 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo),
                   v.end());
  if (hi > lo + 1)
    std::nth_element(v.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
                     v.begin() + static_cast<std::ptrdiff_t>(hi) - 1, v.end());
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

double seconds_between(std::uint64_t from_ns, std::uint64_t to_ns) noexcept {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

/// Latency samples of one op type, per one-second slice of traffic.  A
/// run reports each timing as the median over its slices, so one
/// disturbed second moves it little.
struct Latencies {
  std::vector<std::vector<std::uint32_t>> slices;

  void add(std::size_t slice, std::uint64_t ns) {
    if (slice >= slices.size()) slices.resize(slice + 1);
    slices[slice].push_back(clamp_ns(ns));
  }
  [[nodiscard]] std::size_t count(std::size_t slice) const {
    return slice < slices.size() ? slices[slice].size() : 0;
  }
  [[nodiscard]] std::size_t samples() const {
    std::size_t n = 0;
    for (const auto& s : slices) n += s.size();
    return n;
  }
  /// Median over slices of each slice's q-quantile, in microseconds.
  [[nodiscard]] double quantile_us(double q) const {
    std::vector<double> per_slice;
    for (const auto& slice : slices)
      if (slice.size() >= kMinSliceSamples) {
        std::vector<std::uint32_t> samples = slice;
        per_slice.push_back(quantile(samples, q) / 1e3);
      }
    return median(per_slice);
  }
  /// Median over slices of each slice's mean, in microseconds.
  [[nodiscard]] double mean_us() const {
    std::vector<double> per_slice;
    for (const auto& slice : slices)
      if (slice.size() >= kMinSliceSamples) {
        double sum = 0;
        for (const std::uint32_t ns : slice) sum += ns;
        per_slice.push_back(sum / static_cast<double>(slice.size()) / 1e3);
      }
    return median(per_slice);
  }
};

// ------------------------------------------------------------ the run

/// One rebuild cycle: a disk failed, replaced and rebuilt.
struct Cycle {
  double rebuild_s = 0;        // replace_disk call -> drained
  double fail_replace_ms = 0;  // fail_disk + replace_disk
  double read_skew = 0;        // max/mean rebuild reads per survivor
  std::vector<std::uint32_t> step_ns;  // each rebuild_some(1) call
};

/// What one traffic phase measured.
struct Phase {
  std::vector<double> slice_s;  // traffic seconds of each slice
  std::uint64_t reads = 0, writes = 0;
  std::uint64_t latency_sum_ns = 0;
  Latencies read_ns, write_ns;
  std::vector<Cycle> cycles;
  // Traced only: counts from the store's receipts.
  std::uint64_t touched = 0, degraded_reads = 0;
  std::uint64_t write_unit_reads = 0, write_unit_writes = 0;

  /// Median over slices of the ops completed per second.
  [[nodiscard]] double ops_per_s() const {
    std::vector<double> per_slice;
    for (std::size_t s = 0; s < slice_s.size(); ++s)
      per_slice.push_back(
          static_cast<double>(read_ns.count(s) + write_ns.count(s)) /
          slice_s[s]);
    return median(per_slice);
  }
  [[nodiscard]] double mean_latency_ns() const {
    const std::uint64_t ops = reads + writes;
    return ops ? static_cast<double>(latency_sum_ns) / static_cast<double>(ops)
               : 0;
  }
};

struct Run {
  explicit Run(const Workload& workload) : w(workload) {}

  const Workload& w;
  Tracer tracer;
  std::optional<io::StripeStore> store;
  // The last acknowledged version of each unit.  Preload threads write
  // disjoint entries; afterwards only the client writes.
  std::vector<std::uint32_t> acked;
  std::optional<ScrambledZipf> zipf;
  std::atomic<std::uint64_t> attempted{0}, failed{0};
  std::uint64_t next_disk = 0;  // disk of the next failure

  [[nodiscard]] std::uint64_t units() const {
    return store->num_logical_units();
  }
  [[nodiscard]] std::uint64_t address(Rng& rng) const {
    return zipf ? (*zipf)(rng) : rng.below(units());
  }
  void fail(const std::string& what) {
    if (failed.fetch_add(1, std::memory_order_relaxed) < 10)
      std::fprintf(stderr, "pdl_bench: %s: %s\n", w.name, what.c_str());
  }
  /// Times `fn`, one store call; records a span when `sampled`.
  template <typename Fn>
  auto call(const char* name, bool sampled, std::int64_t disk, Fn&& fn) {
    const std::uint64_t start = now_ns();
    auto result = fn();
    const std::uint64_t dur = now_ns() - start;
    if (sampled && tracer.on())
      tracer.record({name, start, dur, tracer.next_id(), disk, 0});
    attempted.fetch_add(1, std::memory_order_relaxed);
    return std::pair{std::move(result), dur};
  }
};

// ------------------------------------------------------------ set-up

struct SetupTimes {
  double total_s = 0;
  double create_ms = 0;
  double preload_mbps = 0;
};

/// Builds a fresh array and store (replacing any previous one) and writes
/// version 1 of every unit.
Status set_up(Run& run, SetupTimes& times) {
  run.store.reset();
  const bool rs = run.w.profile == Profile::kRs;

  const std::uint64_t t0 = now_ns();
  pdl::engine::Engine engine;  // fresh, so every set-up plans the layout
  api::ArrayOptions array_options;
  array_options.codec =
      rs ? core::CodecKind::kReedSolomonPQ : core::CodecKind::kXorParity;
  array_options.integrity = rs;
  auto array = api::Array::create_with(engine, {run.w.v, run.w.k}, {},
                                       array_options);
  if (!array.ok()) return array.status();
  const std::uint64_t t1 = now_ns();

  io::StripeStoreOptions store_options;
  store_options.unit_bytes = kUnitBytes;
  store_options.iterations = static_cast<std::uint32_t>(
      (std::uint64_t{kDiskMib} << 20) /
      (std::uint64_t{kUnitBytes} * array->units_per_disk()));
  store_options.cache.enabled = rs;
  auto store = io::StripeStore::create(std::move(*array), store_options,
                                       io::make_memory_backend());
  if (!store.ok()) return store.status();
  run.store.emplace(std::move(*store));
  const std::uint64_t n = run.units();
  run.acked.assign(n, 0);

  const std::uint64_t t2 = now_ns();
  std::vector<std::jthread> threads;
  for (std::uint32_t t = 0; t < kLoadThreads; ++t)
    threads.emplace_back([&run, t, n] {
      std::vector<std::uint8_t> buf(kUnitBytes);
      for (std::uint64_t a = t; a < n; a += kLoadThreads) {
        fill_unit(a, 1, buf);
        run.attempted.fetch_add(1, std::memory_order_relaxed);
        if (Status st = run.store->write(a, buf); !st.ok()) {
          run.fail("preload write " + std::to_string(a) + ": " + st.message());
          continue;
        }
        run.acked[a] = 1;
      }
    });
  for (auto& th : threads) th.join();
  if (Status st = run.store->sync(); !st.ok()) return st;
  const std::uint64_t t3 = now_ns();

  times.total_s = seconds_between(t0, t3);
  times.create_ms = static_cast<double>(t1 - t0) / 1e6;
  times.preload_mbps =
      static_cast<double>(n * kUnitBytes) / 1e6 / seconds_between(t2, t3);
  return pdl::OkStatus();
}

// ------------------------------------------------------------ rebuild

struct Failure {
  io::DiskId disk = 0;
  std::uint64_t fail_ns = 0;
};

/// Fails the next disk in turn.
std::optional<Failure> fail_next_disk(Run& run) {
  const auto disk = static_cast<io::DiskId>(run.next_disk++ % run.w.v);
  auto [st, ns] = run.call("store.fail_disk", true, disk,
                           [&] { return run.store->fail_disk(disk); });
  if (!st.ok()) {
    run.fail("fail_disk " + std::to_string(disk) + ": " + st.message());
    return std::nullopt;
  }
  return Failure{disk, ns};
}

/// replace_disk -> rebuild_some(1) until drained.
std::optional<Cycle> rebuild(Run& run, const Failure& failure) {
  Cycle cycle;
  const std::uint64_t start = now_ns();
  auto [replaced, replace_ns] =
      run.call("store.replace_disk", true, failure.disk,
               [&] { return run.store->replace_disk(failure.disk); });
  if (!replaced.ok()) {
    run.fail("replace_disk " + std::to_string(failure.disk) + ": " +
             replaced.message());
    return std::nullopt;
  }
  cycle.fail_replace_ms =
      static_cast<double>(failure.fail_ns + replace_ns) / 1e6;

  // Zero-copy rebuild reads make no backend call to count, so the plan's
  // reads per disk give the spread over survivors.
  if (run.tracer.on())
    if (auto plan = run.store->array().plan_rebuild(); plan.ok()) {
      double sum = 0, max = 0;
      std::size_t survivors = 0;
      for (std::size_t d = 0; d < plan->reads_per_disk.size(); ++d) {
        if (d == failure.disk) continue;
        const auto reads = static_cast<double>(plan->reads_per_disk[d]);
        sum += reads;
        max = std::max(max, reads);
        ++survivors;
      }
      if (sum > 0)
        cycle.read_skew = max / (sum / static_cast<double>(survivors));
    }

  for (std::uint64_t calls = 0;; ++calls) {
    std::uint64_t blocked = 0;
    // A span for every fourth step.
    auto [steps, ns] =
        run.call("store.rebuild_some", calls % 4 == 0, failure.disk,
                 [&] { return run.store->rebuild_some(1, &blocked); });
    if (!steps.ok()) {
      run.fail("rebuild_some: " + steps.status().message());
      return std::nullopt;
    }
    if (*steps == 0) {
      if (blocked != 0) {
        run.fail("rebuild blocked on " + std::to_string(blocked) + " units");
        return std::nullopt;
      }
      break;
    }
    cycle.step_ns.push_back(clamp_ns(ns));
  }
  cycle.rebuild_s = seconds_between(start, now_ns());
  return cycle;
}

// ------------------------------------------------------------ traffic

/// The client: draws ops from its own seeded stream and checks every
/// read outside the timed region.
class Client {
 public:
  Client(Run& run, std::uint64_t phase_seed)
      : run_(run),
        rng_(phase_seed * 0x9E3779B97F4A7C15ull + 1),
        buf_(kUnitBytes) {}

  /// Issues one op, timed into `slice`; returns the time it ended.
  std::uint64_t step(std::size_t slice, Phase& out) {
    const bool is_read = rng_.uniform() < run_.w.read_fraction;
    const std::uint64_t addr = run_.address(rng_);
    const bool traced = run_.tracer.on();
    io::ReadReceipt read_receipt;
    io::WriteReceipt write_receipt;
    std::uint64_t start = 0, end = 0;
    Status st;
    std::uint32_t& acked = run_.acked[addr];
    if (is_read) {
      start = now_ns();
      st = run_.store->read(addr, buf_, traced ? &read_receipt : nullptr);
      end = now_ns();
    } else {
      fill_unit(addr, acked + 1, buf_);
      start = now_ns();
      st = run_.store->write(addr, buf_, traced ? &write_receipt : nullptr);
      end = now_ns();
      if (st.ok()) ++acked;
    }

    const std::uint64_t latency = end - start;
    out.latency_sum_ns += latency;
    (is_read ? out.read_ns : out.write_ns).add(slice, latency);
    ++(is_read ? out.reads : out.writes);
    if (traced) {
      if (is_read) {
        out.touched += read_receipt.num_touched;
        out.degraded_reads +=
            read_receipt.kind == api::ReadPlan::Kind::kDegraded;
      } else {
        out.write_unit_reads += write_receipt.num_reads;
        out.write_unit_writes += write_receipt.num_writes;
      }
      // A span for one op in 256.
      if (ops_++ % 256 == 0)
        run_.tracer.record({is_read ? "store.read" : "store.write", start,
                            latency, run_.tracer.next_id(), -1, addr});
    }

    const auto what = [&] {
      return std::string(is_read ? "read " : "write ") + std::to_string(addr);
    };
    if (!st.ok()) {
      run_.fail(what() + ": " + st.message());
    } else if (is_read) {
      if (unit_version(addr, buf_) != acked)
        run_.fail(what() + ": content check failed (expected version " +
                  std::to_string(acked) + ")");
    }
    return end;
  }

 private:
  Run& run_;
  Rng rng_;
  std::vector<std::uint8_t> buf_;
  std::uint64_t ops_ = 0;
};

/// Runs closed-loop traffic for `seconds` (whole seconds) in one-second
/// slices, the client at queue depth 1 in the calling thread.  Each slice
/// is followed by a rebuild with no traffic, so the rebuilds sample the
/// whole run as the slices do: a healthy workload fails, replaces and
/// rebuilds a disk; a degraded one serves the slice with a disk failed,
/// then replaces and rebuilds it.  A warm-up phase keeps no cycles.
Phase run_phase(Run& run, double seconds, std::uint64_t phase_seed,
                bool warm) {
  const std::size_t slices =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds));
  Phase result;
  Client client(run, phase_seed);
  for (std::size_t s = 0; s < slices; ++s) {
    std::optional<Failure> failure;
    if (run.w.degraded && !(failure = fail_next_disk(run))) break;
    const std::uint64_t start = now_ns();
    std::uint64_t now = start;
    while (now < start + kSliceNs) now = client.step(s, result);
    result.slice_s.push_back(seconds_between(start, now));
    if (!failure && !(failure = fail_next_disk(run))) break;
    auto cycle = rebuild(run, *failure);
    if (!cycle) break;
    if (!warm) result.cycles.push_back(std::move(*cycle));
  }
  run.attempted.fetch_add(result.reads + result.writes,
                          std::memory_order_relaxed);
  return result;
}

// ------------------------------------------------------------ verification

/// Reads every unit back and requires the last acknowledged version;
/// returns the number of units that failed.
std::uint64_t sweep(Run& run) {
  std::atomic<std::uint64_t> bad{0};
  const std::uint64_t n = run.units();
  std::vector<std::jthread> threads;
  for (std::uint32_t t = 0; t < kLoadThreads; ++t)
    threads.emplace_back([&, t] {
      std::vector<std::uint8_t> buf(kUnitBytes);
      for (std::uint64_t a = t; a < n; a += kLoadThreads) {
        run.attempted.fetch_add(1, std::memory_order_relaxed);
        const std::uint32_t want = run.acked[a];
        const Status st = run.store->read(a, buf);
        const auto got = st.ok() ? unit_version(a, buf) : std::nullopt;
        if (!got || *got != want) {
          bad.fetch_add(1, std::memory_order_relaxed);
          run.fail("sweep read " + std::to_string(a) + ": expected version " +
                   std::to_string(want) +
                   (st.ok() ? "" : " (" + st.message() + ")"));
        }
      }
    });
  for (auto& th : threads) th.join();
  return bad.load();
}

/// Parity audit: every stripe re-encodes, none is torn, the array is
/// healthy.  Returns the number of inconsistent stripe instances.
std::uint64_t audit(Run& run) {
  run.attempted.fetch_add(1, std::memory_order_relaxed);
  auto bad = run.store->verify_stripes();
  if (!bad.ok()) {
    run.fail("verify_stripes: " + bad.status().message());
    return 1;
  }
  if (*bad != 0)
    run.fail("verify_stripes: " + std::to_string(*bad) +
             " inconsistent stripe instances");
  if (run.store->torn_parity_instances() != 0)
    run.fail(std::to_string(run.store->torn_parity_instances()) +
             " torn parity instances");
  if (!run.store->array().healthy()) run.fail("array not healthy at the end");
  return *bad;
}

/// --self-test: flips one data byte and one parity byte behind the
/// store's back, through the memory backend's views.
void corrupt(Run& run, std::uint64_t seed) {
  Rng rng(seed ^ 0x5E1F7E57ull);
  const api::Array& array = run.store->array();
  const std::uint64_t data_unit = rng.below(run.units());
  std::uint64_t parity_unit = rng.below(run.units());
  while (array.logical_ref(parity_unit).stripe ==
         array.logical_ref(data_unit).stripe)
    parity_unit = rng.below(run.units());
  for (const api::Physical p :
       {array.map(data_unit), array.parity_of(parity_unit)}) {
    const auto view = run.store->backend().memory_view(p.disk);
    view[static_cast<std::size_t>(p.offset) * kUnitBytes + 100] ^= 0x5a;
  }
  std::printf("self-test: flipped a byte of logical unit %llu and of the "
              "parity of logical unit %llu\n",
              static_cast<unsigned long long>(data_unit),
              static_cast<unsigned long long>(parity_unit));
}

// ------------------------------------------------------------ ladder

/// Median ns per call of `fn` over five timed rounds of `calls` calls.
template <typename Fn>
double per_call_ns(std::uint64_t calls, Fn&& fn) {
  std::vector<double> rounds;
  for (int r = 0; r < 5; ++r) {
    const std::uint64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < calls; ++i) fn(i);
    rounds.push_back(static_cast<double>(now_ns() - t0) /
                     static_cast<double>(calls));
  }
  return median(rounds);
}

struct Ladder {
  double crc_checks_per_read = 0;
  double locate_ns = 0, plan_write_ns = 0, locate_degraded_ns = 0;
  double xor_update_ns = 0, rs_update_ns = 0, crc32c_ns = 0,
         rs_reconstruct_ns = 0;
};

/// The isolated 4 KiB ladder for the api and core layers, on the run's
/// own array (single thread, nothing else running).
Ladder run_ladder(Run& run, std::uint64_t seed) {
  Ladder out;
  const api::Array& array = run.store->array();
  Rng rng(seed ^ 0x1ADDE7ull);
  std::vector<std::uint64_t> addrs(4096);
  for (auto& a : addrs) a = rng.below(run.units());
  std::vector<api::Physical> peers(array.max_stripe_size());
  std::vector<std::uint32_t> index(array.max_stripe_size());

  // Integrity counters are store-wide, so checks per read are counted
  // over reads issued alone.
  const std::uint64_t checks0 = run.store->integrity_stats().verified;
  std::vector<std::uint8_t> buf(kUnitBytes);
  for (const std::uint64_t a : addrs) {
    run.attempted.fetch_add(1, std::memory_order_relaxed);
    if (Status st = run.store->read(a, buf); !st.ok())
      run.fail("ladder read " + std::to_string(a) + ": " + st.message());
  }
  out.crc_checks_per_read =
      static_cast<double>(run.store->integrity_stats().verified - checks0) /
      static_cast<double>(addrs.size());

  // Every timed call lives in the library's own translation units, so the
  // compiler cannot drop a call whose result is discarded.
  out.locate_ns = per_call_ns(200000, [&](std::uint64_t i) {
    static_cast<void>(array.locate(addrs[i & 4095], peers, index));
  });
  out.plan_write_ns = per_call_ns(200000, [&](std::uint64_t i) {
    static_cast<void>(array.plan_write(addrs[i & 4095], peers, index));
  });
  api::Array degraded = array;
  if (degraded.fail_disk(0).ok()) {
    std::vector<std::uint64_t> lost;
    for (std::uint64_t a = 0; a < run.units() && lost.size() < 4096; ++a)
      if (array.map(a).disk == 0) lost.push_back(a);
    if (!lost.empty())
      out.locate_degraded_ns = per_call_ns(200000, [&](std::uint64_t i) {
        static_cast<void>(degraded.locate(lost[i % lost.size()], peers, index));
      });
  }

  std::vector<std::vector<std::uint8_t>> units(
      6, std::vector<std::uint8_t>(kUnitBytes));
  for (auto& u : units) fill_unit(rng.next(), 1, u);
  const core::Codec& xor_codec = core::xor_codec();
  const core::Codec& rs = core::rs_codec();
  out.xor_update_ns = per_call_ns(20000, [&](std::uint64_t i) {
    xor_codec.update(units[0], 0, static_cast<std::uint32_t>(i % 3), units[1]);
  });
  out.rs_update_ns = per_call_ns(20000, [&](std::uint64_t i) {
    rs.update(units[0], 1, static_cast<std::uint32_t>(i % 3), units[1]);
  });
  out.crc32c_ns = per_call_ns(20000, [&](std::uint64_t i) {
    units[2][0] = static_cast<std::uint8_t>(i);
    static_cast<void>(core::crc32c(units[2]));
  });
  // RS over one k=5 stripe (3 data + P + Q): data unit 0 lost, decoded
  // from the other four -- the single-failure rebuild step.
  const std::span<const std::uint8_t> survivors[] = {units[1], units[2],
                                                     units[3], units[4]};
  const std::uint32_t survivor_index[] = {1, 2, 3, 4};
  const std::uint32_t erased[] = {0};
  const std::span<std::uint8_t> decoded[] = {units[5]};
  out.rs_reconstruct_ns = per_call_ns(20000, [&](std::uint64_t) {
    rs.reconstruct(3, survivors, survivor_index, erased, decoded);
  });
  return out;
}

// ------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double median_of(const std::vector<Cycle>& cycles, double Cycle::*field) {
  std::vector<double> v;
  for (const Cycle& c : cycles) v.push_back(c.*field);
  return median(v);
}

// ------------------------------------------------------------ workload

int run_workload(const Workload& w, const Options& opt) {
  Run run(w);
  std::printf("== %s  seed %llu  %.0f s  %s\n", w.name,
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.self_test ? "self-test" : opt.trace ? "traced" : "untraced");

  std::vector<SetupTimes> setups(kSetups);
  for (SetupTimes& s : setups)
    if (Status st = set_up(run, s); !st.ok()) {
      std::fprintf(stderr, "pdl_bench: %s: set-up failed: %s\n", w.name,
                   st.message().c_str());
      return 2;
    }
  if (w.zipfian) run.zipf.emplace(run.units(), 0.99);
  std::printf("   %s, %llu units of %u B, %u disks x %u MiB\n",
              run.store->array().description().c_str(),
              static_cast<unsigned long long>(run.units()), kUnitBytes, w.v,
              kDiskMib);

  run_phase(run, kWarmSeconds, opt.seed * 3 + 1, true);

  // With --trace the measured time is split: an untraced half, for the
  // overhead baseline, then a traced half for the per-layer numbers.
  const double measured_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  Phase measured = run_phase(run, measured_s, opt.seed * 3 + 2, false);

  const io::HotnessStats hot0 = run.store->hotness_stats();
  Phase traced;
  if (opt.trace) {
    run.tracer.set_on(true);
    traced = run_phase(run, measured_s, opt.seed * 3 + 3, false);
  }
  const io::HotnessStats hot1 = run.store->hotness_stats();
  run.tracer.set_on(false);

  if (opt.self_test) corrupt(run, opt.seed);
  const std::uint64_t bad_units = sweep(run);
  const std::uint64_t bad_stripes = audit(run);
  const Ladder ladder = opt.trace ? run_ladder(run, opt.seed) : Ladder{};

  if (opt.trace) {
    const std::string trace_path = opt.dir + "/trace-" + w.name + "-seed" +
                                   std::to_string(opt.seed) + ".json";
    if (!run.tracer.write_chrome_json(trace_path))
      std::fprintf(stderr, "pdl_bench: cannot write %s\n", trace_path.c_str());
    else
      std::printf("   trace: %s (%llu spans dropped past the cap)\n",
                  trace_path.c_str(),
                  static_cast<unsigned long long>(run.tracer.dropped_spans()));
  }

  std::vector<double> setup_s, create_ms, preload_mbps;
  for (const SetupTimes& s : setups) {
    setup_s.push_back(s.total_s);
    create_ms.push_back(s.create_ms);
    preload_mbps.push_back(s.preload_mbps);
  }

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"ops_per_s", measured.ops_per_s(), "1/s"},
        {"read_p50_us", measured.read_ns.quantile_us(0.50), "us"},
        {"read_mean_us", measured.read_ns.mean_us(), "us"},
        {"write_p50_us", measured.write_ns.quantile_us(0.50), "us"},
        {"write_mean_us", measured.write_ns.mean_us(), "us"},
        {"rebuild_s", median_of(measured.cycles, &Cycle::rebuild_s), "s"},
    };
  } else {
    std::vector<std::uint32_t> step_ns;
    for (const Cycle& c : traced.cycles)
      step_ns.insert(step_ns.end(), c.step_ns.begin(), c.step_ns.end());
    const auto fg_writes = static_cast<double>(traced.writes);
    const auto fg_reads = static_cast<double>(traced.reads);
    metrics = {
        {"engine.create_ms", median(create_ms), "ms"},
        {"io.store.preload_mbps", median(preload_mbps), "MB/s"},
        {"api.locate_ns", ladder.locate_ns, "ns"},
        {"api.plan_write_ns", ladder.plan_write_ns, "ns"},
        {"api.locate_degraded_ns", ladder.locate_degraded_ns, "ns"},
        {"core.xor_update_ns", ladder.xor_update_ns, "ns"},
        {"core.rs_update_ns", ladder.rs_update_ns, "ns"},
        {"core.crc32c_ns", ladder.crc32c_ns, "ns"},
        {"core.rs_reconstruct_ns", ladder.rs_reconstruct_ns, "ns"},
        {"io.store.units_touched_per_read",
         ratio(static_cast<double>(traced.touched), fg_reads), "count"},
        {"io.store.degraded_read_ratio",
         ratio(static_cast<double>(traced.degraded_reads), fg_reads), "ratio"},
        {"io.store.units_read_per_write",
         ratio(static_cast<double>(traced.write_unit_reads), fg_writes),
         "count"},
        {"io.store.units_written_per_write",
         ratio(static_cast<double>(traced.write_unit_writes), fg_writes),
         "count"},
        {"io.store.rebuild_step_ms_p50", quantile(step_ns, 0.5) / 1e6, "ms"},
        {"io.store.rebuild_step_ms_p99", quantile(step_ns, 0.99) / 1e6, "ms"},
        {"io.store.fail_replace_ms",
         median_of(traced.cycles, &Cycle::fail_replace_ms), "ms"},
        {"io.store.rebuild_read_skew",
         median_of(traced.cycles, &Cycle::read_skew), "ratio"},
        {"io.cache.read_hit_ratio",
         ratio(static_cast<double>(hot1.hits - hot0.hits),
               static_cast<double>(hot1.hits - hot0.hits + hot1.misses -
                                   hot0.misses)),
         "ratio"},
        {"io.cache.write_absorb_ratio",
         ratio(static_cast<double>(hot1.absorbed_writes - hot0.absorbed_writes),
               fg_writes),
         "ratio"},
        {"io.cache.units_per_fold",
         ratio(static_cast<double>(hot1.folded_units - hot0.folded_units),
               static_cast<double>(hot1.folds - hot0.folds)),
         "count"},
        {"io.cache.evictions_per_fill",
         ratio(static_cast<double>(hot1.evictions - hot0.evictions),
               static_cast<double>(hot1.fills - hot0.fills)),
         "ratio"},
        {"io.integrity.crc_checks_per_read", ladder.crc_checks_per_read,
         "count"},
        {"harness.trace_overhead",
         ratio(traced.mean_latency_ns(), measured.mean_latency_ns()) - 1,
         "ratio"},
    };
  }

  for (const Metric& m : metrics)
    std::printf("   %-38s %14.3f %s\n", m.name.c_str(), m.value, m.unit);
  if (!opt.trace) {
    // The tails swing too much from run to run on a shared VM to bound a
    // change, so they are printed, with their sample counts, but not
    // reported.
    std::printf("   %-38s %14.3f us (of %zu reads)\n", "read_p99 (diagnostic)",
                measured.read_ns.quantile_us(0.99), measured.read_ns.samples());
    std::printf("   %-38s %14.3f us (of %zu writes)\n",
                "write_p99 (diagnostic)", measured.write_ns.quantile_us(0.99),
                measured.write_ns.samples());
    std::printf("   %-38s %14zu\n", "rebuild cycles timed",
                measured.cycles.size());
  }
  const std::uint64_t failed = run.failed.load();
  std::printf("   failed_op_ratio %.6f  (%llu of %llu)\n",
              ratio(static_cast<double>(failed),
                    static_cast<double>(run.attempted.load())),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(run.attempted.load()));

  if (opt.self_test) {
    const bool caught = bad_units > 0 && bad_stripes > 0;
    std::printf("self-test: read verifier flagged %llu unit(s), parity audit "
                "flagged %llu stripe instance(s): %s\n",
                static_cast<unsigned long long>(bad_units),
                static_cast<unsigned long long>(bad_stripes),
                caught ? "the run fails, as it must"
                       : "a check did NOT fire -- the verifiers are broken");
    print_result(false, run.attempted.load(), failed, metrics);
    return caught ? 1 : 3;
  }
  print_result(failed == 0, run.attempted.load(), failed, metrics);
  return failed == 0 ? 0 : 1;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "pdl_bench: %s\n"
               "usage: pdl_bench [--workload NAME] [--seed N] [--seconds S]\n"
               "                 [--trace [0|1]] [--dir D] [--self-test]\n"
               "workloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace pdl_bench

int main(int argc, char** argv) {
  using namespace pdl_bench;
  Options opt;
  bool seconds_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
      seconds_given = true;
      if (!(opt.seconds >= 1 && opt.seconds <= 600))
        return usage("--seconds must be between 1 and 600");
    } else if (arg == "--trace") {
      opt.trace = true;
      if (has_value && (std::string_view(argv[i + 1]) == "0" ||
                        std::string_view(argv[i + 1]) == "1"))
        opt.trace = std::string_view(argv[++i]) == "1";
    } else if (arg == "--dir" && has_value) {
      opt.dir = argv[++i];
    } else if (arg == "--self-test") {
      opt.self_test = true;
    } else {
      return usage(("unknown argument " + std::string(arg)).c_str());
    }
  }
  if (opt.self_test) {
    // The self-test flips bytes through zero-copy views; on the rs
    // profile the CRC layer would heal them, which is its job.
    if (opt.workload.empty()) opt.workload = "oltp-xor";
    if (opt.workload != "oltp-xor")
      return usage("--self-test runs on oltp-xor only");
    if (!seconds_given) opt.seconds = 2;
    opt.trace = false;
  }
  if (opt.trace) {
    std::error_code ec;
    std::filesystem::create_directories(opt.dir, ec);
    if (ec) return usage(("cannot create --dir " + opt.dir).c_str());
  }

  int worst = 0;
  bool matched = false;
  for (const Workload& w : kWorkloads) {
    if (!opt.workload.empty() && opt.workload != w.name) continue;
    matched = true;
    worst = std::max(worst, run_workload(w, opt));
  }
  if (!matched) return usage(("unknown workload " + opt.workload).c_str());
  return worst;
}
