#pragma once
/// @file
/// pdl::io::Scrubber -- the background integrity sweep.
///
/// Checksums only pay off when something reads the cold data: a unit
/// that rots and is never touched again silently burns one of the
/// stripe's erasures, and the loss is discovered exactly when a disk
/// failure spends the rest.  The scrubber closes that window: it walks
/// every stripe instance of a StripeStore in slices (the store's
/// round-robin scrub cursor), verifying every present unit against its
/// stored CRC32C and healing mismatches through the codec -- the same
/// heal-in-place the foreground read path uses, just driven proactively
/// and tagged IoClass::kScrub so schedulers and governors can hold it
/// behind foreground traffic.
///
/// Pacing is pluggable, not built in: ScrubberOptions::pacer carries an
/// acquire/refund hook pair called around every pass with the pass's
/// estimated read footprint in bytes; a deployment can leave them null
/// and scrub at full speed, or rate-limit with a token bucket of its
/// own.  fleet::Fleet does not use a Scrubber: Fleet::scrub_some
/// charges each slice to its RebuildGovernor directly.
///
/// Drive it one of two ways:
///   * synchronously -- run_pass() for one governed slice, run_sweep()
///     for one full cycle over the array (bench and test harnesses);
///   * in the background -- start() spawns one sweeper thread issuing a
///     pass every pass_interval_us; stop() (or the destructor) joins it.
///
/// Thread safety: all entry points are safe from any thread; passes
/// themselves serialize on an internal mutex (one pass in flight --
/// scrub parallelism comes from running stores in parallel, not from
/// racing cursors on one store).

#include <cstdint>
#include <functional>
#include <memory>

#include "core/status.hpp"
#include "io/stripe_store.hpp"

namespace pdl::io {

/// Acquire/refund hooks called around every pass with its estimated
/// scrub read bytes.  acquire may block (that is the point: the fleet
/// parks the sweep until the rebuild governor's budget covers it);
/// refund returns the unused remainder.  Either may be null.
struct ScrubPacer {
  std::function<void(std::uint64_t bytes)> acquire;
  std::function<void(std::uint64_t bytes)> refund;
};

/// Construction knobs for Scrubber.
struct ScrubberOptions {
  /// Stripe instances verified per pass (the pacing granule).
  std::uint64_t instances_per_pass = 16;
  /// Background mode: microseconds the sweeper thread sleeps between
  /// passes (0 = back to back).
  std::uint64_t pass_interval_us = 10000;
  /// Bandwidth hooks; see ScrubPacer.
  ScrubPacer pacer = {};
};

/// The background integrity sweep.  See the file comment for the model.
class Scrubber {
 public:
  /// The store must outlive the scrubber.  A store without integrity
  /// enabled is legal; every pass is then an empty report.
  explicit Scrubber(StripeStore& store, ScrubberOptions options = {});
  /// stop()s the background thread if running.
  ~Scrubber();

  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  /// One paced slice: acquire the pass's byte estimate, verify/heal up
  /// to instances_per_pass stripe instances at the store's cursor,
  /// refund the unused budget.  Returns the pass's report; substrate
  /// errors pass through (rot and torn instances are counted, not
  /// fatal).
  [[nodiscard]] Result<ScrubReport> run_pass();

  /// One full cycle over the array (every stripe instance once), as a
  /// sequence of paced passes.  Returns the aggregated report.
  [[nodiscard]] Result<ScrubReport> run_sweep();

  /// Spawns the background sweeper thread (idempotent).
  void start();
  /// Joins the background sweeper (idempotent; the destructor calls it).
  void stop();
  /// Whether the background sweeper is running.
  [[nodiscard]] bool running() const noexcept;

  /// Aggregated report over every pass since construction.
  [[nodiscard]] ScrubReport total() const;
  /// Passes completed since construction.
  [[nodiscard]] std::uint64_t passes() const noexcept;
  /// First substrate error a background pass hit (OK if none); the
  /// sweeper parks itself after recording it.
  [[nodiscard]] Status last_error() const;

 private:
  struct Impl;

  StripeStore& store_;
  ScrubberOptions options_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace pdl::io
