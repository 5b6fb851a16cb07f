#include "sim/scenario.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "sim/event_queue.hpp"

namespace pdl::sim {

std::string_view phase_name(ScenarioPhase phase) noexcept {
  switch (phase) {
    case ScenarioPhase::kNormal: return "normal";
    case ScenarioPhase::kDegraded: return "degraded";
    case ScenarioPhase::kRebuilding: return "rebuilding";
    case ScenarioPhase::kRestored: return "restored";
  }
  return "?";
}

std::string_view event_kind_name(ScenarioEventKind kind) noexcept {
  switch (kind) {
    case ScenarioEventKind::kFailure: return "failure";
    case ScenarioEventKind::kRebuildStart: return "rebuild_start";
    case ScenarioEventKind::kRepairComplete: return "repair_complete";
    case ScenarioEventKind::kDataLoss: return "data_loss";
  }
  return "?";
}

double PhaseRecord::utilization(layout::DiskId disk) const {
  const double span = duration_ms();
  if (span <= 0.0) return 0.0;
  return disk_busy_ms[disk] / span;
}

double PhaseRecord::max_disk_utilization() const {
  const double span = duration_ms();
  if (span <= 0.0) return 0.0;
  double max_busy = 0.0;
  for (const double b : disk_busy_ms) max_busy = std::max(max_busy, b);
  return max_busy / span;
}

ScenarioSimulator::ScenarioSimulator(const api::Array& array,
                                     ScenarioConfig config)
    : array_(array), config_(config) {
  if (!array_.healthy())
    throw std::invalid_argument("ScenarioSimulator: the array must be healthy");
  if (config_.rebuild_depth == 0)
    throw std::invalid_argument("ScenarioSimulator: rebuild_depth >= 1");
  if (config_.rebuild_delay_ms < 0.0)
    throw std::invalid_argument("ScenarioSimulator: rebuild_delay_ms >= 0");
}

namespace {

using api::Physical;
using layout::DiskId;

/// All mutable state of one scenario run.
struct Runner {
  // -- immutable inputs ---------------------------------------------------
  const ScenarioConfig& config;
  const RebuildScheduler& scheduler;
  const std::uint32_t num_disks;

  // -- array state --------------------------------------------------------
  api::Array array;  ///< this run's copy: failures, losses, redirects
  EventQueue queue;
  std::vector<Disk> disks;
  std::vector<Physical> peers;  ///< survivor / peer scratch for serving

  // -- rebuild machinery --------------------------------------------------
  struct QueuedJob {
    api::RebuildStep step;
    DiskId failed;            ///< failure whose batch the step joined
    std::uint32_t planned_at; ///< failures seen when the step was planned
  };
  std::deque<QueuedJob> pending;
  std::deque<DiskId> awaiting;  ///< failed disks, replacement not attached
  std::vector<std::uint64_t> step_queued;  // per stripe: positions queued
  std::uint32_t failures = 0;
  std::uint32_t in_flight = 0;
  double dispatch_gate_ms = 0.0;  ///< pacing: no dispatch before this time
  std::vector<double> ready_ms;            // per disk: rebuild may start
  std::vector<std::int64_t> jobs_open;     // per disk: open jobs, -1: none
  std::vector<std::int32_t> span_index;    // per disk: index into rebuilds
  std::uint32_t failed_unrepaired = 0;

  // -- phase machinery ----------------------------------------------------
  ScenarioPhase cur_phase = ScenarioPhase::kNormal;
  std::vector<double> snap_busy;
  std::vector<std::uint64_t> snap_acc;

  ScenarioResult result;

  Runner(const api::Array& healthy, const ScenarioConfig& config,
         const RebuildScheduler& scheduler)
      : config(config),
        scheduler(scheduler),
        num_disks(healthy.num_disks()),
        array(healthy),
        peers(healthy.max_stripe_size()) {
    disks.reserve(num_disks);
    for (std::uint32_t d = 0; d < num_disks; ++d)
      disks.emplace_back(config.disk);
    step_queued.assign(array.num_stripes(), 0);
    ready_ms.assign(num_disks, 0.0);
    jobs_open.assign(num_disks, -1);
    span_index.assign(num_disks, -1);
    result.rebuild_reads_per_disk.assign(num_disks, 0);
    result.rebuild_writes_per_disk.assign(num_disks, 0);
    snap_busy.assign(num_disks, 0.0);
    snap_acc.assign(num_disks, 0);
    open_phase(ScenarioPhase::kNormal, 0.0);
  }

  // ---------------------------------------------------------------- phases

  void open_phase(ScenarioPhase phase, SimTime t) {
    PhaseRecord rec;
    rec.phase = phase;
    rec.start_ms = t;
    rec.end_ms = t;
    rec.failed_disks = failed_unrepaired;
    result.phases.push_back(std::move(rec));
    for (std::uint32_t d = 0; d < num_disks; ++d) {
      snap_busy[d] = disks[d].busy_ms();
      snap_acc[d] = disks[d].accesses();
    }
    cur_phase = phase;
  }

  void close_phase(SimTime t) {
    PhaseRecord& rec = result.phases.back();
    rec.end_ms = t;
    rec.disk_busy_ms.resize(num_disks);
    rec.disk_accesses.resize(num_disks);
    for (std::uint32_t d = 0; d < num_disks; ++d) {
      rec.disk_busy_ms[d] = disks[d].busy_ms() - snap_busy[d];
      rec.disk_accesses[d] = disks[d].accesses() - snap_acc[d];
    }
  }

  [[nodiscard]] bool any_live_job() {
    for (QueuedJob& q : pending)
      if (refresh(q)) return true;
    return false;
  }

  [[nodiscard]] ScenarioPhase current_label(SimTime now) {
    attach_due(now);
    if (failed_unrepaired == 0)
      return failures > 0 ? ScenarioPhase::kRestored : ScenarioPhase::kNormal;
    if (in_flight > 0 || any_live_job()) return ScenarioPhase::kRebuilding;
    return ScenarioPhase::kDegraded;
  }

  void maybe_transition(SimTime t) {
    const ScenarioPhase want = current_label(t);
    if (want == cur_phase) return;
    close_phase(t);
    open_phase(want, t);
  }

  // ----------------------------------------------------------- user serving

  void record_latency(bool is_write, std::size_t phase_idx, double arrival,
                      SimTime done) {
    UserStats& phase_user = result.phases[phase_idx].user;
    if (is_write) {
      result.user.write_latency_ms.add(done - arrival);
      phase_user.write_latency_ms.add(done - arrival);
    } else {
      result.user.read_latency_ms.add(done - arrival);
      phase_user.read_latency_ms.add(done - arrival);
    }
  }

  /// Issues one access per unit at `now`; returns when the last completes.
  SimTime submit_all(std::span<const Physical> units, SimTime now) {
    SimTime done = now;
    for (const Physical& u : units)
      done = std::max(done, disks[u.disk].submit(now));
    return done;
  }

  void serve_read(const Request& req, std::size_t phase_idx) {
    const SimTime now = req.arrival_ms;
    const api::ReadPlan plan = array.locate(req.logical, peers).value();
    switch (plan.kind) {
      case api::ReadPlan::Kind::kDirect:
        record_latency(false, phase_idx, now,
                       disks[plan.target.disk].submit(now));
        return;
      case api::ReadPlan::Kind::kDegraded:
        record_latency(
            false, phase_idx, now,
            submit_all(std::span(peers).first(plan.num_survivors), now));
        return;
      case api::ReadPlan::Kind::kUnrecoverable:
        ++result.unserved_reads;
        return;
    }
  }

  void serve_write(const Request& req, std::size_t phase_idx) {
    const SimTime now = req.arrival_ms;
    const api::WritePlan plan = array.plan_write(req.logical, peers).value();
    const std::span<const Physical> parities(plan.parity_targets.data(),
                                             plan.num_parities);
    // A read phase, then the write phase once every read has completed.
    std::vector<Physical> reads;
    std::vector<Physical> writes;
    switch (plan.kind) {
      case api::WritePlan::Kind::kReadModifyWrite:
        // Old data and parities in, new data and parities out.
        writes.push_back(plan.data);
        writes.insert(writes.end(), parities.begin(), parities.end());
        reads = writes;
        break;
      case api::WritePlan::Kind::kReconstructWrite:
        // Fold the new value into the surviving parities through the data
        // peers; with another unit erased too, the parities are read so
        // it can be decoded first.
        reads.assign(peers.begin(), peers.begin() + plan.num_peer_reads);
        if (plan.num_erased > 1)
          reads.insert(reads.end(), parities.begin(), parities.end());
        writes.assign(parities.begin(), parities.end());
        break;
      case api::WritePlan::Kind::kUnprotectedWrite:
        record_latency(true, phase_idx, now,
                       disks[plan.data.disk].submit(now));
        return;
      case api::WritePlan::Kind::kUnrecoverable:
        ++result.unserved_writes;
        return;
    }
    queue.schedule(submit_all(reads, now),
                   [this, writes = std::move(writes), phase_idx,
                    now](SimTime t) {
                     record_latency(true, phase_idx, now,
                                    submit_all(writes, t));
                   });
  }

  void serve(const Request& req) {
    const std::size_t phase_idx = result.phases.size() - 1;
    if (req.is_write) {
      serve_write(req, phase_idx);
    } else {
      serve_read(req, phase_idx);
    }
  }

  // -------------------------------------------------------------- failures

  void on_failure(SimTime t, DiskId failed) {
    const std::uint64_t lost_before = array.stripes_lost();
    // FaultTimeline fails each disk at most once and run() checked range.
    if (!array.fail_disk(failed).ok()) return;
    ++failures;
    ++failed_unrepaired;
    ready_ms[failed] = t + config.rebuild_delay_ms;
    result.events.push_back({t, ScenarioEventKind::kFailure, failed});
    if (const std::uint64_t lost = array.stripes_lost() - lost_before;
        lost > 0) {
      result.stripe_instances_lost += lost;
      if (!result.data_loss) {
        result.data_loss = true;
        result.first_data_loss_ms = t;
      }
      result.events.push_back({t, ScenarioEventKind::kDataLoss, failed});
    }
    awaiting.push_back(failed);
    queue.schedule(ready_ms[failed], [this, failed](SimTime now) {
      dispatch(now);
      if (jobs_open[failed] == 0) repair_complete(failed, now);
      maybe_transition(now);
    });
    maybe_transition(t);
  }

  /// Attaches the replacement of every failed disk whose ready time has
  /// come, in failure order.  Each failure's batch is every step
  /// plan_rebuild then offers for a unit that failure lost and that is not
  /// already queued, ordered by the scheduler.  Phase labels and dispatch
  /// attach first, so a batch counts from its ready instant on, whichever
  /// event at that instant runs first.
  void attach_due(SimTime now) {
    while (!awaiting.empty() && ready_ms[awaiting.front()] <= now) {
      attach(awaiting.front());
      awaiting.pop_front();
    }
  }

  /// True when the unit `step` restores was lost by the failure of
  /// `failed`.  plan_rebuild also offers units of failures whose
  /// replacement is not attached yet, rebuilt into spares: a unit whose
  /// home disk is still failed waits for that disk's batch, and a unit
  /// homed on a disk replaced earlier was lost again with its rebuilt copy
  /// in its stripe's spare, so it waits while the spare's disk is failed.
  [[nodiscard]] bool lost_by(const api::RebuildStep& step,
                             DiskId failed) const {
    const layout::Stripe& st = array.layout().stripes()[step.stripe];
    const DiskId home = st.units[step.lost_pos].disk;
    if (home == failed) return true;
    const std::vector<api::DiskState>& state = array.disk_states();
    if (state[home] == api::DiskState::kFailed) return false;
    const std::vector<std::uint32_t>& spare_pos = array.spare_positions();
    return spare_pos.empty() ||
           state[st.units[spare_pos[step.stripe]].disk] !=
               api::DiskState::kFailed;
  }

  void attach(DiskId failed) {
    if (!array.replace_disk(failed).ok()) return;  // each disk attaches once
    api::RebuildPlan plan = array.plan_rebuild().value();
    std::vector<api::RebuildStep> batch;
    for (api::RebuildStep& step : plan.steps) {
      const std::uint64_t bit = 1ull << step.lost_pos;
      if ((step_queued[step.stripe] & bit) || !lost_by(step, failed))
        continue;
      step_queued[step.stripe] |= bit;
      batch.push_back(std::move(step));
    }
    scheduler.order(array.layout(), failed, batch);
    for (api::RebuildStep& step : batch)
      pending.push_back({std::move(step), failed, failures});
    jobs_open[failed] = static_cast<std::int64_t>(batch.size());
  }

  // --------------------------------------------------------------- rebuild

  /// Re-plans a queued step from the array's current state; false when the
  /// array no longer offers it (its stripe was lost, or the unit waits for
  /// its home disk's replacement).
  [[nodiscard]] bool replan(QueuedJob& q) {
    api::RebuildPlan plan = array.plan_rebuild().value();
    for (api::RebuildStep& step : plan.steps) {
      if (step.stripe == q.step.stripe && step.lost_pos == q.step.lost_pos) {
        q.step = std::move(step);
        q.planned_at = failures;
        return true;
      }
    }
    return false;
  }

  /// A step stays valid until the next failure; after one, re-plan it.
  [[nodiscard]] bool refresh(QueuedJob& q) {
    return q.planned_at == failures || replan(q);
  }

  void job_done(const QueuedJob& q, SimTime t) {
    step_queued[q.step.stripe] &= ~(1ull << q.step.lost_pos);
    if (--jobs_open[q.failed] == 0) repair_complete(q.failed, t);
  }

  void repair_complete(DiskId disk, SimTime t) {
    jobs_open[disk] = -1;  // the ready event's own check must not repeat it
    --failed_unrepaired;
    result.events.push_back({t, ScenarioEventKind::kRepairComplete, disk});
    if (span_index[disk] >= 0) result.rebuilds[span_index[disk]].end_ms = t;
  }

  void dispatch(SimTime now) {
    attach_due(now);
    // The pacing gate is global: a throttled scheduler must slow the whole
    // rebuild stream, not just each job's immediate successor (with
    // rebuild_depth > 1 any other completion would otherwise refill the
    // window instantly and nullify the throttle).
    if (now < dispatch_gate_ms) {
      if (!pending.empty()) {
        queue.schedule(dispatch_gate_ms, [this](SimTime t) {
          dispatch(t);
          maybe_transition(t);
        });
      }
      return;
    }
    while (in_flight < config.rebuild_depth && !pending.empty()) {
      QueuedJob q = std::move(pending.front());
      pending.pop_front();
      if (refresh(q)) {
        start_job(std::move(q), now);
      } else {
        job_done(q, now);
      }
    }
  }

  void start_job(QueuedJob q, SimTime now) {
    ++in_flight;
    if (span_index[q.failed] < 0) {
      span_index[q.failed] = static_cast<std::int32_t>(result.rebuilds.size());
      result.rebuilds.push_back({q.failed, now, now, 0});
      result.events.push_back(
          {now, ScenarioEventKind::kRebuildStart, q.failed});
    }
    for (const Physical& u : q.step.reads)
      ++result.rebuild_reads_per_disk[u.disk];
    const SimTime reads_done = submit_all(q.step.reads, now);
    queue.schedule(reads_done, [this, q = std::move(q), now](SimTime t) mutable {
      write_step(std::move(q), t, now);
    });
  }

  void write_step(QueuedJob q, SimTime t, SimTime started) {
    if (!refresh(q)) {  // a failure lost the stripe during the reads
      finish_job(q, t, started);
      return;
    }
    const DiskId target = q.step.target.disk;
    const SimTime written = disks[target].submit(t);
    ++result.rebuild_writes_per_disk[target];
    queue.schedule(written, [this, q = std::move(q), started](SimTime w) mutable {
      land_step(std::move(q), w, started);
    });
  }

  void land_step(QueuedJob q, SimTime w, SimTime started) {
    if (array.apply_rebuild_step(q.step).ok()) {
      ++result.rebuilds[span_index[q.failed]].stripes_rebuilt;
      finish_job(q, w, started);
      return;
    }
    if (!replan(q)) {  // the stripe was lost under the write
      finish_job(q, w, started);
      return;
    }
    // The target went stale under the write (the spare's disk failed and
    // the rebuilt copy died with it): retry the re-planned step.
    --in_flight;
    pending.push_back(std::move(q));
    queue.schedule(w, [this](SimTime t2) {
      dispatch(t2);
      maybe_transition(t2);
    });
    maybe_transition(w);
  }

  void finish_job(const QueuedJob& q, SimTime t, SimTime started) {
    --in_flight;
    job_done(q, t);
    const double pace = scheduler.pacing_delay_ms(t - started);
    if (pace > 0.0)
      dispatch_gate_ms = std::max(dispatch_gate_ms, t + pace);
    queue.schedule(t, [this](SimTime t2) {
      dispatch(t2);
      maybe_transition(t2);
    });
    maybe_transition(t);
  }

  // ------------------------------------------------------------------- run

  void finalize() {
    result.horizon_ms = queue.now();
    close_phase(result.horizon_ms);
    // Drop inert zero-duration records (cuts where several transitions
    // fired at one instant); labels may legitimately repeat afterwards.
    std::vector<PhaseRecord> kept;
    kept.reserve(result.phases.size());
    for (PhaseRecord& rec : result.phases) {
      bool inert = rec.duration_ms() == 0.0 &&
                   rec.user.read_latency_ms.count() == 0 &&
                   rec.user.write_latency_ms.count() == 0;
      if (inert) {
        for (const std::uint64_t a : rec.disk_accesses) inert = inert && a == 0;
      }
      if (!inert) kept.push_back(std::move(rec));
    }
    result.phases = std::move(kept);
    result.disk_busy_ms.reserve(num_disks);
    result.disk_accesses.reserve(num_disks);
    for (const Disk& d : disks) {
      result.disk_busy_ms.push_back(d.busy_ms());
      result.disk_accesses.push_back(d.accesses());
    }
  }
};

}  // namespace

ScenarioResult ScenarioSimulator::run(const FaultTimeline& timeline,
                                      std::span<const Request> requests,
                                      const RebuildScheduler& scheduler) const {
  for (const FaultEvent& e : timeline.failures()) {
    if (e.disk >= array_.num_disks())
      throw std::invalid_argument("ScenarioSimulator::run: bad failed disk");
  }
  const std::uint64_t ws = working_set();

  Runner runner(array_, config_, scheduler);
  for (const FaultEvent& e : timeline.failures()) {
    runner.queue.schedule(e.time_ms, [&runner, e](SimTime t) {
      runner.on_failure(t, e.disk);
    });
  }
  for (const Request& req : requests) {
    if (req.logical >= ws)
      throw std::invalid_argument(
          "ScenarioSimulator::run: request beyond working set");
    runner.queue.schedule(req.arrival_ms,
                          [&runner, &req](SimTime) { runner.serve(req); });
  }
  runner.queue.run();
  runner.finalize();
  return std::move(runner.result);
}

}  // namespace pdl::sim
