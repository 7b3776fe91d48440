#include "stacks.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "core/adaptive_system.h"
#include "disk/disk.h"
#include "disk/disk_label.h"
#include "driver/table_store.h"
#include "sim/stripe_map.h"
#include "workload/trace.h"

namespace perfbench {

namespace {

using namespace abr;

// Synthetic traffic (see SerialConfig::traffic): day length, generation
// and monitoring period, share of blocks re-homed each day, further share
// moved at mid-day.
constexpr Micros kTrafficDay = 30 * kMinute;
constexpr Micros kTrafficChunk = 2 * kMinute;
constexpr double kDayChurn = 0.1;
constexpr double kDriftFraction = 0.2;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Moves a `share` of all blocks, picked by hashing the block with `key`,
/// to a fresh block elsewhere on the device; the rest stay put.
BlockNo Rehome(BlockNo block, std::uint64_t key, double share,
               std::int64_t blocks) {
  const std::uint64_t h = Mix64(static_cast<std::uint64_t>(block) ^ key);
  if (static_cast<double>(h >> 11) * 0x1.0p-53 >= share) return block;
  const std::uint64_t step =
      1 + Mix64(h) % static_cast<std::uint64_t>(blocks - 1);
  return static_cast<BlockNo>(
      (static_cast<std::uint64_t>(block) + step) %
      static_cast<std::uint64_t>(blocks));
}

/// The block of the driver's first partition whose extent straddles the
/// hidden reserved region, if any. The driver splits a request for it into
/// two physical requests, and each counts as a completion.
std::optional<BlockNo> StraddlingBlock(const driver::AdaptiveDriver& d,
                                       std::int64_t blocks) {
  const SectorNo first = d.label().partitions()[0].first_sector;
  const std::int32_t bs = d.block_sectors();
  // Physical minus virtual start sector: steps up once, across the hole.
  const auto shift = [&](BlockNo b) {
    const SectorNo v = first + b * bs;
    return d.MapVirtualExtent(v, 1)[0].sector - v;
  };
  const SectorNo base = shift(0);
  if (blocks < 2 || shift(blocks - 1) == base) return std::nullopt;
  BlockNo lo = 0, hi = blocks - 1;
  while (hi - lo > 1) {
    const BlockNo mid = lo + (hi - lo) / 2;
    (shift(mid) == base ? lo : hi) = mid;
  }
  if (d.MapVirtualExtent(first + lo * bs, bs).size() > 1) return lo;
  return std::nullopt;
}

// --- Serial stack -----------------------------------------------------------

class SerialStack : public Stack {
 public:
  SerialStack(const SerialConfig& config, Tracer& tracer)
      : config_(config.experiment), traffic_(config.traffic), tracer_(tracer) {}

  Status Setup() override {
    // The same construction as core::Experiment::Setup.
    config_.system.driver.block_table_capacity = config_.rearrange_blocks;
    config_.system.rearrange_blocks = config_.rearrange_blocks;
    StatusOr<disk::DiskLabel> label = disk::DiskLabel::Rearranged(
        config_.drive.geometry, config_.reserved_cylinders);
    if (!label.ok()) return label.status();
    ABR_RETURN_IF_ERROR(label->PartitionEvenly(1));
    disk_ = std::make_unique<disk::Disk>(config_.drive);
    system_ = std::make_unique<core::AdaptiveSystem>(
        disk_.get(), std::move(*label), config_.system, &store_);
    ABR_RETURN_IF_ERROR(system_->Start());
    if (traffic_) {
      blocks_ = driver().label().partitions()[0].sector_count /
                driver().block_sectors();
      generator_ = std::make_unique<workload::SyntheticBlockWorkload>(
          0, blocks_, *traffic_, config_.seed);
    } else {
      server_ = std::make_unique<fs::FileServer>(&driver(), config_.server);
      ABR_RETURN_IF_ERROR(server_->AddFileSystem(0, config_.ffs));
      workload_ = std::make_unique<workload::FileServerWorkload>(
          server_.get(), 0, config_.profile, config_.seed);
      ABR_RETURN_IF_ERROR(workload_->Populate(driver().now()));
    }
    driver().IoctlReadStats(/*clear=*/true);
    driver().IoctlReadRequests();
    system_->ResetCounts();
    return Status::Ok();
  }

  Status PrepareDay(bool on) override {
    Span span(tracer_, "placement.pass");
    last_arrange_ = placement::ArrangeResult{};
    if (!on) {
      // As core::Experiment::CleanForNextDay.
      const std::int32_t before = driver().block_table().size();
      ABR_RETURN_IF_ERROR(system_->Clean());
      last_arrange_.cleaned = before - driver().block_table().size();
      last_arrange_.evicted = last_arrange_.cleaned;
      last_arrange_.halted = driver().halted();
      return Status::Ok();
    }
    if (system_->config().continuous) return system_->OpenContinuousPlan();
    StatusOr<placement::ArrangeResult> result = system_->Rearrange();
    if (result.ok()) last_arrange_ = *result;
    return result.status();
  }

  StatusOr<core::DayMetrics> RunDay() override {
    if (days_ == 0) {
      const std::int64_t blocks = driver().label().partitions()[0].sector_count /
                                  driver().block_sectors();
      split_ = StraddlingBlock(driver(), blocks).value_or(-1);
      if (server_ != nullptr && split_ >= 0) split_in_use_ = FsUses(split_);
    }
    driver().IoctlReadStats(/*clear=*/true);
    day_counts_all_.Reset();
    day_counts_reads_.Reset();
    const Micros day_start = driver().now();
    if (traffic_) {
      ABR_RETURN_IF_ERROR(SyntheticDay(day_start));
    } else {
      if (days_ > 0) workload_->EndDay();  // the day-boundary drift
      StatusOr<std::int64_t> ops = [&] {
        Span span(tracer_, "fs.run_day");
        StatusOr<std::int64_t> r =
            workload_->RunDay(driver().now(), [this](Micros t) { Tick(t); });
        if (r.ok()) server_->FlushAndDrain();
        return r;
      }();
      if (!ops.ok()) return ops.status();
      fs_ops_ += *ops;
    }
    Tick(driver().now());
    ++days_;
    core::DayMetrics metrics = core::DayMetrics::From(
        driver().IoctlReadStats(/*clear=*/true), config_.drive.seek_model);
    metrics.elapsed = driver().now() - day_start;
    if (system_->continuous_plan_open()) {
      Span span(tracer_, "placement.pass");
      metrics.arrange = system_->CloseContinuousDay();
    } else {
      metrics.arrange = last_arrange_;
    }
    last_arrange_ = placement::ArrangeResult{};
    return metrics;
  }

  void CollectCounts(LayerCounts& c) override {
    const std::int64_t records = system_->analyzer().records_consumed();
    const std::int64_t dropped = driver().request_monitor().total_dropped();
    c.split_unseen = split_in_use_ ? 1 : 0;
    c.split_reads += split_reads_ - mark_.split_reads;
    c.split_writes += split_writes_ - mark_.split_writes;
    c.submitted += traffic_ ? submitted_ - mark_.submitted
                            : (records - mark_.analyzer_records) +
                                  (dropped - dropped_mark_);
    c.workload_records += workload_records_ - mark_.workload_records;
    c.fs_ops += fs_ops_ - mark_.fs_ops;
    c.analyzer_records += records - mark_.analyzer_records;
    c.internal_ios += driver().internal_io_count() - mark_.internal_ios;
    LayerCounts now;
    now.submitted = submitted_;
    now.split_reads = split_reads_;
    now.split_writes = split_writes_;
    now.workload_records = workload_records_;
    now.fs_ops = fs_ops_;
    now.analyzer_records = records;
    now.internal_ios = driver().internal_io_count();
    if (server_ != nullptr) {
      c.cache_hits += server_->cache().hits() - mark_.cache_hits;
      c.cache_misses += server_->cache().misses() - mark_.cache_misses;
      now.cache_hits = server_->cache().hits();
      now.cache_misses = server_->cache().misses();
    }
    mark_ = now;
    dropped_mark_ = dropped;
  }

  std::vector<double> DayCounts() const override {
    std::vector<double> out;
    AppendCounts(day_counts_all_, out);
    AppendCounts(day_counts_reads_, out);
    return out;
  }

 private:
  driver::AdaptiveDriver& driver() { return system_->driver(); }

  /// True when the file system holds `block` as file data or an i-node.
  bool FsUses(BlockNo block) {
    StatusOr<fs::Ffs*> ffs = server_->FileSystemOf(0);
    if (!ffs.ok()) return true;
    if ((*ffs)->OwnerOf(block).ok()) return true;
    for (fs::FileId file : (*ffs)->FileIds()) {
      StatusOr<BlockNo> inode = (*ffs)->InodeBlock(file);
      if (inode.ok() && *inode == block) return true;
    }
    return false;
  }

  /// Monitoring-period tick, the same work as core::Experiment::Tick:
  /// advance the clock, drain the request table into the analyzer, and
  /// keep the day's exact reference counts.
  void Tick(Micros t) {
    {
      Span span(tracer_, "sim.advance");
      if (t > driver().now()) driver().AdvanceTo(t);
    }
    Span span(tracer_, "analyzer.tick");
    driver().IoctlReadRequests(tick_records_);
    system_->analyzer().ObserveRecords(tick_records_.data(),
                                       tick_records_.size());
    tick_ids_all_.clear();
    tick_ids_reads_.clear();
    tick_ids_all_.reserve(tick_records_.size());
    for (const driver::RequestRecord& rec : tick_records_) {
      const analyzer::BlockId id{rec.device, rec.block};
      tick_ids_all_.push_back(id);
      if (rec.type == sched::IoType::kRead) tick_ids_reads_.push_back(id);
    }
    day_counts_all_.ObserveBatch(tick_ids_all_.data(), tick_ids_all_.size());
    day_counts_reads_.ObserveBatch(tick_ids_reads_.data(),
                                   tick_ids_reads_.size());
  }

  /// One day of driver-level synthetic traffic, generated and submitted a
  /// chunk at a time with a monitoring tick after each chunk.
  Status SyntheticDay(Micros start) {
    const Micros end = start + kTrafficDay;
    const Micros mid = start + kTrafficDay / 2;
    const std::uint64_t day_key =
        Mix64(config_.seed ^ (0xDA7ULL + static_cast<std::uint64_t>(days_)));
    const std::uint64_t mid_key = Mix64(day_key ^ 0x3D1FULL);
    for (Micros cur = start; cur < end;) {
      const Micros chunk_end = std::min(end, cur + kTrafficChunk);
      trace_.Clear();
      {
        Span span(tracer_, "workload.generate");
        generator_->Generate(cur, chunk_end, trace_);
      }
      batch_.clear();
      for (const workload::TraceRecord& r : trace_.records()) {
        BlockNo block = Rehome(r.block, day_key, kDayChurn, blocks_);
        if (r.time >= mid) {
          block = Rehome(block, mid_key, kDriftFraction, blocks_);
        }
        if (block == split_) {
          ++(r.type == sched::IoType::kRead ? split_reads_ : split_writes_);
        }
        batch_.push_back(driver::AdaptiveDriver::BlockRequest{
            r.device, block, r.type, r.time});
      }
      workload_records_ += static_cast<std::int64_t>(trace_.size());
      submitted_ += static_cast<std::int64_t>(batch_.size());
      {
        Span span(tracer_, "driver.submit");
        ABR_RETURN_IF_ERROR(
            driver().SubmitBlockBatch(batch_.data(), batch_.size()));
      }
      Tick(chunk_end);
      cur = chunk_end;
    }
    Span span(tracer_, "sim.advance");
    driver().Drain();
    return Status::Ok();
  }

  core::ExperimentConfig config_;
  std::optional<workload::SyntheticConfig> traffic_;
  Tracer& tracer_;

  std::unique_ptr<disk::Disk> disk_;
  driver::InMemoryTableStore store_;
  std::unique_ptr<core::AdaptiveSystem> system_;
  std::unique_ptr<fs::FileServer> server_;
  std::unique_ptr<workload::FileServerWorkload> workload_;
  std::unique_ptr<workload::SyntheticBlockWorkload> generator_;
  std::int64_t blocks_ = 0;
  workload::Trace trace_;
  std::vector<driver::AdaptiveDriver::BlockRequest> batch_;
  placement::ArrangeResult last_arrange_;
  std::int32_t days_ = 0;
  analyzer::ExactCounter day_counts_all_;
  analyzer::ExactCounter day_counts_reads_;
  std::vector<driver::RequestRecord> tick_records_;
  std::vector<analyzer::BlockId> tick_ids_all_;
  std::vector<analyzer::BlockId> tick_ids_reads_;

  BlockNo split_ = -1;  // see StraddlingBlock
  bool split_in_use_ = false;  // the file system may touch split_
  std::int64_t submitted_ = 0;
  std::int64_t split_reads_ = 0;
  std::int64_t split_writes_ = 0;
  std::int64_t workload_records_ = 0;
  std::int64_t fs_ops_ = 0;
  LayerCounts mark_;
  std::int64_t dropped_mark_ = 0;
};

// --- Array stack ------------------------------------------------------------

class ArrayStack : public Stack {
 public:
  ArrayStack(const ArrayStackConfig& config, Tracer& tracer)
      : config_(config), tracer_(tracer) {}

  Status Setup() override {
    device_ = std::make_unique<array::ArrayDevice>(config_.array);
    ABR_RETURN_IF_ERROR(device_->Start());
    generator_ = std::make_unique<workload::SyntheticBlockWorkload>(
        0, device_->device_blocks(), config_.day.synthetic, config_.day.seed);
    return Status::Ok();
  }

  Status PrepareDay(bool on) override {
    const std::vector<std::int64_t> before = MemberIos();
    StatusOr<placement::ArrangeResult> result = [&] {
      Span span(tracer_, "placement.pass");
      return on ? device_->RearrangeAll() : device_->CleanAll();
    }();
    AccrueIos(before);
    if (result.ok()) last_arrange_ = *result;
    return result.status();
  }

  /// As core::ArrayDayRunner::RunMeasuredDay, with each device call timed.
  StatusOr<core::DayMetrics> RunDay() override {
    array::ArrayDevice& dev = *device_;
    if (days_ == 0) FindSplitBlocks();
    ++days_;
    const std::vector<std::int64_t> before = MemberIos();
    (void)dev.ReadStatsMerged(/*clear=*/true);
    const Micros start = dev.now();
    const Micros end = start + config_.day.day_length;
    const Micros chunk = config_.day.chunk;
    const std::int64_t barriers_before = dev.barriers();
    const bool adaptive = dev.config().adaptive_epoch;
    const std::int32_t max_chunks =
        std::max<std::int32_t>(1, dev.config().max_epoch_grids);
    for (Micros cur = start; cur < end;) {
      Micros cur_end = std::min(end, cur + chunk);
      if (adaptive) {
        const Micros horizon = dev.PlanSubmitHorizon(end);
        for (std::int32_t k = 1; k < max_chunks && cur_end < end; ++k) {
          const Micros next = std::min(end, cur_end + chunk);
          if (next > horizon) break;
          cur_end = next;
        }
      }
      for (Micros piece = cur; piece < cur_end;) {
        const Micros piece_end = std::min(cur_end, piece + chunk);
        trace_.Clear();
        {
          Span span(tracer_, "workload.generate");
          generator_->Generate(piece, piece_end, trace_);
        }
        const std::vector<workload::TraceRecord>* records = &trace_.records();
        if (piece < config_.quiet_to && piece_end > config_.quiet_from) {
          kept_.clear();
          for (const workload::TraceRecord& r : trace_.records()) {
            if (r.time < config_.quiet_from || r.time >= config_.quiet_to) {
              kept_.push_back(r);
            }
          }
          records = &kept_;
        }
        for (const workload::TraceRecord& r : *records) {
          const std::int64_t split =
              std::count(split_.begin(), split_.end(), r.block);
          if (r.type == sched::IoType::kRead) {
            ++reads_;
            split_reads_ += split;
          } else {
            ++writes_;
            split_writes_ += split;
          }
        }
        Span span(tracer_, "driver.submit");
        ABR_RETURN_IF_ERROR(dev.SubmitBatch(records->data(), records->size()));
        piece = piece_end;
      }
      Span span(tracer_, "array.step");
      ABR_RETURN_IF_ERROR(dev.AdvanceTo(cur_end));
      cur = cur_end;
    }
    StatusOr<Micros> quiesce = [&] {
      Span span(tracer_, "array.step");
      return dev.Drain();
    }();
    if (!quiesce.ok()) return quiesce.status();
    AccrueIos(before);
    core::DayMetrics metrics = core::DayMetrics::From(
        dev.ReadStatsMerged(/*clear=*/true), dev.seek_model());
    metrics.barriers = dev.barriers() - barriers_before;
    metrics.elapsed = (*quiesce - start) * dev.members();
    metrics.arrange = last_arrange_;
    last_arrange_ = placement::ArrangeResult{};
    return metrics;
  }

  /// As the maintenance step of core::RunArrayOnOff with its default of
  /// one day: count a fresh crash, and reattach a dead member after the
  /// day it died in.
  Status AfterDay() override {
    array::ArrayDevice& dev = *device_;
    if (!dev.degraded()) return Status::Ok();
    if (!crash_counted_) {
      ++crashes_;
      crash_counted_ = true;
    }
    Span span(tracer_, "array.step");
    for (std::int32_t m = 0; m < dev.members(); ++m) {
      if (dev.member_state(m) == array::MemberState::kDead) {
        ABR_RETURN_IF_ERROR(dev.ReattachMember(m));
      }
    }
    return Status::Ok();
  }

  void CollectCounts(LayerCounts& c) override {
    LayerCounts now;
    now.submitted = reads_ + writes_;
    now.submitted_reads = reads_;
    now.split_reads = split_reads_;
    now.split_writes = split_writes_;
    c.split_reads += now.split_reads - mark_.split_reads;
    c.split_writes += now.split_writes - mark_.split_writes;
    now.workload_records = reads_ + writes_;
    now.internal_ios = internal_ios_;
    now.lost = device_->lost_requests();
    now.resync_granules = device_->resync_granules_copied();
    now.resyncs_completed = device_->resyncs_completed();
    now.crashes = crashes_;
    c.submitted += now.submitted - mark_.submitted;
    c.submitted_reads += now.submitted_reads - mark_.submitted_reads;
    c.workload_records += now.workload_records - mark_.workload_records;
    c.internal_ios += now.internal_ios - mark_.internal_ios;
    c.lost += now.lost - mark_.lost;
    c.resync_granules += now.resync_granules - mark_.resync_granules;
    c.resyncs_completed += now.resyncs_completed - mark_.resyncs_completed;
    c.crashes += now.crashes - mark_.crashes;
    mark_ = now;
  }

 private:
  /// Device blocks whose member extent straddles a hidden reserved region.
  void FindSplitBlocks() {
    const array::ArrayDevice& dev = *device_;
    const sim::StripeMap stripe(dev.members(), dev.config().chunk_blocks,
                                dev.device_blocks());
    const std::int32_t members =
        dev.level() == array::RaidLevel::kRaid0 ? dev.members() : 1;
    for (std::int32_t m = 0; m < members; ++m) {
      const std::optional<BlockNo> local =
          StraddlingBlock(dev.member_driver(m), dev.member_blocks());
      if (!local) continue;
      const BlockNo block = members > 1 ? stripe.GlobalOf(m, *local) : *local;
      if (block < dev.device_blocks()) split_.push_back(block);
    }
  }

  /// Internal I/O issued so far by each live member's current driver.
  std::vector<std::int64_t> MemberIos() const {
    std::vector<std::int64_t> ios;
    for (std::int32_t m = 0; m < device_->members(); ++m) {
      ios.push_back(device_->member_state(m) == array::MemberState::kDead
                        ? -1
                        : device_->member_driver(m).internal_io_count());
    }
    return ios;
  }

  /// Adds the internal I/O since `before` of members live at both ends.
  void AccrueIos(const std::vector<std::int64_t>& before) {
    const std::vector<std::int64_t> after = MemberIos();
    for (std::size_t m = 0; m < after.size(); ++m) {
      if (before[m] >= 0 && after[m] >= 0) internal_ios_ += after[m] - before[m];
    }
  }

  ArrayStackConfig config_;
  Tracer& tracer_;
  std::unique_ptr<array::ArrayDevice> device_;
  std::unique_ptr<workload::SyntheticBlockWorkload> generator_;
  workload::Trace trace_;
  std::vector<workload::TraceRecord> kept_;
  std::vector<BlockNo> split_;  // see FindSplitBlocks
  placement::ArrangeResult last_arrange_;
  std::int32_t days_ = 0;
  bool crash_counted_ = false;
  std::int64_t crashes_ = 0;
  std::int64_t reads_ = 0;
  std::int64_t writes_ = 0;
  std::int64_t split_reads_ = 0;
  std::int64_t split_writes_ = 0;
  std::int64_t internal_ios_ = 0;
  LayerCounts mark_;
};

}  // namespace

StatusOr<ProtocolRun> RunProtocol(Stack& stack, std::int32_t days_per_side,
                                  Tracer& tracer) {
  ProtocolRun run;
  tracer.set_day(-1);
  const auto setup_start = std::chrono::steady_clock::now();
  ABR_RETURN_IF_ERROR(stack.Setup());
  run.setup_s = SecondsSince(setup_start);

  // Warm-up day: traffic and counts only, excluded from every metric.
  tracer.set_day(0);
  {
    Span span(tracer, "core.day");
    StatusOr<core::DayMetrics> warmup = stack.RunDay();
    if (!warmup.ok()) return warmup.status();
    ABR_RETURN_IF_ERROR(stack.AfterDay());
  }
  LayerCounts discard;
  stack.CollectCounts(discard);

  const auto start = std::chrono::steady_clock::now();
  for (std::int32_t i = 0; i < 2 * days_per_side; ++i) {
    const bool on = (i % 2) == 1;
    tracer.set_day(i + 1);
    Span span(tracer, "core.day");
    ABR_RETURN_IF_ERROR(stack.PrepareDay(on));
    StatusOr<core::DayMetrics> day = stack.RunDay();
    if (!day.ok()) return day.status();
    (on ? run.on_days : run.off_days).push_back(std::move(*day));
    ABR_RETURN_IF_ERROR(stack.AfterDay());
  }
  run.measured_s = SecondsSince(start);
  stack.CollectCounts(run.counts);
  return run;
}

std::unique_ptr<Stack> MakeSerialStack(const SerialConfig& config,
                                       Tracer& tracer) {
  return std::make_unique<SerialStack>(config, tracer);
}

std::unique_ptr<Stack> MakeArrayStack(const ArrayStackConfig& config,
                                      Tracer& tracer) {
  return std::make_unique<ArrayStack>(config, tracer);
}

void AppendFingerprint(const core::DayMetrics& d, std::vector<double>& out) {
  for (const core::SliceMetrics* s : {&d.all, &d.reads, &d.writes}) {
    out.insert(out.end(),
               {s->mean_seek_ms, s->fcfs_seek_ms, s->mean_seek_dist,
                s->fcfs_seek_dist, s->zero_seek_pct, s->mean_service_ms,
                s->mean_wait_ms, s->rot_plus_transfer_ms,
                static_cast<double>(s->count)});
  }
  for (const stats::TimeHistogram* h : {&d.service_all, &d.service_reads}) {
    out.push_back(static_cast<double>(h->total()));
    for (std::int64_t b : h->buckets()) out.push_back(static_cast<double>(b));
  }
  const driver::FaultCounters& f = d.faults;
  const driver::MoveCounters& m = d.moves;
  const placement::ArrangeResult& a = d.arrange;
  out.insert(
      out.end(),
      {static_cast<double>(f.media_errors), static_cast<double>(f.retries),
       static_cast<double>(f.failed_requests),
       static_cast<double>(f.aborted_chains),
       static_cast<double>(f.recovery_dirtied),
       static_cast<double>(f.recovery_fallbacks),
       static_cast<double>(f.remaps), static_cast<double>(f.scrub_hits),
       static_cast<double>(m.copy_ins), static_cast<double>(m.shuffles),
       static_cast<double>(m.evictions), static_cast<double>(a.cleaned),
       static_cast<double>(a.copied), static_cast<double>(a.skipped),
       static_cast<double>(a.aborted), static_cast<double>(a.kept),
       static_cast<double>(a.shuffled), static_cast<double>(a.evicted),
       static_cast<double>(a.admitted), static_cast<double>(a.deferred),
       a.halted ? 1.0 : 0.0, static_cast<double>(a.internal_ios),
       static_cast<double>(a.io_time),
       static_cast<double>(d.util.external_busy),
       static_cast<double>(d.util.internal_busy),
       static_cast<double>(d.util.arrange_stall),
       static_cast<double>(d.elapsed), static_cast<double>(d.barriers)});
}

void AppendCounts(const analyzer::ExactCounter& counter,
                  std::vector<double>& out) {
  out.push_back(static_cast<double>(counter.total()));
  for (const analyzer::HotBlock& b : counter.TopK(counter.tracked())) {
    out.insert(out.end(), {static_cast<double>(b.id.device),
                           static_cast<double>(b.id.block),
                           static_cast<double>(b.count)});
  }
}

}  // namespace perfbench
