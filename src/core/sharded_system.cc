#include "core/sharded_system.h"

#include <algorithm>
#include <utility>

#include "sim/lookahead.h"

namespace abr::core {

void ShardedSystem::Shard::OnIoComplete(const sim::CompletedIo& done) {
  if (owner->merge_sink_ == nullptr) return;
  owner->merger_.lane(index).push_back(done);
}

ShardedSystem::ShardedSystem(const ShardedSystemConfig& config, Deps deps)
    : config_(config),
      map_(std::max<std::int32_t>(1, config.shards), 1, 0),
      merger_(std::max<std::int32_t>(1, config.shards)) {
  config_.shards = std::max<std::int32_t>(1, config_.shards);
  config_.threads = std::max<std::int32_t>(1, config_.threads);
  if (config_.epoch <= 0) config_.epoch = 2 * kMinute;
  // Size each member's table to exactly what its arranger moves, the same
  // tight sizing Experiment::Setup uses.
  config_.system.driver.block_table_capacity = config_.rearrange_blocks;
  config_.system.rearrange_blocks = config_.rearrange_blocks;

  StatusOr<disk::DiskLabel> label = disk::DiskLabel::Rearranged(
      config_.drive.geometry, config_.reserved_cylinders);
  if (!label.ok()) {
    init_error_ = label.status();
    return;
  }
  init_error_ = label->PartitionEvenly(1);
  if (!init_error_.ok()) return;
  member_label_ = std::move(*label);

  const std::int32_t block_sectors =
      config_.system.driver.block_size_bytes /
      config_.drive.geometry.bytes_per_sector;
  if (block_sectors <= 0) {
    init_error_ = Status::InvalidArgument("block smaller than a sector");
    return;
  }
  map_ = sim::StripeMap(
      config_.shards, /*chunk_blocks=*/1,
      member_label_.partitions()[0].sector_count / block_sectors);

  const bool external = !deps.disks.empty() || !deps.stores.empty();
  if (external &&
      (deps.disks.size() != static_cast<std::size_t>(config_.shards) ||
       deps.stores.size() != static_cast<std::size_t>(config_.shards))) {
    init_error_ = Status::InvalidArgument(
        "Deps must supply exactly one disk and one store per shard");
    return;
  }

  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (std::int32_t s = 0; s < config_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->owner = this;
    shard->index = s;
    if (external) {
      shard->disk = deps.disks[static_cast<std::size_t>(s)];
      shard->store = deps.stores[static_cast<std::size_t>(s)];
    } else {
      shard->owned_disk = std::make_unique<disk::Disk>(config_.drive);
      shard->owned_store = std::make_unique<driver::InMemoryTableStore>();
      shard->disk = shard->owned_disk.get();
      shard->store = shard->owned_store.get();
    }
    shard->system = std::make_unique<AdaptiveSystem>(
        shard->disk, member_label_, config_.system, shard->store);
    shards_.push_back(std::move(shard));
  }

  Timing timing;
  timing.members = config_.shards;
  timing.threads = config_.threads;
  timing.epoch = config_.epoch;
  timing.adaptive_epoch = config_.adaptive_epoch;
  timing.max_epoch_grids = config_.max_epoch_grids;
  timing.lookahead_floor = sim::LookaheadFloor(config_.drive.geometry);
  InitEngine(timing);
}

ShardedSystem::~ShardedSystem() = default;

Status ShardedSystem::Start(bool after_crash) {
  if (!init_error_.ok()) return init_error_;
  if (started()) return Status::FailedPrecondition("Start() already ran");
  for (auto& shard : shards_) {
    ABR_RETURN_IF_ERROR(shard->system->Start(after_crash));
    shard->system->driver().set_client_sink(shard.get());
  }
  MarkStarted(/*submit_floor=*/now());
  return Status::Ok();
}

Status ShardedSystem::SubmitBatch(const workload::TraceRecord* records,
                                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const workload::TraceRecord& rec = records[i];
    ABR_RETURN_IF_ERROR(CheckSubmit(rec));
    workload::TraceRecord local = rec;
    local.block = map_.LocalOf(rec.block);
    Stage(map_.MemberOf(rec.block), local);
  }
  return Status::Ok();
}

driver::AdaptiveDriver* ShardedSystem::StepDriver(std::int32_t member) const {
  // A crashed member is still stepped: its queued requests are lost and
  // its monitors keep ticking, like a dead machine in a live fleet.
  return &shards_[static_cast<std::size_t>(member)]->system->driver();
}

void ShardedSystem::OnBoundary(std::int32_t member, Micros t) {
  AdaptiveSystem& sys = *shards_[static_cast<std::size_t>(member)]->system;
  sys.PeriodicTick(std::max(t, sys.driver().now()));
}

void ShardedSystem::AtBarrier() { merger_.DrainInto(merge_sink_); }

Micros ShardedSystem::now() const {
  Micros t = 0;
  for (const auto& shard : shards_) {
    t = std::max(t, shard->system->driver().now());
  }
  return t;
}

StatusOr<placement::ArrangeResult> ShardedSystem::RearrangeAll() {
  return RunPass([this](std::int32_t s) {
    return shards_[static_cast<std::size_t>(s)]->system->Rearrange();
  });
}

Status ShardedSystem::OpenContinuousPlanAll() {
  ABR_RETURN_IF_ERROR(CheckQuiesced());
  return ForEachMemberStatus([this](std::int32_t s) {
    return shards_[static_cast<std::size_t>(s)]->system->OpenContinuousPlan();
  });
}

placement::ArrangeResult ShardedSystem::CloseContinuousDayAll() {
  StatusOr<placement::ArrangeResult> total =
      RunPass([this](std::int32_t s) -> StatusOr<placement::ArrangeResult> {
        return shards_[static_cast<std::size_t>(s)]
            ->system->CloseContinuousDay();
      });
  return total.ok() ? *total : placement::ArrangeResult{};
}

bool ShardedSystem::continuous_plan_open() const {
  for (const auto& shard : shards_) {
    if (shard->system->continuous_plan_open()) return true;
  }
  return false;
}

StatusOr<placement::ArrangeResult> ShardedSystem::CleanAll() {
  return RunPass([this](std::int32_t s) -> StatusOr<placement::ArrangeResult> {
    AdaptiveSystem& sys = *shards_[static_cast<std::size_t>(s)]->system;
    const std::int32_t before = sys.driver().block_table().size();
    ABR_RETURN_IF_ERROR(sys.Clean());
    placement::ArrangeResult r;
    r.cleaned = before - sys.driver().block_table().size();
    r.evicted = r.cleaned;
    r.halted = sys.driver().halted();
    return r;
  });
}

void ShardedSystem::ResetCounts() {
  for (auto& shard : shards_) shard->system->ResetCounts();
}

void ShardedSystem::set_rearrange_blocks(std::int32_t n) {
  config_.rearrange_blocks = n;
  config_.system.rearrange_blocks = n;
  for (auto& shard : shards_) shard->system->set_rearrange_blocks(n);
}

driver::PerfSnapshot ShardedSystem::ReadStatsMerged(bool clear) {
  // Gather in parallel (each shard touches only its own monitor), reduce
  // in fixed shard order so the fold stays deterministic.
  ForEachMember([this, clear](std::int32_t s) {
    Shard& shard = *shards_[static_cast<std::size_t>(s)];
    shard.stat_slot = shard.system->driver().IoctlReadStats(clear);
  });
  driver::PerfSnapshot merged;
  for (auto& shard : shards_) {
    merged.MergeFrom(shard->stat_slot);
    shard->stat_slot = driver::PerfSnapshot();
  }
  return merged;
}

std::vector<analyzer::HotBlock> ShardedSystem::HotList(std::size_t k) {
  ForEachMember([this, k](std::int32_t s) {
    Shard& shard = *shards_[static_cast<std::size_t>(s)];
    shard.hot_slot = shard.system->analyzer().HotList(k);
  });
  std::vector<std::size_t> heads(shards_.size(), 0);
  std::vector<analyzer::HotBlock> merged;
  merged.reserve(k);
  while (merged.size() < k) {
    std::int32_t best = -1;
    for (std::int32_t s = 0; s < shards(); ++s) {
      const auto& list = shards_[static_cast<std::size_t>(s)]->hot_slot;
      const std::size_t h = heads[static_cast<std::size_t>(s)];
      if (h >= list.size()) continue;
      // Highest count wins; ties keep the lower shard.
      if (best < 0 ||
          list[h].count >
              shards_[static_cast<std::size_t>(best)]
                  ->hot_slot[heads[static_cast<std::size_t>(best)]].count) {
        best = s;
      }
    }
    if (best < 0) break;
    analyzer::HotBlock hot =
        shards_[static_cast<std::size_t>(best)]
            ->hot_slot[heads[static_cast<std::size_t>(best)]++];
    hot.id.block = map_.GlobalOf(best, hot.id.block);
    merged.push_back(hot);
  }
  for (auto& shard : shards_) shard->hot_slot.clear();
  return merged;
}

bool ShardedSystem::halted() const {
  for (const auto& shard : shards_) {
    if (shard->system->driver().halted()) return true;
  }
  return false;
}

}  // namespace abr::core
