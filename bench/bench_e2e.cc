// bench_e2e: whole-pipeline throughput of the simulator — workload
// generation, file server, adaptive driver, scheduler queue, disk model
// and monitoring all together, measured as simulated requests serviced per
// wall-clock second over Table-2-style alternating on/off days.
//
// Four measurements, all emitted to BENCH_e2e.json via bench::EmitJson:
//
//  1. Per scheduler kind: req/s of an on/off run. Whole-day behaviour of
//     each policy is pinned by the golden transcripts; the flat queues
//     are timed against their multimap originals in bench_micro.
//  2. Replication fan-out (kind=replication): R independent replications
//     of one experiment at --jobs=1 vs --jobs=N through
//     ParallelRunner::RunReplicated, again checked bit-identical. The
//     speedup column records the measured wall-clock ratio on this
//     machine (bounded by its core count).
//  3. Sharded fleet scaling (kind=scaling): one drive's worth of blocks
//     striped across S member drives (an ArrayDevice at RAID0, chunk 1,
//     members ranking from their own analyzers) at S=1/2/4/8 with
//     lookahead-adaptive epoch barriers, each S run at threads=1 and
//     threads=S with a bit-identity check, plus an enforced >= 5.5x
//     wall-clock floor at 8 shards on machines with >= 8 hardware
//     threads. Each row also prints the per-barrier coordinator
//     breakdown (barrier count, stall and merge wall time).
//  4. Array scaling (kind=scaling): the multi-disk array layer at
//     raid0 N=1/2/4 and raid1 N=2/4, threads=1 vs threads=N, again
//     bit-identity-checked.
//
// Flags: --quick (tiny day, for the sanitizer smoke in tools/check.sh),
//        --days=N (days per side, default 3), --replicas=R (default 4),
//        --jobs=N (default 4).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "array/array_device.h"
#include "bench/bench_util.h"
#include "core/array_day.h"
#include "core/experiment.h"
#include "core/onoff.h"
#include "core/parallel_runner.h"
#include "sched/scheduler.h"

namespace {

using namespace abr;

double Seconds(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// The complete observable surface of a set of runs, bit-comparable.
std::vector<double> Fingerprint(
    const std::vector<std::vector<core::DayMetrics>>& results) {
  std::vector<double> fp;
  for (const auto& days : results) {
    for (const core::DayMetrics& d : days) {
      for (const core::SliceMetrics* s : {&d.all, &d.reads, &d.writes}) {
        fp.push_back(s->mean_seek_ms);
        fp.push_back(s->fcfs_seek_ms);
        fp.push_back(s->mean_seek_dist);
        fp.push_back(s->zero_seek_pct);
        fp.push_back(s->mean_service_ms);
        fp.push_back(s->mean_wait_ms);
        fp.push_back(s->rot_plus_transfer_ms);
        fp.push_back(static_cast<double>(s->count));
      }
      // Barrier-window count: deterministic, so any thread count (and the
      // adaptive planner itself) must reproduce it exactly. The wall-time
      // fields next to it are host measurements and stay out.
      fp.push_back(static_cast<double>(d.barriers));
    }
  }
  return fp;
}

std::int64_t CountRequests(
    const std::vector<std::vector<core::DayMetrics>>& results) {
  std::int64_t n = 0;
  for (const auto& days : results) {
    for (const core::DayMetrics& d : days) n += d.all.count;
  }
  return n;
}

/// One full on/off run; returns the measured days in day order.
StatusOr<std::vector<core::DayMetrics>> OnOffTask(std::int32_t days_per_side,
                                                  core::Experiment& exp) {
  StatusOr<core::OnOffResult> r = core::RunOnOffDays(exp, days_per_side);
  if (!r.ok()) return r.status();
  return core::InterleaveOnOff(*r);
}

struct Options {
  bool quick = false;
  std::int32_t days_per_side = 3;
  std::int32_t replicas = 4;
  std::int32_t jobs = 4;
};

core::ExperimentConfig BaseConfig(const Options& opt) {
  core::ExperimentConfig config = core::ExperimentConfig::ToshibaSystem();
  if (opt.quick) {
    // Miniature day (the shape of the parallel_runner_test config): the
    // whole binary then runs in a few seconds even under TSan.
    config.rearrange_blocks = 200;
    config.profile.file_count = 60;
    config.profile.mean_file_blocks = 5.0;
    config.profile.max_file_blocks = 20;
    config.profile.day_length = 20 * kMinute;
    config.profile.arrivals.mean_burst_gap = 2 * kSecond;
  }
  return config;
}

/// Measurement 1: whole-pipeline throughput per scheduler kind.
void BenchSchedulers(const Options& opt,
                     std::vector<bench::BenchMetric>& metrics) {
  bench::Banner("whole-pipeline day throughput per scheduler");
  const sched::SchedulerKind kinds[] = {
      sched::SchedulerKind::kFcfs, sched::SchedulerKind::kSstf,
      sched::SchedulerKind::kScan, sched::SchedulerKind::kCLook};
  for (const sched::SchedulerKind kind : kinds) {
    core::ExperimentConfig config = BaseConfig(opt);
    config.system.driver.scheduler = kind;
    core::Experiment exp(config);
    const auto start = std::chrono::steady_clock::now();
    bench::CheckOk(core::RunOnOff(exp, opt.days_per_side).status(),
                   "on/off run");
    core::Experiment exp2(config);
    auto result = bench::CheckOk(core::RunOnOff(exp2, opt.days_per_side),
                                 "on/off run");
    const auto end = std::chrono::steady_clock::now();
    // Two back-to-back runs halve timer noise; the request count comes
    // from the second (identical by determinism anyway).
    const double secs = Seconds(start, end) / 2;
    const std::int64_t requests =
        CountRequests({core::InterleaveOnOff(result)});
    bench::BenchMetric m;
    m.name = std::string("e2e_day_") + sched::SchedulerKindName(kind);
    m.ns_per_op = secs * 1e9 / static_cast<double>(requests);
    m.ops_per_sec = static_cast<double>(requests) / secs;
    m.threads = 1;
    std::printf("%-8s %9lld req  %8.0f req/s\n",
                sched::SchedulerKindName(kind),
                static_cast<long long>(requests), m.ops_per_sec);
    metrics.push_back(m);
  }
}

/// Measurement 2: replication fan-out across the thread pool.
void BenchReplication(const Options& opt,
                      std::vector<bench::BenchMetric>& metrics) {
  bench::Banner("replication fan-out: jobs=1 vs jobs=N");
  const core::ExperimentConfig config = BaseConfig(opt);
  const auto task = [&opt](std::size_t, core::Experiment& exp) {
    return OnOffTask(opt.days_per_side, exp);
  };

  const auto t0 = std::chrono::steady_clock::now();
  auto serial = bench::CheckOk(
      core::ParallelRunner(1).RunReplicated({config}, opt.replicas, task),
      "serial replicated run");
  const auto t1 = std::chrono::steady_clock::now();
  auto parallel = bench::CheckOk(
      core::ParallelRunner(opt.jobs).RunReplicated({config}, opt.replicas,
                                                   task),
      "parallel replicated run");
  const auto t2 = std::chrono::steady_clock::now();

  if (Fingerprint(serial) != Fingerprint(parallel)) {
    std::fprintf(stderr,
                 "FATAL: jobs=%d changed the replicated metrics vs jobs=1\n",
                 opt.jobs);
    std::exit(1);
  }

  const double serial_s = Seconds(t0, t1);
  const double parallel_s = Seconds(t1, t2);
  const std::int64_t requests = CountRequests(parallel);
  bench::BenchMetric m;
  m.name = "e2e_replication_fanout";
  m.ns_per_op = parallel_s * 1e9 / static_cast<double>(requests);
  m.ops_per_sec = static_cast<double>(requests) / parallel_s;
  m.threads = opt.jobs;
  m.speedup = parallel_s > 0 ? serial_s / parallel_s : 0;
  m.kind = "replication";  // independent seeded copies, not one device
  std::printf(
      "replicas=%d  jobs=1: %.2fs  jobs=%d: %.2fs  (%.2fx)  "
      "metrics identical\n",
      opt.replicas, serial_s, opt.jobs, parallel_s, m.speedup);
  metrics.push_back(m);
}

/// One timed barrier-device run: off day, rearrangement pass, on day, at
/// the config's worker-thread count.
struct DeviceRun {
  std::vector<std::vector<core::DayMetrics>> days;
  std::int64_t generated = 0;
  double secs = 0;
};

DeviceRun RunDays(const array::ArrayConfig& config,
                  const core::ArrayDayConfig& day) {
  DeviceRun run;
  array::ArrayDevice device(config);
  bench::CheckOk(device.Start(), "device start");
  core::ArrayDayConfig span = day;
  if (config.ranking == array::Ranking::kMemberAnalyzers) {
    span.span_blocks = device.member_blocks();  // a fleet's day
  }
  core::ArrayDayRunner runner(&device, span);
  const auto start = std::chrono::steady_clock::now();
  std::vector<core::DayMetrics> measured;
  measured.push_back(bench::CheckOk(runner.RunMeasuredDay(), "off day"));
  bench::CheckOk(runner.RearrangeForNextDay(), "rearrange");
  measured.push_back(bench::CheckOk(runner.RunMeasuredDay(), "on day"));
  run.secs = Seconds(start, std::chrono::steady_clock::now());
  run.days.push_back(std::move(measured));
  run.generated = runner.requests_generated();
  return run;
}

DeviceRun RunShardedDays(const Options& opt, std::int32_t shards,
                         std::int32_t threads) {
  array::ArrayConfig config;
  config.level = array::RaidLevel::kRaid0;
  config.members = shards;
  config.chunk_blocks = 1;
  config.spare_slots = 0;
  config.ranking = array::Ranking::kMemberAnalyzers;
  config.threads = threads;
  // The scaling gate runs the engine as shipped for fleet work: adaptive
  // windows + overlapped generation. Bit-identity vs threads=1 (checked
  // by the caller) covers the adaptive planner too, since barriers is
  // part of the fingerprint.
  config.adaptive_epoch = true;

  core::ArrayDayConfig day;
  day.chunk = config.epoch;  // a fleet generates on its barrier grid
  day.seed = 0xE2E5;
  day.synthetic.write_fraction = 0.3;
  if (opt.quick) {
    day.day_length = 4 * kMinute;
    day.synthetic.population = 500;
  } else {
    // One global request stream over one drive's worth of blocks, sized
    // so the fleet as a whole carries shards x a single member's
    // sustainable load — the scenario sharding exists for. Each member
    // then sees roughly the same per-drive traffic at every shard count.
    day.day_length = 3 * kHour;
    day.synthetic.population = 4000;
    day.synthetic.arrivals.mean_burst_gap =
        std::max<Micros>(400 * kMillisecond / shards, 10 * kMillisecond);
    day.synthetic.arrivals.mean_burst_size = 8.0;
  }
  return RunDays(config, day);
}

/// Measurement 3: the sharded fleet engine — one virtual device striped
/// across S member drives, each member's full stack stepped on its own
/// worker thread with the deterministic epoch-barrier merge. For each
/// shard count the same fleet runs at threads=1 and threads=S; the
/// results must be bit-identical (the engine's core contract) and the
/// speedup column records the wall-clock ratio. Unlike replication this
/// parallelizes a single device's day, so it compounds with the fleet's
/// capacity: the enforced floor below is how "toward 10M+ req/s" stays
/// an invariant instead of a hope.
void BenchShardedScaling(const Options& opt,
                         std::vector<bench::BenchMetric>& metrics) {
  bench::Banner("sharded fleet day: threads=1 vs threads=S per shard count");
  const unsigned hw = std::thread::hardware_concurrency();
  double speedup_at_8 = 0;
  for (const std::int32_t shards : {1, 2, 4, 8}) {
    const DeviceRun serial = RunShardedDays(opt, shards, 1);
    const DeviceRun parallel = RunShardedDays(opt, shards, shards);
    if (Fingerprint(serial.days) != Fingerprint(parallel.days) ||
        serial.generated != parallel.generated) {
      std::fprintf(stderr,
                   "FATAL: shards=%d: threads=%d changed the day metrics "
                   "vs threads=1\n",
                   shards, shards);
      std::exit(1);
    }
    const std::int64_t requests = CountRequests(parallel.days);
    bench::BenchMetric m;
    m.name = "e2e_sharded_day_s" + std::to_string(shards);
    m.ns_per_op = parallel.secs * 1e9 / static_cast<double>(requests);
    m.ops_per_sec = static_cast<double>(requests) / parallel.secs;
    m.threads = shards;
    m.speedup = parallel.secs > 0 ? serial.secs / parallel.secs : 0;
    m.kind = "scaling";  // one device partitioned across workers
    if (shards == 8) speedup_at_8 = m.speedup;
    // Coordinator breakdown over the parallel run's measured days: how
    // many barrier windows the adaptive planner ran, and how much wall
    // time the coordinator spent joined on the slowest member vs merging
    // completion lanes at those barriers.
    std::int64_t barriers = 0;
    double stall = 0, merge = 0;
    for (const core::DayMetrics& d : parallel.days[0]) {
      barriers += d.barriers;
      stall += d.barrier_stall_wall;
      merge += d.barrier_merge_wall;
    }
    std::printf(
        "shards=%d %9lld req  threads=1: %.2fs  threads=%d: %.2fs  "
        "(%.2fx, %8.0f req/s)  metrics identical\n"
        "         barriers=%lld  stall=%.3fs  merge=%.3fs\n",
        shards, static_cast<long long>(requests), serial.secs, shards,
        parallel.secs, m.speedup, m.ops_per_sec,
        static_cast<long long>(barriers), stall, merge);
    metrics.push_back(m);
  }

  // The scaling floor: 8 shards must buy at least 5.5x wall-clock on
  // hardware that can actually run 8 workers (the adaptive barriers +
  // offloaded coordinator raised this from the 4x the fixed-epoch engine
  // shipped with). On smaller machines (or in the --quick sanitizer
  // smoke, whose days are too short to time) the check cannot mean
  // anything, so it reports itself skipped instead of crying wolf.
  if (!opt.quick && hw >= 8) {
    if (speedup_at_8 < 5.5) {
      std::fprintf(stderr,
                   "FATAL: sharded day at 8 shards sped up only %.2fx "
                   "(floor 5.5x, %u hardware threads)\n",
                   speedup_at_8, hw);
      std::exit(1);
    }
    std::printf("scaling floor: %.2fx at 8 shards (>= 5.5x enforced)\n",
                speedup_at_8);
  } else {
    std::printf(
        "scaling floor: skipped (%s; measured %.2fx at 8 shards)\n",
        opt.quick ? "--quick" : "fewer than 8 hardware threads",
        speedup_at_8);
  }
}

/// One timed array run on a raid0/raid1 ArrayDevice ranking from device
/// counts, the same shape as the sharded runs.
DeviceRun RunArrayDays(const Options& opt, array::RaidLevel level,
                       std::int32_t members, std::int32_t threads) {
  array::ArrayConfig config;
  config.level = level;
  config.members = members;
  config.threads = threads;
  config.adaptive_epoch = true;  // raid1 exercises the fall-back path

  core::ArrayDayConfig day;
  day.seed = 0xE2EA;
  day.synthetic.write_fraction = 0.3;
  if (opt.quick) {
    day.day_length = 4 * kMinute;
    day.synthetic.population = 500;
  } else {
    day.day_length = 45 * kMinute;
    day.synthetic.population = 4000;
    day.synthetic.arrivals.mean_burst_size = 8.0;
    if (level == array::RaidLevel::kRaid0) {
      // Striping scales capacity; mirroring does not, so raid1 keeps the
      // single-drive arrival rate.
      day.synthetic.arrivals.mean_burst_gap =
          std::max<Micros>(400 * kMillisecond / members, 10 * kMillisecond);
    } else {
      day.synthetic.arrivals.mean_burst_gap = 400 * kMillisecond;
    }
  }

  return RunDays(config, day);
}

/// Measurement 4: the multi-disk array layer. Same protocol as the
/// sharded gate — every shape runs at threads=1 and threads=N and must
/// land on bit-identical day metrics (barrier counts included); the
/// speedup column is informational (member counts here are small).
void BenchArrayScaling(const Options& opt,
                       std::vector<bench::BenchMetric>& metrics) {
  bench::Banner("array day: threads=1 vs threads=N per shape");
  const struct {
    array::RaidLevel level;
    std::int32_t members;
  } shapes[] = {{array::RaidLevel::kRaid0, 1},
                {array::RaidLevel::kRaid0, 2},
                {array::RaidLevel::kRaid0, 4},
                {array::RaidLevel::kRaid1, 2},
                {array::RaidLevel::kRaid1, 4}};
  for (const auto& shape : shapes) {
    const DeviceRun serial =
        RunArrayDays(opt, shape.level, shape.members, 1);
    const DeviceRun parallel =
        RunArrayDays(opt, shape.level, shape.members, shape.members);
    if (Fingerprint(serial.days) != Fingerprint(parallel.days) ||
        serial.generated != parallel.generated) {
      std::fprintf(stderr,
                   "FATAL: %s:%d: threads=%d changed the day metrics vs "
                   "threads=1\n",
                   array::RaidLevelName(shape.level), shape.members,
                   shape.members);
      std::exit(1);
    }
    const std::int64_t requests = CountRequests(parallel.days);
    std::int64_t barriers = 0;
    for (const core::DayMetrics& d : parallel.days[0]) {
      barriers += d.barriers;
    }
    bench::BenchMetric m;
    m.name = std::string("e2e_array_") + array::RaidLevelName(shape.level) +
             "_n" + std::to_string(shape.members);
    m.ns_per_op = parallel.secs * 1e9 / static_cast<double>(requests);
    m.ops_per_sec = static_cast<double>(requests) / parallel.secs;
    m.threads = shape.members;
    m.speedup = parallel.secs > 0 ? serial.secs / parallel.secs : 0;
    m.kind = "scaling";
    std::printf(
        "%s:%d %9lld req  threads=1: %.2fs  threads=%d: %.2fs  "
        "(%.2fx, %8.0f req/s)  barriers=%lld  metrics identical\n",
        array::RaidLevelName(shape.level), shape.members,
        static_cast<long long>(requests), serial.secs, shape.members,
        parallel.secs, m.speedup, m.ops_per_sec,
        static_cast<long long>(barriers));
    metrics.push_back(m);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quick") == 0) {
      opt.quick = true;
      opt.days_per_side = 1;
      opt.replicas = 2;
      opt.jobs = 2;
    } else if (std::strncmp(arg, "--days=", 7) == 0) {
      opt.days_per_side = std::atoi(arg + 7);
    } else if (std::strncmp(arg, "--replicas=", 11) == 0) {
      opt.replicas = std::atoi(arg + 11);
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      opt.jobs = std::atoi(arg + 7);
    } else {
      std::fprintf(stderr,
                   "usage: bench_e2e [--quick] [--days=N] [--replicas=R] "
                   "[--jobs=N]\n");
      return 2;
    }
  }

  std::vector<bench::BenchMetric> metrics;
  BenchSchedulers(opt, metrics);
  BenchReplication(opt, metrics);
  BenchShardedScaling(opt, metrics);
  BenchArrayScaling(opt, metrics);
  bench::EmitJson("e2e", metrics);
  return 0;
}
